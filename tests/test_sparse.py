"""The numpy kernels on the P1 pattern against scipy.sparse as the oracle:
products with the same bits, and truncated Galerkin operators to round-off;
the compact Galerkin map, the edge list and the prolongation record against
the constructions they replaced, bit for bit."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pxthin import (EnergySetup, PreconditionError, ResolutionError, TriMesh, build,
                    extract_halfball_submesh, hessian)
from pxthin.mesh import _red_refine
from pxthin.sparse import P1Pattern, _distinct_edges, galerkin, galerkin_map
from conftest import (FAMILIES, _argsort_pattern, bincount_galerkin, csr, edge_slots,
                      flat_galerkin_map, held_nbytes, weighted, weighted_prolongation)

# a mesh of levels 1-5 and gradings 0-2, or a half-ball submesh (x1, r) of it
meshes = st.tuples(st.integers(1, 5), st.integers(0, 2),
                   st.none() | st.tuples(st.floats(-0.5, 0.5), st.floats(0.25, 0.75)))


def _mesh(shape):
    level, grading, ball = shape
    mesh = build(level, grading)
    if ball is None:
        return mesh
    try:
        return extract_halfball_submesh(mesh, (ball[0], 0.0), ball[1])[0]
    except (PreconditionError, ResolutionError):    # a ball the mesh cannot resolve
        assume(False)


def _hessian(mesh, field, seed):
    rng = np.random.default_rng(seed)
    setup = EnergySetup(mesh, field).with_epsilon(1e-4)
    return hessian(setup, rng.standard_normal(mesh.num_vertices)), rng


@settings(max_examples=40, deadline=None)
@given(meshes, st.sampled_from(FAMILIES), st.floats(0.0, 0.9), st.integers(0, 2 ** 32 - 1))
def test_matvec_has_the_bits_of_the_csr_product(shape, field, zeros, seed):
    mesh = _mesh(shape)
    H, rng = _hessian(mesh, field, seed)
    x = rng.standard_normal(mesh.num_vertices)
    x[rng.random(mesh.num_vertices) < zeros] = 0.0
    assert np.array_equal(H @ x, csr(H) @ x)


@settings(max_examples=40, deadline=None)
@given(meshes, st.sampled_from(FAMILIES), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_truncated_galerkin_operator_equals_the_csr_product(shape, field, share, seed):
    mesh = _mesh(shape)
    H, rng = _hessian(mesh, field, seed)
    kept = rng.random(mesh.num_vertices) < share
    P = mesh.prolongation
    coarse = mesh.below
    # coarse vertex I is kept with its own fine vertex: the first ones of the
    # mesh, or of the submesh's source, whose coarser mesh holds `below`
    if mesh.source is None:
        own = np.arange(mesh.num_vertices)
        is_coarse = own < coarse.num_vertices
        index = own[is_coarse]
    else:
        own = mesh.vertex_map
        is_coarse = own < mesh.source.coarser.num_vertices
        index = np.searchsorted(coarse.vertex_map, own[is_coarse])
        assert np.array_equal(coarse.vertex_map[index], own[is_coarse])
    kept_coarse = np.zeros(coarse.num_vertices, dtype=bool)
    kept_coarse[index] = kept[is_coarse]
    assert np.array_equal(P.coarse_kept(kept), kept_coarse)

    A = csr(H)[kept][:, kept]
    Pk = csr(P)[kept][:, kept_coarse]
    want = (Pk.T @ A @ Pk).toarray()
    got = csr(galerkin(H, kept, P, mesh.coarse_map, coarse.p1_pattern))
    got = got[kept_coarse][:, kept_coarse].toarray()
    assert np.abs(got - want).max(initial=0.0) <= 1e-14 * np.abs(want).max(initial=0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2),
       st.none() | st.tuples(st.floats(-0.5, 0.5), st.floats(0.25, 0.75)),
       st.booleans(), st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
def test_edge_built_pattern_equals_the_argsort_oracle(level, grading, ball, below,
                                                       dropped, seed):
    # on a mesh, a half-ball submesh or its `below` cut, with a share of the
    # triangles dropped so that some rows are empty
    mesh = _mesh((level, grading, ball))
    if below:
        assume(mesh.below is not None)
        mesh = mesh.below
    keep = np.random.default_rng(seed).random(mesh.num_triangles) >= dropped
    triangles, n = mesh.triangles[keep], mesh.num_vertices
    pattern = P1Pattern(triangles, n)
    counts, cols, diagonal, scatter, width = _argsort_pattern(triangles, n)
    assert pattern.width == width
    assert np.array_equal(pattern.counts, counts)
    assert np.array_equal(pattern.cols, cols)
    assert np.array_equal(pattern.diagonal, diagonal)
    # one edge per pair of off-diagonal entries, found at the oracle's slots
    assert 2 * len(pattern.upper) == counts.sum() - len(np.unique(triangles))
    upper, lower = edge_slots(triangles, scatter)
    assert np.array_equal(pattern.upper[pattern.edge], upper)
    assert np.array_equal(pattern.lower[pattern.edge], lower)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2),
       st.none() | st.tuples(st.floats(-0.5, 0.5), st.floats(0.25, 0.75)),
       st.booleans(), st.sampled_from(FAMILIES), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_compact_galerkin_map_gives_the_bits_of_the_flat_positions(level, grading, ball,
                                                                    below, field, share,
                                                                    seed):
    # on a mesh, a half-ball submesh, or the `below` cut of either
    mesh = _mesh((level, grading, ball))
    if below:
        mesh = mesh.below
    assume(mesh.below is not None)
    H, rng = _hessian(mesh, field, seed)
    kept = rng.random(mesh.num_vertices) < share
    P, coarse = mesh.prolongation, mesh.below.p1_pattern
    want = bincount_galerkin(H, kept, P, flat_galerkin_map(mesh.p1_pattern, P, coarse), coarse)
    assert np.array_equal(galerkin(H, kept, P, mesh.coarse_map, coarse).values, want)


# -0.0, subnormals and magnitudes near the largest float
_AWKWARD = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1e-315, 1e300, -1e300,
                     1.7e308, -1.7e308])


def _awkward(rng, n):
    """n finite values, about half of them drawn from _AWKWARD and the rest
    of random sign and magnitude."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    pick = rng.random(n) < 0.5
    x[pick] = rng.choice(_AWKWARD, int(pick.sum()))
    return x


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2),
       st.none() | st.tuples(st.floats(-0.5, 0.5), st.floats(0.25, 0.75)),
       st.booleans(), st.sampled_from(FAMILIES), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_prolongation_record_gives_the_bits_of_the_weights(level, grading, ball, below,
                                                           field, share, seed):
    # on a refined or graded mesh, a half-ball submesh, or the `below` cut of
    # either, against the (ends, weights) class it replaced, built the way
    # the mesh built it
    mesh = _mesh((level, grading, ball))
    if below:
        mesh = mesh.below
    assume(mesh.below is not None)
    P, oracle = mesh.prolongation, weighted_prolongation(mesh)
    assert np.array_equal(weighted(P).ends, oracle.ends)
    n = mesh.num_vertices
    assert np.array_equal(P.ends(np.arange(n)), oracle.ends)
    rng = np.random.default_rng(seed)
    x, r = _awkward(rng, P.n_coarse), _awkward(rng, n)
    assert _same_bits(P @ x, oracle @ x)
    with np.errstate(over="ignore"):      # sums of the largest values reach inf
        assert _same_bits(P.restrict(r), oracle.restrict(r))
    kept = rng.random(n) < share
    assert np.array_equal(P.coarse_kept(kept), oracle.coarse_kept(kept))
    # the compact map at the oracle's flat positions, and the operator
    fine, coarse = mesh.p1_pattern, mesh.below.p1_pattern
    flat = flat_galerkin_map(fine, oracle, coarse)
    gmap = galerkin_map(fine, P, coarse).astype(np.int64)
    rows = oracle.ends.T[:, None, None, :]
    assert np.array_equal(np.where(gmap == coarse.width, coarse.width * coarse.n,
                                   gmap * coarse.n + rows), flat)
    H, _ = _hessian(mesh, field, seed)
    assert _same_bits(galerkin(H, kept, P, mesh.coarse_map, coarse).values,
                      bincount_galerkin(H, kept, oracle, flat, coarse))


def _unique_edges(triangles, n):
    """(lo, hi, edge) of the distinct undirected edges by one
    np.unique(return_inverse=True) of the 3 nt edge keys."""
    ends = triangles[:, [0, 1, 0]].astype(np.int64), triangles[:, [1, 2, 2]].astype(np.int64)
    keys, edge = np.unique((np.minimum(*ends) * n + np.maximum(*ends)).ravel(),
                           return_inverse=True)
    lo, hi = np.divmod(keys, n)
    return lo, hi, edge.reshape(-1, 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_distinct_edges_equal_the_unique_oracle(level, grading, dropped, seed):
    # with a share of the triangles dropped, down to none at all
    mesh = build(level, grading)
    keep = np.random.default_rng(seed).random(mesh.num_triangles) >= dropped
    for triangles in (mesh.triangles[keep], mesh.triangles[:0]):
        lo, hi, edge = _distinct_edges(triangles, mesh.num_vertices)
        want = _unique_edges(triangles, mesh.num_vertices)
        for got, oracle in zip((lo, hi, edge), want):
            assert np.array_equal(got, oracle)
        assert edge.dtype == np.int32 and edge.shape == (len(triangles), 3)
        assert lo.dtype == hi.dtype == triangles.dtype


def _fan(spokes):
    """A fan of `spokes` triangles about the origin over the half-disk and its
    red refinement, linked to it as its coarser mesh: the centre row of the
    fan has spokes + 2 entries."""
    angles = np.pi * np.arange(spokes + 1) / spokes
    vertices = np.concatenate([[(0.0, 0.0)], np.stack([np.cos(angles), np.sin(angles)], axis=1)])
    vertices[:, 1] = np.maximum(vertices[:, 1], 0.0)
    triangles = np.stack([np.zeros(spokes, dtype=int), 1 + np.arange(spokes),
                          2 + np.arange(spokes)], axis=1)
    coarse = TriMesh(vertices, triangles)
    vertices, triangles, parents = _red_refine(coarse.vertices, coarse.triangles)
    return TriMesh(vertices, triangles, coarser=coarse, parents=parents)


@pytest.mark.parametrize("shape", [(4, 0, None), (3, 2, None), (5, 2, (0.1, 0.5)),
                                   "fan"])
def test_hierarchy_index_arrays_stay_narrow(shape):
    # vertex and edge ids in int32, Galerkin slots in the narrowest unsigned
    # type that holds the coarse width, the "no term" slot; graded meshes
    # reach width 9, and a fan of 300 triangles width 302, which needs two bytes
    mesh = _fan(300) if shape == "fan" else _mesh(shape)
    fine = mesh
    widths = []
    while fine.below is not None:
        coarse = fine.below.p1_pattern
        widths.append(coarse.width)
        assert fine.triangles.dtype == fine.parents.dtype == np.int32
        # one record of the refinement: a refined mesh's midpoint ends are
        # its parents, in place, and no prolongation holds a float array
        P = fine.prolongation
        assert fine.source is not None or np.shares_memory(P.mids, fine.parents)
        assert all(a.dtype.kind in "iu" for a in vars(P).values()
                   if isinstance(a, np.ndarray))
        # the copy rows, a coarse vertex twice, come first on every mesh
        ends = weighted_prolongation(fine).ends
        assert np.array_equal(ends[:, 0] == ends[:, 1],
                              np.arange(len(ends)) < len(P.copies))
        pattern = fine.p1_pattern
        assert pattern.edge.dtype == pattern.upper.dtype == pattern.lower.dtype == np.int32
        gmap = fine.coarse_map
        assert gmap.dtype == (np.uint8 if coarse.width < 256 else np.uint16)
        assert np.iinfo(gmap.dtype).max >= coarse.width
        assert gmap.max() <= coarse.width
        fine = fine.below
    assert max(widths) == {(4, 0, None): 7, "fan": 302}.get(shape, 9)
    if shape == "fan":
        H, rng = _hessian(mesh, FAMILIES[1], 0)
        kept = rng.random(mesh.num_vertices) < 0.8
        P, coarse = mesh.prolongation, mesh.below.p1_pattern
        want = bincount_galerkin(H, kept, P, flat_galerkin_map(mesh.p1_pattern, P, coarse), coarse)
        assert np.array_equal(galerkin(H, kept, P, mesh.coarse_map, coarse).values, want)


def test_the_transfer_arrays_of_a_hierarchy_stay_within_a_per_vertex_bound(mesh6):
    # the prolongations of an L6 hierarchy and the meshes' parents: 10.8
    # bytes per fine vertex (the int32 parents, which the prolongations read
    # in place, and their copy rows); 59.1 with int64 (ends, weights) pairs
    # beside int64 parents. The bound leaves about 10 % margin
    prolongations = [m.prolongation for m in mesh6.hierarchy[1:]]
    parents = SimpleNamespace(parents=[m.parents for m in mesh6.hierarchy])
    assert held_nbytes(*prolongations, parents) <= 12 * mesh6.num_vertices
