"""The numpy kernels on the P1 pattern against scipy.sparse as the oracle:
products with the same bits, and truncated Galerkin operators to round-off."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pxthin import (EnergySetup, PreconditionError, ResolutionError, build,
                    extract_halfball_submesh, hessian)
from pxthin.sparse import P1Pattern, galerkin
from conftest import FAMILIES, _argsort_pattern, csr, edge_slots

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
