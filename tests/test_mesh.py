"""Half-disk triangulation: refinement bookkeeping, boundary tags, quadrature
exactness, submesh extraction, and the canonical text form."""

import functools
import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import pxthin.mesh
import pxthin.sparse
from pxthin import (FeFunction, PreconditionError, ResolutionError, build,
                    extract_halfball_submesh, load_solution, mesh_hash,
                    quadrature_rule, save_mesh, save_solution)
from pxthin.mesh import (_TAG_CHAR, GEOM_TOL, TriMesh, _mesh_chunks,
                         _quad_points, ball_element_mask, on_arc, on_thin_line)
from pxthin.solver import _solution_chunks
from conftest import (_argsort_pattern, csr, edge_slots, looped_bisect_towards_thin,
                      reflect_full_disk)

INTERIOR, ARC, THIN = 0, 1, 2


def mesh_text(mesh):
    # the canonical text whole, as save_mesh writes and mesh_hash hashes it
    return "".join(_mesh_chunks(mesh))


def test_coarsest_mesh_layout():
    mesh = build(0)
    assert mesh.num_vertices == 6
    assert mesh.num_triangles == 4
    # four-triangle fan: area 4 * (1/2) sin(pi/4)
    assert mesh.areas.sum() == pytest.approx(math.sqrt(2.0), rel=1e-15)
    counts = np.bincount(mesh.vertex_tags, minlength=3)
    assert list(counts) == [0, 5, 1]


def test_red_refinement_counts():
    mesh = build(1)
    assert mesh.num_vertices == 15
    assert mesh.num_triangles == 16
    mesh = build(2)
    assert mesh.num_triangles == 64


def test_area_and_moment_converge():
    mesh = build(5)
    assert abs(mesh.areas.sum() - math.pi / 2.0) <= 5e-3
    rule = quadrature_rule(2)
    pts, w = _quad_points(mesh, rule, slice(None)), mesh.quad_weights(rule)
    moment = float((pts[..., 1] * w).sum())
    assert abs(moment - 2.0 / 3.0) <= 1e-2


_graded = functools.lru_cache(maxsize=None)(build)     # one mesh per (level, grading)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2), st.sampled_from((2, 5)),
       st.integers(0, 2 ** 32 - 1))
def test_block_weights_are_the_rows_of_the_whole_mesh_weights(level, grading, order,
                                                               seed):
    # energy, residual, hessian and modular form the weights of their own
    # rows: blocks of 37 elements, the last one ragged, and the scattered
    # rows of an element mask
    mesh = _graded(level, grading)
    rule = quadrature_rule(order)
    whole = mesh.quad_weights(rule)
    # filled a column at a time, the bits of the broadcast product
    assert np.array_equal(whole, rule.weights[None, :] * (2.0 * mesh.areas[:, None]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pxthin.sparse, "_ELEMENT_BLOCK", 37)
        for rows in pxthin.sparse._element_blocks(mesh.num_triangles):
            assert np.array_equal(mesh.quad_weights(rule, rows), whole[rows])
    rows = np.flatnonzero(np.random.default_rng(seed).random(mesh.num_triangles) < 0.5)
    assert np.array_equal(mesh.quad_weights(rule, rows), whole[rows])


def test_h_max_halves_per_level():
    h4 = build(4).h_max
    h5 = build(5).h_max
    assert 1.8 <= h4 / h5 <= 2.2


def test_boundary_tags_match_geometry():
    mesh = build(3)
    radius = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    on_axis = np.abs(mesh.vertices[:, 1]) <= 1e-12
    on_circle = np.abs(radius - 1.0) <= 1e-12
    arc = mesh.vertex_tags == ARC
    thin = mesh.vertex_tags == THIN
    interior = mesh.vertex_tags == INTERIOR
    assert np.all(on_circle[arc])
    # corners (+-1, 0) belong to the arc, every other axis vertex is thin
    assert np.all(on_axis[thin] & ~on_circle[thin])
    assert np.all(~on_axis[interior] & ~on_circle[interior])
    assert np.array_equal(arc, on_circle)


def test_triangles_positively_oriented():
    mesh = build(3)
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) \
        - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    assert np.all(cross > 0.0)
    assert mesh.areas == pytest.approx(0.5 * cross)


def test_quadrature_monomial_exactness():
    # reference-triangle integral of x^a y^b is a! b! / (a+b+2)!
    for order in (2, 5):
        rule = quadrature_rule(order)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                exact = math.factorial(a) * math.factorial(b) \
                    / math.factorial(a + b + 2)
                got = float(np.sum(rule.weights
                                   * rule.points[:, 0] ** a
                                   * rule.points[:, 1] ** b))
                assert got == pytest.approx(exact, abs=1e-14)


def test_unsupported_quadrature_order():
    with pytest.raises(PreconditionError):
        quadrature_rule(3)


def test_grading_refines_near_origin_only():
    plain = build(3)
    graded = build(3, grading=2.0)
    assert graded.num_vertices > plain.num_vertices
    assert graded.h_max == pytest.approx(plain.h_max)
    r_plain = np.hypot(plain.vertices[:, 0], plain.vertices[:, 1])
    r_graded = np.hypot(graded.vertices[:, 0], graded.vertices[:, 1])
    near = 0.25
    assert (r_graded < near).sum() > (r_plain < near).sum()
    assert abs(graded.areas.sum() - plain.areas.sum()) < 2e-2


@pytest.mark.parametrize("grading", [-2, 0.4, 2.6, math.nan])
def test_grading_is_a_whole_count_of_rounds(grading):
    with pytest.raises(PreconditionError, match="whole number >= 0"):
        build(2, grading)


def test_whole_float_grading_builds_the_same_mesh():
    assert mesh_text(build(2, 2.0)) == mesh_text(build(2, 2))


@pytest.mark.parametrize("level", [2.7, 0.5, -1.5, math.nan, math.inf])
def test_level_is_a_whole_number(level):
    # int() would truncate 2.7 to the level-2 mesh
    with pytest.raises(PreconditionError, match="level must be a whole number"):
        build(level)


def test_whole_float_level_builds_the_same_mesh():
    assert build(2).num_vertices == 45
    assert mesh_text(build(2.0)) == mesh_text(build(2))


@pytest.mark.parametrize("center", [(0.0, 0.1), (0.6, 0.0), (-0.6, 0.0)])
def test_halfball_centers_lie_on_the_thin_line_near_the_origin(mesh3, center):
    with pytest.raises(PreconditionError, match=r"thin line with \|x1\| <= 1/2"):
        extract_halfball_submesh(mesh3, center, 0.4)


# a point of another shape or an x1 of nan is no center, and a radius of
# nan or inf no radius: each raises the rule's PreconditionError, where the
# center (0, 0, 7) and the radius inf gave a submesh, and the rest an
# IndexError, a ValueError or a ResolutionError that blamed the mesh
BAD_BALLS = [((0.0, 0.0, 7.0), 0.3), (0.0, 0.3), ([[0.0, 0.0]], 0.3),
             ((math.nan, 0.0), 0.3), ((0.0, 0.0), math.nan), ((0.0, 0.0), math.inf)]


@pytest.mark.parametrize("center, radius", BAD_BALLS)
def test_submesh_rejects_a_malformed_center_or_radius(mesh5, center, radius):
    with pytest.raises(PreconditionError):
        extract_halfball_submesh(mesh5, center, radius)


def test_submesh_extraction_containment_and_tags():
    mesh = build(5)
    sub, vmap = extract_halfball_submesh(mesh, np.array([0.0, 0.0]), 0.3)
    assert np.allclose(sub.vertices, mesh.vertices[vmap])
    radius = np.hypot(sub.vertices[:, 0], sub.vertices[:, 1])
    assert np.max(radius) <= 0.3 + 1e-12
    on_axis = np.abs(sub.vertices[:, 1]) <= 1e-12
    # axis vertices keep the thin tag, the cut boundary becomes Dirichlet arc
    assert np.array_equal(sub.vertex_tags == THIN, on_axis)
    assert sub.num_triangles == 376
    assert sub.num_vertices == 218


def test_submesh_needs_resolution():
    mesh = build(3)
    with pytest.raises((ResolutionError, PreconditionError)):
        extract_halfball_submesh(mesh, np.array([0.0, 0.0]), 0.05)


def test_submesh_center_restricted_to_inner_segment():
    mesh = build(5)
    with pytest.raises(PreconditionError):
        extract_halfball_submesh(mesh, np.array([0.8, 0.0]), 0.1)


def test_mesh_text_is_deterministic():
    assert mesh_text(build(1)) == mesh_text(build(1))
    assert mesh_hash(build(2)) == mesh_hash(build(2))


def test_negative_level_rejected():
    with pytest.raises(PreconditionError):
        build(-1)


hierarchies = st.tuples(st.integers(0, 5), st.integers(0, 2))


@settings(max_examples=30, deadline=None)
@given(hierarchies)
def test_prolongation_rows_sum_to_one(shape):
    level, grading = shape
    mesh = build(level, grading)
    assert mesh.hierarchy[0].prolongation is None
    prolongations = [m.prolongation for m in mesh.hierarchy[1:]]
    assert len(prolongations) == level + grading
    for P in prolongations:
        n_fine, n_coarse = len(P.copies) + len(P.mids), P.n_coarse
        assert np.array_equal(np.asarray(csr(P).sum(axis=1)).ravel(), np.ones(n_fine))
        assert np.array_equal(P @ np.ones(n_coarse), np.ones(n_fine))


@settings(max_examples=30, deadline=None)
@given(hierarchies, st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
def test_prolongation_reproduces_affine_functions_off_the_arc(shape, coeffs):
    # level k's vertices are the first ones of the finest mesh
    mesh = build(*shape)
    a, b, c = coeffs
    affine = a + b * mesh.vertices[:, 0] + c * mesh.vertices[:, 1]
    for P in (m.prolongation for m in mesh.hierarchy[1:]):
        n_fine, n_coarse = len(P.copies) + len(P.mids), P.n_coarse
        off_arc = mesh.vertex_tags[:n_fine] != ARC
        err = np.abs(P @ affine[:n_coarse] - affine[:n_fine])[off_arc]
        assert err.max(initial=0.0) <= 1e-13 * (1.0 + abs(a) + abs(b) + abs(c))


balls = st.tuples(hierarchies, st.floats(-0.5, 0.5),
                  st.floats(0.0, 0.75, exclude_min=True))


@settings(max_examples=40, deadline=None)
@given(balls)
def test_ball_element_mask_is_the_vertex_distance_definition(ball):
    shape, x1, radius = ball
    mesh = build(*shape)
    inside = [math.hypot(x - x1, y) <= radius + GEOM_TOL for x, y in mesh.vertices]
    expected = [all(inside[v] for v in tri) for tri in mesh.triangles]
    assert ball_element_mask(mesh, (x1, 0.0), radius).tolist() == expected


# build(level, grading) once per shape, for the strategy and the test to share
built = functools.cache(build)


@st.composite
def resolved_balls(draw):
    """(shape, x1, radius) with radius in (2 h_max, 0.75], the radii a
    submesh accepts. 2 h_max is at least 1 on levels 0 and 1, so the shapes
    start at level 2, where it is 0.60."""
    shape = draw(st.tuples(st.integers(2, 5), st.integers(0, 2)))
    radius = st.floats(2.0 * built(*shape).h_max, 0.75, exclude_min=True)
    return shape, draw(st.floats(-0.5, 0.5)), draw(radius)


@settings(max_examples=40, deadline=None)
@given(resolved_balls())
def test_submesh_keeps_exactly_the_masked_triangles(ball):
    shape, x1, radius = ball
    mesh = built(*shape)
    mask = ball_element_mask(mesh, (x1, 0.0), radius)
    try:
        sub, vmap = extract_halfball_submesh(mesh, (x1, 0.0), radius)
    except ResolutionError:
        assert mask.sum() < 10
        return
    assert np.array_equal(vmap[sub.triangles], mesh.triangles[mask])


@settings(max_examples=30, deadline=None)
@given(hierarchies)
def test_lazy_prolongations_equal_a_csr_construction(shape):
    # rows of level k + 1: identity on level k's vertices, then 1/2 on the
    # two ends of the edge each new vertex halves; products and restrictions
    # have the bits of the CSR ones
    mesh = build(*shape)
    assert all("prolongation" not in vars(m) for m in mesh.hierarchy)
    x = np.random.default_rng(len(mesh.hierarchy)).standard_normal(mesh.num_vertices)
    for coarse, fine in zip(mesh.hierarchy, mesh.hierarchy[1:]):
        P = csr(fine.prolongation)
        assert fine.below is coarse
        n_coarse, n_fine = coarse.num_vertices, fine.num_vertices
        rows = np.concatenate([np.arange(n_coarse),
                               np.repeat(np.arange(n_coarse, n_fine), 2)])
        cols = np.concatenate([np.arange(n_coarse), fine.parents.ravel()])
        data = np.concatenate([np.ones(n_coarse), np.full(2 * len(fine.parents), 0.5)])
        want = sp.csr_matrix((data, (rows, cols)), shape=(n_fine, n_coarse))
        assert P.shape == want.shape
        assert np.array_equal(P.data, want.data)
        assert np.array_equal(P.indices, want.indices)
        assert np.array_equal(P.indptr, want.indptr)
        assert np.array_equal(fine.prolongation @ x[:n_coarse], want @ x[:n_coarse])
        assert np.array_equal(fine.prolongation.restrict(x[:n_fine]), want.T @ x[:n_fine])
        # each mesh builds its own prolongation once
        assert fine.prolongation is fine.prolongation
    assert all("prolongation" in vars(m) for m in mesh.hierarchy[1:])


@settings(max_examples=20, deadline=None)
@given(hierarchies)
def test_hierarchy_levels_are_the_coarser_builds(shape):
    # level k is the mesh that k refinements (then grading rounds) build, on
    # the first vertices of the finer mesh
    level, grading = shape
    mesh = build(level, grading)
    hierarchy = mesh.hierarchy
    assert len(hierarchy) == level + grading + 1 and hierarchy[-1] is mesh
    assert hierarchy[0].coarser is None
    for k, coarse in enumerate(hierarchy):
        want = build(min(k, level), max(0, k - level))
        assert np.array_equal(coarse.vertices, want.vertices)
        assert np.array_equal(coarse.triangles, want.triangles)
        assert np.array_equal(coarse.vertex_tags, want.vertex_tags)
        assert np.shares_memory(coarse.vertices, mesh.vertices)
        if k + 1 < len(hierarchy):
            assert hierarchy[k + 1].coarser is hierarchy[k]


def _keyed_red_refine(vertices, triangles):
    # the red refinement that numbered its midpoints from its own sorted edge
    # keys and np.unique, before the shared edge list
    nv = len(vertices)
    a, b, c = triangles.T
    ends = np.stack([a, b, b, c, c, a], axis=1).reshape(-1, 2)
    keys = np.sort(ends, axis=1)
    _, first, inverse = np.unique(keys[:, 0] * nv + keys[:, 1],
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ab, bc, ca = (nv + rank[inverse.ravel()]).reshape(-1, 3).T
    parents = keys[first[order]]
    mid = 0.5 * (vertices[parents[:, 0]] + vertices[parents[:, 1]])
    arc_edge = on_arc(vertices)[parents].all(axis=1)
    mid[arc_edge] /= np.hypot(mid[arc_edge, 0], mid[arc_edge, 1])[:, None]
    new_tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                        axis=1).reshape(-1, 3)
    return np.concatenate([vertices, mid]), new_tris, parents


def _unique_submesh_tags(vertices, triangles):
    # the submesh tags from the edges of one triangle, found by np.unique
    # over the sorted edge rows
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    uniq, counts = np.unique(np.sort(edges, axis=1), axis=0, return_counts=True)
    boundary = np.zeros(len(vertices), dtype=bool)
    boundary[uniq[counts == 1].ravel()] = True
    tags = np.zeros(len(vertices), dtype=np.int8)
    thin = on_thin_line(vertices)
    tags[thin] = THIN
    tags[boundary & ~thin] = ARC
    return tags


@st.composite
def refinements(draw):
    """(level, grading, ball): levels 0-6, graded 0-2 up to level 5, and no
    ball or a half-ball (x1, radius) with a radius in (2 h_max, 0.75], which
    checked_radii accepts."""
    level = draw(st.integers(0, 6))
    grading = draw(st.integers(0, 2 if level <= 5 else 0))
    two_h = 2.0 * built(level, grading).h_max
    balls = st.none()
    if two_h < 0.75:
        balls |= st.tuples(st.floats(-0.5, 0.5), st.floats(two_h, 0.75, exclude_min=True))
    return level, grading, draw(balls)


@settings(max_examples=30, deadline=None)
@given(refinements())
def test_refinement_and_submesh_tags_equal_the_keyed_oracles(shape):
    level, grading, ball = shape
    mesh = built(level, grading)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pxthin.mesh, "_red_refine", _keyed_red_refine)
        want = build(level, grading)
    assert np.array_equal(mesh.vertices, want.vertices)
    for got, oracle in zip(mesh.hierarchy, want.hierarchy, strict=True):
        assert np.array_equal(got.parents, oracle.parents)
        assert np.array_equal(got.triangles, oracle.triangles)
    if ball is None:
        return
    try:
        sub, _ = extract_halfball_submesh(mesh, (ball[0], 0.0), ball[1])
    except ResolutionError:
        return
    assert np.array_equal(sub.vertex_tags, _unique_submesh_tags(sub.vertices, sub.triangles))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.integers(0, 4))
def test_grading_rounds_equal_the_looped_oracle(level, grading):
    # the oracle halves edges through a midpoint dict and a loop over
    # elements; the round shares red refinement's edge list and midpoints
    mesh = built(level, grading)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pxthin.mesh, "_bisect_towards_thin", looped_bisect_towards_thin)
        want = build(level, grading)
    assert np.array_equal(mesh.vertices, want.vertices)
    assert np.array_equal(mesh.vertex_tags, want.vertex_tags)
    for got, oracle in zip(mesh.hierarchy, want.hierarchy, strict=True):
        assert np.array_equal(got.parents, oracle.parents)
        assert np.array_equal(got.triangles, oracle.triangles)


def test_a_sweep_splits_an_element_at_its_first_halved_edge():
    # build's meshes never leave an element two halved edges at once; here
    # the two lower elements, which touch the thin line, halve the edges ab
    # and ca of the V-shaped element above them
    vertices = np.array([(0.0, 0.1), (1.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (-1.0, 0.0)])
    triangles = np.array([(0, 1, 2), (0, 3, 1), (0, 2, 4)], dtype=np.int32)
    got = pxthin.mesh._bisect_towards_thin(vertices, triangles)
    want = looped_bisect_towards_thin(vertices, triangles)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)
    # ab first, then the child's ca: (c, a, m_ab) -> (m_ab, c, m_ca), ...
    assert got[1][:3].tolist() == [[5, 2, 6], [5, 6, 0], [2, 5, 1]]


@pytest.mark.parametrize("grading", range(5))
@pytest.mark.parametrize("level", range(6))
def test_every_boundary_vertex_is_arc_or_thin(level, grading):
    # the Dirichlet data covers the whole arc: a vertex of an edge that one
    # element holds is Arc or Thin, and exactly the vertices on the circle
    # are Arc, grading rounds' arc midpoints among them
    mesh = built(level, grading)
    lo, hi, edge = pxthin.sparse._distinct_edges(mesh.triangles, mesh.num_vertices)
    single = np.bincount(edge.ravel(), minlength=len(lo)) == 1
    boundary = np.unique(np.concatenate([lo[single], hi[single]]))
    assert np.all(mesh.vertex_tags[boundary] != INTERIOR)
    assert np.array_equal(mesh.vertex_tags == ARC, on_arc(mesh.vertices))


def test_a_hierarchy_that_does_not_chain_is_rejected():
    mesh = build(2, 1)
    args = mesh.vertices, mesh.triangles, mesh.vertex_tags
    coarser, parents = mesh.coarser, mesh.parents
    bad = [(coarser, parents[:-1]),                 # fewer parents than new vertices
           (coarser.coarser, parents),              # more new vertices than parents
           (coarser, parents + coarser.num_vertices),  # a parent beyond it
           (coarser, parents.ravel()),              # not (new vertices, 2)
           (coarser, parents.reshape(-1, 1)),
           (coarser, parents - 1),                  # a negative parent
           (None, parents)]                         # parents of no coarser mesh
    for chain in bad:
        with pytest.raises(PreconditionError, match="do not chain"):
            TriMesh(*args, *chain)
    same = TriMesh(*args, coarser, parents)
    assert (csr(same.prolongation) != csr(mesh.prolongation)).nnz == 0


def test_meshes_made_outside_build_have_no_hierarchy():
    mesh = build(3)
    plain = TriMesh(mesh.vertices, mesh.triangles, mesh.vertex_tags)
    sub, _ = extract_halfball_submesh(mesh, (0.0, 0.0), 0.5)
    disk, _ = reflect_full_disk(FeFunction(mesh, np.zeros(mesh.num_vertices)))
    for flat in (plain, sub, disk):
        assert flat.coarser is None and flat.hierarchy == (flat,)
    for flat in (plain, disk):
        assert flat.below is None and flat.prolongation is None
    # a half-ball submesh steps to the coarse triangles that hold its own,
    # cut from the coarser mesh of its source, through the source's
    # prolongation rows at its vertices
    below = sub.below
    assert sub.source is mesh and below.source is mesh.coarser
    rows = csr(mesh.prolongation)[sub.vertex_map]
    want = rows[:, below.vertex_map]
    assert want.nnz == rows.nnz and (csr(sub.prolongation) != want).nnz == 0
    coarse_triangles = {tuple(t) for t in np.sort(mesh.coarser.triangles, axis=1)}
    assert {tuple(t) for t in np.sort(below.vertex_map[below.triangles], axis=1)} \
        <= coarse_triangles


def _loop_mesh_text(mesh):
    # the per-row loop over numpy scalars that the joined writer replaced
    lines = [f"m {mesh.num_vertices} {mesh.num_triangles}"]
    for v, tag in zip(mesh.vertices, mesh.vertex_tags):
        lines.append(f"v {v[0]:.17g} {v[1]:.17g} {_TAG_CHAR[int(tag)]}")
    for a, b, c in mesh.triangles:
        lines.append(f"t {a} {b} {c}")
    return "\n".join(lines) + "\n"


def _loop_solution_text(u, mesh):
    lines = [f"s {mesh_hash(mesh)} {len(u.values)}"]
    for i, val in enumerate(u.values):
        lines.append(f"u {i} {val:.17g}")
    return "\n".join(lines) + "\n"


_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e300,
                -1e300, 1.7976931348623157e308, 1.0 / 3.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2),
       st.lists(st.sampled_from(_EDGE_VALUES)
                | st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_text_writers_equal_the_row_loops(level, grading, special):
    mesh = build(level, grading)
    assert mesh_text(mesh) == _loop_mesh_text(mesh)
    rng = np.random.default_rng(level * 3 + grading)
    values = rng.standard_normal(mesh.num_vertices)
    k = min(len(special), mesh.num_vertices)
    values[rng.choice(mesh.num_vertices, k, replace=False)] = special[:k]
    u = FeFunction(mesh, values)
    assert "".join(_solution_chunks(u)) == _loop_solution_text(u, mesh)


def test_saved_files_and_the_hash_are_the_streamed_text(tmp_path, monkeypatch):
    # chunks of 7 rows, so each file is written and hashed in several pieces
    monkeypatch.setattr(pxthin.mesh, "TEXT_CHUNK", 7)
    mesh = build(2, 1)
    save_mesh(mesh, tmp_path / "mesh.txt")
    data = (tmp_path / "mesh.txt").read_bytes()
    assert data == _loop_mesh_text(mesh).encode("ascii")
    assert mesh.digest == hashlib.sha256(data).hexdigest() == mesh_hash(build(2, 1))
    u = FeFunction(mesh, np.random.default_rng(3).standard_normal(mesh.num_vertices))
    save_solution(u, tmp_path / "u.txt")
    assert (tmp_path / "u.txt").read_bytes() == _loop_solution_text(u, mesh).encode("ascii")
    assert np.array_equal(load_solution(tmp_path / "u.txt", mesh).values, u.values)


def test_mesh_text_writes_signed_zeros_and_subnormals_like_the_loop():
    mesh = TriMesh([(-0.0, 5e-324), (1.0, -0.0), (-1e-300, 1.0)], [(0, 1, 2)],
                   [1, 2, 0])
    assert mesh_text(mesh) == _loop_mesh_text(mesh)
    assert "v -0 4.9406564584124654e-324 a\n" in mesh_text(mesh)


@settings(max_examples=18, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2))
def test_p1_pattern_equals_the_unique_construction(level, grading):
    mesh = build(level, grading)
    n = mesh.num_vertices
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    keys = np.unique(rows * n + cols)
    got = mesh.p1_pattern
    counts = np.bincount(keys // n, minlength=n)
    assert np.array_equal(got.counts, counts)
    assert got.width == counts.max()
    # the entries in row-major order are the distinct keys; slot k of a row
    # holds its k-th column, the unused slots repeat the row
    got_rows, got_cols, pos = got.entries()
    order = np.lexsort((got_cols, got_rows))
    assert np.array_equal(got_rows[order] * n + got_cols[order], keys)
    slots = np.arange(len(keys)) - (np.cumsum(counts) - counts)[keys // n]
    assert np.array_equal(pos[order] // n, slots)
    unused = np.arange(got.width)[:, None] >= counts
    assert np.array_equal(got.cols[unused], np.broadcast_to(np.arange(n), got.cols.shape)[unused])
    upper, lower = edge_slots(mesh.triangles, _argsort_pattern(mesh.triangles, n)[3])
    assert np.array_equal(got.upper[got.edge], upper)
    assert np.array_equal(got.lower[got.edge], lower)
    assert np.array_equal(got.cols.ravel()[got.diagonal], np.arange(n))


@settings(max_examples=18, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2))
def test_geometry_predicates_keep_the_tags_and_the_reflected_interior(level, grading):
    # the inline expressions the shared predicates replaced
    mesh = build(level, grading)
    x = mesh.vertices
    arc = np.abs(np.sqrt(np.einsum("ij,ij->i", x, x)) - 1.0) <= 1e-12
    thin = (x[:, 1] <= 1e-12) & ~arc
    tags = np.zeros(len(x), dtype=np.int8)
    tags[arc] = ARC
    tags[thin] = THIN
    assert np.array_equal(mesh.vertex_tags, tags)
    full_mesh, _ = reflect_full_disk(FeFunction(mesh, np.zeros(len(x))))
    y = full_mesh.vertices
    assert np.array_equal(full_mesh.vertex_tags != ARC,
                          np.hypot(y[:, 0], y[:, 1]) < 1.0 - 1e-12)
