"""Energy, residual and Hessian assembly.  The three must be consistent as
derivatives of each other; that is what the finite-difference probes pin."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import pxthin.sparse
from pxthin import (EnergySetup, ExponentField, PreconditionError, build,
                    energy, hessian, residual)
from pxthin.energy import ASSEMBLY_ORDER
from pxthin.mesh import TriMesh, _quad_points, quadrature_rule
from pxthin.sparse import galerkin
from pxthin.solver import EPS_SCHEDULE
from conftest import FAMILIES, _argsort_pattern, csr, held_nbytes, traced_peak


def _random_state(mesh, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(mesh.num_vertices)


def test_quadratic_energy_is_exact(mesh3, p2):
    # |D x2| = 1 on every element, so the p = 2 energy is exactly area/2
    setup = EnergySetup(mesh3, p2)
    v = mesh3.vertices[:, 1].copy()
    assert energy(setup, v) == mesh3.areas.sum() / 2.0


def test_quartic_energy_of_linear_function(mesh3):
    setup = EnergySetup(mesh3, ExponentField("constant", [4.0]))
    v = mesh3.vertices[:, 0].copy()
    assert energy(setup, v) == pytest.approx(mesh3.areas.sum() / 4.0, rel=1e-14)


def test_energy_of_zero_state_is_zero(mesh3, sin_field):
    setup = EnergySetup(mesh3, sin_field)
    assert energy(setup, np.zeros(mesh3.num_vertices)) == 0.0


def test_smoothing_never_lowers_the_energy(mesh3, sin_field):
    # (|g|^2 + eps^2)^{p/2} >= |g|^p pointwise
    base = EnergySetup(mesh3, sin_field)
    smoothed = base.with_epsilon(1e-2)
    for seed in range(5):
        v = _random_state(mesh3, seed)
        assert energy(smoothed, v) >= energy(base, v)


def test_with_epsilon_shares_the_mesh_caches(mesh3, sin_field):
    base = EnergySetup(mesh3, sin_field)
    smoothed = base.with_epsilon(1e-3)
    assert smoothed.mesh is base.mesh
    assert smoothed.epsilon == 1e-3
    assert base.epsilon == 0.0


def test_a_setup_holds_p_only(mesh5, sin_field):
    # p at the 3 assembly points of each element; the weights are formed
    # per block by each pass, so a setup holds no (nt, 3) weights
    setup = EnergySetup(mesh5, sin_field).with_epsilon(1e-3)
    assert held_nbytes(setup) == 24 * mesh5.num_triangles


def test_residual_matches_energy_differences(mesh3, sin_field):
    # centered differences of the energy along random directions
    setup = EnergySetup(mesh3, sin_field).with_epsilon(1e-2)
    rng = np.random.default_rng(99)
    v = _random_state(mesh3, 1)
    r = residual(setup, v)
    t = 1e-6
    worst = 0.0
    for _ in range(20):
        d = rng.standard_normal(v.size)
        fd = (energy(setup, v + t * d) - energy(setup, v - t * d)) / (2.0 * t)
        exact = float(r @ d)
        worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    assert worst <= 1e-6


def test_hessian_matches_residual_differences(mesh3, sin_field):
    setup = EnergySetup(mesh3, sin_field).with_epsilon(1e-2)
    rng = np.random.default_rng(7)
    v = _random_state(mesh3, 2)
    H = hessian(setup, v)
    t = 1e-6
    for _ in range(10):
        d = rng.standard_normal(v.size)
        fd = (residual(setup, v + t * d) - residual(setup, v - t * d)) / (2.0 * t)
        exact = H @ d
        denom = max(1.0, float(np.linalg.norm(exact)))
        assert np.linalg.norm(fd - exact) / denom <= 1e-4


def test_hessian_is_exactly_symmetric(mesh3, sin_field):
    setup = EnergySetup(mesh3, sin_field).with_epsilon(1e-2)
    H = csr(hessian(setup, _random_state(mesh3, 3)))
    assert abs(H - H.T).max() == 0.0


def test_hessian_is_positive_semidefinite(mesh3, sin_field):
    # the energy is convex for exponents above 1, so d H d >= 0
    setup = EnergySetup(mesh3, sin_field).with_epsilon(1e-2)
    v = _random_state(mesh3, 4)
    H = hessian(setup, v)
    rng = np.random.default_rng(12)
    for _ in range(20):
        d = rng.standard_normal(v.size)
        assert float(d @ (H @ d)) >= -1e-10 * float(d @ d)


def test_hessian_requires_positive_epsilon(mesh3, sin_field):
    setup = EnergySetup(mesh3, sin_field)
    with pytest.raises(PreconditionError):
        hessian(setup, np.zeros(mesh3.num_vertices))


def test_residual_of_harmonic_interior(mesh4, p2):
    # p = 2, v = x2: the interior residual vanishes by exact Galerkin
    # orthogonality of the linear function
    setup = EnergySetup(mesh4, p2)
    v = mesh4.vertices[:, 1].copy()
    r = residual(setup, v)
    interior = mesh4.vertex_tags == 0
    assert np.max(np.abs(r[interior])) <= 1e-14


def test_state_shape_is_validated(mesh3, p2):
    setup = EnergySetup(mesh3, p2)
    with pytest.raises(PreconditionError):
        energy(setup, np.zeros(mesh3.num_vertices + 2))


def _whole_mesh_w(setup):
    # the assembly weights of every element, as the setup once held them
    return setup.mesh.quad_weights(quadrature_rule(ASSEMBLY_ORDER))


def _coo_hessian(setup, v):
    # the element-by-element COO assembly the cached CSR pattern replaced
    mesh = setup.mesh
    vals = v[mesh.triangles]
    g = np.einsum("ti,tid->td", vals, mesh.grads)
    s = (g ** 2).sum(axis=1)[:, None] + setup.epsilon ** 2
    p = setup.quad_p
    a = s ** (0.5 * (p - 2.0))
    w = _whole_mesh_w(setup)
    c1 = (w * a).sum(axis=1)
    c2 = (w * a * (p - 2.0) / s).sum(axis=1)
    G = mesh.grads
    Gg = np.einsum("tid,td->ti", G, g)
    K = (c1[:, None, None] * np.einsum("tid,tjd->tij", G, G)
         + c2[:, None, None] * np.einsum("ti,tj->tij", Gg, Gg))
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.num_vertices
    return sp.coo_matrix((K.ravel(), (rows, cols)), shape=(n, n)).tocsr()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2), st.sampled_from(FAMILIES),
       st.sampled_from((1e-2, 1e-5, 1e-8)), st.integers(0, 2 ** 32 - 1))
def test_cached_pattern_hessian_matches_coo_assembly(level, grading, field, eps, seed):
    mesh = build(level, grading)
    setup = EnergySetup(mesh, field).with_epsilon(eps)
    v = _random_state(mesh, seed)
    H = csr(hessian(setup, v))
    ref = _coo_hessian(setup, v)
    ref.sum_duplicates()
    assert np.array_equal(H.indptr, ref.indptr)
    assert np.array_equal(H.indices, ref.indices)
    assert np.abs(H.data - ref.data).max() <= 1e-13 * np.abs(ref.data).max()


# The einsum and axis-sum formulas the unrolled assembly replaced; the
# unrolled adds must give the same bits.

def _whole_mesh_quad_p(setup):
    rule = quadrature_rule(ASSEMBLY_ORDER)
    pts, w = _quad_points(setup.mesh, rule, slice(None)), setup.mesh.quad_weights(rule)
    return setup.field.eval(pts.reshape(-1, 2)).reshape(w.shape)


def _einsum_parts(setup, v):
    mesh = setup.mesh
    g = np.einsum("ti,tid->td", v[mesh.triangles], mesh.grads)
    return g, (g ** 2).sum(axis=1)[:, None] + setup.epsilon ** 2


def _einsum_energy(setup, v):
    _, s = _einsum_parts(setup, v)
    p = setup.quad_p
    dens = np.where(s > 0.0, np.where(s > 0.0, s, 1.0) ** (0.5 * p) / p, 0.0)
    return float((_whole_mesh_w(setup) * dens).sum(axis=1).sum())


def _einsum_residual(setup, v):
    mesh = setup.mesh
    g, s = _einsum_parts(setup, v)
    p = setup.quad_p
    a = np.where(s > 0.0, np.where(s > 0.0, s, 1.0) ** (0.5 * (p - 2.0)), 0.0)
    c1 = (_whole_mesh_w(setup) * a).sum(axis=1)
    local = c1[:, None] * np.einsum("td,tid->ti", g, mesh.grads)
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.num_vertices)


def _einsum_hessian_data(setup, v):
    mesh = setup.mesh
    g, s = _einsum_parts(setup, v)
    p = setup.quad_p
    a = s ** (0.5 * (p - 2.0))
    w = _whole_mesh_w(setup)
    c1 = (w * a).sum(axis=1)
    c2 = (w * a * (p - 2.0) / s).sum(axis=1)
    G = mesh.grads
    Gg = np.einsum("tid,td->ti", G, g)
    K = (c1[:, None, None] * np.einsum("tid,tjd->tij", G, G)
         + c2[:, None, None] * np.einsum("ti,tj->tij", Gg, Gg))
    n = mesh.num_vertices
    *_, scatter, width = _argsort_pattern(mesh.triangles, n)
    return np.bincount(scatter, weights=K.ravel(), minlength=width * n)


@functools.lru_cache(maxsize=None)
def _setup(level, grading, family):
    return EnergySetup(build(level, grading), FAMILIES[family])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2), st.integers(0, len(FAMILIES) - 1),
       st.sampled_from((0.0,) + EPS_SCHEDULE), st.floats(0.0, 0.95),
       st.integers(-3, 3), st.integers(0, 2 ** 32 - 1))
def test_unrolled_assembly_is_bit_identical_to_einsum(level, grading, family, eps,
                                                      zeros, scale, seed):
    # blocks of 37 triangles: every mesh from level 2 up spans several, the
    # last one ragged, where L5's 4,096 triangles fill one default block
    setup = _setup(level, grading, family).with_epsilon(eps)
    rng = np.random.default_rng(seed)
    n = setup.mesh.num_vertices
    v = 10.0 ** scale * rng.standard_normal(n)
    v[rng.random(n) < zeros] = 0.0          # whole elements at slope 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pxthin.sparse, "_ELEMENT_BLOCK", 37)
        assert np.array_equal(EnergySetup(setup.mesh, setup.field).quad_p,
                              _whole_mesh_quad_p(setup))
        assert energy(setup, v) == _einsum_energy(setup, v)
        assert np.array_equal(residual(setup, v), _einsum_residual(setup, v))
        if eps > 0.0:
            assert np.array_equal(hessian(setup, v).values.ravel(),
                                  _einsum_hessian_data(setup, v))


def test_assembly_transients_stay_within_a_per_triangle_bound(mesh6, sin_field):
    # measured at L6: 92 bytes per triangle for the pattern's build (183 with
    # one np.unique of the edge keys, 253 with one argsort of the 9 nt entry
    # keys) and 61 held by the pattern (85 with int64 edge ids and slot
    # positions, 109 with a nine-per-triangle scatter map), 81 for one
    # Hessian (236 over the whole mesh at once), 49 for the coarse-operator
    # map's build (45 reading held int64 prolongation ends, 120 with int32
    # flat positions built over all fine rows at once), 14.3 for the map
    # itself (57) and 58 for one Galerkin operator
    # (76); the bounds leave about 10 to 25 % margin
    nt = mesh6.num_triangles
    mesh6.coarser.p1_pattern
    assert traced_peak(TriMesh.p1_pattern.func, mesh6) <= 110 * nt
    held = vars(mesh6.p1_pattern).values()
    assert sum(a.nbytes for a in held if isinstance(a, np.ndarray)) <= 70 * nt
    mesh6.prolongation
    assert traced_peak(TriMesh.coarse_map.func, mesh6) <= 55 * nt
    assert mesh6.coarse_map.nbytes <= 16 * nt
    setup = EnergySetup(mesh6, sin_field).with_epsilon(1e-3)
    v = _random_state(mesh6, 0)
    assert traced_peak(hessian, setup, v) <= 100 * nt
    H = hessian(setup, v)
    kept = np.random.default_rng(1).random(mesh6.num_vertices) < 0.9
    assert traced_peak(galerkin, H, kept, mesh6.prolongation, mesh6.coarse_map,
                       mesh6.coarser.p1_pattern) <= 70 * nt


def test_hessian_temporaries_do_not_grow_with_the_mesh(mesh6, mesh7, sin_field):
    # the elements are assembled a block at a time, so beside its result a
    # Hessian holds the same 0.86 MB at L6 and L7 (13.6 MB at L7 over the
    # whole mesh at once); 4 KiB leave room for a few Python objects
    def transient(mesh):
        setup = EnergySetup(mesh, sin_field).with_epsilon(1e-3)
        v = _random_state(mesh, 0)
        mesh.p1_pattern
        result = hessian(setup, v).values.nbytes
        return traced_peak(hessian, setup, v) - result

    assert transient(mesh7) <= transient(mesh6) + 4096


def test_energy_temporaries_do_not_grow_with_the_mesh(mesh6, mesh7, sin_field):
    # the element sums are taken a block at a time into one float per
    # element, so beside that array an energy holds the same 0.63 MB at L6
    # and L7 (3.1 MB at L7 over the whole mesh at once); 4 KiB leave room
    # for a few Python objects
    def transient(mesh):
        setup = EnergySetup(mesh, sin_field).with_epsilon(1e-3)
        v = _random_state(mesh, 0)
        return traced_peak(energy, setup, v) - 8 * mesh.num_triangles

    assert transient(mesh7) <= transient(mesh6) + 4096


def test_coarse_map_temporaries_do_not_grow_with_the_mesh(mesh6, mesh7):
    # the map is built a block of fine rows at a time, so beside its result
    # its build holds the same 0.57 MB at L6 and L7 (1.0 and 4.0 MB with every
    # fine row at once); 4 KiB leave room for a few Python objects
    def transient(mesh):
        mesh.p1_pattern, mesh.prolongation, mesh.below.p1_pattern
        return traced_peak(TriMesh.coarse_map.func, mesh) - mesh.coarse_map.nbytes

    assert transient(mesh7) <= transient(mesh6) + 4096
