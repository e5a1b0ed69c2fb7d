"""Variable-exponent space utilities.  The Luxemburg norm must satisfy its
defining identity to 1e-10 and scale exactly; the Campanato fit must recover
known oscillation exponents."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pxthin.sparse
import pxthin.vxspace
from pxthin import (ExponentField, FeFunction, PreconditionError, build,
                    campanato_profile, compute_M, luxemburg_norm, modular)
from pxthin.mesh import _quad_points, quadrature_rule
from pxthin.vxspace import (LUXEMBURG_STEPS, REPORT_ORDER, ROUNDOFF, _SUM_BLOCK,
                            _Sampled, _gradient_profile, _pairwise_sums,
                            gradient_modulars, luxemburg_identity_checks)
from conftest import FAMILIES, traced_peak

_mesh = functools.lru_cache(maxsize=None)(build)    # one mesh per level


def test_modular_of_linear_function(mesh5, p2):
    # int over the half-disk of x1^2 is pi/8; only the polygonal boundary
    # approximation contributes error
    f = FeFunction(mesh5, mesh5.vertices[:, 0].copy())
    assert modular(f, p2) == pytest.approx(np.pi / 8.0, abs=1e-3)


def test_modular_of_constant_is_area_weighted(mesh4):
    field = ExponentField("constant", [3.0])
    f = FeFunction(mesh4, 2.0 * np.ones(mesh4.num_vertices))
    assert modular(f, field) == pytest.approx(8.0 * mesh4.areas.sum(), rel=1e-12)


def test_modular_sigma_raises_the_exponent(mesh4, p2):
    f = FeFunction(mesh4, 0.5 * mesh4.vertices[:, 0])
    area = mesh4.areas.sum()
    # |Df|^{(1+sigma) p} with Df constant (0.5, 0), p = 2
    [[total]] = gradient_modulars((f,), p2, sigmas=(0.5,))
    assert total == pytest.approx(0.5 ** 3 * area, rel=1e-12)


def test_modular_mask_restricts_the_region(mesh4, p2):
    f = FeFunction(mesh4, mesh4.vertices[:, 1].copy())
    mask = np.zeros(mesh4.num_triangles, dtype=bool)
    mask[: mesh4.num_triangles // 2] = True
    [[part]], [[rest]], [[whole]] = (gradient_modulars((f,), p2, m)
                                     for m in (mask, ~mask, None))
    assert part >= 0.0 and rest >= 0.0
    assert part + rest == pytest.approx(whole, rel=1e-12)


def test_gradient_modulars_check_the_mask_and_sigma(mesh4, p2):
    f = FeFunction(mesh4, mesh4.vertices[:, 0].copy())
    nt = mesh4.num_triangles
    with pytest.raises(PreconditionError, match="one flag per element"):
        gradient_modulars((f,), p2, np.ones(nt - 1, dtype=bool))
    # an index array of length nt, read as flags, would drop element 0, and
    # float weights of 0.5 would select every element
    for mask in (np.arange(nt), np.full(nt, 0.5)):
        with pytest.raises(PreconditionError, match="element mask must be boolean"):
            gradient_modulars((f,), p2, mask)
    with pytest.raises(PreconditionError, match="sigma must be >= 0"):
        gradient_modulars((f,), p2, sigmas=(0.0, -0.1))


def test_gradient_modulars_take_their_functions_on_one_mesh(mesh4, mesh5, p2):
    # p, the weights and the element count come from the first function's
    # mesh: x1^2 on L5 after a function on L4 would take the L4 terms with
    # L5 gradients (2.5288 against its own 1.5703), and the other order
    # would fail in numpy's broadcast
    u4, u5 = (FeFunction(m, m.vertices[:, 0] ** 2) for m in (mesh4, mesh5))
    for functions in ((u4, u5), (u5, u4)):
        with pytest.raises(PreconditionError, match="different meshes"):
            gradient_modulars(functions, p2)
    # an equal mesh that is another object is the same mesh
    twin = build(4)
    assert twin is not mesh4
    v4 = FeFunction(twin, u4.values)
    assert gradient_modulars((u4, v4), p2) == gradient_modulars((u4, u4), p2)
    assert gradient_modulars((v4, u4), p2) == gradient_modulars((u4, u4), p2)


def test_luxemburg_constant_exponent_closed_form(mesh4):
    field = ExponentField("constant", [3.0])
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = FeFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
        closed = modular(f, field) ** (1.0 / 3.0)
        assert abs(luxemburg_norm(f, field) - closed) / closed <= 1e-9


def test_luxemburg_unit_modular_identity(mesh4, sin_field):
    rng = np.random.default_rng(17)
    for _ in range(20):
        values = rng.standard_normal(mesh4.num_vertices) \
            * 10.0 ** rng.uniform(-2.0, 2.0)
        f = FeFunction(mesh4, values)
        nu = luxemburg_norm(f, sin_field)
        scaled = FeFunction(mesh4, values / nu)
        assert abs(modular(scaled, sin_field) - 1.0) <= 1e-10


def test_luxemburg_homogeneity(mesh4, sin_field):
    rng = np.random.default_rng(23)
    values = rng.standard_normal(mesh4.num_vertices)
    f = FeFunction(mesh4, values)
    nu = luxemburg_norm(f, sin_field)
    for s in (1e-3, 0.1, 7.0, 250.0):
        nu_s = luxemburg_norm(FeFunction(mesh4, s * values), sin_field)
        assert abs(nu_s - s * nu) / (s * nu) <= 1e-9


def test_luxemburg_of_zero_function(mesh4, sin_field):
    f = FeFunction(mesh4, np.zeros(mesh4.num_vertices))
    assert luxemburg_norm(f, sin_field) == 0.0


def _exponent(family, low, high, k):
    # a field of the family whose values lie in [low, high]
    mid, half = 0.5 * (low + high), 0.5 * (high - low)
    coefficients = {"constant": [high],
                    "affine": [mid, half * np.cos(k), half * np.sin(k)],
                    "radial": [low, high - low],
                    "sinusoidal": [mid, half, k]}[family]
    return ExponentField(family, coefficients)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("constant", "affine", "radial", "sinusoidal")),
       st.floats(1.1, 5.0), st.floats(0.0, 4.5), st.floats(0.5, 3.0),
       st.floats(-150.0, 150.0), st.floats(-50.0, 50.0),
       st.integers(0, 2 ** 32 - 1))
def test_luxemburg_norm_at_every_scale(mesh4, family, low, spread, k,
                                       scale, stretch, seed):
    # nodal values scaled by 10^scale, about 30 % of them zero
    field = _exponent(family, low, low + spread, k)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(mesh4.num_vertices) * 10.0 ** scale
    values[rng.random(mesh4.num_vertices) < 0.3] = 0.0
    assume(np.any(values))
    nu = luxemburg_norm(FeFunction(mesh4, values), field)
    assert 0.0 < nu < np.inf
    assert abs(modular(FeFunction(mesh4, values / nu), field) - 1.0) <= 1e-12
    s = 10.0 ** stretch
    assert (abs(luxemburg_norm(FeFunction(mesh4, s * values), field) - s * nu)
            <= 1e-12 * s * nu)


def test_cached_exponent_follows_the_field():
    # fields one coefficient apart, used in turn on one mesh, must each see
    # their own p: equal, bit for bit, to what a fresh mesh computes
    mesh = build(4)
    values = np.sin(3.0 * mesh.vertices[:, 0]) + mesh.vertices[:, 1]
    f = FeFunction(mesh, values)
    for a2 in (0.0, 0.1, 0.0, 0.2, 0.1, 0.0, 0.1):
        field = ExponentField("affine", [2.0, 0.3, a2])
        fresh = FeFunction(build(4), values)
        assert modular(f, field) == modular(fresh, field)
        assert luxemburg_norm(f, field) == luxemburg_norm(fresh, field)


def test_fe_function_shape_is_checked(mesh4):
    with pytest.raises(PreconditionError):
        FeFunction(mesh4, np.zeros(mesh4.num_vertices + 1))


def test_campanato_recovers_gradient_exponent_half(mesh6):
    # r^{3/2} cos(3 theta / 2) has a gradient in C^{0, 1/2} at the origin;
    # the interpolant's fitted exponent lands near 1/2
    x = mesh6.vertices
    r = np.hypot(x[:, 0], x[:, 1])
    theta = np.arctan2(x[:, 1], x[:, 0])
    g = FeFunction(mesh6, r ** 1.5 * np.cos(1.5 * theta))
    radii = list(np.geomspace(0.25, 4.0 * mesh6.h_max, 8))
    profile = campanato_profile(g, 2.0, np.array([0.0, 0.0]), radii)
    assert 3.0 <= profile.lam <= 3.3
    assert 0.45 <= profile.alpha <= 0.65
    assert profile.alpha == (profile.lam - 2.0) / 2.0
    assert len(profile.integrals) == len(radii)
    assert all(i >= 0.0 for i in profile.integrals)


def test_campanato_on_rough_synthetic_field(mesh5):
    # piecewise constant |x|^{0.3} unit field: fitted exponent near 0.3,
    # biased low by element averaging at the singularity
    x = mesh5.vertices
    r = np.hypot(x[:, 0], x[:, 1])
    nodal = np.column_stack([r ** 0.3, np.zeros_like(r)])
    element_values = nodal[mesh5.triangles].mean(axis=1)
    profile = _gradient_profile(mesh5, element_values, 2.0, np.array([0.0, 0.0]),
                                list(np.geomspace(0.4, 4.0 * mesh5.h_max, 10)))
    assert 0.2 <= profile.alpha <= 0.35


def test_campanato_of_zero_field_hits_the_sentinel(mesh4):
    f = FeFunction(mesh4, np.zeros(mesh4.num_vertices))
    profile = campanato_profile(f, 2.0, np.array([0.0, 0.0]), [0.4, 0.3, 0.2])
    # zero oscillation yields the +inf sentinel
    assert profile.lam == np.inf
    assert all(i == 0.0 for i in profile.integrals)


def test_campanato_radii_validation(mesh4):
    f = FeFunction(mesh4, mesh4.vertices[:, 0] + mesh4.vertices[:, 1])
    with pytest.raises(PreconditionError):
        campanato_profile(f, 2.0, np.array([0.0, 0.0]), [])
    with pytest.raises(PreconditionError):
        campanato_profile(f, 2.0, np.array([0.0, 0.0]), [0.2, 0.3])
    # smallest radius must stay above the mesh resolution floor
    with pytest.raises(PreconditionError):
        campanato_profile(f, 2.0, np.array([0.0, 0.0]), [0.4, 0.05])


@pytest.mark.parametrize("radii", [[math.nan], [0.5, math.nan], [math.inf, 0.2]])
def test_campanato_rejects_non_finite_radii(mesh5, radii):
    # a nan radius selected no element (a ResolutionError that blamed the
    # mesh), and inf reached the fit, where LAPACK's SVD did not converge
    f = FeFunction(mesh5, mesh5.vertices[:, 0] + mesh5.vertices[:, 1])
    with pytest.raises(PreconditionError, match="radii must be finite"):
        campanato_profile(f, 2.0, np.array([0.0, 0.0]), radii)


@pytest.mark.parametrize("center", [(0.0, 0.0, 7.0), (0.3, 0.1), (0.9, 0.0), 0.0,
                                    [[0.0, 0.0]]])
def test_campanato_rejects_a_malformed_center(mesh4, center):
    # (0, 0, 7) was profiled about (0, 0), the off-line (0.3, 0.1) and the
    # far (0.9, 0) were profiled as given, and 0.0 and [[0, 0]] raised a
    # bare TypeError
    f = FeFunction(mesh4, mesh4.vertices[:, 0] + mesh4.vertices[:, 1])
    with pytest.raises(PreconditionError):
        campanato_profile(f, 2.0, center, [0.4, 0.3, 0.2])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2), st.sampled_from(FAMILIES),
       st.floats(0.0, 2.0), st.integers(0, 2 ** 32 - 1))
def test_all_true_mask_equals_no_mask(level, grading, field, sigma, seed):
    mesh = _mesh(level, grading)
    f = FeFunction(mesh, np.random.default_rng(seed).standard_normal(mesh.num_vertices))
    everything = np.ones(mesh.num_triangles, dtype=bool)
    assert (gradient_modulars((f,), field, sigmas=(sigma,))
            == gradient_modulars((f,), field, everything, (sigma,)))


def _whole_mesh_terms(f, field, gradient=False):
    # |f| (|Df| if gradient), p and the weights at the report quadrature
    # points of every element, by the expressions the modulars and
    # luxemburg_norm evaluated before blocks
    mesh = f.mesh
    rule = quadrature_rule(REPORT_ORDER)
    pts, w = _quad_points(mesh, rule, slice(None)), mesh.quad_weights(rule)
    p = field.eval(pts.reshape(-1, 2)).reshape(w.shape)
    if gradient:
        grads = f.element_gradients()
        mags = np.hypot(grads[:, 0], grads[:, 1])
        return np.repeat(mags[:, None], len(rule.weights), axis=1), p, w
    tri_vals = f.values[mesh.triangles]
    xi = rule.points[:, 0][None, :]
    eta = rule.points[:, 1][None, :]
    return np.abs(tri_vals[:, 0:1] * (1.0 - xi - eta)
                  + tri_vals[:, 1:2] * xi + tri_vals[:, 2:3] * eta), p, w


def _modular_after_mask(f, field, mask, sigma=0.0, gradient=False):
    # the modular's terms on the whole mesh, masked afterwards
    mags, p, w = _whole_mesh_terms(f, field, gradient)
    integrand = np.where(mags > 0.0, mags, 1.0) ** ((1.0 + sigma) * p)
    integrand = np.where(mags > 0.0, integrand, 0.0)
    return float((integrand * w)[mask].sum(axis=1).sum())


def _whole_mesh_norm(f, field):
    # the Newton loop in log lambda over whole-mesh arrays
    mags, p, w = _whole_mesh_terms(f, field)
    top = float(mags.max())
    scaled = mags / top
    t = 0.0
    for _ in range(LUXEMBURG_STEPS):
        terms = w * (scaled * math.exp(-t)) ** p
        rho = float(terms.sum())
        step = rho * math.log(rho) / float((p * terms).sum())
        t += step
        if abs(step) <= ROUNDOFF * max(1.0, abs(t)):
            return top * math.exp(t)
    raise AssertionError("no convergence")


def _random_function(mesh, seed, scale=0.0):
    rng = np.random.default_rng(seed)
    return FeFunction(mesh, rng.standard_normal(mesh.num_vertices) * 10.0 ** scale)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.sampled_from(FAMILIES),
       st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.integers(0, 2 ** 32 - 1))
@example(6, 0, FAMILIES[3], 0.9, 0.1, 5)     # masked elements in 2 blocks
@example(5, 3, FAMILIES[2], 0.6, 1.5, 8)     # graded, masked elements in 2 blocks
def test_masked_modular_equals_the_mask_after_expression(level, grading, field,
                                                         density, sigma, seed):
    # the mask's elements go through as an index array, a block at a time
    mesh = _mesh(level, grading)
    f = _random_function(mesh, seed)
    mask = np.random.default_rng(seed + 1).random(mesh.num_triangles) < density
    assert (gradient_modulars((f,), field, mask, (sigma,))
            == [[_modular_after_mask(f, field, mask, sigma, gradient=True)]])


_FLAT_SIZES = (1, 127, 128, 129, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1,
               2 * _SUM_BLOCK + 1, 3 * _SUM_BLOCK + 17)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from(_FLAT_SIZES), st.integers(1, 3 * _SUM_BLOCK + 17)),
       st.floats(0.0, 12.0), st.integers(0, 2 ** 32 - 1))
def test_blocked_sums_equal_the_whole_array_sums(n, spread, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.uniform(-spread, spread, n)
    squares = values * values
    blocked = _pairwise_sums(lambda lo, hi: (values[lo:hi].sum(), squares[lo:hi].sum()),
                             0, n, _SUM_BLOCK)
    assert blocked == (values.sum(), squares.sum())


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.sampled_from((0, 2)),
       st.sampled_from(("constant", "affine", "radial", "sinusoidal")),
       st.floats(1.1, 5.0), st.floats(0.0, 5.0), st.floats(0.5, 3.0),
       st.floats(-3.0, 3.0), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@example(6, 2, "sinusoidal", 5.0, 5.0, 1.0, 0.0, 0.5, 0)
@example(6, 0, "affine", 1.1, 8.9, 2.0, 1.0, 0.0, 1)
def test_blocked_norm_and_modular_equal_the_whole_mesh_loop(
        level, grading, family, low, spread, k, scale, sigma, seed):
    # p up to 10 on meshes whose 7 values per element span 1 to 2 blocks of
    # the Newton step's sums (L6, graded or not) and the modulars' element
    # sums; p is filled in blocks of 37 elements, so every mesh from level 2
    # up spans several, the last one ragged
    mesh = _mesh(level, grading)
    field = _exponent(family, low, low + spread, k)
    f = _random_function(mesh, seed, scale)
    expected = _modular_after_mask(f, field, slice(None))
    expected_du = [[_modular_after_mask(f, field, slice(None), sigma, gradient=True)]]
    expected_norm = _whole_mesh_norm(f, field)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pxthin.sparse, "_ELEMENT_BLOCK", 37)
        # p evaluated a block at a time, then read from a sampled record
        assert modular(f, field) == expected
        assert gradient_modulars((f,), field, sigmas=(sigma,)) == expected_du
        assert luxemburg_norm(f, field) == expected_norm
        sampled = _Sampled(field, mesh)
        for kept, whole in zip((sampled.p, sampled.weights),
                               _whole_mesh_terms(f, field)[1:]):
            assert np.array_equal(kept, whole)
            assert not kept.flags.writeable
        assert luxemburg_norm(f, sampled) == expected_norm
        assert modular(f, sampled) == expected
        assert gradient_modulars((f,), sampled, sigmas=(sigma,)) == expected_du


def test_luxemburg_checks_stay_within_a_per_element_bound(mesh4, mesh6, sin_field):
    # 250 bytes per element for the check's own temporaries (208 measured
    # over 1 to 20 trials, 344 with whole-mesh temporaries), plus the 168
    # that p of both fields and their shared weights, three (nt, 7) float
    # arrays, take inside the call: the check samples them itself, where
    # they once were kept on the mesh from an earlier call; 386 measured;
    # the warm-up on another mesh leaves the one-time objects out
    luxemburg_identity_checks(mesh4, sin_field, 2, 0)
    peak = traced_peak(luxemburg_identity_checks, mesh6, sin_field, 4, 11)
    assert peak <= (250 + 3 * 7 * 8) * mesh6.num_triangles


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2), st.sampled_from(FAMILIES), st.booleans(),
       st.floats(-3.0, 3.0), st.one_of(st.none(), st.floats(0.0, 1.0)),
       st.floats(0.0, 2.0), st.lists(st.floats(0.0, 2.0), max_size=5),
       st.integers(0, 2 ** 32 - 1))
@example(6, 0, FAMILIES[3], False, 0.0, None, 0.0, [], 0)
@example(5, 2, FAMILIES[1], True, 1.0, 0.7, 0.5, [], 3)
@example(6, 1, FAMILIES[2], False, 0.0, 0.8, 0.0, [0.01, 0.02, 0.05, 0.1, 0.2], 4)
def test_gradient_modulars_are_the_modulars_of_the_gradient_fields(
        level, grading, field, held, scale, density, sigma, more, seed):
    # leaves of 130 elements, so every mesh from level 3 up spans several,
    # the last one ragged; p evaluated per block, or read from a record;
    # the whole mesh, or the elements of a mask; sigma alone, or with more
    # sigmas in one pass, each entry the bits of its one-sigma oracle
    mesh = _mesh(level, grading)
    u, w = (_random_function(mesh, seed + k, scale) for k in range(2))
    u.values[np.random.default_rng(seed).random(mesh.num_vertices) < 0.3] = 0.0
    mask = (None if density is None
            else np.random.default_rng(seed + 2).random(mesh.num_triangles) < density)
    exponent = _Sampled(field, mesh) if held else field
    sigmas = [sigma] + more
    region = slice(None) if mask is None else mask
    expected = [[_modular_after_mask(f, field, region, s, gradient=True) for s in sigmas]
                for f in (u, w)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pxthin.vxspace, "_SUM_BLOCK", 7 * 130)
        assert gradient_modulars((u, w), exponent, mask, sigmas) == expected
    assert gradient_modulars((u, w), exponent, mask, sigmas) == expected


def test_luxemburg_checks_leave_nothing_behind(mesh4, mesh7, sin_field):
    # p and the weights live as long as the check: an L7 call keeps none of
    # its 3 (nt, 7) float arrays, 11 MB, once it returns; the warm-up on
    # another mesh leaves the one-time objects out, and 64 KiB leave room
    # for a few Python objects
    luxemburg_identity_checks(mesh4, sin_field, 2, 0)
    tracemalloc.start()
    try:
        luxemburg_identity_checks(mesh7, sin_field, 2, 0)
        assert tracemalloc.get_traced_memory()[0] < 64 * 1024
    finally:
        tracemalloc.stop()


def test_compute_m_temporaries_do_not_grow_with_the_mesh(mesh6, mesh7, sin_field):
    # p, the weights and the gradients are formed a block at a time, so
    # compute_M holds the same temporaries at L6 and L7, below one (nt, 7)
    # float array at L7 (p and the weights once stayed on the mesh, 3.5 MiB
    # apiece at L7); 4 KiB leave room for a few Python objects
    def peak(mesh):
        u, w = (_random_function(mesh, seed) for seed in range(2))
        return traced_peak(compute_M, u, w, sin_field)

    assert peak(mesh7) <= peak(mesh6) + 4096
    assert peak(mesh7) < 56 * mesh7.num_triangles
