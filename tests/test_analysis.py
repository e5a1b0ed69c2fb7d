"""Quantitative lemma constants, the sampled verifications, and the scans."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pxthin import (EnergySetup, ExponentField, FeFunction, IterationConstants,
                    ObstacleProblem, PreconditionError, ResolutionError,
                    admissible_radius, build,
                    build_reference, compute_M, gradient_holder_fit,
                    higher_integrability_scan, iteration_constants,
                    iteration_suite, monotonicity_check, solve,
                    theoretical_alpha)
from pxthin import analysis, comparison
from pxthin.analysis import (_GRID_HALVINGS, _MONO_BLOCK, _MONO_DRAW, MONO_C,
                             MONO_GAMMA_MAX, SIGMA_GRID, _draw_trial, _mono_parts,
                             _tuple_blocks, _worst_slack, calibrate_monotonicity,
                             checked_scan_radius, scan_balls)
from pxthin.cli import luxemburg_identity_checks
from pxthin.errors import checked_trials
from pxthin.mesh import ball_element_mask, checked_center
from pxthin.vxspace import gradient_modulars
from conftest import g_signorini32, traced_peak


# ---------------------------------------------------------------- iteration

def iteration_verify(consts, trials, seed):
    """Adversarial check of the iteration conclusion on dyadic grids, for
    one fixed set of constants: the oracle of iteration_suite's kernel.

    Each trial builds the largest monotone step function satisfying the
    hypothesis (perturbation eps drawn in [0, eps0)), then measures the
    minimal slack of the conclusion over all grid pairs. Non-negative
    slack in every trial certifies the constant c.
    """
    consts.validate()
    rng = np.random.default_rng(seed)
    return _worst_slack(_draw_trial(rng, consts) for _ in range(checked_trials(trials)))


def test_iteration_constants_pinned_example():
    c = iteration_constants(1.0, 2.0, 1.0)
    assert c.alpha3 == 1.5
    assert c.kappa == 0.015625
    assert c.eps0 == 1.220703125e-4
    assert c.c == pytest.approx(4681.142857142857, rel=1e-15)


def test_iteration_constants_satisfy_their_own_inequalities():
    for (A, a1, a2) in [(1.0, 2.0, 1.0), (5.0, 3.0, 0.5), (0.1, 1.0, 0.0),
                        (40.0, 4.0, 3.8)]:
        c = iteration_constants(A, a1, a2)
        c.validate()
        assert 0.0 < c.kappa < 0.5
        assert c.eps0 == c.kappa ** c.alpha1 / 2.0
        assert 2.0 ** (a1 + 1.0) * c.kappa ** a1 * A <= c.kappa ** c.alpha3


def test_iteration_constants_input_validation():
    with pytest.raises(PreconditionError):
        iteration_constants(-1.0, 2.0, 1.0)
    with pytest.raises(PreconditionError):
        iteration_constants(1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        iteration_constants(1.0, 1.0, -0.5)


def test_iteration_constants_validate_rejects_tampering():
    c = iteration_constants(1.0, 2.0, 1.0)
    bad = IterationConstants(A=c.A, alpha1=c.alpha1, alpha2=c.alpha2,
                             alpha3=c.alpha3, kappa=0.45, eps0=c.eps0, c=c.c)
    with pytest.raises(PreconditionError):
        bad.validate()
    bad2 = IterationConstants(A=c.A, alpha1=c.alpha1, alpha2=c.alpha2,
                              alpha3=c.alpha3, kappa=c.kappa, eps0=0.9, c=c.c)
    with pytest.raises(PreconditionError):
        bad2.validate()


@pytest.mark.parametrize("B", [np.nan, np.inf, -5.0])
def test_iteration_constants_reject_a_bad_B(B):
    # a nan or infinite B would skip every slack comparison: a vacuous pass
    with pytest.raises(PreconditionError):
        iteration_constants(1.0, 2.0, 1.0, B=B)
    c = iteration_constants(1.0, 2.0, 1.0)
    c.B = B
    with pytest.raises(PreconditionError):
        iteration_verify(c, 5, 0)


@pytest.mark.parametrize("A", [np.nan, np.inf])
def test_iteration_constants_reject_a_non_finite_A(A):
    # a nan A would skip the smallness inequality: a vacuous pass
    with pytest.raises(PreconditionError, match="A must be finite"):
        iteration_constants(A, 2.0, 1.0)
    c = iteration_constants(1.0, 2.0, 1.0)
    c.A = A
    with pytest.raises(PreconditionError, match="A must be finite"):
        c.validate()


@pytest.mark.parametrize("trials", [0, -5])
def test_no_sampled_check_passes_on_no_trials(mesh3, trials):
    checks = [lambda: iteration_suite(trials, 0),
              lambda: monotonicity_check(1.1, 10.0, trials, 0),
              lambda: luxemburg_identity_checks(mesh3, ExponentField("constant", [2.0]),
                                                trials, 0)]
    for check in checks:
        with pytest.raises(PreconditionError, match="at least one trial"):
            check()


def test_iteration_verify_small_sample():
    c = iteration_constants(1.0, 2.0, 1.0)
    assert iteration_verify(c, 300, 11) >= 0.0


def test_iteration_suite_small_sample():
    worst = iteration_suite(300, 0)
    assert worst >= 0.0
    # same seed reproduces the same worst slack
    assert iteration_suite(300, 0) == worst


def _verify_loop(consts, trials, seed):
    # iteration_verify as it was before the trials were vectorised: one
    # Python loop over the grid per trial, kept as the oracle
    rng = np.random.default_rng(seed)
    A, B, c = consts.A, consts.B, consts.c
    a1, a2 = consts.alpha1, consts.alpha2
    K = _GRID_HALVINGS
    m = np.arange(K + 1)
    pow_a1 = 2.0 ** (-a1 * m)
    pow_a2 = 2.0 ** (-a2 * m)
    worst = np.inf
    for _ in range(int(trials)):
        eps = rng.uniform(0.0, consts.eps0)
        phi = np.empty(K + 1)
        phi[0] = 10.0 ** rng.uniform(-3.0, 3.0)
        phi[1] = phi[0]
        for k in range(2, K + 1):
            j = np.arange(1, k)
            cand = A * (pow_a1[k - j] + eps) * phi[j - 1] + B * pow_a2[j]
            phi[k] = min(phi[k - 1], cand.min())
        for k in range(1, K + 1):
            j = np.arange(0, k)
            rhs = c * (pow_a2[k - j] * phi[j] + B * pow_a2[k])
            worst = min(worst, float((rhs - phi[k]).min()))
    return worst


def _suite_loop(trials, seed):
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(int(trials)):
        alpha2 = rng.uniform(0.0, 3.8)
        alpha1 = rng.uniform(alpha2 + 0.2, 4.0)
        A = 10.0 ** rng.uniform(-1.0, 1.0)
        B = 0.0 if rng.uniform() < 0.25 else 10.0 ** rng.uniform(-2.0, 2.0)
        consts = iteration_constants(A, alpha1, alpha2, B=B)
        worst = min(worst, _verify_loop(consts, 1, int(rng.integers(2 ** 62))))
    return worst


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 64 - 1), st.floats(-1.0, 1.0),
       st.floats(0.0, 3.8), st.floats(0.2, 2.0),
       st.one_of(st.just(None), st.floats(-2.0, 2.0)))
def test_iteration_checks_equal_the_per_trial_loop(trials, seed, log_a, alpha2,
                                                   gap, log_b):
    consts = iteration_constants(10.0 ** log_a, alpha2 + gap, alpha2,
                                 B=0.0 if log_b is None else 10.0 ** log_b)
    assert iteration_verify(consts, trials, seed) == _verify_loop(consts, trials, seed)
    assert iteration_suite(trials, seed) == _suite_loop(trials, seed)


def test_iteration_suite_pinned_slack():
    # the worst slack the per-trial loop gave for verify's seed-0 sample;
    # 3000 trials span several blocks of the vectorised check
    assert iteration_suite(3000, 0) == 4.941513451981164e-42


# ------------------------------------------------------------- monotonicity

def test_monotonicity_frozen_constant_covers_the_standard_box():
    worst = monotonicity_check(1.1, 10.0, 2000, 7)
    assert 0.0 < worst <= 1.0


def test_monotonicity_calibrates_outside_the_frozen_box():
    worst = monotonicity_check(1.05, 4.0, 500, 3)
    assert 0.0 < worst <= 1.0


def test_monotonicity_input_validation():
    with pytest.raises(PreconditionError):
        monotonicity_check(1.0, 2.0, 10, 0)
    with pytest.raises(PreconditionError):
        monotonicity_check(2.0, 1.5, 10, 0)
    # a number beyond the floats is a rule's error, not float()'s OverflowError
    with pytest.raises(PreconditionError, match="gamma2 must lie within the floats"):
        monotonicity_check(1.5, 10 ** 400, 10, 0)


@settings(max_examples=30, deadline=None)
@given(st.floats(1.01, 5.0),
       st.one_of(st.floats(5.0, MONO_GAMMA_MAX), st.floats(5.0, 2000.0)),
       st.integers(0, 2 ** 32 - 1))
@example(1.1, MONO_GAMMA_MAX, 0)
@example(1.1, math.nextafter(MONO_GAMMA_MAX, math.inf), 0)
@example(1.1, 200.0, 0)       # 591 of 98,232 sampled ratios were inf / inf
@example(1.1, 1100.0, 0)      # calibration's 2^gamma2 overflowed
def test_monotonicity_samples_only_finite_terms(gamma1, gamma2, seed):
    # above MONO_GAMMA_MAX the rule raises before any draw; at or below it
    # the worst ratio, calibration included, is finite
    draws = []

    def counted(*args):
        draws.append(args)
        return _tuple_blocks(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_tuple_blocks", counted)
        if gamma2 > MONO_GAMMA_MAX:
            with pytest.raises(PreconditionError, match=r"gamma2 = .* exceeds"):
                monotonicity_check(gamma1, gamma2, 64, seed)
            assert draws == []
        else:
            assert math.isfinite(monotonicity_check(gamma1, gamma2, 64, seed))
            assert draws


def test_a_nan_ratio_is_never_dropped():
    # one nan in the second block, whose other ratios stay below the first's
    calls = []

    def with_a_nan(xi1, xi2, p):
        lhs, vol, mono = _mono_parts(xi1, xi2, p)
        calls.append(None)
        if len(calls) == 2:
            lhs[5] = np.nan
        return lhs, vol, mono

    finite = monotonicity_check(1.1, 10.0, 3 * _MONO_BLOCK, 0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_mono_parts", with_a_nan)
        assert math.isnan(monotonicity_check(1.1, 10.0, 3 * _MONO_BLOCK, 0))
    assert math.isfinite(finite)


def test_calibrated_constant_stays_below_frozen():
    c = calibrate_monotonicity(1.1, 10.0, samples=50_000, seed=5)
    assert c <= MONO_C


def test_monotonicity_sampling_keeps_its_values():
    # both callers share one sampling loop; values measured before the merge
    assert monotonicity_check(1.1, 10.0, 450_001, 3) == 0.9205635198621411
    # outside MONO_GAMMA the check first calibrates its constant
    assert monotonicity_check(1.05, 12.0, 250_000, 4) == 0.8944838333365044
    # a sampled maximum above the 2^gamma2 / 6 floor, so the loop decides it
    assert calibrate_monotonicity(1.05, 1.5, samples=450_001, seed=3) \
        == 1.4783786976331192


def _sample_tuples(rng, gamma1, gamma2, n):
    # the sampler before the draws were streamed: one draw's arrays at once
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=(n, 1))
    xi1 = rng.uniform(-1.0, 1.0, size=(n, 2)) * scale
    xi2 = rng.uniform(-1.0, 1.0, size=(n, 2)) * scale
    p = rng.uniform(gamma1, gamma2, size=n)
    eps = np.maximum(rng.uniform(0.0, 1.0, size=n), 1e-300)
    return xi1, xi2, p, eps


_EDGE_SIZES = (1, _MONO_BLOCK - 1, _MONO_BLOCK, _MONO_BLOCK + 1, 2 * _MONO_BLOCK + 1,
               _MONO_DRAW - 1, _MONO_DRAW, _MONO_DRAW + 1, _MONO_DRAW + _MONO_BLOCK,
               450_003)


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.sampled_from(_EDGE_SIZES), st.integers(1, 450_003)),
       st.integers(0, 2 ** 64 - 1), st.floats(1.01, 3.0), st.floats(0.0, 9.0))
@example(450_003, 3, 1.1, 8.9)
def test_streamed_tuples_equal_the_whole_draws(samples, seed, gamma1, spread):
    gamma2 = gamma1 + spread
    streamed = np.random.default_rng(seed)
    blocks = list(_tuple_blocks(streamed, gamma1, gamma2, samples))
    assert all(len(block[2]) <= _MONO_BLOCK for block in blocks)
    whole = np.random.default_rng(seed)
    draws = []
    left = samples
    while left > 0:
        draws.append(_sample_tuples(whole, gamma1, gamma2, min(_MONO_DRAW, left)))
        left -= _MONO_DRAW
    for got, want in zip(zip(*blocks), zip(*draws)):
        assert np.array_equal(np.concatenate(got), np.concatenate(want))
    assert streamed.bit_generator.state == whole.bit_generator.state


def _summed_mono_parts(xi1, xi2, p):
    # the kernel before its two-term sums were written out
    n1 = np.hypot(xi1[..., 0], xi1[..., 1])
    n2 = np.hypot(xi2[..., 0], xi2[..., 1])
    d = xi1 - xi2
    lhs = np.hypot(d[..., 0], d[..., 1]) ** p
    vol = n1 ** p + n2 ** p
    f1 = np.where(n1 > 0.0, n1, 1.0) ** (p - 2.0) * (n1 > 0.0)
    f2 = np.where(n2 > 0.0, n2, 1.0) ** (p - 2.0) * (n2 > 0.0)
    mono = ((f1[..., None] * xi1 - f2[..., None] * xi2) * d).sum(axis=-1)
    return lhs, vol, np.maximum(mono, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.floats(1.1, 10.0), st.floats(0.0, 9.0),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
@example(2000, 1.1, 8.9, 0.3, 0.3, 0)
def test_written_out_mono_parts_equal_the_axis_sums(n, low, spread, zeros, equal,
                                                    seed):
    # random tuples at every scale, about `zeros` of the vectors zero and
    # `equal` of the pairs equal, with p in [1.1, 10]
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    xi1, xi2 = (rng.uniform(-1.0, 1.0, size=(n, 2)) * scale for _ in range(2))
    xi1[rng.random(n) < zeros] = 0.0
    xi2[rng.random(n) < zeros] = 0.0
    same = rng.random(n) < equal
    xi2[same] = xi1[same]
    p = rng.uniform(low, min(low + spread, 10.0), size=n)
    for got, want in zip(_mono_parts(xi1, xi2, p), _summed_mono_parts(xi1, xi2, p)):
        assert got.tobytes() == want.tobytes()


def test_monotonicity_check_streams_its_draws():
    # whole 200,000-tuple draws traced 36 MB; 8,192-tuple blocks trace 2.2 MB
    assert traced_peak(monotonicity_check, 1.1, 10.0, 450_001, 3) <= 6_000_000


# -------------------------------------------------- radii and rate formulas

def test_admissible_radius_pinned_example():
    field = ExponentField("affine", [2.25, 0.25, 0.0], holder_seminorm=0.5)
    # cap 1/(8 M) binds: the oscillation terms give 1/16 and 1/3
    assert admissible_radius(field, 10.0) == 0.0125


def test_admissible_radius_constant_field_uses_only_the_cap():
    field = ExponentField("constant", [3.0])
    assert admissible_radius(field, 2.0) == 1.0 / 16.0


def test_admissible_radius_validation():
    # nan slips past a bare M < 1 test (the affine field would get 0.1736,
    # above the 0.125 of M = 1), and inf would give radius 0
    for field in (ExponentField("constant", [2.0]),
                  ExponentField("affine", [2.0, 0.3, 0.0])):
        for M in (0.5, np.nan, np.inf):
            with pytest.raises(PreconditionError, match="M must be finite and at least 1"):
                admissible_radius(field, M)


def test_theoretical_alpha_pinned_example():
    # from the base exponent ALPHA0 = 1/2
    assert analysis.ALPHA0 == 0.5
    assert theoretical_alpha(1.0, 3.0) == 0.0075757575757575756


def test_theoretical_alpha_validation():
    with pytest.raises(PreconditionError):
        theoretical_alpha(1.5, 3.0)
    with pytest.raises(PreconditionError):
        theoretical_alpha(1.0, 1.0)


# ------------------------------------------------------------------- scans

@pytest.fixture(scope="module")
def scan_inputs(mesh6):
    field = ExponentField("affine", [2.0, 0.3, 0.0], holder_seminorm=0.3)
    g = 0.25 * g_signorini32(mesh6)
    problem = ObstacleProblem(EnergySetup(mesh6, field), g)
    u, _ = solve(problem, 1e-10)
    w, _ = build_reference(u, problem)
    return problem, u, w, field


def test_scan_structural_bounds(scan_inputs):
    problem, u, w, field = scan_inputs
    rep = higher_integrability_scan(u, w, field, (0.0, 0.0), 0.035)
    assert rep.sigma_grid[0] == 0.0
    # with the shared outer-ball normalization the sigma = 0 constant is
    # below 1 by set inclusion
    assert rep.c_sigma[0] <= 1.0
    assert all(c > 0.0 for c in rep.c_sigma)
    assert rep.sigma0 in rep.sigma_grid
    assert rep.admissible_r > 0.0
    # power means increase in the order, so every reverse-Holder row starts
    # at 1 and stays above it
    for row in rep.rh_ratios:
        assert row[0] == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 1.0 - 1e-9 for v in row)
    assert len(rep.rh_radii) >= 1
    assert all(a > b for a, b in zip(rep.rh_radii, rep.rh_radii[1:]))


def test_scan_default_cap_keeps_the_whole_grid(scan_inputs, monkeypatch):
    problem, u, w, field = scan_inputs
    rep = higher_integrability_scan(u, w, field, (0.0, 0.0), 0.035)
    assert rep.sigma0 == max(rep.sigma_grid)
    # a crushing cap forces sigma0 back to the trivial value
    monkeypatch.setattr(analysis, "C_CAP", 1e-12)
    tight = higher_integrability_scan(u, w, field, (0.0, 0.0), 0.035)
    assert tight.sigma0 == 0.0


def test_the_sigma_grid_keeps_its_rules():
    # the rules the grid's validator enforced while the grid was a setting:
    # non-empty and sorted, with 0 first, whose constant is below 1
    assert len(SIGMA_GRID) > 0
    assert list(SIGMA_GRID) == sorted(SIGMA_GRID)
    assert SIGMA_GRID[0] == 0.0


_scan_mesh = functools.lru_cache(maxsize=None)(build)    # one mesh per level, grading
# the scan test field and constant p = 2; M's cap binds the radius of both
_SCAN_FIELDS = (ExponentField("affine", [2.0, 0.3, 0.0], holder_seminorm=0.3),
                ExponentField("constant", [2.0]))


def _synthetic_pair(mesh, scale=1.0):
    """Nodal u and w for a scan without a solve: scale times the
    signorini32 data and x2 (1 - x2)."""
    x2 = mesh.vertices[:, 1]
    return (FeFunction(mesh, scale * g_signorini32(mesh)),
            FeFunction(mesh, scale * x2 * (1.0 - x2)))


def _scan_oracle(u, w, field, center, r):
    """The scan with a pass per selected ball, the oracle of scan_balls'
    list: a pass for the r ball and one for the 2r ball, then from 2r down by
    halves each ball past 2 h_max selected by ball_element_mask, with its
    own pass, until one holds fewer than 3 elements or 6 are taken. For
    balls too coarse for c(sigma) it returns ("coarse", r, their counts)."""
    center = checked_center(center)
    M = compute_M(u, w, field)
    r, r_adm = checked_scan_radius(r, field, M, center)
    mesh = u.mesh
    mask_r, mask_2r = (ball_element_mask(mesh, center, s * r) for s in (1.0, 2.0))
    if min(mask_r.sum(), mask_2r.sum()) < 3:
        return "coarse", r, int(mask_r.sum()), int(mask_2r.sum())
    area2 = float(mesh.areas[mask_2r].sum())
    [inner] = gradient_modulars((u,), field, mask_r, SIGMA_GRID)
    [u_2r, w_2r] = gradient_modulars((u, w), field, mask_2r, SIGMA_GRID)
    base_2r = u_2r[0] / area2
    c_sigma = [(lhs / area2) / (base_2r ** (1.0 + sigma) + rhs2 / area2 + 1.0)
               for sigma, lhs, rhs2 in zip(SIGMA_GRID, inner, w_2r)]
    passing = [s for s, c in zip(SIGMA_GRID, c_sigma) if c <= analysis.C_CAP]
    report = analysis.ScanReport(r, r_adm, list(SIGMA_GRID), c_sigma,
                                 max(passing) if passing else 0.0)
    rho = 2.0 * r
    while rho > 2.0 * mesh.h_max and len(report.rh_radii) < 6:
        mask = ball_element_mask(mesh, center, rho)
        if mask.sum() < 3:
            break
        area = float(mesh.areas[mask].sum())
        [highs] = gradient_modulars((u,), field, mask, SIGMA_GRID)
        base = highs[0] / area
        report.rh_radii.append(rho)
        report.rh_ratios.append([(high / area) ** (1.0 / (1.0 + sigma)) / base
                                 if base > 0.0 else np.inf
                                 for sigma, high in zip(SIGMA_GRID, highs)])
        rho *= 0.5
    return report


@settings(max_examples=20, deadline=None)
@given(st.integers(6, 7), st.integers(0, 2), st.sampled_from(_SCAN_FIELDS),
       st.floats(-0.5, 0.5), st.floats(0.05, 1.0), st.floats(0.1, 1.0))
@example(6, 0, _SCAN_FIELDS[0], 0.0, 0.8, 1.0)      # no row: 2r <= 2 h_max
@example(6, 0, _SCAN_FIELDS[0], 0.0, 0.95, 1.0)     # one row: r <= 2 h_max < 2r
@example(7, 2, _SCAN_FIELDS[1], -0.3, 0.95, 0.25)   # three rows
@example(6, 0, _SCAN_FIELDS[0], 0.0, 0.3, 1.0)      # r ball too coarse
def test_scan_equals_a_pass_per_selected_ball(level, grading, field, x1, fraction,
                                              scale):
    mesh = _scan_mesh(level, grading)
    u, w = _synthetic_pair(mesh, scale)
    r = fraction * admissible_radius(field, compute_M(u, w, field))
    expected = _scan_oracle(u, w, field, (x1, 0.0), r)
    if isinstance(expected, tuple):
        _, r, count_r, count_2r = expected
        with pytest.raises(ResolutionError, match=re.escape(
                f"radius {r} holds {count_r} elements and radius {2.0 * r} "
                f"holds {count_2r};")):
            higher_integrability_scan(u, w, field, (x1, 0.0), r)
    else:
        assert higher_integrability_scan(u, w, field, (x1, 0.0), r) == expected


def test_scan_takes_one_pass_per_ball(monkeypatch):
    # one gradient_modulars call per ball of scan_balls, Du and Dw on the 2r
    # ball, each for every sigma of the grid: max(2, rows) calls. Here at
    # the default radius both the 2r and the r ball are reverse-Hoelder
    # balls, where a pass of their own would make 4 calls
    u, w = _synthetic_pair(_scan_mesh(7, 0))
    field = _SCAN_FIELDS[0]
    calls = []

    def counted(functions, exponent_field, element_mask=None, sigmas=(0.0,)):
        calls.append(sigmas)
        return real(functions, exponent_field, element_mask, sigmas)

    real = analysis.gradient_modulars
    monkeypatch.setattr(analysis, "gradient_modulars", counted)
    rep = higher_integrability_scan(u, w, field, (0.0, 0.0))
    assert len(rep.rh_radii) == 2
    assert len(calls) == max(2, len(rep.rh_radii))
    assert all(tuple(sigmas) == SIGMA_GRID for sigmas in calls)


def test_scan_validation(scan_inputs):
    problem, u, w, field = scan_inputs
    with pytest.raises(PreconditionError):
        higher_integrability_scan(u, w, field, (0.5, 0.0), 0.2)
    with pytest.raises(PreconditionError):
        # far beyond the admissible radius for this field
        higher_integrability_scan(u, w, field, (0.0, 0.0), 0.3)
    with pytest.raises(PreconditionError, match=r"thin line with \|x1\| <= 1/2"):
        higher_integrability_scan(u, w, field, (0.1, 0.2), 0.009)


@pytest.mark.parametrize("center", [(0.0, 0.0), (-0.3, 0.0), (0.5, 0.0)])
def test_scan_default_radius_is_the_former_cli_radius(scan_inputs, center):
    # the expression the CLI's scan step used before the scan owned it
    problem, u, w, field = scan_inputs
    M = compute_M(u, w, field)
    radius = min(0.95 * admissible_radius(field, M),
                 (0.75 - math.hypot(*center)) / 2.0)
    default = higher_integrability_scan(u, w, field, center)
    assert default.radius == radius
    assert default == higher_integrability_scan(u, w, field, center, radius)


@pytest.mark.parametrize("center, r", [
    ((0.0, 0.0, 7.0), 0.035), (0.0, 0.035), ([[0.0, 0.0]], 0.035),
    ((math.nan, 0.0), 0.035), ((0.0, 0.0), math.nan)])
def test_scan_rejects_a_malformed_center_or_radius(scan_inputs, center, r):
    # (0, 0, 7) was scanned about (0, 0); the others raised an IndexError,
    # a ValueError or a ResolutionError that blamed the mesh
    _, u, w, field = scan_inputs
    with pytest.raises(PreconditionError):
        higher_integrability_scan(u, w, field, center, r)


@pytest.mark.parametrize("r", [math.nan, 0.5])
def test_scan_rejects_a_malformed_radius_before_computing_M(monkeypatch, r):
    # r = nan and r = 0.5 about the origin need no M to reject; each cost
    # the whole-mesh gradient_modulars pass of compute_M before
    u, w = _synthetic_pair(_scan_mesh(5, 0))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = gradient_modulars
    monkeypatch.setattr(analysis, "gradient_modulars", counted)
    monkeypatch.setattr(comparison, "gradient_modulars", counted)
    with pytest.raises(PreconditionError):
        higher_integrability_scan(u, w, _SCAN_FIELDS[0], (0.0, 0.0), r)
    assert calls == []


def test_scan_rejects_underresolved_balls(mesh3):
    field = ExponentField("constant", [2.0])
    g = mesh3.vertices[:, 1].copy()
    problem = ObstacleProblem(EnergySetup(mesh3, field), g)
    u, _ = solve(problem, 1e-10)
    w, _ = build_reference(u, problem)
    # a mesh too coarse for the balls, as for the submesh and the profile
    with pytest.raises(ResolutionError, match="ball selections are too coarse"):
        higher_integrability_scan(u, w, field, (0.0, 0.0), 0.01)
    with pytest.raises(ResolutionError, match="refine the mesh"):
        scan_balls(mesh3, np.zeros(2), 0.01)


# -------------------------------------------------------------- Holder fit

def test_holder_fit_recovers_the_half_power(mesh6, p2):
    u = FeFunction(mesh6, g_signorini32(mesh6))
    radii = np.geomspace(0.25, 4.0 * mesh6.h_max, 8)
    rep = gradient_holder_fit(u, p2, [(0.0, 0.0)], radii)
    assert rep.centers == [(0.0, 0.0)]
    assert 0.40 <= rep.alphas[0] <= 0.60
    assert rep.alpha_min == rep.alphas[0]
    prof = rep.profiles[0]
    assert prof.alpha == (prof.lam - 2.0) / 2.0


def test_holder_fit_center_validation(mesh5, p2):
    u = FeFunction(mesh5, g_signorini32(mesh5))
    with pytest.raises(PreconditionError):
        gradient_holder_fit(u, p2, [(0.2, 0.1)], [0.3, 0.2])
    with pytest.raises(PreconditionError):
        gradient_holder_fit(u, p2, [(0.7, 0.0)], [0.3, 0.2])
    with pytest.raises(PreconditionError):
        gradient_holder_fit(u, p2, [(0.0, 0.0)], [0.3])


@pytest.mark.parametrize("center, radii", [
    ((0.0, 0.0, 7.0), [0.3, 0.2]), (0.0, [0.3, 0.2]), ([[0.0, 0.0]], [0.3, 0.2]),
    ((math.nan, 0.0), [0.3, 0.2]), ((0.0, 0.0), [math.inf, 0.2]),
    ((0.0, 0.0), [0.5, math.nan])])
def test_holder_fit_rejects_a_malformed_center_or_radii(mesh5, p2, center, radii):
    # (0, 0, 7) was fitted about (0, 0); the others raised an IndexError, a
    # ValueError, LAPACK's "SVD did not converge" or a ResolutionError
    u = FeFunction(mesh5, g_signorini32(mesh5))
    with pytest.raises(PreconditionError):
        gradient_holder_fit(u, p2, [center], radii)


def test_holder_fit_uses_top_exponent_of_largest_ball(mesh5):
    field = ExponentField("affine", [2.0, 0.3, 0.0], holder_seminorm=0.3)
    u = FeFunction(mesh5, g_signorini32(mesh5))
    rep = gradient_holder_fit(u, field, [(0.0, 0.0)], [0.3, 0.2])
    expected_p = field.sup_inf_on_halfball((0.0, 0.0), 0.3)[1]
    assert rep.profiles[0].p == expected_p
