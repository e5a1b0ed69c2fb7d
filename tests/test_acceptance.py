"""Acceptance gate.  Each test covers one numbered criterion and prints one
PASS/FAIL line through record_criterion; the terminal summary collects them.

Criterion 1 is known to fail: the linear benchmark postulates that the
solver reproduces g = x2 at machine precision, but the minimizer of the
energy with that arc data is a different function (see README, section
"Known failing benchmark").  The test states the criterion faithfully and
is expected red.
"""

import csv
import time

import numpy as np
import pytest

from pxthin import (EnergySetup, ExponentField, FeFunction, ObstacleProblem,
                    admissible_radius, build, build_reference,
                    comparison_decay, compute_M, energy, gradient_holder_fit,
                    hessian, higher_integrability_scan, iteration_suite,
                    luxemburg_norm, modular, monotonicity_check,
                    reflect_and_check, residual, solve, vi_check)
from pxthin.cli import main
from conftest import g_signorini32, record_criterion


def _solve_config(mesh, field, g):
    problem = ObstacleProblem(EnergySetup(mesh, field), g)
    u, report = solve(problem, 1e-10)
    return problem, u, report


@pytest.fixture(scope="module")
def solved_p2_sig32_l7(mesh7, p2):
    t0 = time.perf_counter()
    problem, u, report = _solve_config(mesh7, p2, g_signorini32(mesh7))
    return problem, u, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def config_suite(mesh5, solved_p2_sig32_l5, solved_sin_sig32_l6):
    """Five solved configurations spanning all exponent families."""
    suite = []

    def add(label, problem, u):
        w, rep = build_reference(u, problem)
        suite.append({
            "label": label,
            "problem": problem,
            "u": u,
            "margin": rep.ordering_margin,
            "reflect": reflect_and_check(w, problem.setup.field),
        })

    p, u, _, _ = solved_p2_sig32_l5
    add("p2_sig32_l5", p, u)
    p, u, _ = _solve_config(mesh5, ExponentField("constant", [2.0]),
                            mesh5.vertices[:, 1].copy())
    add("p2_linear_l5", p, u)
    p, u, _ = _solve_config(mesh5, ExponentField("affine", [2.0, 0.3, 0.1]),
                            g_signorini32(mesh5))
    add("affine_sig32_l5", p, u)
    p, u, _ = _solve_config(mesh5, ExponentField("radial", [2.2, 0.4]),
                            np.ones(mesh5.num_vertices))
    add("radial_offset_l5", p, u)
    p, u, _, _ = solved_sin_sig32_l6
    add("sin_sig32_l6", p, u)
    return suite


def test_criterion_01_linear_benchmark(mesh4, mesh6, p2):
    _, u, _ = _solve_config(mesh4, p2, mesh4.vertices[:, 1].copy())
    err = float(np.abs(u.values - mesh4.vertices[:, 1]).max())
    t0 = time.perf_counter()
    _solve_config(mesh6, p2, mesh6.vertices[:, 1].copy())
    elapsed = time.perf_counter() - t0
    passed = err <= 1e-9 and elapsed <= 10.0
    record_criterion(1, passed,
                     "max nodal deviation from x2 data %.3e (bound 1e-09); "
                     "level-6 solve %.2f s (bound 10 s)" % (err, elapsed))
    assert elapsed <= 10.0
    assert err <= 1e-9, (
        "the energy minimizer with x2 arc data is not x2 itself; "
        "measured deviation %.17g.  See README, 'Known failing benchmark'."
        % err)


def test_criterion_02_signorini_exponent(solved_p2_sig32_l7, p2):
    problem, u, _, elapsed = solved_p2_sig32_l7
    mesh = problem.setup.mesh
    g = g_signorini32(mesh)
    nodal = float(np.abs(u.values - g).max())
    radii = np.geomspace(0.25, 4.0 * mesh.h_max, 8)
    rep = gradient_holder_fit(u, p2, [(0.0, 0.0)], radii)
    alpha = rep.alphas[0]
    passed = (0.40 <= alpha <= 0.60 and nodal <= 5.0 * mesh.h_max
              and elapsed <= 300.0)
    record_criterion(2, passed,
                     "alpha at origin %.5f (in [0.40, 0.60]); nodal error "
                     "%.3e <= %.3e; solve %.2f s" %
                     (alpha, nodal, 5.0 * mesh.h_max, elapsed))
    assert elapsed <= 300.0
    assert nodal <= 5.0 * mesh.h_max
    assert 0.40 <= alpha <= 0.60


def test_criterion_03_variational_inequality(config_suite):
    worst = np.inf
    for entry in config_suite:
        value = vi_check(entry["problem"], entry["u"], 100, 2026)
        worst = min(worst, value)
    record_criterion(3, worst >= -1e-8,
                     "min normalized residual product %.3e over %d configs "
                     "x 100 directions (bound -1e-08)"
                     % (worst, len(config_suite)))
    assert worst >= -1e-8


def test_criterion_04_reference_ordering(config_suite):
    assert len(config_suite) >= 5
    families = {e["problem"].setup.field.family for e in config_suite}
    assert "sinusoidal" in families
    worst_margin = min(e["margin"] for e in config_suite)
    worst_reflect = max(e["reflect"] for e in config_suite)
    passed = worst_margin >= -1e-8 and worst_reflect <= 1e-8
    record_criterion(4, passed,
                     "min nodal ordering margin %.3e (bound -1e-08); max "
                     "odd-reflection residual %.3e (bound 1e-08)"
                     % (worst_margin, worst_reflect))
    assert worst_margin >= -1e-8
    assert worst_reflect <= 1e-8


def test_criterion_05_frozen_exactness(solved_p2_sig32_l6):
    problem, u, _, _ = solved_p2_sig32_l6
    _, ref = build_reference(u, problem)
    rep = comparison_decay(u, problem.setup.field, (-0.35, 0.0),
                           [0.2, 0.1, 0.05], ref.M)
    worst_err = max(rep.error)
    slack = min(a - b for a, b in zip(rep.energy_sub_u, rep.energy_sub_u0))
    passed = worst_err <= 1e-10 and slack >= -1e-10
    record_criterion(5, passed,
                     "constant exponent: max comparison error %.3e "
                     "(bound 1e-10); energy ordering slack %.3e "
                     "(bound -1e-10)" % (worst_err, slack))
    assert worst_err <= 1e-10
    assert slack >= -1e-10


def test_criterion_06_variable_exponent_decay(solved_sin_sig32_l6):
    problem, u, _, _ = solved_sin_sig32_l6
    _, ref = build_reference(u, problem)
    rep = comparison_decay(u, problem.setup.field, (-0.35, 0.0),
                           [0.2, 0.1, 0.05], ref.M)
    decreasing = all(a > b for a, b in zip(rep.ratio, rep.ratio[1:]))
    passed = decreasing and rep.fitted_rate > 0.0
    record_criterion(6, passed,
                     "normalized errors %s strictly decreasing: %s; fitted "
                     "rate %.3f > 0" %
                     (["%.3e" % q for q in rep.ratio], decreasing,
                      rep.fitted_rate))
    assert decreasing
    assert rep.fitted_rate > 0.0


def test_criterion_07_iteration_lemma():
    t0 = time.perf_counter()
    worst = iteration_suite(10_000, 2026)
    elapsed = time.perf_counter() - t0
    passed = worst >= 0.0 and elapsed <= 30.0
    record_criterion(7, passed,
                     "10000 sampled sequences, worst conclusion slack %.3e "
                     ">= 0; %.2f s (bound 30 s)" % (worst, elapsed))
    assert worst >= 0.0
    assert elapsed <= 30.0


def test_criterion_08_monotonicity_constant():
    worst = monotonicity_check(1.1, 10.0, 100_000, 77)
    record_criterion(8, worst <= 1.0,
                     "worst LHS/RHS %.6f <= 1 over 100000 fresh samples "
                     "in [1.1, 10]" % worst)
    assert worst <= 1.0


def test_criterion_09_luxemburg_identities(mesh4):
    rng = np.random.default_rng(2026)
    families = [("constant", lambda: [rng.uniform(1.5, 4.0)]),
                ("affine", lambda: [rng.uniform(2.0, 3.0),
                                    rng.uniform(-0.4, 0.4),
                                    rng.uniform(-0.4, 0.4)]),
                ("radial", lambda: [rng.uniform(2.0, 3.0),
                                    rng.uniform(-0.5, 0.5)]),
                ("sinusoidal", lambda: [rng.uniform(2.0, 3.0),
                                        rng.uniform(-0.5, 0.5),
                                        rng.uniform(0.5, 4.0)])]
    unit_dev = homog_rel = const_rel = 0.0
    n_const = 0
    for trial in range(100):
        family, draw = families[trial % len(families)]
        field = ExponentField(family, draw())
        f = FeFunction(mesh4, rng.standard_normal(mesh4.num_vertices))
        norm = luxemburg_norm(f, field)
        scaled = FeFunction(mesh4, f.values / norm)
        unit_dev = max(unit_dev, abs(modular(scaled, field) - 1.0))
        s = float(np.exp(rng.uniform(-4.0, 4.0)))
        stretched = FeFunction(mesh4, s * f.values)
        homog_rel = max(homog_rel,
                        abs(luxemburg_norm(stretched, field) - s * norm)
                        / (s * norm))
        if family == "constant":
            n_const += 1
            p = field.coefficients[0]
            closed = modular(f, field) ** (1.0 / p)
            const_rel = max(const_rel, abs(norm - closed) / closed)
    passed = unit_dev <= 1e-10 and homog_rel <= 1e-9 and const_rel <= 1e-9
    record_criterion(9, passed,
                     "100 fields: unit modular dev %.3e (1e-10); homogeneity "
                     "%.3e (1e-9); closed form %.3e (1e-9, %d constant draws)"
                     % (unit_dev, homog_rel, const_rel, n_const))
    assert n_const >= 20
    assert unit_dev <= 1e-10
    assert homog_rel <= 1e-9
    assert const_rel <= 1e-9


def test_criterion_10_integrability_scan(mesh7):
    field = ExponentField("affine", [2.0, 0.3, 0.0])
    g = 0.25 * g_signorini32(mesh7)
    problem, u, _ = _solve_config(mesh7, field, g)
    w, _ = build_reference(u, problem)
    M = compute_M(u, w, field)
    r_adm = admissible_radius(field, M)
    r = 0.95 * r_adm
    rep = higher_integrability_scan(u, w, field, (0.0, 0.0), r)
    c_zero = rep.c_sigma[0]
    c_at_sigma0 = rep.c_sigma[rep.sigma_grid.index(rep.sigma0)]
    passed = (rep.sigma0 > 0.0 and c_at_sigma0 <= 1e3
              and c_zero <= 1.0 + 1e-9)
    record_criterion(10, passed,
                     "r = %.4f <= admissible %.4f; sigma0 = %.2f > 0 with "
                     "c = %.3e <= 1e3; c(0) = %.6f <= 1 + 1e-9"
                     % (r, r_adm, rep.sigma0, c_at_sigma0, c_zero))
    assert r <= r_adm
    assert rep.sigma0 > 0.0
    assert c_at_sigma0 <= 1e3
    assert c_zero <= 1.0 + 1e-9


def test_criterion_11_reproducibility(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(f"""
[exponent]
family = sinusoidal
coefficients = 2.0, 0.5, 3.141592653589793

[mesh]
level = 5

[boundary]
preset = signorini32

[experiments]
run = solve, reference, holder, verify

[verify]
iteration_trials = 50
monotonicity_trials = 200
luxemburg_trials = 2

[output]
dir = {out}
name = same
""")
        assert main(["run", str(cfg)]) == 0
        outs.append(out)
    identical = []
    for name in ("mesh.txt", "u.txt", "w.txt", "holder.csv", "summary.txt",
                 "comparison.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        identical.append((name, a == b))
    with open(outs[0] / "solve_report.csv") as fh:
        ra = list(csv.reader(fh))
    with open(outs[1] / "solve_report.csv") as fh:
        rb = list(csv.reader(fh))
    wall_isolated = (ra[0] == rb[0] and ra[0][-1] == "wall_time"
                     and ra[1][:-1] == rb[1][:-1])
    passed = all(ok for _, ok in identical) and wall_isolated
    record_criterion(11, passed,
                     "%d artifacts byte-identical across repeated runs; "
                     "wall time isolated to the last solve_report column: %s"
                     % (sum(ok for _, ok in identical), wall_isolated))
    for name, ok in identical:
        assert ok, name
    assert wall_isolated


def test_criterion_12_derivative_consistency(mesh3, sin_field):
    setup = EnergySetup(mesh3, sin_field).with_epsilon(1e-2)
    rng = np.random.default_rng(12)
    v = mesh3.vertices[:, 1] + 0.1 * rng.standard_normal(mesh3.num_vertices)
    r = residual(setup, v)
    H = hessian(setup, v)
    t = 1e-6
    worst_r = worst_h = 0.0
    for _ in range(100):
        d = rng.standard_normal(v.size)
        fd = (energy(setup, v + t * d) - energy(setup, v - t * d)) / (2.0 * t)
        exact = float(r @ d)
        worst_r = max(worst_r, abs(fd - exact) / max(1.0, abs(exact)))
    for _ in range(100):
        d = rng.standard_normal(v.size)
        fd = (residual(setup, v + t * d) - residual(setup, v - t * d)) / (2.0 * t)
        exact = H @ d
        denom = max(1.0, float(np.linalg.norm(exact)))
        worst_h = max(worst_h, float(np.linalg.norm(fd - exact)) / denom)
    passed = worst_r <= 1e-6 and worst_h <= 1e-4
    record_criterion(12, passed,
                     "100 probes each: residual vs energy differences %.3e "
                     "(1e-6); Hessian vs residual differences %.3e (1e-4)"
                     % (worst_r, worst_h))
    assert worst_r <= 1e-6
    assert worst_h <= 1e-4
