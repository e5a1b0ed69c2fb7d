"""Reference construction, reflection checks and frozen-exponent decay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pxthin import (EnergySetup, ExponentField, FeFunction, ObstacleProblem,
                    PreconditionError, build, build_reference,
                    comparison_decay, compute_M, reference_report,
                    reflect_and_check, residual, solve)
from pxthin import comparison
from pxthin.mesh import ARC, INTERIOR, THIN
from conftest import FAMILIES, EvenExtensionField, reflect_full_disk


def _unit_reference(problem):
    # the reference problem with arc level m = 1: no obstacle, 0 on Thin
    ref = ObstacleProblem(problem.setup, np.where(problem.arc, 1.0, 0.0),
                          obstacle=False)
    w, _ = solve(ref, 1e-10)
    return w


def test_reference_matches_arctan_oracle(solved_p2_sig32_l5):
    # with arc level m and p = 2 the reference is harmonic, vanishes on the
    # axis and equals m on the arc; separation of variables on the half disk
    # sums to w(0, y) = m * (4/pi) * arctan(y)
    problem, u, _, _ = solved_p2_sig32_l5
    w = _unit_reference(problem)
    report = reference_report(u, w, problem.setup.field)
    mesh = problem.setup.mesh
    idx = np.flatnonzero((mesh.vertices[:, 0] == 0.0)
                         & (np.abs(mesh.vertices[:, 1] - 0.5) < 1e-12))[0]
    oracle = (4.0 / np.pi) * np.arctan(0.5)
    assert abs(w.values[idx] - oracle) <= 2e-3
    assert np.isfinite(report.ordering_margin)


def test_reference_sits_below_the_solution(solved_p2_sig32_l5):
    problem, u, _, _ = solved_p2_sig32_l5
    w, report = build_reference(u, problem)
    assert report.ordering_margin >= -1e-8
    assert report.ordering_margin == pytest.approx(
        float((u.values - w.values).min()))
    # reference boundary level is the arc minimum of u
    arc = problem.setup.mesh.vertex_tags == 1
    assert np.max(np.abs(w.values[arc] - u.values[arc].min())) == 0.0
    thin = problem.setup.mesh.vertex_tags == 2
    assert np.max(np.abs(w.values[thin])) == 0.0


def test_odd_reflection_residual_constant_exponent(solved_p2_sig32_l5):
    problem, u, _, _ = solved_p2_sig32_l5
    w = _unit_reference(problem)
    res = reflect_and_check(w, problem.setup.field)
    assert res <= 1e-8


def test_odd_reflection_residual_variable_exponent(solved_sin_sig32_l6):
    problem, u, _, _ = solved_sin_sig32_l6
    w, _ = build_reference(u, problem)
    res = reflect_and_check(w, problem.setup.field)
    assert res <= 1e-8


def test_reflection_rejects_nonvanishing_trace(mesh4, p2):
    w = FeFunction(mesh4, np.ones(mesh4.num_vertices))
    with pytest.raises(PreconditionError):
        reflect_and_check(w, p2)


def test_reflection_needs_an_exact_zero_on_thin(mesh4, p2):
    # the half-disk identity needs an exactly odd extension: round-off on
    # one Thin vertex is refused, as is a NaN, while -0.0 is a zero
    thin = np.flatnonzero(mesh4.vertex_tags == THIN)
    for bad in (1e-12, np.nan):
        values = np.zeros(mesh4.num_vertices)
        values[thin[len(thin) // 2]] = bad
        with pytest.raises(PreconditionError):
            reflect_and_check(FeFunction(mesh4, values), p2)
    values = np.zeros(mesh4.num_vertices)
    values[thin] = -0.0
    assert reflect_and_check(FeFunction(mesh4, values), p2) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 1), st.sampled_from(FAMILIES),
       st.integers(0, 2**32 - 1))
def test_half_disk_residual_matches_the_mirrored_full_disk(level, grading,
                                                           field, seed):
    # the identity reflect_and_check rests on, against the full-disk oracle:
    # a random w that vanishes on Thin, oddly extended, p evenly extended
    mesh = build(level, grading)
    values = np.random.default_rng(seed).standard_normal(mesh.num_vertices)
    values[mesh.vertex_tags == THIN] = 0.0
    w = FeFunction(mesh, values)
    r_half = residual(EnergySetup(mesh, field), w)
    full, w_odd = reflect_full_disk(w)
    r_full = residual(EnergySetup(full, EvenExtensionField(field)), w_odd)
    eps = np.finfo(float).eps
    scale = np.abs(r_half[mesh.vertex_tags == INTERIOR]).max()
    # upper nodes: the same element terms summed in the same order
    upper = mesh.vertex_tags != THIN
    assert np.array_equal(r_full[:mesh.num_vertices][upper], r_half[upper])
    # Thin nodes: the lower elements cancel the upper ones
    thin = mesh.vertex_tags == THIN
    assert np.abs(r_full[:mesh.num_vertices][thin]).max() <= 64 * eps * scale
    oracle = np.abs(r_full[full.vertex_tags != ARC]).max()
    assert abs(reflect_and_check(w, field) - oracle) <= 64 * eps * oracle


def test_full_disk_reflection_geometry(solved_p2_sig32_l5):
    problem, u, _, _ = solved_p2_sig32_l5
    w, _ = build_reference(u, problem)
    mesh = problem.setup.mesh
    full, w_odd = reflect_full_disk(w)
    assert full.num_triangles == 2 * mesh.num_triangles
    # axis vertices are shared except the two corners, which are duplicated
    # because the odd extension jumps across them
    n_axis = int(np.sum(np.abs(mesh.vertices[:, 1]) < 1e-12))
    assert full.num_vertices == 2 * mesh.num_vertices - n_axis + 2
    assert float(np.sum(full.areas)) == pytest.approx(np.pi, abs=2e-2)
    # oddness: value at the mirror of each upper vertex is the negation
    upper = mesh.vertices[:, 1] > 1e-12
    probe = mesh.vertices[upper][:7]
    vals = w.values[upper][:7]
    for pt, v in zip(probe, vals):
        mirrored = np.array([pt[0], -pt[1]])
        j = np.argmin(np.hypot(*(full.vertices - mirrored).T))
        assert w_odd.values[j] == pytest.approx(-v, abs=1e-14)


def test_compute_m_at_least_one(solved_p2_sig32_l5):
    problem, u, _, _ = solved_p2_sig32_l5
    w, _ = build_reference(u, problem)
    M = compute_M(u, w, problem.setup.field)
    assert M >= 1.0
    assert np.isfinite(M)


def test_compute_m_requires_matching_meshes(solved_p2_sig32_l5, mesh4, p2):
    problem, u, _, _ = solved_p2_sig32_l5
    other = FeFunction(mesh4, np.zeros(mesh4.num_vertices))
    with pytest.raises(PreconditionError):
        compute_M(u, other, p2)


def test_reference_report_rejects_a_pair_on_different_meshes(
        solved_p2_sig32_l5, mesh4, p2):
    # M comes first, so the nodal difference never broadcasts across meshes
    _, u, _, _ = solved_p2_sig32_l5
    other = FeFunction(mesh4, np.zeros(mesh4.num_vertices))
    with pytest.raises(PreconditionError, match="different meshes"):
        reference_report(u, other, p2)


@pytest.mark.parametrize("M", [-1.0, 0.5, np.nan, np.inf])
def test_decay_rejects_a_bad_M_before_any_solve(solved_p2_sig32_l5, p2, monkeypatch,
                                                M):
    # -1 would raise a TypeError and nan give nan ratios, each after the
    # three submesh solves
    _, u, _, _ = solved_p2_sig32_l5
    calls = []
    monkeypatch.setattr(comparison, "solve", lambda *args: calls.append(args))
    with pytest.raises(PreconditionError, match="M must be finite and at least 1"):
        comparison_decay(u, p2, (-0.05, 0.0), [0.3, 0.2, 0.1], M)
    assert calls == []


@pytest.mark.parametrize("center, radii", [
    ((0.0, 0.0, 7.0), [0.3, 0.2, 0.1]), (0.0, [0.3, 0.2, 0.1]),
    ([[0.0, 0.0]], [0.3, 0.2, 0.1]), ((np.nan, 0.0), [0.3, 0.2, 0.1]),
    ((0.0, 0.0), [0.3, np.nan, 0.1]), ((0.0, 0.0), [0.3, 0.2, np.nan])])
def test_decay_rejects_a_malformed_center_or_radii_before_any_solve(
        solved_p2_sig32_l5, p2, monkeypatch, center, radii):
    # (0, 0, 7) was solved about (0, 0); the others raised an IndexError, a
    # ValueError or a ResolutionError that blamed the mesh
    _, u, _, _ = solved_p2_sig32_l5
    calls = []
    monkeypatch.setattr(comparison, "solve", lambda *args: calls.append(args))
    with pytest.raises(PreconditionError):
        comparison_decay(u, p2, center, radii, 2.0)
    assert calls == []


def test_decay_radii_validation(solved_p2_sig32_l5, p2):
    _, u, _, _ = solved_p2_sig32_l5
    with pytest.raises(PreconditionError):
        comparison_decay(u, p2, (0.0, 0.0), [0.2, 0.1], 2.0)
    with pytest.raises(PreconditionError):
        comparison_decay(u, p2, (0.0, 0.0), [0.1, 0.2, 0.3], 2.0)
    with pytest.raises(PreconditionError):
        # 2r ball pokes out of the 3/4 ball
        comparison_decay(u, p2, (0.5, 0.0), [0.2, 0.1, 0.05], 2.0)


def test_decay_normalization_and_fit(solved_p2_sig32_l5):
    problem, u, _, _ = solved_p2_sig32_l5
    field = problem.setup.field
    _, ref = build_reference(u, problem)
    rep = comparison_decay(u, field, (-0.05, 0.0), [0.3, 0.2, 0.1], ref.M)
    assert rep.radii == [0.3, 0.2, 0.1]
    assert rep.p2 == [2.0, 2.0, 2.0]
    assert rep.sigma1 == pytest.approx(0.1)
    assert all(e >= 0.0 for e in rep.error)
    assert all(e2 > 0.0 for e2 in rep.energy_2r)
    for err, e2r, q, r in zip(rep.error, rep.energy_2r, rep.ratio, rep.radii):
        assert q == pytest.approx(err / (ref.M ** rep.sigma1 * e2r + r * r))
    # these balls straddle the contact transition, so the locally resolved
    # competitor differs from the restriction by a mesh-scale amount
    assert all(e > 0.0 for e in rep.error)
    assert np.isfinite(rep.fitted_rate)
    assert ref.M >= 1.0
    assert ref.reflect_residual <= 1e-8


def test_decay_is_exact_on_a_contact_ball_for_p2(solved_p2_sig32_l6):
    # inside the coincidence region the restricted solution already satisfies
    # the frozen optimality system, so every error vanishes identically
    problem, u, _, _ = solved_p2_sig32_l6
    _, ref = build_reference(u, problem)
    rep = comparison_decay(u, problem.setup.field, (-0.35, 0.0),
                           [0.2, 0.1, 0.05], ref.M)
    assert rep.error == [0.0, 0.0, 0.0]
    assert rep.ratio == [0.0, 0.0, 0.0]
    assert np.isnan(rep.fitted_rate)


def test_decay_sigma1_caps_at_beta_over_8(solved_p2_sig32_l5):
    _, u, _, _ = solved_p2_sig32_l5
    field = ExponentField("constant", [2.0], beta=0.4)
    # beta / 8 = 0.05 lies below FREEZE_SIGMA0 = 0.1
    rep = comparison_decay(u, field, (-0.05, 0.0), [0.3, 0.2, 0.1], 2.0)
    assert rep.sigma1 == pytest.approx(0.05)


def test_decay_variable_exponent_decreases(solved_sin_sig32_l6):
    problem, u, _, _ = solved_sin_sig32_l6
    field = problem.setup.field
    _, ref = build_reference(u, problem)
    rep = comparison_decay(u, field, (-0.35, 0.0), [0.2, 0.1, 0.05], ref.M)
    assert rep.ratio[0] > rep.ratio[1] > rep.ratio[2] > 0.0
    assert rep.fitted_rate > 0.0
    # submesh energies recorded for both competitors, frozen one never larger
    for a, b in zip(rep.energy_sub_u, rep.energy_sub_u0):
        assert a > 0.0 and b > 0.0
        assert a - b >= -1e-10
