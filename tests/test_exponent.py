"""Exponent field families: declared bounds must enclose every sampled value,
and the local sup/inf boxes must be correct up to their 1e-6 safety margin."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pxthin import ExponentField, PreconditionError, estimate_holder_seminorm
from conftest import sampled_sup_inf_on_halfball


def test_affine_bounds_and_lipschitz():
    field = ExponentField("affine", [2.0, 0.5, 0.0])
    assert field.gamma1 == 1.5
    assert field.gamma2 == 2.5
    assert field.lipschitz == 0.5
    assert field.holder_seminorm == 0.5
    assert field.beta == 1.0


def test_affine_sup_inf_on_centered_ball():
    field = ExponentField("affine", [2.0, 0.5, 0.0])
    lo, hi = field.sup_inf_on_halfball(np.array([0.0, 0.0]), 0.1)
    # exact extremes 1.95 / 2.05, enclosed with the 1e-6 guard
    assert lo == pytest.approx(1.95, abs=2e-6)
    assert hi == pytest.approx(2.05, abs=2e-6)
    assert lo <= 1.95 and hi >= 2.05


def test_sinusoidal_seminorm_and_local_box():
    field = ExponentField("sinusoidal", [2.0, 0.5, np.pi])
    assert field.gamma1 == 1.5
    assert field.gamma2 == 2.5
    # |d/dx sin(pi x)| peaks at pi/2 times the amplitude
    assert field.holder_seminorm == pytest.approx(np.pi / 2, rel=1e-15)
    lo, hi = field.sup_inf_on_halfball(np.array([0.5, 0.0]), 0.1)
    # the crest x1 = 0.5 lies inside the ball, so the sup is exactly 2.5
    assert hi == pytest.approx(2.5, abs=2e-6)
    exact_lo = 2.0 + 0.5 * np.sin(np.pi * 0.4)
    assert lo == pytest.approx(exact_lo, abs=2e-6)
    assert lo <= exact_lo


def test_radial_family():
    field = ExponentField("radial", [2.2, 0.4])
    assert field.gamma1 == pytest.approx(2.2)
    assert field.gamma2 == pytest.approx(2.6)
    assert field.lipschitz == pytest.approx(0.4)
    lo, hi = field.sup_inf_on_halfball(np.array([0.3, 0.0]), 0.1)
    assert lo == pytest.approx(2.28, abs=2e-6)
    assert hi == pytest.approx(2.36, abs=2e-6)


def test_constant_family_is_flat():
    field = ExponentField("constant", [3.0])
    assert field.gamma1 == field.gamma2 == 3.0
    assert field.lipschitz == 0.0
    assert field.holder_seminorm == 0.0
    pts = np.array([[0.0, 0.0], [0.5, 0.5], [-1.0, 0.0]])
    assert np.all(field.eval(pts) == 3.0)


def test_sub_unit_beta_rescales_the_seminorm():
    field = ExponentField("affine", [2.0, 0.5, 0.0], beta=0.5)
    # Lipschitz bound L|x-y| <= L diam^{1-beta} |x-y|^beta, diam = 2
    assert field.holder_seminorm == pytest.approx(0.5 * 2.0 ** 0.5, rel=1e-14)


def test_eval_stays_within_declared_bounds():
    rng = np.random.default_rng(11)
    for family, coeffs in [("affine", [2.0, 0.3, 0.2]),
                           ("radial", [1.8, 0.7]),
                           ("sinusoidal", [2.0, 0.5, 4.0])]:
        field = ExponentField(family, coeffs)
        r = np.sqrt(rng.uniform(0.0, 1.0, 500))
        th = rng.uniform(0.0, np.pi, 500)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
        vals = field.eval(pts)
        assert np.all(vals >= field.gamma1 - 1e-12)
        assert np.all(vals <= field.gamma2 + 1e-12)


def test_sampled_seminorm_never_exceeds_declared():
    for family, coeffs, beta in [("affine", [2.0, 0.4, 0.1], 1.0),
                                 ("sinusoidal", [2.0, 0.5, np.pi], 1.0),
                                 ("radial", [2.0, 0.6], 0.75)]:
        field = ExponentField(family, coeffs, beta=beta)
        assert estimate_holder_seminorm(field) <= field.holder_seminorm + 1e-12


amplitudes = st.floats(-0.9, 0.9)
fields = st.one_of(
    st.builds(lambda c: ExponentField("constant", [c]), st.floats(1.1, 4.0)),
    st.builds(lambda a1, a2: ExponentField("affine", [2.5, a1, a2]),
              amplitudes, amplitudes),
    st.builds(lambda a: ExponentField("radial", [2.0, a]), amplitudes),
    st.builds(lambda a, k: ExponentField("sinusoidal", [2.0, a, k]),
              amplitudes, st.floats(-12.0, 12.0)))


@settings(max_examples=200, deadline=None)
@given(fields, st.floats(-0.5, 0.5), st.floats(0.01, 0.6))
# a radial sample off the axis can round |x| one ulp above the radius
@example(ExponentField("radial", [2.0, 0.5443074557408336]), 0.0, 0.54296875)
def test_candidate_extremes_match_dense_sampling(field, x1, radius):
    # the candidates hold each family's exact extremes, so the samples
    # between them widen the range by at most the round-off of one value
    center = (x1, 0.0)
    lo, hi = field.sup_inf_on_halfball(center, radius)
    sampled_lo, sampled_hi = sampled_sup_inf_on_halfball(field, center, radius)
    assert sampled_lo <= lo and lo - sampled_lo <= np.spacing(lo)
    assert hi <= sampled_hi and sampled_hi - hi <= np.spacing(hi)


def test_degenerate_exponent_is_rejected():
    # gamma1 must stay above 1
    with pytest.raises(PreconditionError):
        ExponentField("constant", [1.0])
    with pytest.raises(PreconditionError):
        ExponentField("affine", [1.5, 1.0, 0.0])


def test_bad_family_and_coefficient_count():
    with pytest.raises(PreconditionError):
        ExponentField("cubic", [2.0])
    with pytest.raises(PreconditionError):
        ExponentField("affine", [2.0, 0.5])
    with pytest.raises(PreconditionError):
        ExponentField("constant", [2.0], beta=0.0)


def test_sup_inf_requires_center_inside_domain():
    field = ExponentField("affine", [2.0, 0.5, 0.0])
    with pytest.raises(PreconditionError):
        field.sup_inf_on_halfball(np.array([2.0, 0.0]), 0.1)


def test_sup_inf_requires_center_on_the_thin_line():
    field = ExponentField("affine", [2.0, 0.5, 0.0])
    with pytest.raises(PreconditionError, match="thin line"):
        field.sup_inf_on_halfball((0.0, 0.2), 0.1)
