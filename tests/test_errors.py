"""The exception hierarchy is part of the public contract: callers filter on
the base classes, so the subclass relations must not drift."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pxthin import (ConfigError, ConvergenceError, DomainError, ExponentField,
                    FormatError, NumericError, PreconditionError, PxthinError,
                    ResolutionError, ResourceError, admissible_radius,
                    iteration_constants, theoretical_alpha)
from pxthin.errors import checked_trials
from pxthin.exponent import checked_beta
from pxthin.mesh import checked_grading, checked_level
from pxthin.solver import checked_tol
from pxthin.vxspace import checked_sigma


def test_all_errors_share_one_base():
    for cls in (PreconditionError, DomainError, ResolutionError, ResourceError,
                NumericError, ConvergenceError, ConfigError, FormatError):
        assert issubclass(cls, PxthinError)


def test_domain_error_is_a_precondition_error():
    assert issubclass(DomainError, PreconditionError)


def test_convergence_error_is_numeric_and_carries_best_iterate():
    assert issubclass(ConvergenceError, NumericError)
    err = ConvergenceError("stalled", best="iterate", info="report")
    assert err.best == "iterate"
    assert err.info == "report"
    assert "stalled" in str(err)


def test_convergence_error_attributes_default_to_none():
    err = ConvergenceError("no progress")
    assert err.best is None and err.info is None


@given(st.floats())
def test_a_trial_count_is_a_finite_whole_number_of_at_least_one(trials):
    # a fraction is not truncated, and nan or inf raise no non-package error
    if math.isfinite(trials) and trials == int(trials) and trials >= 1:
        assert checked_trials(trials) == int(trials)
    else:
        with pytest.raises(PreconditionError):
            checked_trials(trials)


@given(st.sampled_from([(checked_level, 1, ResourceError),
                        (checked_level, -1, PreconditionError),
                        (checked_grading, 1, ResourceError),
                        (checked_grading, -1, PreconditionError),
                        (checked_trials, -1, PreconditionError)]),
       st.integers(2, 5000))
@example((checked_level, 1, ResourceError), 5000)
@example((checked_trials, -1, PreconditionError), 5000)
def test_a_huge_whole_number_is_named_by_its_length(case, k):
    # 10 ** 5000 has more digits than Python converts to text, so a message
    # that held the number whole raised ValueError from its own f-string
    check, sign, error = case
    with pytest.raises(error) as caught:
        check(sign * 10 ** k)
    assert len(str(caught.value)) < 200
    if k >= 20:
        assert f"a {k + 1}-digit " in str(caught.value)


_FIELD = ExponentField("constant", [2.0])
# each number rule, with the number in one of its places
_NUMBER_RULES = (checked_tol, checked_sigma, checked_beta,
                 lambda x: theoretical_alpha(1.0, x),
                 lambda x: admissible_radius(_FIELD, x),
                 lambda x: ExponentField("constant", [x]),
                 lambda x: ExponentField("constant", [2.0], holder_seminorm=x),
                 lambda x: iteration_constants(x, 0.5, 0.25))


@given(st.sampled_from(_NUMBER_RULES), st.sampled_from([1, -1]), st.integers(0, 5000))
@example(checked_tol, 1, 400)
@example(_NUMBER_RULES[4], 1, 400)
@example(_NUMBER_RULES[5], -1, 5000)
def test_a_number_beyond_the_floats_is_a_precondition_error(rule, sign, k):
    # float() of an int beyond the floats raised a bare OverflowError; a
    # number the floats hold is taken, or rejected by the rule's own bounds
    value = sign * 10 ** k
    try:
        float(value)
    except OverflowError:
        with pytest.raises(PreconditionError) as caught:
            rule(value)
        assert len(str(caught.value)) < 200
        assert "-digit " in str(caught.value)
        return
    try:
        rule(value)
    except PreconditionError as exc:
        assert len(str(exc)) < 200
