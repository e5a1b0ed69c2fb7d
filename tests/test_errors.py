"""The exception hierarchy is part of the public contract: callers filter on
the base classes, so the subclass relations must not drift."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pxthin import (ConfigError, ConvergenceError, DomainError, FormatError,
                    NumericError, PreconditionError, PxthinError,
                    ResolutionError, ResourceError)
from pxthin.errors import checked_trials


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
