"""Exception hierarchy shared by all pxthin modules, and the trial-count
check every sampled contract makes.

Every contract failure raises one of these, so callers can distinguish
"you gave me bad input" from "the computation could not be completed".
"""


class PxthinError(Exception):
    """Base class for all package errors."""


class PreconditionError(PxthinError):
    """An operation was called with arguments violating its contract."""


class DomainError(PreconditionError):
    """A point or region falls outside the geometric domain."""


class ResolutionError(PxthinError):
    """The mesh is too coarse for the requested local operation."""


class ResourceError(PxthinError):
    """A requested computation exceeds the configured resource budget."""


class NumericError(PxthinError):
    """An iterative numerical procedure failed to produce a valid result."""


class ConvergenceError(NumericError):
    """The nonlinear solver stagnated before reaching tolerance.

    Carries the best iterate found so callers can inspect it.
    """

    def __init__(self, message, best=None, info=None):
        super().__init__(message)
        self.best = best
        self.info = info


class ConfigError(PxthinError):
    """Experiment configuration could not be parsed or validated."""


class FormatError(PxthinError):
    """A persisted artifact file is malformed or inconsistent."""


# digits past which a message names a whole number by its length
_SHOWN_DIGITS = 20


def _shown(value):
    """value as a message shows it: a whole number of more than
    _SHOWN_DIGITS digits by its length, as "a 4001-digit integer", so a
    message stays short and never meets Python's limit on converting a
    long int to text."""
    if not isinstance(value, int) or abs(value) < 10 ** _SHOWN_DIGITS:
        return value
    magnitude = abs(value)
    # a lower bound on the digit count, from the bit length, then exact
    digits = int((magnitude.bit_length() - 1) * 0.30102999566398120)
    while 10 ** digits <= magnitude:
        digits += 1
    return f"a {digits}-digit {'negative ' if value < 0 else ''}integer"


def _whole(value):
    """Whether value is a whole number. A Python int is one, and may lie
    beyond the floats, where float(value) would overflow."""
    return isinstance(value, int) or float(value).is_integer()


def _float(value, name):
    """float(value); a number beyond the floats, such as a Python int of
    400 digits, is a PreconditionError naming it through _shown, not the
    OverflowError of float()."""
    try:
        return float(value)
    except OverflowError:
        raise PreconditionError(
            f"{name} must lie within the floats, got {_shown(value)}") from None


def checked_trials(trials):
    """trials as an int, after the rule: a whole number >= 1, since fewer
    than one trial would pass a check on no evidence."""
    if not _whole(trials):
        raise PreconditionError(f"trials must be a whole number, got {_shown(trials)}")
    trials = int(trials)
    if trials < 1:
        raise PreconditionError(f"need at least one trial, got {_shown(trials)}")
    return trials
