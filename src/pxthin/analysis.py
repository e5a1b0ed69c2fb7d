"""Standalone verifiable estimates: iteration lemma, vector monotonicity,
radius formulas, higher-integrability scans, and gradient Hölder fits.
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .comparison import checked_M, compute_M
from .errors import PreconditionError, ResolutionError, _float, checked_trials
from .exponent import checked_beta
from .mesh import GEOM_TOL, ball_element_mask, checked_center, checked_radii
from .vxspace import campanato_profile, gradient_modulars

# ---------------------------------------------------------------- iteration

_GRID_HALVINGS = 40
# trials per pass of the vectorised check: its (block, K + 1) arrays stay at
# 84 kB, so a large sample does not raise the run's peak memory
_TRIAL_BLOCK = 256


@dataclass
class IterationConstants:
    A: float
    alpha1: float
    alpha2: float
    B: float = 0.0
    alpha3: float = 0.0
    kappa: float = 0.0
    eps0: float = 0.0
    c: float = 0.0

    def validate(self):
        # a nan or infinite A or B would make the checks below vacuous
        for name, value in (("A", self.A), ("B", self.B)):
            if not (0.0 <= value < np.inf):
                raise PreconditionError(
                    f"{name} must be finite and non-negative, got {value}")
        if not (self.alpha1 > self.alpha3 > self.alpha2):
            raise PreconditionError("need alpha1 > alpha3 > alpha2")
        if not (0.0 < self.kappa < 0.5):
            raise PreconditionError("kappa must lie in (0, 1/2)")
        # checks in log form; the raw powers overflow for tiny kappa
        log_k = np.log(self.kappa)
        if self.A > 0.0:
            lhs = (self.alpha1 + 1.0) * np.log(2.0) + self.alpha1 * log_k \
                + np.log(self.A)
            if lhs > self.alpha3 * log_k + 1e-12:
                raise PreconditionError("kappa fails the smallness inequality")
        if self.eps0 <= 0.0:
            raise PreconditionError("eps0 underflowed; constants not representable")
        if np.log(self.eps0) - self.alpha1 * log_k >= 0.0:
            raise PreconditionError("eps0 too large for kappa")


def iteration_constants(A, alpha1, alpha2, B=0.0):
    """Explicit constants for the geometric iteration argument.

    kappa is the halving factor, eps0 the admissible perturbation size,
    and c the constant carried into the decay conclusion.
    """
    A = _float(A, "A")
    alpha1 = _float(alpha1, "alpha1")
    alpha2 = _float(alpha2, "alpha2")
    if A < 0.0 or alpha2 < 0.0 or not alpha1 > alpha2:
        raise PreconditionError("need A >= 0 and alpha1 > alpha2 >= 0")
    alpha3 = 0.5 * (alpha1 + alpha2)
    base = np.float64(2.0) ** (-(alpha1 + 1.0)) / np.float64(max(A, 1e-12))
    with np.errstate(over="ignore", under="ignore"):
        kappa = min(0.49, float(base ** (1.0 / (alpha1 - alpha3))))
    # guard against pow rounding flipping the smallness inequality
    while kappa > 0.0 and 2.0 ** (alpha1 + 1.0) * kappa ** alpha1 * A > kappa ** alpha3:
        kappa = np.nextafter(kappa, 0.0)
    eps0 = kappa ** alpha1 / 2.0
    with np.errstate(over="ignore", divide="ignore"):
        k = np.float64(kappa)
        c = float(k ** (-alpha2) * max(1.0, k ** (-alpha2)
                                       / (1.0 - k ** (alpha3 - alpha2))))
    out = IterationConstants(A=A, alpha1=alpha1, alpha2=alpha2, B=float(B),
                             alpha3=alpha3, kappa=kappa, eps0=eps0, c=c)
    out.validate()
    return out


def iteration_suite(trials, seed):
    """Randomized constants plus one adversarial sequence per trial."""
    trials = checked_trials(trials)
    return _worst_slack(_suite_trials(np.random.default_rng(seed), trials))


def _suite_trials(rng, trials):
    """The suite's trials, drawn lazily so one block is held at a time."""
    for _ in range(trials):
        alpha2 = rng.uniform(0.0, 3.8)
        alpha1 = rng.uniform(alpha2 + 0.2, 4.0)
        A = 10.0 ** rng.uniform(-1.0, 1.0)
        B = 0.0 if rng.uniform() < 0.25 else 10.0 ** rng.uniform(-2.0, 2.0)
        consts = iteration_constants(A, alpha1, alpha2, B=B)
        yield _draw_trial(np.random.default_rng(int(rng.integers(2 ** 62))), consts)


def _draw_trial(rng, consts):
    """One trial's (consts, eps, phi0): the perturbation, then the start."""
    eps = rng.uniform(0.0, consts.eps0)
    phi0 = 10.0 ** rng.uniform(-3.0, 3.0)
    return consts, eps, phi0


def _worst_slack(trials):
    """Minimal conclusion slack over an iterable of trials (consts, eps, phi0).

    phi[:, k] is the smallest of phi[:, k - 1] and the hypothesis bounds
    A (2^{-alpha1 (k - j)} + eps) phi[:, j - 1] + B 2^{-alpha2 j}, 0 < j < k;
    the slack of grid pair j < k is
    c (2^{-alpha2 (k - j)} phi[:, j] + B 2^{-alpha2 k}) - phi[:, k].
    fmin skips a nan as Python's min does, and min is exact, so the
    result does not depend on how the trials are blocked.
    """
    K = _GRID_HALVINGS
    m = np.arange(K + 1)
    trials = iter(trials)
    worst = np.inf
    while block := list(itertools.islice(trials, _TRIAL_BLOCK)):
        A, B, c, a1, a2, eps, phi0 = np.array(
            [(q.A, q.B, q.c, q.alpha1, q.alpha2, e, f) for q, e, f in block],
            dtype=float).T[:, :, None]
        pow_a1 = 2.0 ** (-a1 * m)
        pow_a2 = 2.0 ** (-a2 * m)
        phi = np.empty((len(block), K + 1))
        phi[:, :2] = phi0
        for k in range(2, K + 1):
            j = np.arange(1, k)
            cand = A * (pow_a1[:, k - j] + eps) * phi[:, j - 1] + B * pow_a2[:, j]
            phi[:, k] = np.fmin(phi[:, k - 1], cand.min(axis=1))
        for k in range(1, K + 1):
            j = np.arange(0, k)
            rhs = c * (pow_a2[:, k - j] * phi[:, j] + B * pow_a2[:, k, None])
            worst = np.fmin.reduce((rhs - phi[:, k, None]).min(axis=1), initial=worst)
    return float(worst)


# ------------------------------------------------------------- monotonicity

# Calibrated bound for the vector inequality
#   |xi1 - xi2|^p <= c*eps*(|xi1|^p + |xi2|^p)
#                    + c/eps * (|xi1|^{p-2}xi1 - |xi2|^{p-2}xi2).(xi1 - xi2)
# over p in [1.1, 10] and eps in (0, 1). Calibrated by maximizing the
# required constant over 10^6 random tuples plus the analytic worst family
# (antipodal pairs of equal length at the top exponent), with 5% headroom.
MONO_GAMMA = (1.1, 10.0)
MONO_C = 179.2
# tuples per draw from the random stream, which fixes the sampled values, and
# per evaluated block: 16,384-tuple blocks keep the check's traced peak at
# 3.8 MB, where evaluating whole draws traced 36 MB and set the peak memory
# of a verify-only run
_MONO_DRAW = 200_000
_MONO_BLOCK = 16_384


def _mono_parts(xi1, xi2, p):
    """|xi1 - xi2|^p, |xi1|^p + |xi2|^p and the positive part of
    (|xi1|^(p-2) xi1 - |xi2|^(p-2) xi2) . (xi1 - xi2), per tuple. The
    two-term dot product is written out as adds in component order, the
    bits of numpy's sum over the last axis without its overhead."""
    x1, y1, x2, y2 = xi1[..., 0], xi1[..., 1], xi2[..., 0], xi2[..., 1]
    n1 = np.hypot(x1, y1)
    n2 = np.hypot(x2, y2)
    dx, dy = x1 - x2, y1 - y2
    lhs = np.hypot(dx, dy) ** p
    vol = n1 ** p + n2 ** p
    f1 = np.where(n1 > 0.0, n1, 1.0) ** (p - 2.0) * (n1 > 0.0)
    f2 = np.where(n2 > 0.0, n2, 1.0) ** (p - 2.0) * (n2 > 0.0)
    mono = (f1 * x1 - f2 * x2) * dx + (f1 * y1 - f2 * y2) * dy
    return lhs, vol, np.maximum(mono, 0.0)


def _tuple_blocks(rng, gamma1, gamma2, samples):
    """`samples` random tuples (xi1, xi2, p, eps), _MONO_BLOCK at a time.

    The tuples are drawn _MONO_DRAW at a time. A draw of n takes from rng's
    stream n scales, 2n xi1 and 2n xi2 coordinates, n exponents and n eps,
    in that order, each uniform double one 64-bit output. Five cursors,
    copies of rng advanced to the starts 0, n, 3n, 5n and 6n, read the
    five arrays a block at a time, so the blocks hold exactly the arrays
    the draw would make at once; rng is then advanced past the draw.
    """
    while samples > 0:
        n = min(_MONO_DRAW, samples)
        state = rng.bit_generator.state
        scales, xi1s, xi2s, ps, epss = (_cursor(state, k * n) for k in (0, 1, 3, 5, 6))
        for lo in range(0, n, _MONO_BLOCK):
            m = min(_MONO_BLOCK, n - lo)
            scale = 10.0 ** scales.uniform(-2.0, 2.0, size=(m, 1))
            xi1 = xi1s.uniform(-1.0, 1.0, size=(m, 2)) * scale
            xi2 = xi2s.uniform(-1.0, 1.0, size=(m, 2)) * scale
            p = ps.uniform(gamma1, gamma2, size=m)
            eps = np.maximum(epss.uniform(0.0, 1.0, size=m), 1e-300)
            yield xi1, xi2, p, eps
        rng.bit_generator.advance(7 * n)
        samples -= n


# the tuples' scales lie below 100 and their coordinates in [-1, 1], so
# |xi1 - xi2| <= 200 sqrt(2), and up to this exponent (about 125.7) every
# sampled term stays finite; above it inf/inf ratios leave no evidence
MONO_GAMMA_MAX = math.log(np.finfo(float).max) / math.log(200.0 * math.sqrt(2.0))


def checked_gamma_range(gamma1, gamma2):
    """(gamma1, gamma2) as floats, after the rule 1 < gamma1 <= gamma2 <=
    MONO_GAMMA_MAX."""
    gamma1, gamma2 = _float(gamma1, "gamma1"), _float(gamma2, "gamma2")
    if not 1.0 < gamma1 <= gamma2:
        raise PreconditionError(f"need 1 < gamma1 <= gamma2, got {gamma1}, {gamma2}")
    if not gamma2 <= MONO_GAMMA_MAX:
        raise PreconditionError(f"gamma2 = {gamma2} exceeds {MONO_GAMMA_MAX}, "
                                f"past which the sampled terms overflow")
    return gamma1, gamma2


def _cursor(state, offset):
    """A Generator on a copy of the PCG64 `state`, `offset` outputs ahead."""
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    return np.random.Generator(bit_generator.advance(offset))


def _worst_ratio(gamma1, gamma2, c, samples, seed):
    """Max of LHS / (c (eps*vol + mono/eps)) over `samples` random tuples,
    drawn _MONO_DRAW at a time and evaluated _MONO_BLOCK at a time; the
    maximum is exact, so it does not depend on the blocks, and a nan
    ratio makes it nan."""
    worst = 0.0
    rng = np.random.default_rng(seed)
    for xi1, xi2, p, eps in _tuple_blocks(rng, gamma1, gamma2, samples):
        lhs, vol, mono = _mono_parts(xi1, xi2, p)
        rhs = c * (eps * vol + mono / eps)
        ok = rhs > 0.0
        if ok.any():
            worst = float(np.maximum(worst, (lhs[ok] / rhs[ok]).max()))
    return worst


def calibrate_monotonicity(gamma1, gamma2, samples=1_000_000, seed=20123):
    """Required constant: max over samples of LHS/(eps*vol + mono/eps),
    floored by the antipodal worst family, with 5% headroom."""
    # c = 1 multiplies exactly, so this is the uncalibrated ratio
    worst = _worst_ratio(gamma1, gamma2, 1.0, samples, seed)
    # antipodal equal-length pairs: denominator sup over eps in (0,1) is
    # attained at eps -> 1, yielding 2^p / 6 at the top exponent
    worst = max(worst, 2.0 ** gamma2 / 6.0)
    return 1.05 * worst


def monotonicity_check(gamma1, gamma2, trials, seed):
    """Worst LHS/RHS ratio of the vector inequality over random tuples with
    exponents in [gamma1, gamma2], after checked_gamma_range's rule."""
    gamma1, gamma2 = checked_gamma_range(gamma1, gamma2)
    trials = checked_trials(trials)
    if MONO_GAMMA[0] <= gamma1 and gamma2 <= MONO_GAMMA[1]:
        c = MONO_C
    else:
        c = calibrate_monotonicity(gamma1, gamma2, samples=100_000, seed=617)
    return _worst_ratio(gamma1, gamma2, c, trials, seed)


# ------------------------------------------------------------ radius, alpha

def admissible_radius(field, M):
    """Largest half-ball radius the local estimates tolerate (M after checked_M)."""
    M = checked_M(M)
    L = field.holder_seminorm
    beta = field.beta
    cap = 1.0 / (8.0 * M)
    if L <= 0.0:
        return cap
    g1 = field.gamma1
    t1 = (beta / (8.0 * L)) ** (2.0 / beta)
    t2 = 0.25 * (g1 * g1 / ((4.0 + g1) * L)) ** (1.0 / beta)
    return min(t1, t2, cap)


# the base gradient exponent the decay argument starts from: 1/2 is the
# optimal one of the p = 2 thin obstacle problem (Athanasopoulos and
# Caffarelli 2004)
ALPHA0 = 0.5


def theoretical_alpha(beta, gamma2):
    """Hölder exponent of the gradient predicted by the decay argument
    from the base exponent ALPHA0."""
    gamma2 = _float(gamma2, "gamma2")
    beta = checked_beta(beta)
    if not gamma2 > 1.0:
        raise PreconditionError("gamma2 must exceed 1")
    b0 = beta / 4.0
    return ALPHA0 * b0 / (2.0 * (2.0 + ALPHA0 + b0) * gamma2)


# ------------------------------------------------------------------ reports

# the scan's exponents: sorted, and 0 first, whose constant is below 1
SIGMA_GRID = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
# the largest implied constant the scan's sigma0 admits
C_CAP = 1e3


@dataclass
class ScanReport:
    radius: float             # the outer ball's radius r
    admissible_r: float
    sigma_grid: list
    c_sigma: list
    sigma0: float
    rh_radii: list = dc_field(default_factory=list)
    rh_ratios: list = dc_field(default_factory=list)


@dataclass
class HolderReport:
    centers: list
    profiles: list
    alphas: list
    alpha_min: float


def checked_scan_radius(r, field, M, center):
    """(r, admissible_radius(field, M)), after the rules: the 2r half-ball
    inside the 3/4 ball, and r at most the admissible radius. r = None is
    the default, 0.95 times the admissible radius, capped so that the 2r
    ball stays in the 3/4 ball. The admissible radius does not grow with
    M, and M >= 1, so at M = 1 both are upper bounds before any solve."""
    r_adm = admissible_radius(field, M)
    if r is None:
        r = min(0.95 * r_adm, (0.75 - math.hypot(*center)) / 2.0)
    r = checked_radii([r], 1, center)[0]
    if r > r_adm + GEOM_TOL:
        raise PreconditionError(
            f"radius {r} exceeds the admissible radius {r_adm} at M = {M}")
    return r, r_adm


def checked_outer_balls(mesh, center, r):
    """The scan's 2r and r balls about center, as (radius, element flags),
    after the rule that each holds at least 3 elements."""
    balls = [(s * r, ball_element_mask(mesh, center, s * r)) for s in (2.0, 1.0)]
    counts = [int(mask.sum()) for _, mask in balls]
    if min(counts) < 3:
        raise ResolutionError(
            f"ball selections are too coarse: about "
            f"{tuple(float(c) for c in center)}, radius {r} holds {counts[1]} "
            f"elements and radius {2.0 * r} holds {counts[0]}; each needs at "
            f"least 3, so refine the mesh")
    return balls


def scan_balls(mesh, center, r):
    """Every ball the scan measures about center, as (radius, element
    flags), from 2r down by halves: the checked_outer_balls, then each
    smaller ball past 2 h_max that holds at least 3 elements, up to 6
    balls in all."""
    balls = checked_outer_balls(mesh, center, r)
    rho = 0.5 * r
    while rho > 2.0 * mesh.h_max and len(balls) < 6:
        mask = ball_element_mask(mesh, center, rho)
        if mask.sum() < 3:
            break
        balls.append((rho, mask))
        rho *= 0.5
    return balls


def higher_integrability_scan(u, w, field, center, r=None):
    """Implied constants of the gradient self-improvement estimate, one per
    SIGMA_GRID exponent.

    All three quantities are normalized by the area of the outer ball's
    element selection, so the sigma = 0 constant is below 1 by set
    inclusion alone. sigma0 is the largest grid sigma whose constant
    stays under C_CAP. Reverse-Hölder ratios over the balls of scan_balls
    past 2 h_max use each ball's own average. Each ball takes one
    gradient_modulars pass for the whole grid: Du and Dw on the 2r ball,
    Du on the others. r defaults to 0.95 times the admissible radius,
    capped so that the 2r ball stays in the 3/4 ball.
    """
    center = checked_center(center)
    M = compute_M(u, w, field)
    r, r_adm = checked_scan_radius(r, field, M, center)
    mesh = u.mesh
    balls = scan_balls(mesh, center, r)
    [u_2r, w_2r] = gradient_modulars((u, w), field, balls[0][1], SIGMA_GRID)
    highs = [u_2r] + [gradient_modulars((u,), field, mask, SIGMA_GRID)[0]
                      for _, mask in balls[1:]]
    area2 = float(mesh.areas[balls[0][1]].sum())
    base_2r = u_2r[0] / area2
    c_sigma = [(lhs / area2) / (base_2r ** (1.0 + sigma) + rhs2 / area2 + 1.0)
               for sigma, lhs, rhs2 in zip(SIGMA_GRID, highs[1], w_2r)]
    passing = [s for s, c in zip(SIGMA_GRID, c_sigma) if c <= C_CAP]
    report = ScanReport(r, r_adm, list(SIGMA_GRID), c_sigma,
                        max(passing) if passing else 0.0)

    for (rho, mask), ball_highs in zip(balls, highs):
        if rho > 2.0 * mesh.h_max:
            area = float(mesh.areas[mask].sum())
            base = ball_highs[0] / area
            report.rh_radii.append(rho)
            report.rh_ratios.append([((high / area) ** (1.0 / (1.0 + sigma)) / base)
                                     if base > 0.0 else np.inf
                                     for sigma, high in zip(SIGMA_GRID, ball_highs)])
    return report


def gradient_holder_fit(u, field, centers, radii):
    """Campanato-type profile fit of the gradient around axis points.

    Each center uses the top exponent value of its largest half-ball as
    the fitting power; the profile growth rate converts to a gradient
    Hölder exponent.
    """
    centers = [checked_center(center) for center in centers]
    radii = checked_radii(radii, 2, h_max=u.mesh.h_max)
    profiles = [campanato_profile(
        u, field.sup_inf_on_halfball(center, max(radii))[1], center, radii)
        for center in centers]
    alphas = [prof.alpha for prof in profiles]
    return HolderReport([tuple(center) for center in centers], profiles, alphas,
                        min(alphas) if alphas else np.nan)
