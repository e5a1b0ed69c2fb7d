"""Variable-exponent space functionals over discrete fields.

Modulars and Luxemburg norms of piecewise-linear nodal functions on
half-disk meshes, modulars of their piecewise-constant gradients, sampled
checks of the Luxemburg norm identities, and Campanato profiles of the
gradients. A nodal function is the one way in: its gradient is formed
from it, a block of elements at a time.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import (NumericError, PreconditionError, ResolutionError,
                     _float, checked_trials)
from .exponent import ExponentField
from .mesh import (_field_at, _field_at_quad_points, _p1_at, ball_element_mask,
                   checked_radii, quadrature_rule)

REPORT_ORDER = 5
# Luxemburg norm: Newton steps allowed, and the step size counted as round-off
LUXEMBURG_STEPS = 100
ROUNDOFF = 4.0 * np.finfo(float).eps
# quadrature values per block of the Luxemburg Newton step's sums, of the
# modulars' terms and of report_mags: 0.5 MB per temporary, which stays
# in cache, where an L8 mesh's 1.8 M values take 14.7 MB per temporary and
# the step is bound by memory traffic
_SUM_BLOCK = 65_536


class FeFunction:
    """Piecewise-linear nodal field on a triangle mesh."""

    def __init__(self, mesh, values):
        self.mesh = mesh
        self.values = np.ascontiguousarray(values, dtype=float)
        if self.values.shape != (mesh.num_vertices,):
            raise PreconditionError("one nodal value per vertex required")
        if not np.all(np.isfinite(self.values)):
            raise PreconditionError("non-finite nodal value")

    def element_gradients(self, rows=slice(None)):
        """Constant gradient per element of rows, all of them by default,
        shape (len(rows), 2); a block of rows holds the bits of the
        whole-mesh array's rows."""
        tri_vals = np.take(self.values, self.mesh.triangles[rows])
        return np.einsum("ti,tid->td", tri_vals, self.mesh.grads[rows])

    @cached_property
    def report_mags(self):
        """|f| at the report quadrature points, (nt, nq), read-only, filled
        _SUM_BLOCK values at a time: computed once per function, for the
        modulars and norms of f to share."""
        rule = quadrature_rule(REPORT_ORDER)
        tri_vals = np.take(self.values, self.mesh.triangles)
        mags = np.empty((len(tri_vals), len(rule.points)))
        rows = _SUM_BLOCK // len(rule.points)
        for lo in range(0, len(mags), rows):
            vals = tri_vals[lo:lo + rows]
            mags[lo:lo + rows] = _p1_at(vals[:, 0], vals[:, 1], vals[:, 2], rule)
        np.abs(mags, out=mags)
        mags.flags.writeable = False
        return mags


def _region_elements(mesh, element_mask):
    """Indices of the selected elements; None, for all of them, without a mask."""
    if element_mask is None:
        return None
    mask = np.asarray(element_mask)
    if mask.dtype != bool:
        # an index array or float weights would be read as flags
        raise PreconditionError(f"element mask must be boolean, got dtype {mask.dtype}")
    if mask.shape != (mesh.num_triangles,):
        raise PreconditionError("element mask must have one flag per element")
    return np.flatnonzero(mask)


class _Sampled:
    """An exponent field's read-only p and weights, each (nt, nq), at the
    report quadrature points of one mesh, to pass as the exponent_field of
    several norms and modulars there. The weights depend on the mesh
    alone, so a record may share another's."""

    def __init__(self, field, mesh, weights=None):
        rule = quadrature_rule(REPORT_ORDER)
        self.p = _field_at_quad_points(mesh, field, rule)
        self.weights = mesh.quad_weights(rule) if weights is None else weights
        self.p.flags.writeable = self.weights.flags.writeable = False


def _gradient_magnitudes(f, rows, nq):
    """|Df| of a nodal function f at the nq report quadrature points of the
    elements `rows`: the rows of the whole-mesh array, bit for bit."""
    grads = f.element_gradients(rows)
    mags = np.hypot(grads[:, 0], grads[:, 1])
    return np.repeat(mags[:, None], nq, axis=1)


def _pairwise_sums(block_sums, lo, hi, block):
    """The sums of the values lo to hi, added along numpy's pairwise tree.

    block_sums(lo, hi) returns the sums, each a numpy `.sum()`, of the
    values lo to hi, for at most `block` (>= 128) of them. A longer range
    is split as numpy's pairwise sum splits it, at n2 = n//2 - (n//2 mod 8),
    and the halves' sums are added, so each result equals the `.sum()` of
    all the values: numpy sums a contiguous float64 array pairwise over the
    same tree, down to leaves of at most 128 values.
    """
    if hi - lo <= block:
        return block_sums(lo, hi)
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return tuple(a + b for a, b in zip(_pairwise_sums(block_sums, lo, mid, block),
                                       _pairwise_sums(block_sums, mid, hi, block)))


def checked_sigma(sigma):
    """sigma as a float; the exponent gain (1 + sigma) p must not fall below p."""
    sigma = _float(sigma, "sigma")
    if not sigma >= 0.0:
        raise PreconditionError(f"sigma must be >= 0, got {sigma}")
    return sigma


def _modulars(magnitudes, mesh, exponent_field, elements, sigmas):
    """The integral of |f|^{(1+sigma) p(x)} over the indices `elements` of
    the mesh's elements (all of them, when None), for each field f given
    by its magnitude(rows, nq), |f| at the report quadrature points, and
    each sigma of `sigmas`: one list of len(sigmas) sums per field.

    The elements are taken in blocks of at most _SUM_BLOCK quadrature
    values, and a block takes p and the weights once for every field: the
    block's rows of a _Sampled record, else evaluated and formed for the
    block's elements alone. Each field's magnitudes are formed once per
    block for every sigma. Each element's terms are summed, and the element
    sums are added in numpy's pairwise order.
    """
    rule = quadrature_rule(REPORT_ORDER)
    nq = len(rule.weights)

    def block_sums(lo, hi):
        rows = slice(lo, hi) if elements is None else elements[lo:hi]
        if isinstance(exponent_field, _Sampled):
            p, w = exponent_field.p[rows], exponent_field.weights[rows]
        else:
            p = _field_at(mesh, exponent_field, rule, rows)
            w = mesh.quad_weights(rule, rows)
        powers = [(1.0 + sigma) * p for sigma in sigmas]
        sums = []
        for magnitude in magnitudes:
            mags = magnitude(rows, nq)
            positive = mags > 0.0
            for power in powers:
                integrand = np.where(positive, mags, 1.0) ** power
                integrand = np.where(positive, integrand, 0.0)
                sums.append((integrand * w).sum(axis=1).sum())
        return sums

    count = mesh.num_triangles if elements is None else len(elements)
    totals = [float(total) for total
              in _pairwise_sums(block_sums, 0, count, _SUM_BLOCK // nq)]
    n = len(sigmas)
    return [totals[k * n:(k + 1) * n] for k in range(len(magnitudes))]


def modular(f, exponent_field):
    """integral of |f|^{p(x)} over the mesh for a nodal function f, by
    _modulars' blocks and pairwise sums."""
    [[total]] = _modulars([lambda rows, nq: f.report_mags[rows]], f.mesh,
                          exponent_field, None, (0.0,))
    return total


def gradient_modulars(functions, exponent_field, element_mask=None, sigmas=(0.0,)):
    """The integrals of |Df|^{(1+sigma) p(x)} over the mesh, or over the
    elements the boolean element_mask selects, for each nodal function f
    of `functions` and each sigma of `sigmas`: per function, the list of
    its modulars in the order of `sigmas`. The functions share one mesh:
    the same object, or equal vertices and triangles; others are rejected.
    p is formed once per block for all of them and each gradient a block
    at a time, so the sums are the bits of the whole-mesh terms masked
    afterwards, whichever sigmas are taken together."""
    sigmas = [checked_sigma(sigma) for sigma in sigmas]
    mesh = functions[0].mesh
    if not all(f.mesh is mesh or np.array_equal(f.mesh.vertices, mesh.vertices)
               and np.array_equal(f.mesh.triangles, mesh.triangles)
               for f in functions[1:]):
        raise PreconditionError("the functions live on different meshes")
    return _modulars([partial(_gradient_magnitudes, f) for f in functions], mesh,
                     exponent_field, _region_elements(mesh, element_mask), sigmas)


def gradient_mass(areas, grads, power):
    """sum of areas * |grads|^power over elements, a zero gradient adding 0:
    the exact integral of a piecewise-constant |f|^power."""
    mags = np.hypot(grads[:, 0], grads[:, 1])
    return float((areas * np.where(mags > 0.0, mags, 1.0) ** power
                  * (mags > 0.0)).sum())


def luxemburg_norm(f, exponent_field):
    """The lambda with modular(f/lambda) = 1 for a nodal function f, by
    Newton's method in log lambda.

    With t = log(lambda / max|f|), log modular(f/lambda) is a log-sum-exp
    of the affine functions log(w |f/max|f||^p) - p t, so it is convex and
    decreasing in t with slope in [-gamma2, -gamma1]. Newton's method on
    it converges from any start (after the first step every iterate lies
    below the root and increases to it) and is exact in one step for a
    constant exponent. It starts at lambda = max|f|, where no term
    exceeds its weight, and stops when the step is at round-off. Returns 0
    for the zero field. Each step evaluates its two sums _SUM_BLOCK
    quadrature values at a time, added along numpy's pairwise tree, so
    they equal the sums over the whole mesh at once. Every step reads p
    and the weights at all the quadrature points: a _Sampled record's, or
    else sampled once for this call.
    """
    if not isinstance(exponent_field, _Sampled):
        exponent_field = _Sampled(exponent_field, f.mesh)
    p, w = exponent_field.p, exponent_field.weights
    mags = f.report_mags
    top = float(mags.max())
    if top == 0.0:
        return 0.0
    mags, p, w = (a.reshape(-1) for a in (mags, p, w))
    t = 0.0
    for _ in range(LUXEMBURG_STEPS):
        shrink = math.exp(-t)

        def block_sums(lo, hi):
            terms = w[lo:hi] * (mags[lo:hi] / top * shrink) ** p[lo:hi]
            return terms.sum(), (p[lo:hi] * terms).sum()

        rho, slope = (float(total) for total
                      in _pairwise_sums(block_sums, 0, len(w), _SUM_BLOCK))
        step = rho * math.log(rho) / slope
        t += step
        if abs(step) <= ROUNDOFF * max(1.0, abs(t)):
            return top * math.exp(t)
    raise NumericError(f"Luxemburg Newton step still {step} after {LUXEMBURG_STEPS} steps")


def luxemburg_identity_checks(mesh, field, trials, seed):
    """Worst deviations of the three norm identities over random nodal fields.

    Returns (unit modular deviation, homogeneity relative error, constant
    exponent closed-form relative error).  The closed form uses p = 3.
    field and p = 3 are sampled at their first use into _Sampled records,
    which share one array of weights, for every norm and modular to read.
    """
    trials = checked_trials(trials)
    rng = np.random.default_rng(seed)
    p_field = p_three = None
    worst_unit = 0.0
    worst_homog = 0.0
    worst_const = 0.0
    n = mesh.num_vertices
    for _ in range(trials):
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
        if not np.any(values):
            continue
        f = FeFunction(mesh, values)
        p_field = p_field or _Sampled(field, mesh)
        nu = luxemburg_norm(f, p_field)
        unit = abs(modular(FeFunction(mesh, values / nu), p_field) - 1.0)
        worst_unit = max(worst_unit, unit)
        s = 10.0 ** rng.uniform(-1.0, 1.0)
        nu_scaled = luxemburg_norm(FeFunction(mesh, s * values), p_field)
        worst_homog = max(worst_homog, abs(nu_scaled - s * nu) / (s * nu))
        p_three = p_three or _Sampled(ExponentField("constant", [3.0]), mesh,
                                      p_field.weights)
        nu_const = luxemburg_norm(f, p_three)
        closed = modular(f, p_three) ** (1.0 / 3.0)
        worst_const = max(worst_const, abs(nu_const - closed) / closed)
    return worst_unit, worst_homog, worst_const


@dataclass
class CampanatoProfile:
    """Mean-oscillation decay I(rho) with a log-log power fit."""
    center: tuple
    p: float
    radii: list = field(default_factory=list)
    integrals: list = field(default_factory=list)
    means: list = field(default_factory=list)
    lam: float = math.inf
    alpha: float = math.inf


def campanato_profile(u, p, center, radii):
    """I(rho) = integral over B_rho of |Du - mean|^p for a nodal function u,
    fit log I = lam log rho + b.

    Regions are element selections (all three vertices inside), the mean
    is the area average of Du over the same region, and alpha = (lam - 2)/p.
    Profiles with fewer than two positive integrals keep the +inf sentinels
    for lam and alpha.
    """
    return _gradient_profile(u.mesh, u.element_gradients(), p, center, radii)


def _gradient_profile(mesh, grads, p, center, radii):
    """campanato_profile of the piecewise-constant field grads (nt, 2)."""
    p = float(p)
    radii = checked_radii(radii, 1, h_max=mesh.h_max)

    prof = CampanatoProfile(center=(float(center[0]), float(center[1])), p=p)
    for rho in radii:
        sel = ball_element_mask(mesh, center, rho)
        if int(sel.sum()) < 3:
            raise ResolutionError(f"fewer than 3 elements inside radius {rho}")
        a = mesh.areas[sel]
        v = grads[sel]
        mean = (a[:, None] * v).sum(axis=0) / a.sum()
        prof.radii.append(rho)
        prof.integrals.append(gradient_mass(a, v - mean, p))
        prof.means.append(float(np.hypot(mean[0], mean[1])))

    ii = np.asarray(prof.integrals)
    pos = ii > 0.0
    if int(pos.sum()) >= 2:
        x = np.log(np.asarray(radii)[pos])
        A = np.column_stack([x, np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(A, np.log(ii[pos]), rcond=None)
        prof.lam = float(coef[0])
        prof.alpha = (prof.lam - 2.0) / p
    return prof
