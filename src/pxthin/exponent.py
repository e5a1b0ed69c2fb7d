"""Variable exponent fields p(x) over the closed unit half-disk.

The half-disk is {x : |x| <= 1, x2 >= 0}. A field is one of four closed
parametric families, each carrying exact bounds gamma1/gamma2 over the
domain, an exact Lipschitz constant, and Holder data (beta, [p]_beta).
Closed forms keep every declared invariant checkable.
"""

import math

import numpy as np

from .errors import DomainError, PreconditionError, _float
from .mesh import in_half_disk, on_thin_line

# exact one-sided ranges of the families over the closed half-disk


def _affine_spread(a1, a2):
    # max/min of a1*x1 + a2*x2 over the half-disk; extremes sit on the
    # boundary: the arc gives hypot when the maximizing angle lies in
    # [0, pi], otherwise a corner of the diameter wins.
    amp = math.hypot(a1, a2)
    up = amp if a2 >= 0.0 else abs(a1)
    down = amp if a2 <= 0.0 else abs(a1)
    return down, up


FAMILIES = ("constant", "affine", "radial", "sinusoidal")
_NCOEF = {"constant": 1, "affine": 3, "radial": 2, "sinusoidal": 3}


def checked_beta(beta):
    """beta as a float, after the Hoelder exponent's rule 0 < beta <= 1."""
    beta = _float(beta, "beta")
    if not 0.0 < beta <= 1.0:
        raise PreconditionError(f"beta must lie in (0, 1], got {beta}")
    return beta


class ExponentField:
    """Immutable p(.) with exact bounds and Holder data.

    family/coefficients:
      constant   [c]          p(x) = c
      affine     [c, a1, a2]  p(x) = c + a1*x1 + a2*x2
      radial     [c, a]       p(x) = c + a*|x|
      sinusoidal [c, a, k]    p(x) = c + a*sin(k*x1)
    """

    def __init__(self, family, coefficients, beta=1.0, holder_seminorm=None):
        family = str(family).lower()
        if family not in FAMILIES:
            raise PreconditionError(f"unknown exponent family '{family}'")
        coeffs = tuple(_float(c, "a coefficient") for c in coefficients)
        if len(coeffs) != _NCOEF[family]:
            raise PreconditionError(
                f"family '{family}' needs {_NCOEF[family]} coefficients, got {len(coeffs)}")
        if not all(math.isfinite(c) for c in coeffs):
            raise PreconditionError("non-finite coefficient")
        beta = checked_beta(beta)

        self.family = family
        self.coefficients = coeffs
        self.beta = beta

        c0 = coeffs[0]
        if family == "constant":
            lo, hi, lip = c0, c0, 0.0
        elif family == "affine":
            down, up = _affine_spread(coeffs[1], coeffs[2])
            lo, hi = c0 - down, c0 + up
            lip = math.hypot(coeffs[1], coeffs[2])
        elif family == "radial":
            a = coeffs[1]
            lo, hi = c0 + min(0.0, a), c0 + max(0.0, a)
            lip = abs(a)
        else:
            a, k = coeffs[1], coeffs[2]
            amp = abs(a) * math.sin(min(abs(k), 0.5 * math.pi))
            lo, hi = c0 - amp, c0 + amp
            lip = abs(a * k)

        if lo <= 1.0:
            raise PreconditionError(
                f"exponent must stay > 1 on the half-disk; minimum is {lo}")
        self.gamma1 = lo
        self.gamma2 = hi
        self.lipschitz = lip

        if holder_seminorm is None:
            # Lipschitz L over a domain of diameter 2 gives the crude
            # beta-Holder bound L * 2^(1-beta).
            self.holder_seminorm = lip if beta == 1.0 else lip * 2.0 ** (1.0 - beta)
        else:
            declared = _float(holder_seminorm, "holder_seminorm")
            if declared < 0.0:
                raise PreconditionError("holder_seminorm must be >= 0")
            self.holder_seminorm = declared
            observed = estimate_holder_seminorm(self)
            if observed > declared + 1e-10:
                raise PreconditionError(
                    f"declared holder_seminorm {declared} is exceeded by a sampled "
                    f"difference quotient {observed}")

    def __repr__(self):
        cs = ", ".join(repr(c) for c in self.coefficients)
        return (f"ExponentField({self.family!r}, [{cs}], beta={self.beta!r}, "
                f"holder_seminorm={self.holder_seminorm!r})")

    def _raw(self, x1, x2):
        c = self.coefficients
        if self.family == "constant":
            return np.full_like(x1, c[0])
        if self.family == "affine":
            return c[0] + c[1] * x1 + c[2] * x2
        if self.family == "radial":
            return c[0] + c[1] * np.hypot(x1, x2)
        return c[0] + c[1] * np.sin(c[2] * x1)

    def eval(self, x):
        """p at a point (2,) or an array of points (..., 2); clipped to [gamma1, gamma2]."""
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        if pts.shape[-1] != 2:
            raise PreconditionError("points must have shape (..., 2)")
        inside = in_half_disk(pts)
        if not np.all(inside):
            bad = pts[~inside][0] if not single else pts
            raise DomainError(f"point outside the closed half-disk: {bad}")
        vals = np.clip(self._raw(pts[..., 0], pts[..., 1]), self.gamma1, self.gamma2)
        return float(vals) if single else vals

    def sup_inf_on_halfball(self, center, radius):
        """(inf, sup) of p over B_radius(center) intersected with the half-disk.

        The center lies on the thin line. p is evaluated at the family's
        exact extremal candidates, and the range is widened by a 1e-6 pad
        and clamped to [gamma1, gamma2].
        """
        cx, cy = float(center[0]), float(center[1])
        radius = float(radius)
        if radius <= 0.0:
            raise PreconditionError("radius must be positive")
        if not on_thin_line(np.array([cx, cy])):
            raise PreconditionError(
                f"half-ball center must lie on the thin line, got x2 = {cy}")

        px, py = self._extreme_candidates(cx, radius)
        keep = in_half_disk(np.stack([px, py], axis=-1))
        px, py = px[keep], py[keep]
        if px.size == 0:
            raise DomainError("half-ball does not intersect the half-disk")
        vals = self._raw(px, np.maximum(py, 0.0))
        pad = 1e-6
        p1 = min(max(float(vals.min()) - pad, self.gamma1), self.gamma2)
        p2 = max(min(float(vals.max()) + pad, self.gamma2), self.gamma1)
        return p1, p2

    def _extreme_candidates(self, cx, r):
        # Exact extremal points of each family over B_r((cx,0)) cut to the
        # half-disk.
        lo = max(-1.0, cx - r)
        hi = min(1.0, cx + r)
        if lo > hi:
            # the ball misses the segment [-1, 1] entirely
            return np.array([]), np.array([])
        xs = [lo, hi, min(max(cx, lo), hi)]
        ys = [0.0, 0.0, 0.0]
        if lo <= 0.0 <= hi:
            xs.append(0.0)
            ys.append(0.0)
        c = self.coefficients
        if self.family == "affine":
            a1, a2 = c[1], c[2]
            nrm = math.hypot(a1, a2)
            if nrm > 0.0:
                for s in (1.0, -1.0):
                    qx, qy = cx + s * r * a1 / nrm, s * r * a2 / nrm
                    if qy >= 0.0 and qx * qx + qy * qy <= 1.0:
                        xs.append(qx)
                        ys.append(qy)
                    tx, ty = s * a1 / nrm, s * a2 / nrm
                    if ty >= 0.0 and (tx - cx) ** 2 + ty ** 2 <= r * r:
                        xs.append(tx)
                        ys.append(ty)
            # top of the ball and unit-circle crossings, for the x2 part
            if abs(cx) > 1e-300:
                xi = (1.0 + cx * cx - r * r) / (2.0 * cx)
                if abs(xi) <= 1.0:
                    xs.append(xi)
                    ys.append(math.sqrt(max(0.0, 1.0 - xi * xi)))
            if cx * cx + r * r <= 1.0:
                xs.append(cx)
                ys.append(r)
        elif self.family == "sinusoidal":
            k = c[2]
            if k != 0.0:
                # critical points of sin(k x1) at k*x1 = pi/2 + m*pi
                lo_t, hi_t = sorted((k * lo, k * hi))
                m = math.ceil((lo_t - math.pi / 2) / math.pi)
                while True:
                    t = math.pi / 2 + m * math.pi
                    if t > hi_t or m > math.ceil((hi_t - math.pi / 2) / math.pi) + 2:
                        break
                    xs.append(t / k)
                    ys.append(0.0)
                    m += 1
        return np.asarray(xs), np.asarray(ys)


_SEMINORM_SAMPLES = 10_000


def estimate_holder_seminorm(field):
    """Max sampled difference quotient |p(x)-p(y)| / |x-y|^beta, beta = field.beta.

    A certified lower bound for [p(.)]_beta: quotients are taken over
    random far pairs plus short probes along numerically estimated
    gradient directions, with a fixed seed for reproducibility.
    """
    beta = field.beta
    rng = np.random.default_rng(1905)
    n = _SEMINORM_SAMPLES
    rad = np.sqrt(rng.uniform(0.0, 1.0, n))
    ang = rng.uniform(0.0, np.pi, n)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    pts[0] = (0.0, 0.0)
    pts[1] = (1.0, 0.0)
    pts[2] = (-1.0, 0.0)
    pts[3] = (0.0, 1.0)
    pts[4] = (0.5, 0.0)

    vals = field.eval(pts)
    best = 0.0

    # far pairs
    perm = rng.permutation(n)
    half = n // 2
    a, b = pts[perm[:half]], pts[perm[half:2 * half]]
    d = np.linalg.norm(a - b, axis=1)
    ok = d > 1e-9
    if np.any(ok):
        q = np.abs(vals[perm[:half]][ok] - vals[perm[half:2 * half]][ok]) / d[ok] ** beta
        best = max(best, float(q.max()))

    # short probes along estimated gradient directions, interior points only
    h = 1e-5
    t = 1e-3
    margin = t + 2 * h
    r2 = np.einsum("ij,ij->i", pts, pts)
    interior = (pts[:, 1] > margin) & (r2 < (1.0 - margin) ** 2)
    probe = pts[interior]
    # points on T probe parallel to T; same margin on the radius
    on_t = on_thin_line(pts) & (r2 < (1.0 - margin) ** 2)
    axis = pts[on_t]
    if probe.shape[0] > 0:
        gx = (field.eval(probe + [h, 0.0]) - field.eval(probe - [h, 0.0])) / (2 * h)
        gy = (field.eval(probe + [0.0, h]) - field.eval(probe - [0.0, h])) / (2 * h)
        nrm = np.hypot(gx, gy)
        keep = nrm > 1e-14
        if np.any(keep):
            e = np.column_stack([gx[keep], gy[keep]]) / nrm[keep, None]
            fplus = field.eval(probe[keep] + t * e)
            fminus = field.eval(probe[keep] - t * e)
            q = np.abs(fplus - fminus) / (2 * t) ** beta
            best = max(best, float(q.max()))
    if axis.shape[0] > 0:
        q = np.abs(field.eval(axis + [t, 0.0]) - field.eval(axis - [t, 0.0])) / (2 * t) ** beta
        best = max(best, float(q.max()))
    return best
