"""Reference solutions, reflection checks, and the frozen-exponent decay experiment.

The decay experiment measures how fast a constant-exponent local solve
approaches the variable-exponent minimizer on shrinking half-balls. All
integrals of piecewise-constant gradient quantities are exact sums.
"""

from dataclasses import dataclass

import numpy as np

from .energy import EnergySetup, residual
from .errors import PreconditionError, _float
from .exponent import ExponentField
from .mesh import (INTERIOR, THIN, ball_element_mask, checked_center,
                   checked_radii, extract_halfball_submesh)
from .solver import ObstacleProblem, solve
from .vxspace import FeFunction, gradient_mass, gradient_modulars

# the frozen-exponent majorant's cap on sigma1: M^sigma1 with sigma1 =
# min(beta / 8, FREEZE_SIGMA0) normalizes the decay error
FREEZE_SIGMA0 = 0.1


@dataclass
class ReferenceReport:
    M: float                  # energy bound of the pair (u, w), see compute_M
    ordering_margin: float    # min over nodes of u - w
    reflect_residual: float   # odd-extension residual sup, see reflect_and_check


@dataclass
class DecayReport:
    radii: list
    p2: list
    error: list           # E(r) per radius
    energy_2r: list       # int over 2r ball of |Du|^p2
    ratio: list           # E / majorant
    energy_sub_u: list    # int over submesh |Du|^p2
    energy_sub_u0: list   # int over submesh |Du0|^p2
    sigma1: float
    fitted_rate: float = np.nan


def checked_M(M):
    """M as a float, after the rule that it is finite and at least 1, as
    compute_M's sums are."""
    M = _float(M, "M")
    if not 1.0 <= M < np.inf:
        raise PreconditionError(f"M must be finite and at least 1, got {M}")
    return M


def reference_problem(problem, values):
    """The reference problem on problem's setup: no obstacle, Dirichlet data
    0 on Thin and, on Arc, the constant m = min of `values` over Arc."""
    arc = problem.arc
    if not arc.any():
        raise PreconditionError("mesh has no Arc vertices")
    m = float(values[arc].min())
    return ObstacleProblem(problem.setup, np.where(arc, m, 0.0), obstacle=False)


def build_reference(u, problem, tol=1e-10):
    """Reference solution: Dirichlet data min_Arc(u) on Arc and 0 on Thin.

    Returns (w, reference_report(u, w, field of problem)).
    """
    w, _ = solve(reference_problem(problem, u.values), tol)
    return w, reference_report(u, w, problem.setup.field)


def reference_report(u, w, field):
    """ReferenceReport of the pair: M, which rejects a pair on different
    meshes first, the nodal ordering margin min(u - w) and the odd
    reflection residual of w."""
    M = compute_M(u, w, field)
    return ReferenceReport(ordering_margin=float((u.values - w.values).min()),
                           reflect_residual=reflect_and_check(w, field), M=M)


def reflect_and_check(w, field):
    """Residual sup-norm of the odd extension of w across Thin, with the
    exponent extended evenly, on the full disk.

    It is computed on the half-disk, with no mirrored mesh. For an even p
    and an odd w the residual at each upper node of the mirrored disk is
    w's own residual there, bit for bit; at each mirrored node it is minus
    that, and at Thin nodes the lower elements cancel the upper ones, both
    up to round-off. So the sup over the disk's interior is the sup over
    the INTERIOR vertices of the half-disk. The extension is odd only if w
    is exactly 0 on Thin.
    """
    mesh = w.mesh
    if np.any(w.values[mesh.vertex_tags == THIN] != 0.0):
        raise PreconditionError("w does not vanish on Thin nodes")
    interior = mesh.vertex_tags == INTERIOR
    if not interior.any():
        return 0.0
    r = residual(EnergySetup(mesh, field), w)
    return float(np.abs(r[interior]).max())


def compute_M(u, w, field):
    """Total energy mass of the pair plus domain area plus one: the
    modulars of Du and Dw, taken in one gradient_modulars pass over the
    elements, which rejects a pair on different meshes."""
    area = float(u.mesh.areas.sum())
    [mass_u], [mass_w] = gradient_modulars((u, w), field)
    return mass_u + mass_w + area + 1.0


def comparison_decay(u, field, center, radii, M, tol=1e-10):
    """Decay of the frozen-exponent comparison error over shrinking balls.

    For each radius r the submesh error E(r) = integral of |Du - Du0|^p2
    is normalized by M^sigma1 * (energy of u on the 2r ball) + r^2, with
    sigma1 = min(beta / 8, FREEZE_SIGMA0), and the normalized values are
    fitted against r in log-log coordinates. M is the energy bound of u
    and its reference, as reference_report gives it, and checked_M's rule
    holds for it before any submesh or solve.
    """
    center = checked_center(center)
    radii = checked_radii(radii, 3, center, u.mesh.h_max)
    M = checked_M(M)
    sigma1 = min(field.beta / 8.0, FREEZE_SIGMA0)

    # every submesh and exponent first, so a too-coarse ball fails before a solve
    pieces = [extract_halfball_submesh(u.mesh, center, r) for r in radii]
    p2s = [field.sup_inf_on_halfball(center, r)[1] for r in radii]
    grad_u = u.element_gradients()

    rows = []
    for r, (submesh, vmap), p2 in zip(radii, pieces, p2s):
        # p frozen at p2, u's trace as Arc data, the obstacle on submesh Thin
        g_sub = u.values[vmap]
        frozen = EnergySetup(submesh, ExponentField("constant", [p2]))
        u0, _ = solve(ObstacleProblem(frozen, g_sub), tol)
        du = FeFunction(submesh, g_sub).element_gradients()
        du0 = u0.element_gradients()
        err = gradient_mass(submesh.areas, du - du0, p2)
        # u's elements fully inside the 2r ball; exact piecewise-constant sum
        ball = ball_element_mask(u.mesh, center, 2.0 * r)
        e2r = gradient_mass(u.mesh.areas[ball], grad_u[ball], p2)
        majorant = M ** sigma1 * e2r + r * r
        rows.append((r, p2, err, e2r, err / majorant,
                     gradient_mass(submesh.areas, du, p2),
                     gradient_mass(submesh.areas, du0, p2)))
    # one list per DecayReport field, in field order
    report = DecayReport(*map(list, zip(*rows)), sigma1=sigma1)

    pos = [(r, q) for r, q in zip(report.radii, report.ratio) if q > 0.0]
    if len(pos) >= 2:
        lr = np.log([p[0] for p in pos])
        lq = np.log([p[1] for p in pos])
        report.fitted_rate = float(np.polyfit(lr, lq, 1)[0])
    return report
