"""Variable-exponent energy, first variation, and generalized Hessian.

The density is (1/p(x)) (|Dv|^2 + eps^2)^{p(x)/2} on P1 fields; eps = 0
recovers the unregularized functional. p is evaluated at quadrature
points, never element means, so intra-element exponent variation is kept.
"""

import copy

import numpy as np

from .errors import PreconditionError
from .mesh import _field_at_quad_points, quadrature_rule
from .sparse import _EDGES, PatternMatrix, _element_blocks
from .vxspace import FeFunction

ASSEMBLY_ORDER = 2      # the 3-point rule, whose points the sums below add
MAX_EPSILON = 1e-2


class EnergySetup:
    """Mesh + exponent field + regularization, with p cached at the
    quadrature points, (nt, 3); each pass forms the weights of its own
    block of elements. The regularization starts at 0; with_epsilon sets it."""

    def __init__(self, mesh, exponent_field):
        self.mesh = mesh
        self.field = exponent_field
        self.epsilon = 0.0
        self.quad_p = _field_at_quad_points(mesh, exponent_field,
                                            quadrature_rule(ASSEMBLY_ORDER))

    def with_epsilon(self, epsilon):
        epsilon = float(epsilon)
        if not 0.0 <= epsilon <= MAX_EPSILON:
            raise PreconditionError(f"epsilon must lie in [0, 1e-2], got {epsilon}")
        clone = copy.copy(self)         # shares quad_p
        clone.epsilon = epsilon
        return clone


# Every short sum below is written out as adds in index order: two gradient
# components, three quadrature points, three hat gradients. That is the
# order numpy's reductions and einsum use, so the results are the same bits
# without their per-call overhead on axes of length 2 and 3. The energy,
# the residual and the Hessian run over blocks of elements. The latter two
# scatter-add each block with np.add.at, which adds in index order as
# np.bincount does, so the blocks together give the bits of one whole-mesh
# bincount. The mesh's int32 indices are widened to intp a block at a time,
# or gathered with np.take: numpy's fancy indexing and add.at take int32
# indices at about half speed.

def _nodal(setup, v):
    """The nodal values of v, one per vertex of the setup's mesh."""
    values = v.values if isinstance(v, FeFunction) else np.asarray(v, dtype=float)
    if values.shape != (setup.mesh.num_vertices,):
        raise PreconditionError("one nodal value per vertex required")
    return values


def _slope(setup, values, tri, rows):
    """Per element of rows, whose vertices are tri: hat gradient components
    as contiguous rows hx[i], hy[i], the gradient (gx, gy) of the field, and
    s = |Dv|^2 + eps^2 as a column."""
    G = setup.mesh.grad_rows[:, rows]                            # x0 y0 x1 ..
    hx, hy = G[0::2], G[1::2]
    v0, v1, v2 = (np.take(values, tri[:, k]) for k in range(3))
    gx = v0 * hx[0] + v1 * hx[1] + v2 * hx[2]
    gy = v0 * hy[0] + v1 * hy[1] + v2 * hy[2]
    s = gx * gx + gy * gy + setup.epsilon ** 2
    return hx, hy, gx, gy, s[:, None]


def _element_slopes(setup, v):
    """(rows, tri, hx, hy, gx, gy, s) per block of elements: the block's
    rows, their vertices as intp, and their _slope terms."""
    mesh = setup.mesh
    values = _nodal(setup, v)
    for rows in _element_blocks(mesh.num_triangles):
        tri = mesh.triangles[rows].astype(np.intp)
        yield (rows, tri) + _slope(setup, values, tri, rows)


def _weights(setup, rows):
    """The quadrature weights of the elements rows, (len(rows), 3)."""
    return setup.mesh.quad_weights(quadrature_rule(ASSEMBLY_ORDER), rows)


def _slope_power(s, e):
    """s ** e computed in e's buffer, continued by 0 where s is not positive."""
    pos = s > 0.0
    np.power(np.where(pos, s, 1.0), e, out=e)
    np.copyto(e, 0.0, where=~pos)
    return e


def _columns_sum(a):
    """a[:, 0] + a[:, 1] + a[:, 2]: the per-element quadrature sum."""
    return a[:, 0] + a[:, 1] + a[:, 2]


def energy(setup, v):
    """Total energy of a nodal field. The element sums fill one array,
    which is then summed once as a whole."""
    sums = np.empty(setup.mesh.num_triangles)
    for rows, *_, s in _element_slopes(setup, v):
        p = setup.quad_p[rows]
        dens = _slope_power(s, p * 0.5)
        dens /= p
        dens *= _weights(setup, rows)
        sums[rows] = _columns_sum(dens)
    return float(sums.sum())


def residual(setup, v):
    """First variation as a nodal vector: entries int a(x) Dv . Dphi_i.

    a = (|Dv|^2 + eps^2)^{(p-2)/2}, continuously extended by 0 where the
    regularized slope vanishes.
    """
    out = np.zeros(setup.mesh.num_vertices)
    for rows, tri, hx, hy, gx, gy, s in _element_slopes(setup, v):
        a = _slope_power(s, (setup.quad_p[rows] - 2.0) * 0.5)
        a *= _weights(setup, rows)
        c1 = _columns_sum(a)                                     # (b,)
        local = np.empty((len(c1), 3))
        for i in range(3):
            local[:, i] = c1 * (hx[i] * gx + hy[i] * gy)
        np.add.at(out, tri.ravel(), local.ravel())
    return out


def _hessian_weights(setup, s, rows):
    """Per element of rows: c1 = sum_q w a and c2 = sum_q w a (p - 2) / s,
    with a = s^((p-2)/2)."""
    pm2 = setup.quad_p[rows] - 2.0
    wa = pm2 * 0.5
    np.power(s, wa, out=wa)
    wa *= _weights(setup, rows)
    c1 = _columns_sum(wa)
    wa *= pm2
    wa /= s
    return c1, _columns_sum(wa)


def hessian(setup, v):
    """Generalized second variation as a PatternMatrix; requires eps > 0.

    Element tensor a [ I + (p-2) (Dv x Dv)/(|Dv|^2+eps^2) ]; symmetric by
    construction and positive definite for p > 1. Each element adds its
    three diagonal terms to its vertices' diagonal slots and its three edge
    terms to its edges' (lo, hi) slots; the (hi, lo) slots then take copies,
    since entry (j, i) is the same product as (i, j). The matrix shares its
    read-only pattern with every Hessian on the same mesh.
    """
    if setup.epsilon <= 0.0:
        raise PreconditionError("hessian requires a positive regularization epsilon")
    pattern = setup.mesh.p1_pattern
    out = np.zeros(pattern.width * pattern.n)
    for rows, tri, hx, hy, gx, gy, s in _element_slopes(setup, v):
        c1, c2 = _hessian_weights(setup, s, rows)
        hg = [hx[i] * gx + hy[i] * gy for i in range(3)]         # Dphi_i . Dv
        K = np.empty((len(c1), 6))
        for k, (i, j) in enumerate(((0, 0), (1, 1), (2, 2)) + _EDGES):
            K[:, k] = c1 * (hx[i] * hx[j] + hy[i] * hy[j]) + c2 * (hg[i] * hg[j])
        np.add.at(out, pattern.diagonal[tri].ravel(), K[:, :3].ravel())
        upper = np.take(pattern.upper, pattern.edge[rows]).astype(np.intp)
        np.add.at(out, upper.ravel(), K[:, 3:].ravel())
    for edges in _element_blocks(len(pattern.upper)):
        out[pattern.lower[edges]] = out[pattern.upper[edges]]
    return PatternMatrix(pattern, out.reshape(pattern.width, pattern.n))
