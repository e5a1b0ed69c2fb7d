"""Variable-exponent energy, first variation, and generalized Hessian.

The density is (1/p(x)) (|Dv|^2 + eps^2)^{p(x)/2} on P1 fields; eps = 0
recovers the unregularized functional. p is evaluated at quadrature
points, never element means, so intra-element exponent variation is kept.
"""

import numpy as np
import scipy.sparse as sp

from .errors import PreconditionError
from .mesh import quadrature_rule
from .vxspace import FeFunction

ASSEMBLY_ORDER = 2


class EnergySetup:
    """Mesh + exponent field + regularization, with cached quadrature data."""

    def __init__(self, mesh, exponent_field, epsilon=0.0, order=ASSEMBLY_ORDER):
        epsilon = float(epsilon)
        if not (0.0 <= epsilon <= 1e-2):
            raise PreconditionError(f"epsilon must lie in [0, 1e-2], got {epsilon}")
        self.mesh = mesh
        self.field = exponent_field
        self.epsilon = epsilon
        self.order = order
        rule = quadrature_rule(order)
        pts, w = mesh.quad_points(rule)
        self.quad_w = w                                          # (nt, nq)
        self.quad_p = exponent_field.eval(pts.reshape(-1, 2)).reshape(w.shape)

    def with_epsilon(self, epsilon):
        clone = object.__new__(EnergySetup)
        clone.mesh = self.mesh
        clone.field = self.field
        clone.epsilon = float(epsilon)
        if not (0.0 <= clone.epsilon <= 1e-2):
            raise PreconditionError("epsilon must lie in [0, 1e-2]")
        clone.order = self.order
        clone.quad_w = self.quad_w
        clone.quad_p = self.quad_p
        return clone


def _gradients(setup, v):
    values = v.values if isinstance(v, FeFunction) else np.asarray(v, dtype=float)
    if values.shape != (setup.mesh.num_vertices,):
        raise PreconditionError("one nodal value per vertex required")
    tri_vals = values[setup.mesh.triangles]
    return np.einsum("ti,tid->td", tri_vals, setup.mesh.grads)


def energy(setup, v):
    """Total energy of a nodal field."""
    g = _gradients(setup, v)
    s = (g ** 2).sum(axis=1)[:, None] + setup.epsilon ** 2      # (nt, 1)
    p = setup.quad_p
    dens = np.where(s > 0.0, np.where(s > 0.0, s, 1.0) ** (0.5 * p) / p, 0.0)
    return float((setup.quad_w * dens).sum(axis=1).sum())


def residual(setup, v):
    """First variation as a nodal vector: entries int a(x) Dv . Dphi_i.

    a = (|Dv|^2 + eps^2)^{(p-2)/2}, continuously extended by 0 where the
    regularized slope vanishes.
    """
    mesh = setup.mesh
    g = _gradients(setup, v)
    s = (g ** 2).sum(axis=1)[:, None] + setup.epsilon ** 2
    p = setup.quad_p
    a = np.where(s > 0.0, np.where(s > 0.0, s, 1.0) ** (0.5 * (p - 2.0)), 0.0)
    c1 = (setup.quad_w * a).sum(axis=1)                          # (nt,)
    gdotG = np.einsum("td,tid->ti", g, mesh.grads)               # (nt, 3)
    local = c1[:, None] * gdotG
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.num_vertices)


def hessian(setup, v):
    """Generalized second variation as a CSR matrix; requires eps > 0.

    Element tensor a [ I + (p-2) (Dv x Dv)/(|Dv|^2+eps^2) ]; symmetric by
    construction and positive definite for p > 1. The matrix shares its
    read-only index arrays with every Hessian on the same mesh.
    """
    if setup.epsilon <= 0.0:
        raise PreconditionError("hessian requires a positive regularization epsilon")
    mesh = setup.mesh
    g = _gradients(setup, v)
    s = (g ** 2).sum(axis=1)[:, None] + setup.epsilon ** 2
    p = setup.quad_p
    a = s ** (0.5 * (p - 2.0))
    c1 = (setup.quad_w * a).sum(axis=1)
    c2 = (setup.quad_w * a * (p - 2.0) / s).sum(axis=1)

    G = mesh.grads                                               # (nt, 3, 2)
    GG = np.einsum("tid,tjd->tij", G, G)
    Gg = np.einsum("tid,td->ti", G, g)
    K = c1[:, None, None] * GG + c2[:, None, None] * np.einsum("ti,tj->tij", Gg, Gg)

    indptr, indices, scatter = mesh.p1_pattern
    data = np.bincount(scatter, weights=K.ravel(), minlength=len(indices))
    n = mesh.num_vertices
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))
