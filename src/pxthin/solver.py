"""Minimization of the variable-exponent energy, with or without the thin obstacle.

Each problem is solved with a primal-dual active set method wrapped in
epsilon-continuation: each stage regularizes the energy with a fixed eps,
warm-starting from the previous stage, and the last stage's minimizer is
reported with its energy re-evaluated at eps = 0. The continuation is
nested over the mesh hierarchy: the multigrid's coarsest level runs every
stage, and each finer level runs only the last one, from the prolonged
coarser solution.
"""

import functools
import itertools
import time
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .energy import EnergySetup, energy, hessian, residual
from .errors import (ConvergenceError, FormatError, PreconditionError,
                     ResourceError, _float, checked_trials)
from .mesh import (ARC, THIN, mesh_hash, _finite, _text_lines, _text_record,
                   _text_rows, _write_text)
from .sparse import galerkin
from .vxspace import FeFunction

EPS_SCHEDULE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
ARMIJO_SLOPE = 1e-4
MAX_HALVINGS = 40
STAGNATION_WINDOW = 200
# Newton systems: CG preconditioned by one V-cycle over the mesh hierarchy,
# down to the mesh after MG_COARSEST refinements (the mesh itself on a
# shorter chain), whose kept block is solved densely, up to DENSE_MAX free
# vertices: 50 MB at that size, whose LU takes 0.35-0.39 s per CG step with
# one OpenBLAS thread on a 2-core x86-64 host.
MG_COARSEST = 2
MG_OMEGA = 0.6          # damped Jacobi weight
MG_SWEEPS = 2           # pre- and post-smoothing sweeps
DENSE_MAX = 2500
# Inexact Newton (Eisenstat & Walker 1996): each system is solved to the
# relative tolerance max(CG_RTOL, min(ETA_MAX, measure / first)), where
# measure is the current KKT measure and first is the stage's first one
CG_RTOL = 1e-12
ETA_MAX = 1e-4
CG_MAXITER = 200


class ObstacleProblem:
    """Energy setup plus boundary data and the unilateral constraint.

    g supplies the values at the `dirichlet` vertices. With obstacle=True
    (the thin obstacle problem) these are the Arc vertices, and the
    `obstacle` mask, where v >= 0 is imposed, is Thin. With
    obstacle=False (the reference problem) the mask is empty and the Thin
    vertices join `dirichlet`.
    """

    def __init__(self, setup, g, obstacle=True):
        if isinstance(g, FeFunction):
            g = g.values
        self.setup = setup
        self.g = np.ascontiguousarray(g, dtype=float)
        if self.g.shape != (setup.mesh.num_vertices,):
            raise PreconditionError("boundary data needs one value per vertex")
        tags = setup.mesh.vertex_tags
        self.arc = tags == ARC
        thin = tags == THIN
        self.constrained = bool(obstacle)
        self.obstacle = thin if obstacle else np.zeros_like(thin)
        self.dirichlet = self.arc.copy() if obstacle else self.arc | thin

    def feasible(self, v):
        """v, in place, with g at the Dirichlet vertices and clamped to 0
        from below at the obstacle vertices."""
        v[self.dirichlet] = self.g[self.dirichlet]
        v[self.obstacle] = np.maximum(v[self.obstacle], 0.0)
        return v


def _summed(key, count):
    """A read-only view of SolveReport.stages: column `count` summed over
    each run of consecutive rows that share column `key`."""
    return property(lambda report: [sum(row[count] for row in rows) for _, rows
                                    in itertools.groupby(report.stages, itemgetter(key))])


@dataclass
class SolveReport:
    # one row (mesh level, eps, Newton systems, CG steps) per eps stage run
    stages: list = field(default_factory=list)
    energy: float = np.nan            # at eps = 0
    free_residual: float = np.nan
    complementarity: float = np.nan
    active_set: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    wall_time: float = 0.0
    # Newton systems and CG steps per eps stage, summed over mesh levels (the
    # finer levels run only the last eps), and per mesh level, coarse to fine
    iterations = _summed(1, 2)
    cg_steps = _summed(1, 3)
    level_iterations = _summed(0, 2)
    level_cg_steps = _summed(0, 3)


def _kkt(problem, v, r):
    ob = problem.obstacle
    active = ob & (v - r < 0.0)
    free = ~problem.dirichlet & ~active
    free_res = float(np.abs(r[free]).max()) if free.any() else 0.0
    comp = float(np.abs(np.minimum(v[ob], r[ob])).max()) if ob.any() else 0.0
    return active, free, free_res, comp


def _line_search(setup, problem, v, d, r, e0):
    """Backtracking along the projected arc t -> feasible(v + t d), with the
    Armijo test on the step actually taken (Bertsekas 1982): where the
    obstacle clamps a component, it adds nothing to the predicted decrease."""
    t = 1.0
    for _ in range(MAX_HALVINGS):
        w = problem.feasible(v + t * d)
        ew = energy(setup, w)
        if ew <= e0 + ARMIJO_SLOPE * float(r @ (w - v)) + 1e-15 * max(1.0, abs(e0)):
            return w, ew, True
        t *= 0.5
    return v, e0, False


def _v_cycle_meshes(mesh):
    """mesh and the meshes below it in its V-cycle, fine to coarse, down to
    the one at MG_COARSEST refinements (those of its source, for a
    submesh); just mesh when it has no `below`."""
    meshes = [mesh]
    while (len((meshes[-1].source or meshes[-1]).hierarchy) > MG_COARSEST + 1
           and meshes[-1].below is not None):
        meshes.append(meshes[-1].below)
    return meshes


def _multigrid_levels(H, free, mesh):
    """Level operators for the free block of H, finest first.

    Level 0 is H with the free vertices kept. Each coarser level keeps the
    coarse vertices whose own fine vertex is kept (so Dirichlet and active
    vertices are truncated on every level, and so are coarse vertices
    outside a submesh) and takes the truncated Galerkin operator P^T A P.
    Vectors of a level have one entry per vertex and vanish off the kept
    ones. Returns ([(A, MG_OMEGA * (1/diag A), kept, P, coarse kept), ...],
    the coarsest kept block as a dense array, its kept flags). The smoother
    weight is formed in that order: MG_OMEGA / diag A rounds differently.
    """
    meshes = _v_cycle_meshes(mesh)
    A, kept = H, free
    levels = []
    for fine, coarse in zip(meshes, meshes[1:]):
        P = fine.prolongation
        wdinv = np.zeros(len(kept))
        wdinv[kept] = MG_OMEGA * (1.0 / A.diagonal()[kept])
        kept_coarse = P.coarse_kept(kept)
        levels.append((A, wdinv, kept, P, kept_coarse))
        A = galerkin(A, kept, P, fine.coarse_map, coarse.p1_pattern)
        kept = kept_coarse
    return levels, A.dense(kept), kept


def _v_cycle(levels, coarse, coarse_kept, b):
    """One symmetric V-cycle with damped Jacobi smoothing, as a loop, down
    to a dense solve of the coarsest kept block."""
    down = []
    for A, wdinv, kept, P, kept_coarse in levels:
        x = wdinv * b
        for _ in range(MG_SWEEPS - 1):
            x += wdinv * (b - A @ x)
        down.append((x, b))
        b = P.restrict(kept * (b - A @ x)) * kept_coarse
    x = np.zeros_like(b)
    x[coarse_kept] = np.linalg.solve(coarse, b[coarse_kept])
    for (A, wdinv, kept, P, _), (x_fine, b) in zip(reversed(levels), reversed(down)):
        x = x_fine + kept * (P @ x)
        for _ in range(MG_SWEEPS):
            x += wdinv * (b - A @ x)
    return x


def _cg(A, M, b, rtol):
    """Preconditioned CG from 0, step for step as `scipy.sparse.linalg.cg`:
    it stops once |r| < rtol |b|. Returns (x, steps), x None after
    CG_MAXITER steps."""
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0
    atol = rtol * float(bnorm)
    r = b.copy()
    for iteration in range(CG_MAXITER):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = M(r)
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return None, CG_MAXITER


def _free_solve(H, free, rhs, mesh, rtol):
    """Solve H[free, free] x = rhs to the relative residual rtol; returns
    (x, CG steps), x None when CG does not converge or the coarsest
    operator is singular.

    The preconditioner is one V-cycle over mesh's multigrid levels. A mesh
    without a coarser level is its own coarsest level, so the preconditioner
    is a dense solve and CG ends after one or two steps.
    """
    levels, coarse, coarse_kept = _multigrid_levels(H, free, mesh)
    index = np.flatnonzero(free)
    full = np.zeros(len(free))

    def on_free(apply):
        """apply, which takes and gives one entry per vertex, on the free ones."""
        def applied(x):
            full[index] = x
            return apply(full)[index]
        return applied

    try:
        x, steps = _cg(on_free(H.__matmul__),
                       on_free(functools.partial(_v_cycle, levels, coarse, coarse_kept)),
                       rhs, rtol)
    except np.linalg.LinAlgError:       # exactly singular, so at the first step
        return None, 0
    return (x if x is not None and np.all(np.isfinite(x)) else None), steps


def _newton_direction(setup, v, r, active, free, rtol):
    """The active-set Newton step: -v at the active vertices and the free
    block's solve, to rtol, at the free ones. Returns (d, CG steps), d None
    when no vertex is free or the solve fails."""
    d = np.zeros_like(v)
    d[active] = -v[active]
    H = hessian(setup, v)
    if not free.any():
        return None, 0
    df, steps = _free_solve(H, free, -(r + H @ d)[free], setup.mesh, rtol)
    if df is None:
        return None, steps
    d[free] = df
    return d, steps


def _solve_stage(problem, v, eps, tol):
    """Newton iterations at one eps; returns (v, best, systems, cg_steps,
    converged), best the smallest KKT measure met. On stagnation v is the
    iterate with that measure; no iterate is changed in place, so it is
    kept uncopied. The energy of v is evaluated once, at the first step,
    and then taken from the accepted line-search step."""
    setup = problem.setup.with_epsilon(eps)
    e = first = None
    systems = cg_steps = since_improve = 0
    best = (np.inf, v)
    while True:
        r = residual(setup, v)
        active, free, free_res, comp = _kkt(problem, v, r)
        measure = max(free_res, comp)
        if first is None:
            first = measure
        if measure < best[0] - 1e-16:
            best, since_improve = (measure, v), 0
        else:
            since_improve += 1
        if free_res <= tol and comp <= tol:
            return v, best[0], systems, cg_steps, True
        if since_improve > STAGNATION_WINDOW:
            return best[1], best[0], systems, cg_steps, False
        systems += 1
        d, steps = _newton_direction(setup, v, r, active, free,
                                     max(CG_RTOL, min(ETA_MAX, measure / first)))
        cg_steps += steps
        if e is None:
            e = energy(setup, v)
        accepted = False
        if d is not None and float(r @ d) < 0.0:
            v_new, e_new, accepted = _line_search(setup, problem, v, d, r, e)
        if not accepted:
            # projected gradient fallback
            d = -r
            d[problem.dirichlet] = 0.0
            v_new, e_new, accepted = _line_search(setup, problem, v, d, r, e)
        if accepted:
            v, e = v_new, e_new
        # if both searches failed, loop continues and stagnation will trip


def checked_tol(tol):
    """tol as a float, after the rule 1e-14 <= tol <= 1e-4."""
    tol = _float(tol, "tol")
    if not (1e-14 <= tol <= 1e-4):
        raise PreconditionError(f"tol must lie in [1e-14, 1e-4], got {tol}")
    return tol


def solve(problem, tol):
    """Minimize over the admissible set; returns (FeFunction, SolveReport).

    A nested iteration over the mesh's hierarchy, from the multigrid's
    coarsest level to the mesh: the first level runs the whole EPS_SCHEDULE
    from the feasible start, and each finer level runs only the last eps
    stage, from the coarser solution prolonged and made feasible.
    Feasibility is exact at every iterate: Dirichlet values pinned to g,
    obstacle values >= 0. A stage that stops improving, on any level, ends
    the solve with its best iterate, prolonged to problem's mesh; it raises
    ConvergenceError with that iterate as `best` and the report as `info`.
    The report's energy is the returned iterate's at eps = 0, and its KKT
    values and active set are the iterate's at the last stage's eps. Every
    V-cycle ends on the last mesh of the first level's, solved densely: with
    more than DENSE_MAX free vertices there, it raises ResourceError first.
    """
    tol = checked_tol(tol)
    mesh = problem.setup.mesh
    hierarchy = mesh.hierarchy
    first = min(MG_COARSEST, len(hierarchy) - 1)
    free = ~problem.dirichlet[:hierarchy[first].num_vertices]
    for fine in _v_cycle_meshes(hierarchy[first])[:-1]:
        free = fine.prolongation.coarse_kept(free)
    if np.count_nonzero(free) > DENSE_MAX:
        raise ResourceError(
            f"the coarsest multigrid level is solved densely, which allows at "
            f"most {DENSE_MAX} free vertices; this one has {np.count_nonzero(free)}")
    t0 = time.perf_counter()
    report = SolveReport()
    for k in range(first, len(hierarchy)):
        # level k's problem: the same field and obstacle kind, g's first values
        level = problem if hierarchy[k] is mesh else ObstacleProblem(
            EnergySetup(hierarchy[k], problem.setup.field),
            problem.g[:hierarchy[k].num_vertices], obstacle=problem.constrained)
        if k == first:
            v, schedule = level.feasible(level.g.copy()), EPS_SCHEDULE
        else:
            v, schedule = level.feasible(hierarchy[k].prolongation @ v), EPS_SCHEDULE[-1:]
        for eps in schedule:
            v, best, systems, cg_steps, converged = _solve_stage(level, v, eps, tol)
            report.stages.append((k, eps, systems, cg_steps))
            if not converged:
                break
        if not converged:
            break

    # the iterate on problem's mesh, made feasible (a converged one keeps its
    # bits), and its KKT values at the last stage's eps
    for finer in hierarchy[k + 1:]:
        v = finer.prolongation @ v
    v = problem.feasible(v)
    r = residual(problem.setup.with_epsilon(eps), v)
    active, _, report.free_residual, report.complementarity = _kkt(problem, v, r)
    report.energy = energy(problem.setup.with_epsilon(0.0), v)
    report.active_set = np.flatnonzero(active | (problem.obstacle & (v == 0.0)))
    report.wall_time = time.perf_counter() - t0
    u = FeFunction(mesh, v)
    if not converged:
        raise ConvergenceError(
            f"no residual decrease over {STAGNATION_WINDOW} iterations "
            f"on level {k} ({k - first + 1} of {len(hierarchy) - first}) in eps "
            f"stage {eps:g} ({EPS_SCHEDULE.index(eps) + 1} of {len(EPS_SCHEDULE)}); "
            f"best KKT measure {best}", best=u, info=report)
    return u, report


def vi_check(problem, u_h, trials, seed):
    """Worst normalized variational-inequality product over random directions.

    Directions vanish at Dirichlet vertices and are clamped to v >= -u_h
    at obstacle vertices; returns min over trials of residual(u_h) . v / |v|,
    with the residual taken at eps = 0.
    """
    trials = checked_trials(trials)
    u = u_h.values
    ob = problem.obstacle
    fixed = problem.dirichlet
    if fixed.any() and np.abs(u[fixed] - problem.g[fixed]).max() > 1e-9:
        raise PreconditionError("u_h does not match the Dirichlet data")
    if ob.any() and u[ob].min() < -1e-12:
        raise PreconditionError("u_h violates the obstacle")

    r = residual(problem.setup.with_epsilon(0.0), u)
    rng = np.random.default_rng(seed)
    n = len(u)
    worst = np.inf
    for _ in range(trials):
        v = rng.uniform(-1.0, 1.0, n)
        v[problem.dirichlet] = 0.0
        v[ob] = np.maximum(v[ob], -u[ob])
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            continue
        worst = min(worst, float(r @ v) / nrm)
    return worst


def _solution_chunks(u):
    """The solution file's text in pieces of at most TEXT_CHUNK lines."""
    n = len(u.values)
    yield f"s {mesh_hash(u.mesh)} {n}\n"
    yield from _text_rows("u %d %.17g\n", np.arange(n), u.values)


def save_solution(u, path):
    _write_text(path, _solution_chunks(u))


def load_solution(path, mesh):
    lines = _text_lines(path)
    if not lines:
        raise FormatError(f"{path}: empty solution file")
    digest, n = _text_record(path, lines[0], "s", (str, int))
    if digest != mesh_hash(mesh):
        raise FormatError(f"{path}: solution was computed on a different mesh")
    if n != mesh.num_vertices or len(lines) != 1 + n:
        raise FormatError(f"{path}: wrong number of values")
    vals = np.empty(n)
    for i, line in enumerate(lines[1:]):
        index, vals[i] = _text_record(path, line, "u", (int, _finite))
        if index != i:
            raise FormatError(f"{path} line {line[0]}: expected index {i}, "
                              f"got {index}")
    return FeFunction(mesh, vals)
