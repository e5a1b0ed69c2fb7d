"""Shared fixtures.  Meshes and solves are session scoped: they are pure
functions of their arguments, so every test file reuses the same objects."""

import ast
import inspect
import os
import pathlib
import tracemalloc

# one BLAS thread, as in bench/run.py, before numpy loads: a multithreaded
# BLAS may sum in another order, and the sha256 pins would then depend on
# the core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

import pxthin
from pxthin import (EnergySetup, ExponentField, FeFunction, ObstacleProblem,
                    TriMesh, build, solve)
from pxthin.cli import _SCHEMA
from pxthin.mesh import ARC, INTERIOR, in_half_disk, on_arc, on_thin_line

CRITERION_LINES = []

# one field of each exponent family, for property tests over families
FAMILIES = (ExponentField("constant", [2.0]),
            ExponentField("affine", [2.0, 0.3, 0.0]),
            ExponentField("radial", [2.2, 0.4]),
            ExponentField("sinusoidal", [2.0, 0.5, np.pi]))


def record_criterion(number, passed, detail):
    """One pass/fail line per acceptance criterion, shown in the summary."""
    line = "CRITERION %2d: %s  %s" % (number, "PASS" if passed else "FAIL", detail)
    CRITERION_LINES.append((number, line))
    print(line)
    return passed


def public_parameters():
    """The parameters of the public surface: each __all__ function's
    parameters plus each class's own __init__ parameters, less self, *args
    and **kwargs."""
    def count(fn):
        kinds = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        return sum(1 for p in inspect.signature(fn).parameters.values()
                   if p.kind not in kinds and p.name != "self")

    params = 0
    for name in pxthin.__all__:
        obj = getattr(pxthin, name)
        if inspect.isclass(obj):
            params += count(vars(obj)["__init__"]) if "__init__" in vars(obj) else 0
        else:
            params += count(obj)
    return params


def longest_function(source):
    """(lines, qualified name) of the longest def in the package's modules,
    methods named by their class; nested defs count within their parent."""
    def defs(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield child.end_lineno - child.lineno + 1, prefix + child.name
            elif isinstance(child, ast.ClassDef):
                yield from defs(child, f"{prefix}{child.name}.")

    return max(found for path in source.glob("*.py")
               for found in defs(ast.parse(path.read_text("utf-8")), f"{path.stem}."))


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for _, line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
    # the sizes each change reports
    source = pathlib.Path(pxthin.__file__).parent
    lines = sum(len(path.read_text("utf-8").splitlines())
                for path in source.glob("*.py"))
    keys = sum(len(entries) for entries in _SCHEMA.values())
    length, name = longest_function(source)
    terminalreporter.write_line(
        "SIZE: src %d lines, __all__ %d names, %d public parameters, %d config keys, "
        "longest %s %d lines" % (lines, len(pxthin.__all__), public_parameters(), keys,
                                 name, length))


def csr(matrix):
    """scipy CSR copy of a hessian() PatternMatrix or of a Prolongation, the
    oracle the tests compare pxthin's numpy kernels with."""
    import scipy.sparse as sp

    if hasattr(matrix, "pattern"):
        rows, cols, pos = matrix.pattern.entries()
        n = matrix.pattern.n
        return sp.csr_matrix((matrix.values.ravel()[pos], (rows, cols)), shape=(n, n))
    matrix = weighted(matrix)
    n_fine, n_coarse = len(matrix.ends), matrix.n_coarse
    rows = np.repeat(np.arange(n_fine), 2)
    keep = matrix.weights.ravel() != 0.0
    return sp.csr_matrix((matrix.weights.ravel()[keep],
                          (rows[keep], matrix.ends.ravel()[keep])),
                         shape=(n_fine, n_coarse))


class WeightedProlongation:
    """The Prolongation as it was held before it became one record of the
    refinement, the oracle of the record's bits: fine vertex i takes
    weights[i, 0] x[ends[i, 0]] + weights[i, 1] x[ends[i, 1]], with int64
    ends, a copy row's coarse vertex twice, and float64 weights, (1, 0) on
    a copy row and (1/2, 1/2) on a midpoint row."""

    def __init__(self, ends, n_coarse):
        self.ends = ends
        self.n_coarse = n_coarse
        self.weights = np.where((ends[:, 0] == ends[:, 1])[:, None], [1.0, 0.0], 0.5)

    def __matmul__(self, x):
        e, w = self.ends, self.weights
        return w[:, 0] * x[e[:, 0]] + w[:, 1] * x[e[:, 1]]

    def restrict(self, r):
        return np.bincount(self.ends.ravel(), weights=(self.weights * r[:, None]).ravel(),
                           minlength=self.n_coarse)

    def coarse_kept(self, kept):
        copies = self.weights[:, 1] == 0.0
        out = np.zeros(self.n_coarse, dtype=bool)
        out[self.ends[copies, 0]] = kept[copies]
        return out


def weighted(prolongation):
    """The WeightedProlongation of a Prolongation record, from its copies
    and mids."""
    if isinstance(prolongation, WeightedProlongation):
        return prolongation
    copies = np.asarray(prolongation.copies, dtype=np.int64)
    ends = np.concatenate([np.stack([copies, copies], axis=1),
                           np.asarray(prolongation.mids, dtype=np.int64)])
    return WeightedProlongation(ends, prolongation.n_coarse)


def weighted_prolongation(mesh):
    """The WeightedProlongation onto mesh from mesh.below, built from the
    mesh as it was before the record: the identity on the coarser mesh's
    vertices and `parents`, or for a submesh the source's rows at its
    vertices, renumbered into `below`."""
    if mesh.source is None:
        n = mesh.coarser.num_vertices
        copies = np.repeat(np.arange(n), 2).reshape(n, 2)
        return WeightedProlongation(np.concatenate([copies, mesh.parents]), n)
    below = mesh.below
    local = np.empty(mesh.source.coarser.num_vertices, dtype=np.int64)
    local[below.vertex_map] = np.arange(below.num_vertices)
    source = weighted_prolongation(mesh.source)
    return WeightedProlongation(local[source.ends[mesh.vertex_map]], below.num_vertices)


def looped_bisect_towards_thin(vertices, triangles):
    """The grading round as a Python loop over elements with a midpoint
    dict, as it was before it shared red refinement's edge list, except
    that it projects arc midpoints radially as red refinement does."""
    verts = [tuple(v) for v in vertices]
    thin_touch = on_thin_line(vertices)
    arc = on_arc(vertices)
    mid = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        idx = mid.get(key)
        if idx is None:
            m = 0.5 * (np.asarray(verts[i]) + np.asarray(verts[j]))
            if arc[i] and arc[j]:
                m = m / np.hypot(m[0], m[1])
            idx = len(verts)
            verts.append((m[0], m[1]))
            mid[key] = idx
        return idx

    def longest_edge(a, b, c):
        pa, pb, pc = (np.asarray(verts[i]) for i in (a, b, c))
        l2 = [((pb - pc) ** 2).sum(), ((pc - pa) ** 2).sum(), ((pa - pb) ** 2).sum()]
        return int(np.argmax(l2))   # edge opposite vertex 0/1/2

    out = []
    for tri in (tuple(t) for t in triangles):
        if any(thin_touch[i] for i in tri):
            a, b, c = tri
            le = longest_edge(a, b, c)
            # rotate so the split edge is (b, c)
            a, b, c = ((a, b, c), (b, c, a), (c, a, b))[le]
            m = midpoint(b, c)
            out.append((a, b, m))
            out.append((a, m, c))
        else:
            out.append(tri)

    # conformity: split triangles whose edge holds a hanging midpoint
    changed = True
    while changed:
        changed = False
        nxt = []
        for a, b, c in out:
            split = None
            for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
                key = (i, j) if i < j else (j, i)
                if key in mid:
                    split = (k, i, j, mid[key])
                    break
            if split is None:
                nxt.append((a, b, c))
            else:
                k, i, j, m = split
                nxt.append((k, i, m))
                nxt.append((k, m, j))
                changed = True
        out = nxt
    parents = np.array(list(mid), dtype=np.int64).reshape(-1, 2)
    return np.asarray(verts, dtype=float), np.asarray(out, dtype=np.int64), parents


def _argsort_pattern(triangles, n):
    """(counts, cols, diagonal, scatter, width) by the construction the
    edge-built P1Pattern replaced: one argsort of the 9 nt entry keys.
    scatter is the flat slot position of each element entry (t, i, j),
    flattened in that order."""
    triangles = triangles.astype(np.int64)
    keys = (triangles[:, :, None] * n + triangles[:, None, :]).ravel()
    distinct, scatter = np.unique(keys, return_inverse=True)
    rows = distinct // n
    counts = np.bincount(rows, minlength=n)
    width = int(counts.max(initial=0))
    slot = np.arange(len(distinct)) - (np.cumsum(counts) - counts)[rows]
    position = slot * n + rows
    cols = np.empty((width, n), dtype=np.intp)
    cols[:] = np.arange(n)
    cols.ravel()[position] = distinct % n
    diagonal = np.arange(n)
    on_diagonal = distinct % n == rows
    diagonal[rows[on_diagonal]] = position[on_diagonal]
    return counts, cols, diagonal, position[scatter], width


def edge_slots(triangles, scatter):
    """(upper, lower): the flat slot positions of the entries (lo, hi) and
    (hi, lo), lo < hi, of each triangle's local edges (0, 1), (1, 2) and
    (0, 2), read from a scatter map of _argsort_pattern; (nt, 3) each."""
    entry = scatter.reshape(-1, 3, 3)
    upper, lower = (np.empty(triangles.shape, dtype=np.intp) for _ in range(2))
    for k, (i, j) in enumerate(((0, 1), (1, 2), (0, 2))):
        forward = triangles[:, i] < triangles[:, j]
        upper[:, k] = np.where(forward, entry[:, i, j], entry[:, j, i])
        lower[:, k] = np.where(forward, entry[:, j, i], entry[:, i, j])
    return upper, lower


def flat_galerkin_map(fine, prolongation, coarse):
    """The int32 flat coarse position of each term of P^T A P, as the map
    was held before it stored one-byte slots: (2, 2, fine.width, fine.n),
    with the terms without an entry at the extra position coarse.width *
    coarse.n."""
    prolongation = weighted(prolongation)
    ends, weights = prolongation.ends, prolongation.weights
    size = coarse.width * coarse.n
    out = np.full((2, 2, fine.width, fine.n), size, dtype=np.int32)
    for u in range(2):
        I = ends[:, u]
        row_cols = coarse.cols[:, I]
        row_term = weights[:, u] != 0.0
        for v in range(2):
            for k in range(fine.width):
                j = fine.cols[k]
                term = row_term & (fine.counts > k) & (weights[j, v] != 0.0)
                slot = (row_cols == ends[j, v]).argmax(axis=0)
                out[u, v, k, term] = (slot * coarse.n + I)[term]
    return out


def bincount_galerkin(A, kept, prolongation, flat_map, coarse):
    """The (width, n) values of the truncated P^T A P as they were formed
    from a flat_galerkin_map: one bincount per (u, v) over its whole layer,
    summed from 0."""
    scale = weighted(prolongation).weights[:, 0] * kept
    terms = A.values * scale
    terms *= scale[A.pattern.cols]
    size = coarse.width * coarse.n + 1
    total = sum(np.bincount(layer.ravel(), weights=terms.ravel(), minlength=size)
                for layer in flat_map.reshape(4, *terms.shape))
    return total[:-1].reshape(coarse.width, coarse.n)


def held_nbytes(*objs):
    """The bytes of the distinct array buffers that the objects' attributes
    hold, arrays or lists and tuples of arrays: a view counts its base once."""
    buffers = {}
    for obj in objs:
        for value in vars(obj).values():
            for a in value if isinstance(value, (list, tuple)) else [value]:
                while isinstance(a, np.ndarray) and isinstance(a.base, np.ndarray):
                    a = a.base
                if isinstance(a, np.ndarray):
                    buffers[id(a)] = a.nbytes
    return sum(buffers.values())


def traced_peak(fn, *args):
    """The peak of the memory that fn(*args) allocates, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def g_signorini32(mesh):
    # arc data r^{3/2} cos(3 theta / 2); vanishing normal trace at theta = pi
    x = mesh.vertices
    r = np.hypot(x[:, 0], x[:, 1])
    theta = np.arctan2(x[:, 1], x[:, 0])
    return r ** 1.5 * np.cos(1.5 * theta)


def sampled_sup_inf_on_halfball(field, center, radius):
    """(inf, sup) of p over the half-ball from dense 64x64 polar samples plus
    the family's exact candidates, the oracle of sup_inf_on_halfball."""
    cx, cy = float(center[0]), float(center[1])
    rr = np.linspace(0.0, radius, 64)
    th = np.linspace(0.0, np.pi, 64)
    ex, ey = field._extreme_candidates(cx, radius)
    px = np.concatenate([cx + np.outer(rr, np.cos(th)).ravel(), ex])
    py = np.concatenate([cy + np.outer(rr, np.sin(th)).ravel(), ey])
    keep = in_half_disk(np.stack([px, py], axis=-1))
    vals = field._raw(px[keep], np.maximum(py[keep], 0.0))
    pad = 1e-6
    return (min(max(float(vals.min()) - pad, field.gamma1), field.gamma2),
            max(min(float(vals.max()) + pad, field.gamma2), field.gamma1))


class EvenExtensionField:
    """Evaluates an exponent field at (x1, |x2|); even across the axis."""

    def __init__(self, base):
        self.base = base
        self.gamma1 = base.gamma1
        self.gamma2 = base.gamma2

    def eval(self, x):
        folded = np.array(x, dtype=float)
        folded[..., 1] = np.abs(folded[..., 1])
        return self.base.eval(folded)


def reflect_full_disk(w):
    """Mirrored full-disk mesh together with the odd extension of w, the
    oracle of reflect_and_check's half-disk identity.

    The two corner vertices (on the axis and the circle at once) carry
    the arc data, so the odd extension jumps there. They are duplicated:
    lower elements reference a coincident copy holding the negated value.
    """
    mesh = w.mesh
    verts = mesh.vertices
    nv = mesh.num_vertices
    mirror_src = ~on_thin_line(verts) | on_arc(verts)     # upper, or a corner
    n_new = int(mirror_src.sum())
    mirrored = verts[mirror_src] * np.array([1.0, -1.0])
    image = np.arange(nv)
    image[mirror_src] = nv + np.arange(n_new)
    full_verts = np.vstack([verts, mirrored])
    # reflection flips orientation; swap two indices to keep triangles CCW
    refl_tris = image[mesh.triangles][:, [0, 2, 1]]
    full_tris = np.vstack([mesh.triangles, refl_tris])
    tags = np.where(on_arc(full_verts), ARC, INTERIOR).astype(np.int8)
    full_mesh = TriMesh(full_verts, full_tris, tags)
    odd_vals = np.concatenate([w.values, -w.values[mirror_src]])
    return full_mesh, FeFunction(full_mesh, odd_vals)


@pytest.fixture(scope="session")
def mesh3():
    return build(3)


@pytest.fixture(scope="session")
def mesh4():
    return build(4)


@pytest.fixture(scope="session")
def mesh5():
    return build(5)


@pytest.fixture(scope="session")
def mesh6():
    return build(6)


@pytest.fixture(scope="session")
def mesh7():
    return build(7)


@pytest.fixture(scope="session")
def p2():
    return ExponentField("constant", [2.0])


@pytest.fixture(scope="session")
def sin_field():
    return ExponentField("sinusoidal", [2.0, 0.5, np.pi])


@pytest.fixture(scope="session")
def solved_p2_sig32_l5(mesh5, p2):
    g = g_signorini32(mesh5)
    problem = ObstacleProblem(EnergySetup(mesh5, p2), g)
    u, report = solve(problem, 1e-10)
    return problem, u, report, g


@pytest.fixture(scope="session")
def solved_p2_sig32_l6(mesh6, p2):
    g = g_signorini32(mesh6)
    problem = ObstacleProblem(EnergySetup(mesh6, p2), g)
    u, report = solve(problem, 1e-10)
    return problem, u, report, g


@pytest.fixture(scope="session")
def solved_sin_sig32_l6(mesh6, sin_field):
    g = g_signorini32(mesh6)
    problem = ObstacleProblem(EnergySetup(mesh6, sin_field), g)
    u, report = solve(problem, 1e-10)
    return problem, u, report, g
