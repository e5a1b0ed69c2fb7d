"""Conforming triangulations of the unit half-disk with boundary tags.

Vertices carry one of three tags: Interior, Arc (the curved Dirichlet
boundary (dB1)+, including the corners (+-1, 0)), and Thin (the flat
segment T1 where the unilateral constraint lives). Refinement is uniform
red refinement; optional grading adds bisection rounds of the elements
touching T1. Both halve the edges of one edge list through one midpoint
rule, which projects new arc midpoints radially.

The module also holds the text reader and writer of every file pxthin
reads or writes.
"""

import hashlib
import math
from functools import cached_property
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .errors import (FormatError, PreconditionError, ResolutionError,
                     ResourceError, _shown, _whole)
from .sparse import (P1Pattern, Prolongation, _distinct_edges, _element_blocks,
                     galerkin_map)

INTERIOR = 0
ARC = 1
THIN = 2

_TAG_CHAR = {INTERIOR: "i", ARC: "a", THIN: "t"}
_TAG_CHARS = np.array([_TAG_CHAR[tag] for tag in range(len(_TAG_CHAR))])
# rows per .tolist() in the text writers: bounds the Python numbers alive at
# once, so writing a mesh does not grow the heap with its size
TEXT_CHUNK = 1024

GEOM_TOL = 1e-12
NODE_BUDGET = 10_000_000
MAX_LEVEL = 10
# a grading round multiplies the vertices by about 1.45 (153 -> 4,289 from
# 0 to 12 rounds at level 3; 6 -> 277,362 from 0 to 30 rounds at level 0 in
# 0.8 s, 862,394 from 33 rounds in 2.7 s and 670 MB, on a 2-core host), so
# even level 0 fails the per-round NODE_BUDGET check before its 41st round:
# a larger grading could only fail, after rounds that hold gigabytes
MAX_GRADING = 40


# the half-disk's geometry, each part within GEOM_TOL: points are (..., 2)

def on_arc(x):
    """Flags of the points on the unit circle, which holds the arc (dB1)+."""
    return np.abs(np.hypot(x[..., 0], x[..., 1]) - 1.0) <= GEOM_TOL


def on_thin_line(x):
    """Flags of the points on the line x2 = 0, which holds T1."""
    return np.abs(x[..., 1]) <= GEOM_TOL


def in_half_disk(x):
    """Flags of the points in the closed unit half-disk."""
    x1, x2 = x[..., 0], x[..., 1]
    return (x2 >= -GEOM_TOL) & (x1 * x1 + x2 * x2 <= (1.0 + GEOM_TOL) ** 2)


class TriMesh:
    """Plain conforming triangle mesh; no domain assumption.

    Carries per-element signed areas and P1 hat-function gradients so
    assembly code does not recompute geometry; its triangles are int32
    wherever the vertex count fits. A refined mesh keeps the mesh it
    refines as `coarser`, whose vertices are its first ones, and that
    refinement's `parents`: the ends (i, j) of the coarser edge that each
    new vertex halves, in the order of the new vertices, held once in the
    triangles' dtype and read in place by its prolongation. Its
    `hierarchy` is that chain, coarse to fine. A mesh made any other way
    has no coarser mesh and is its own one-level hierarchy. A submesh (a
    half-ball, or the part of a coarser mesh that holds one) keeps the mesh
    it was cut from as `source`, with `vertex_map` giving each of its
    vertices' index there.
    """

    def __init__(self, vertices, triangles, vertex_tags=None, coarser=None,
                 parents=()):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        triangles = np.asarray(triangles)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise PreconditionError("vertices must have shape (nv, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise PreconditionError("triangles must have shape (nt, 3)")
        if not np.all(np.isfinite(self.vertices)):
            raise PreconditionError("non-finite vertex coordinate")
        nv = len(self.vertices)
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise PreconditionError("triangle index out of range")
        self.triangles = np.ascontiguousarray(
            triangles, dtype=np.int32 if nv <= 2 ** 31 else np.int64)
        if vertex_tags is None:
            vertex_tags = np.zeros(nv, dtype=np.int8)
        self.vertex_tags = np.ascontiguousarray(vertex_tags, dtype=np.int8)
        if self.vertex_tags.shape != (nv,):
            raise PreconditionError("one tag per vertex required")
        self.coarser = coarser
        p = np.asarray(parents)
        # a new vertex halves an edge of the mesh it refines
        if coarser is None:
            chained = p.size == 0
        else:
            n = coarser.num_vertices
            chained = n >= 1 and p.shape == (nv - n, 2) and (
                p.size == 0 or 0 <= p.min() <= p.max() < n)
        if not chained:
            raise PreconditionError("prolongations do not chain to the mesh")
        self.parents = np.ascontiguousarray(p, dtype=self.triangles.dtype)
        self.source = None
        self.vertex_map = None
        self.digest = None      # mesh_hash, filled on first use

        p0, p1, p2 = (np.take(self.vertices, self.triangles[:, k], axis=0) for k in range(3))
        e1 = p1 - p0
        e2 = p2 - p0
        e3 = p2 - p1
        del p0, p1, p2
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0.0):
            bad = int(np.argmax(det <= 0.0))
            raise PreconditionError(
                f"triangle {bad} has non-positive signed area {det[bad] / 2.0}")
        self.areas = 0.5 * det
        # hat gradients: grad phi_i constant per element, stored as six
        # contiguous length-nt rows x0, y0, x1, y1, x2, y2, which assembly
        # reads without a copy; grads is their (nt, 3, 2) view
        nt = len(det)
        self.grad_rows = np.empty((6, nt))
        g = self.grad_rows.T.reshape(nt, 3, 2)
        g[:, 1, 0] = e2[:, 1] / det
        g[:, 1, 1] = -e2[:, 0] / det
        g[:, 2, 0] = -e1[:, 1] / det
        g[:, 2, 1] = e1[:, 0] / det
        g[:, 0] = -g[:, 1] - g[:, 2]
        self.grads = g
        # the third edge p0 - p2 is -e2, whose squares are the same bits
        self.h_max = (float(np.sqrt(max((e * e).sum(axis=1).max() for e in (e1, e3, e2))))
                      if nt else 0.0)

    @property
    def hierarchy(self):
        """The meshes of the refinement chain, coarse to fine, ending with
        this one."""
        return (() if self.coarser is None else self.coarser.hierarchy) + (self,)

    @cached_property
    def below(self):
        """The next coarser mesh of this mesh's multigrid V-cycle: `coarser`,
        or for a submesh the part of its source's coarser mesh that holds
        it, cut as a submesh of that mesh."""
        if self.source is None or self.source.coarser is None:
            return self.coarser
        coarse = self.source.coarser
        # a refinement puts each new vertex on an edge of the triangle it
        # splits, so the ends of a triangle's vertices are the three corners
        # of the coarse triangle that holds it
        nt = self.num_triangles
        ends = self.source.prolongation.ends(self.vertex_map)[self.triangles]
        ends = np.sort(ends.reshape(nt, 6), axis=1)
        corners = np.concatenate(
            [ends[:, :1], ends[:, 1:][np.diff(ends, axis=1) != 0].reshape(nt, 2)], axis=1)
        corners = np.unique(corners, axis=0)
        p0, p1, p2 = (coarse.vertices[corners[:, k]] for k in range(3))
        clockwise = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                     - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])) < 0.0
        corners[clockwise] = corners[clockwise][:, ::-1]
        used, triangles = _renumbered(corners, coarse.num_vertices)
        cut = TriMesh(coarse.vertices[used], triangles, coarse.vertex_tags[used])
        cut.source, cut.vertex_map = coarse, used
        return cut

    @cached_property
    def prolongation(self):
        """The Prolongation onto this mesh from `below`, None without it. A
        submesh takes its source's rows at its vertices, in the same order."""
        if self.source is not None:
            if self.below is None:
                return None
            # both vertex maps are sorted
            source = self.source.prolongation
            ends = np.searchsorted(self.below.vertex_map, source.ends(self.vertex_map))
            m = int(np.searchsorted(self.vertex_map, len(source.copies)))
            return Prolongation(ends[:m, 0], ends[m:], self.below.num_vertices)
        if self.coarser is None:
            return None
        n = self.coarser.num_vertices
        return Prolongation(np.arange(n), self.parents, n)

    @cached_property
    def p1_pattern(self):
        """The P1Pattern of the stiffness matrix, shared by every hessian()."""
        return P1Pattern(self.triangles, self.num_vertices)

    @cached_property
    def coarse_map(self):
        """galerkin_map of this mesh's pattern onto the pattern of `below`."""
        return galerkin_map(self.p1_pattern, self.prolongation, self.below.p1_pattern)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def quad_weights(self, rule, rows=slice(None)):
        """Physical quadrature weights (len(rows), nq) of the elements rows,
        all of them by default: each is the product of a rule weight and
        twice an area, so a block of rows holds the bits of the whole-mesh
        array's rows. They are filled a column at a time: numpy's broadcast
        over rows of nq values is slower."""
        twice = 2.0 * self.areas[rows]
        out = np.empty((len(twice), len(rule.weights)))
        for q, weight in enumerate(rule.weights):
            np.multiply(weight, twice, out=out[:, q])
        return out


def _p1_at(c0, c1, c2, rule):
    """c0 (1 - xi - eta) + c1 xi + c2 eta at each point (xi, eta) of rule,
    from the values c0, c1, c2 (n,) or (n, 2) at the corners of n
    elements: (n, nq) or (n, nq, 2), filled a point at a time."""
    out = np.empty((len(c0), len(rule.points)) + c0.shape[1:])
    for q, (xi, eta) in enumerate(rule.points):
        out[:, q] = c0 * (1.0 - xi - eta) + c1 * xi + c2 * eta
    return out


def _quad_points(mesh, rule, rows):
    """Physical quadrature points (len(rows), nq, 2) of the elements rows."""
    tri = mesh.triangles[rows]
    return _p1_at(*(np.take(mesh.vertices, tri[:, k], axis=0) for k in range(3)), rule)


def _field_at(mesh, field, rule, rows):
    """field.eval at the quadrature points of the elements rows, (len(rows),
    nq): eval is pointwise, so the values are those of one whole-mesh call."""
    pts = _quad_points(mesh, rule, rows)
    return field.eval(pts.reshape(-1, 2)).reshape(-1, len(rule.points))


def _field_at_quad_points(mesh, field, rule):
    """field.eval at the quadrature points of every element, (nt, nq),
    evaluated a block of elements at a time."""
    out = np.empty((mesh.num_triangles, len(rule.points)))
    for rows in _element_blocks(mesh.num_triangles):
        out[rows] = _field_at(mesh, field, rule, rows)
    return out


def _rule(points, weights):
    """A rule on the reference triangle {x>=0, y>=0, x+y<=1}: read-only
    points (nq, 2) and weights (nq,), which sum to its area 1/2."""
    rule = SimpleNamespace(points=np.array(points), weights=np.array(weights))
    rule.points.flags.writeable = rule.weights.flags.writeable = False
    return rule


_S15 = math.sqrt(15.0)
_A5, _B5 = (6.0 + _S15) / 21.0, (6.0 - _S15) / 21.0
_WA5, _WB5 = (155.0 + _S15) / 2400.0, (155.0 - _S15) / 2400.0
# the symmetric rules of order 2 (3-point) and 5 (7-point), built once
_RULES = {
    2: _rule([(1 / 6, 1 / 6), (2 / 3, 1 / 6), (1 / 6, 2 / 3)], [1 / 6] * 3),
    5: _rule([(1 / 3, 1 / 3),
              (_A5, _A5), (1 - 2 * _A5, _A5), (_A5, 1 - 2 * _A5),
              (_B5, _B5), (1 - 2 * _B5, _B5), (_B5, 1 - 2 * _B5)],
             [9 / 80, _WA5, _WA5, _WA5, _WB5, _WB5, _WB5]),
}


def quadrature_rule(order):
    """The rule of order 2 (3-point) or 5 (7-point)."""
    rule = _RULES.get(order)
    if rule is None:
        raise PreconditionError(f"quadrature order must be 2 or 5, got {order}")
    return rule


def _midpoints(vertices, lo, hi, halves):
    """(vertices, parents, number): the vertices, then the midpoints of the
    edges `halves` of the edge list (lo, hi), numbered in order of first
    appearance there. New vertex nv + k halves edge parents[k] = (lo, hi);
    number[e] is the vertex that halves edge e, -1 for an edge not halved.
    Midpoints of arc edges are projected radially onto the unit circle.
    """
    first = np.full(len(lo), len(halves))
    np.minimum.at(first, halves, np.arange(len(halves)))
    order = halves[np.sort(first[first < len(halves)])]
    number = np.full(len(lo), -1, dtype=order.dtype)
    number[order] = len(vertices) + np.arange(len(order))
    parents = np.stack([lo[order], hi[order]], axis=1)

    mid = 0.5 * (vertices[parents[:, 0]] + vertices[parents[:, 1]])
    arc_edge = on_arc(vertices)[parents].all(axis=1)
    mid[arc_edge] /= np.hypot(mid[arc_edge, 0], mid[arc_edge, 1])[:, None]
    return np.concatenate([vertices, mid]), parents, number


def _red_refine(vertices, triangles):
    """One red refinement; returns (vertices, triangles, parents).

    Every edge is halved, its midpoint numbered in order of first appearance
    over the edges ab, bc, ca of the triangles in order (_midpoints).
    """
    a, b, c = triangles.T
    # the local edges _EDGES are ab, bc, ca, so edge lists them in the order
    # that numbers the midpoints
    lo, hi, edge = _distinct_edges(triangles, len(vertices))
    vertices, parents, number = _midpoints(vertices, lo, hi, edge.ravel())
    ab, bc, ca = number[edge].T
    new_tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                        axis=1).reshape(-1, 3)
    return vertices, new_tris, parents


def _bisect_towards_thin(vertices, triangles):
    """One conforming bisection round of the elements touching the thin line;
    returns (vertices, triangles, parents) as _red_refine does.

    Each element that touches the line halves its longest edge, the first of
    bc, ca, ab on a tie; _midpoints numbers them over those elements in
    order. Sweeps then split each element at the midpoint of its first halved
    edge among ab, bc, ca, until no element has one. The children (k, i, m),
    (k, m, j) of an element whose edge (i, j) m halves take its place.
    """
    lo, hi, edge = _distinct_edges(triangles, len(vertices))
    d = vertices[triangles[:, [1, 2, 0]]] - vertices[triangles[:, [2, 0, 1]]]
    split = (np.argmax((d * d).sum(axis=2), axis=1) + 1) % 3
    rows = np.flatnonzero(on_thin_line(vertices)[triangles].any(axis=1))
    vertices, parents, number = _midpoints(vertices, lo, hi, edge[rows, split[rows]])
    # a child's edges through m get the id len(lo), which no vertex halves
    number = np.append(number, -1)
    while len(rows):
        r = np.arange(len(rows))
        t, e, s = triangles[rows], edge[rows], split[rows]
        i, j, k = (t[r, (s + q) % 3] for q in range(3))
        m, new = number[e[r, s]], np.full(len(rows), len(lo))
        # the first child replaces its parent, the second follows it
        triangles = np.insert(triangles, rows + 1, np.stack([k, m, j], axis=1), axis=0)
        edge = np.insert(edge, rows + 1, np.stack([new, new, e[r, (s + 1) % 3]], axis=1),
                         axis=0)
        triangles[rows + r] = np.stack([k, i, m], axis=1)
        edge[rows + r] = np.stack([e[r, (s + 2) % 3], new, new], axis=1)
        halved = number[edge] >= 0
        rows = np.flatnonzero(halved.any(axis=1))
        split = np.argmax(halved, axis=1)
    return vertices, triangles, parents


def checked_grading(grading):
    """grading as an int, after the rule: a whole number in [0, MAX_GRADING]."""
    if not (_whole(grading) and grading >= 0):
        raise PreconditionError(
            f"grading must be a whole number >= 0, got {_shown(grading)}")
    if grading > MAX_GRADING:
        raise ResourceError(
            f"grading must be at most {MAX_GRADING}, got {_shown(grading)}")
    return int(grading)


def checked_level(level):
    """level as an int, after the rule: a whole number in [0, MAX_LEVEL]. A
    level-10 mesh has 2.1 million vertices; each level about quadruples them."""
    if not _whole(level):
        raise PreconditionError(f"level must be a whole number, got {_shown(level)}")
    level = int(level)
    if level < 0:
        raise PreconditionError(f"level must be >= 0, got {_shown(level)}")
    if level > MAX_LEVEL:
        raise ResourceError(f"level must be at most {MAX_LEVEL}, got {_shown(level)}")
    return level


def build(level, grading=0):
    """Half-disk mesh: 4-triangle fan, `level` red refinements, optional grading.

    New arc midpoints are projected radially onto the unit circle, so
    every refinement keeps boundary vertices on the arc. grading, a whole
    number >= 0, is the count of extra conforming bisection rounds of the
    elements touching the thin line. Each refinement and bisection round
    keeps the earlier vertices in front and records its midpoint parents;
    the mesh of each round is linked as the next one's coarser mesh, over
    the first vertices of the finest.
    """
    level = checked_level(level)
    rounds = [_red_refine] * level + [_bisect_towards_thin] * checked_grading(grading)
    s = math.sqrt(0.5)
    vertices = np.array([
        (0.0, 0.0),
        (1.0, 0.0), (s, s), (0.0, 1.0), (-s, s), (-1.0, 0.0),
    ])
    triangles = np.array([(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)], dtype=np.int32)

    chain, parents = [], ()     # (vertex count, triangles, parents) per round
    for refine in rounds:
        if refine is _bisect_towards_thin and 2 * len(vertices) > NODE_BUDGET:
            raise ResourceError("grading would exceed the node budget")
        chain.append((len(vertices), triangles, parents))
        vertices, triangles, parents = refine(vertices, triangles)
    chain.append((len(vertices), triangles, parents))

    # snap rounding dust on the thin line to exactly zero
    vertices[on_thin_line(vertices), 1] = 0.0
    tags = np.where(on_thin_line(vertices), THIN, INTERIOR).astype(np.int8)
    tags[on_arc(vertices)] = ARC
    mesh = None
    for n, triangles, parents in chain:
        mesh = TriMesh(vertices[:n], triangles, tags[:n], mesh, parents)
    return mesh


def ball_element_mask(mesh, center, radius):
    """Flags of the elements whose three vertices lie in the closed ball,
    widened by GEOM_TOL."""
    d = np.hypot(mesh.vertices[:, 0] - center[0], mesh.vertices[:, 1] - center[1])
    return (d <= radius + GEOM_TOL)[mesh.triangles].all(axis=1)


def checked_center(center):
    """center as a float array, after the half-ball rule: a point (x1, x2)
    on T1 with |x1| <= 1/2."""
    center = np.asarray(center, dtype=float)
    if center.shape != (2,):
        raise PreconditionError(
            f"a center must be one point (x1, x2), got shape {center.shape}")
    if not on_thin_line(center) or not abs(center[0]) <= 0.5 + GEOM_TOL:
        raise PreconditionError(
            "half-ball centers must lie on the thin line with |x1| <= 1/2, "
            f"got {tuple(float(c) for c in center)}")
    return center


def checked_radii(radii, count, center=None, h_max=0.0):
    """radii as floats, after the rules the ball experiments share: at
    least `count` of them, finite, strictly decreasing, the smallest above
    2 h_max and, with a center, the 2r half-ball about it inside the
    3/4 ball."""
    radii = [float(r) for r in radii]
    if len(radii) < count:
        raise PreconditionError(f"need at least {count} radii, got {len(radii)}")
    if not all(map(math.isfinite, radii)):
        raise PreconditionError(f"radii must be finite, got {radii}")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise PreconditionError("radii must be strictly decreasing")
    if radii[-1] <= 2.0 * h_max:
        raise PreconditionError(
            f"smallest radius {radii[-1]} must exceed 2*h_max = {2 * h_max}")
    if center is not None and np.hypot(center[0], center[1]) + 2.0 * radii[0] \
            > 0.75 + GEOM_TOL:
        raise PreconditionError(
            f"2r half-balls must stay inside the 3/4 ball, but radius {radii[0]} "
            f"about {tuple(float(c) for c in center)} does not")
    return radii


def _renumbered(triangles, n):
    """(used, local): the sorted indices of the vertices, out of n, that the
    triangles use, and the triangles over those vertices."""
    used = np.unique(triangles)
    remap = np.full(n, -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return used, remap[triangles]


def extract_halfball_submesh(mesh, center, radius):
    """Submesh of triangles fully inside the closed half-ball, plus vertex map.

    Re-tags for the local obstacle problem: vertices on the thin line stay
    Thin, all other submesh-boundary vertices become Arc (Dirichlet).
    Returns (submesh, vertex_map) with vertex_map[new_index] = old_index;
    the submesh keeps both as its source, so its multigrid V-cycle steps to
    the part of the source's coarser mesh that holds it.
    """
    center = checked_center(center)
    [radius] = checked_radii([radius], 1, h_max=mesh.h_max)

    t_in = ball_element_mask(mesh, center, radius)
    if int(t_in.sum()) < 10:
        raise ResolutionError(
            f"only {int(t_in.sum())} triangles inside the half-ball; mesh too coarse")

    used, sub_tris = _renumbered(mesh.triangles[t_in], mesh.num_vertices)
    sub_verts = mesh.vertices[used]

    # the boundary edges are those of one triangle
    lo, hi, edge = _distinct_edges(sub_tris, len(sub_verts))
    single = np.bincount(edge.ravel(), minlength=len(lo)) == 1
    boundary_vertex = np.zeros(len(sub_verts), dtype=bool)
    boundary_vertex[lo[single]] = boundary_vertex[hi[single]] = True

    tags = np.zeros(len(sub_verts), dtype=np.int8)
    on_thin = on_thin_line(sub_verts)
    tags[on_thin] = THIN
    tags[boundary_vertex & ~on_thin] = ARC
    submesh = TriMesh(sub_verts, sub_tris, tags)
    submesh.source, submesh.vertex_map = mesh, used
    return submesh, used


def _text_rows(fmt, *columns):
    """The rows of equal-length 1-D arrays through the %-format fmt, one
    string per TEXT_CHUNK rows: the chunk's rows go through .tolist() and
    one format of fmt repeated."""
    for k in range(0, len(columns[0]), TEXT_CHUNK):
        rows = zip(*(c[k:k + TEXT_CHUNK].tolist() for c in columns))
        values = tuple(chain.from_iterable(rows))
        yield fmt * (len(values) // len(columns)) % values


def _mesh_chunks(mesh):
    """The mesh's canonical text, the basis of its hash, in pieces of at
    most TEXT_CHUNK lines: streamed to mesh.txt and to the hash, it is never
    held whole."""
    yield f"m {mesh.num_vertices} {mesh.num_triangles}\n"
    yield from _text_rows("v %.17g %.17g %s\n", *mesh.vertices.T,
                          _TAG_CHARS[mesh.vertex_tags])
    yield from _text_rows("t %d %d %d\n", *mesh.triangles.T)


def _hashed(mesh, chunks):
    """The mesh's text chunks, passed on while their sha256 is taken; it
    becomes mesh.digest after the last one."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode("ascii"))
        yield chunk
    mesh.digest = digest.hexdigest()


def mesh_hash(mesh):
    """sha256 of the mesh's canonical text, computed once per mesh, a chunk
    at a time."""
    if mesh.digest is None:
        for _ in _hashed(mesh, _mesh_chunks(mesh)):
            pass
    return mesh.digest


def save_mesh(mesh, path):
    chunks = _mesh_chunks(mesh)
    _write_text(path, chunks if mesh.digest is not None else _hashed(mesh, chunks))


# the one writer and the one reader of every file pxthin touches: UTF-8,
# with "\n" line ends

def _write_text(path, text):
    """Write text, a string or an iterable of strings written in turn."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines([text] if isinstance(text, str) else text)


def _text_lines(path):
    """(line number, stripped text) of each non-blank line of a text file; a
    file that cannot be opened or decoded is a FormatError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return [(number, ln.strip()) for number, ln in enumerate(f, start=1)
                    if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _finite(text):
    """float(text), which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _text_record(path, line, tag, convs):
    """The fields of the line `tag f1 f2 ...`, each through its converter; a
    line that does not parse is a FormatError naming the file and the line."""
    number, text = line
    parts = text.split()
    if len(parts) == 1 + len(convs) and parts[0] == tag:
        try:
            return [conv(part) for conv, part in zip(convs, parts[1:])]
        except ValueError:
            pass
    raise FormatError(f"{path} line {number}: expected '{tag}' and "
                      f"{len(convs)} fields, got {text!r}")
