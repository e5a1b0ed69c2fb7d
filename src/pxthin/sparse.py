"""Sparse matrices on a mesh's P1 pattern, and the transfers between mesh levels.

A matrix on the pattern stores row i's entries in slots 0, 1, ... in
increasing column order. Slot k of every row forms layer k, so the values
are one (width, n) array and the columns one array of the same shape. A
product adds each row's terms slot by slot, which is the order of a CSR
product over the same pattern and gives the same bits.

The index arrays a mesh keeps are narrow: a pattern's edge ids and slot
positions are int32 and the columns intp (numpy gathers fastest with intp),
so it holds about 61 bytes per triangle. The Galerkin map holds one byte per
term, the term's coarse slot, 14 bytes per triangle; it is built a block of
fine rows at a time, so its build holds the same 0.57 MB beside its result on
every mesh. A prolongation reads a refined mesh's int32 `parents` in place
and holds no weights.
"""

import numpy as np


# triangles per block of the passes over a mesh's elements: the residual and
# Hessian assembly, and p at the quadrature points. Each pass then holds
# block-sized temporaries beside its result, whatever the mesh's size
# (0.86 MB in a Hessian).
_ELEMENT_BLOCK = 4096


def _element_blocks(count):
    """Slices of count elements, _ELEMENT_BLOCK at a time, in order."""
    for lo in range(0, count, _ELEMENT_BLOCK):
        yield slice(lo, min(lo + _ELEMENT_BLOCK, count))


# a triangle's local edges (i, j), each carrying its entries (i, j) and (j, i)
_EDGES = ((0, 1), (1, 2), (0, 2))


def _distinct_edges(triangles, n):
    """(lo, hi, edge): the distinct undirected edges lo < hi of the
    triangles, sorted by (lo, hi) and held in the triangles' dtype, and the
    int32 index of each triangle's local edges among them, (nt, 3) in
    _EDGES order."""
    keys = np.empty((len(triangles), len(_EDGES)), dtype=np.int64)
    for k, (i, j) in enumerate(_EDGES):
        np.minimum(triangles[:, i], triangles[:, j], out=keys[:, k])
        keys[:, k] *= n
        keys[:, k] += np.maximum(triangles[:, i], triangles[:, j])
    order = keys.ravel().argsort()
    keys = keys.ravel()[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    edge = np.empty(len(keys), dtype=np.int32)
    edge[order] = np.cumsum(new, dtype=np.int32) - 1
    del order
    lo, hi = (a.astype(triangles.dtype) for a in np.divmod(keys[new], n))
    return lo, hi, edge.reshape(-1, len(_EDGES))


class P1Pattern:
    """The entries (i, j) of the P1 stiffness matrix of a triangulation.

    cols[k, i] is the column of row i's slot k; counts[i] is the number of
    its entries, and the unused slots k >= counts[i] repeat i with the value
    0. Flat slot position k * n + i holds row i's slot k: diagonal[i] is
    the flat position of (i, i), edge[t] the int32 indices of triangle t's
    local edges in _EDGES order, and upper[e] and lower[e] the flat positions
    of edge e's entries (lo, hi) and (hi, lo), lo < hi, int32 while width *
    n fits. The build sorts the 3 nt edge keys once (_distinct_edges) and the
    edges once more by their high end; it peaks near 90 bytes per triangle.
    """

    def __init__(self, triangles, n):
        # row r holds its lower neighbours, then r if a triangle has it, then
        # its upper neighbours, each in column order
        lo, hi, edge = _distinct_edges(triangles, n)
        below = np.bincount(hi, minlength=n)
        above = np.bincount(lo, minlength=n)
        used = np.zeros(n, dtype=bool)
        used[triangles.ravel()] = True
        self.n = n
        self.counts = below + above + used
        self.width = int(self.counts.max(initial=0))
        self.diagonal = below * n               # slot 0 for an empty row
        self.diagonal += np.arange(n)
        position = np.int32 if self.width * n < 2 ** 31 else np.intp
        # (lo, hi) follows lo's lower neighbours, lo, and the upper ones that
        # come before it in the (lo, hi) order of the edges
        first = (np.cumsum(above) - above - below - 1).astype(position)
        upper = np.arange(len(lo), dtype=position)
        upper -= first[lo]
        upper *= n
        upper += lo
        # (hi, lo) takes lo's rank among hi's lower neighbours; the edges
        # come sorted by (lo, hi), so a stable sort by hi orders them by (hi, lo)
        order = np.argsort(hi, kind="stable")
        first = (np.cumsum(below) - below).astype(position)
        lower = np.empty_like(upper)
        lower[order] = np.arange(len(lo), dtype=position) - first[hi[order]]
        del order
        lower *= n
        lower += hi
        self.edge, self.upper, self.lower = edge, upper, lower
        self.cols = np.empty((self.width, n), dtype=np.intp)
        self.cols[:] = np.arange(n)
        self.cols.ravel()[upper] = hi
        self.cols.ravel()[lower] = lo
        for a in (self.counts, self.cols, self.diagonal, edge, upper, lower):
            a.flags.writeable = False       # shared by every matrix on it

    def entries(self):
        """(rows, cols, flat slot positions) of the entries, layer by layer."""
        pos = np.flatnonzero(np.arange(self.width)[:, None] < self.counts)
        return pos % max(self.n, 1), self.cols.ravel()[pos], pos


class PatternMatrix:
    """A square matrix on a P1Pattern: values is a (width, n) array."""

    def __init__(self, pattern, values):
        self.pattern = pattern
        self.values = values

    def __matmul__(self, x):
        cols = self.pattern.cols
        y = self.values[0] * x[cols[0]]
        for k in range(1, self.pattern.width):
            y += self.values[k] * x[cols[k]]
        return y

    def diagonal(self):
        return self.values.ravel()[self.pattern.diagonal]

    def dense(self, kept):
        """The block of the kept rows and columns as a dense array."""
        rows, cols, pos = self.pattern.entries()
        inside = kept[rows] & kept[cols]
        index = np.cumsum(kept) - 1
        m = int(index[-1]) + 1 if len(index) else 0
        block = np.zeros((m, m))
        block[index[rows[inside]], index[cols[inside]]] = self.values.ravel()[pos[inside]]
        return block


class Prolongation:
    """P1 prolongation onto a mesh from a coarser one: fine vertex i <
    len(copies) is the coarse vertex copies[i], and fine vertex len(copies)
    + k halves the coarse edge mids[k] = (a, b), 1/2 x[a] + 1/2 x[b]. Copy
    rows come first on every mesh, so which rows halve is a row count."""

    def __init__(self, copies, mids, n_coarse):
        self.copies, self.mids, self.n_coarse = copies, mids, n_coarse

    def __matmul__(self, x):
        # a copy row takes x itself, the bits of 1 x + 0 x for finite x
        halves = 0.5 * np.take(x, self.mids)
        return np.concatenate([np.take(x, self.copies), halves[:, 0] + halves[:, 1]])

    def restrict(self, r):
        """P^T r; each coarse sum runs over the fine vertices in order, from 0."""
        out = np.zeros(self.n_coarse)
        out[self.copies] += r[:len(self.copies)]
        np.add.at(out, self.mids.ravel(), np.repeat(0.5 * r[len(self.copies):], 2))
        return out

    def coarse_kept(self, kept):
        """Flags of the coarse vertices whose own fine vertex is kept."""
        out = np.zeros(self.n_coarse, dtype=bool)
        out[self.copies] = kept[:len(self.copies)]
        return out

    def ends(self, rows):
        """The (len(rows), 2) coarse ends of the fine vertices rows."""
        return np.stack([self.end(rows, 0), self.end(rows, 1)], axis=1)

    def end(self, rows, u):
        """The coarse end u, 0 or 1, of the fine vertices rows (an index array)."""
        mid = rows >= len(self.copies)
        out = np.empty(len(rows), dtype=np.intp)
        out[~mid] = self.copies[rows[~mid]]
        out[mid] = self.mids[rows[mid] - len(self.copies), u]
        return out


def galerkin_map(fine, prolongation, coarse):
    """Where each term of P^T A P lands in the coarse pattern.

    For the fine entry in slot (k, i), with j = fine.cols[k, i], and u, v in
    {0, 1}, out[u, v, k, i] is the slot of the entry (ends[i, u], ends[j, v])
    in coarse row ends[i, u]. The second end of a copy row carries no term;
    such terms and unused slots take the slot coarse.width, which no row
    has. The map holds the smallest unsigned type that holds coarse.width,
    one byte on every P1 mesh, and is built a block of fine rows at a time.
    Fine entries of a nested refinement (or of a submesh of one) lie in one
    coarse triangle, so every term finds its entry.
    """
    m = len(prolongation.copies)
    out = np.full((2, 2, fine.width, fine.n), coarse.width,
                  dtype=np.min_scalar_type(coarse.width))
    for rows in _element_blocks(fine.n):
        counts = fine.counts[rows]
        i = np.arange(rows.start, rows.stop)
        for u in range(2):
            row_cols = coarse.cols[:, prolongation.end(i, u)]   # row I's columns, per fine row
            row_term = (i >= m) | (u == 0)
            for k in range(fine.width):
                j = fine.cols[k, rows]
                for v in range(2):
                    term = row_term & (counts > k) & ((j >= m) | (v == 0))
                    # the lowest slot of row I holding J: unused slots repeat I
                    slot = (row_cols == prolongation.end(j, v)).argmax(axis=0)
                    out[u, v, k, rows][term] = slot[term]
    return out


def galerkin(A, kept, prolongation, gmap, coarse):
    """The truncated Galerkin operator P^T A P on the coarse pattern, where
    the fine rows and columns not kept are dropped. Coarse rows and columns
    without a kept fine counterpart hold partial sums; callers keep them out
    of every product.

    Each (u, v) of gmap has its own accumulator with one extra layer, where
    the terms without an entry land. Its layers k are added in order, each
    in fine-row order by np.add.at, and the four accumulators are then
    summed in (u, v) order: the order of one bincount per (u, v) over the
    flat positions, so the values have its bits."""
    scale = kept.astype(float)          # 1, 1/2 or 0 per fine vertex
    scale[len(prolongation.copies):] *= 0.5
    size = (coarse.width + 1) * coarse.n
    totals = [np.zeros(size) for _ in range(4)]
    rows = [np.concatenate([prolongation.copies, prolongation.mids[:, u]]) for u in range(2)]
    terms = np.empty(A.pattern.n)
    position = np.empty(A.pattern.n, dtype=np.intp)
    for k in range(A.pattern.width):
        np.multiply(A.values[k], scale, out=terms)
        terms *= scale[A.pattern.cols[k]]
        for (u, v), total in zip(np.ndindex(2, 2), totals):
            np.multiply(gmap[u, v, k], coarse.n, out=position, dtype=np.intp)
            position += rows[u]
            np.add.at(total, position, terms)
    # summed in place: an accumulator that starts at +0.0 never holds -0.0,
    # so the first one is already 0 + itself
    total, *rest = totals
    for part in rest:
        total += part
    return PatternMatrix(coarse, total[:coarse.width * coarse.n].reshape(coarse.width, coarse.n))
