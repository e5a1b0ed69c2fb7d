"""Sparse matrices on a mesh's P1 pattern, and the transfers between mesh levels.

A matrix on the pattern stores row i's entries in slots 0, 1, ... in
increasing column order. Slot k of every row forms layer k, so the values
are one (width, n) array and the columns one array of the same shape. A
product adds each row's terms slot by slot, which is the order of a CSR
product over the same pattern and gives the same bits. The Galerkin map is
built one layer at a time, so its build holds a few arrays of length n at
once beside its result.
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
    triangles, sorted by (lo, hi), and the index of each triangle's local
    edges among them, (nt, 3) in _EDGES order."""
    ends = [triangles[:, [e[0] for e in _EDGES]], triangles[:, [e[1] for e in _EDGES]]]
    keys = np.minimum(*ends) * n
    keys += np.maximum(*ends)
    del ends
    keys, edge = np.unique(keys.ravel(), return_inverse=True)
    lo, hi = np.divmod(keys, n)
    return lo, hi, edge.reshape(-1, len(_EDGES))


class P1Pattern:
    """The entries (i, j) of the P1 stiffness matrix of a triangulation.

    cols[k, i] is the column of row i's slot k; counts[i] is the number of
    its entries, and the unused slots k >= counts[i] repeat i with the value
    0. Flat slot position k * n + i holds row i's slot k: diagonal[i] is
    the flat position of (i, i), edge[t] the indices of triangle t's local
    edges in _EDGES order, and upper[e] and lower[e] the flat positions of
    edge e's entries (lo, hi) and (hi, lo), lo < hi.
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
        # (lo, hi) follows lo's lower neighbours, lo, and the upper ones that
        # come before it in the (lo, hi) order of the edges
        upper = np.arange(len(lo)) - (np.cumsum(above) - above)[lo]
        upper += below[lo] + 1
        upper *= n
        upper += lo
        # (hi, lo) takes lo's rank among hi's lower neighbours
        order = np.lexsort((lo, hi))
        lower = np.empty_like(upper)
        lower[order] = np.arange(len(lo)) - (np.cumsum(below) - below)[hi[order]]
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
    """P1 prolongation onto a mesh from a coarser one.

    Fine vertex i takes weights[i, 0] x[ends[i, 0]] + weights[i, 1]
    x[ends[i, 1]]: the weights are (1, 0) where i is a coarse vertex
    (ends[i] = (i's coarse index) twice) and (1/2, 1/2) on the ends of the
    coarse edge that i halves.
    """

    def __init__(self, ends, n_coarse):
        self.ends = ends
        self.n_coarse = n_coarse
        self.weights = np.where((ends[:, 0] == ends[:, 1])[:, None], [1.0, 0.0], 0.5)

    def __matmul__(self, x):
        e, w = self.ends, self.weights
        return w[:, 0] * x[e[:, 0]] + w[:, 1] * x[e[:, 1]]

    def restrict(self, r):
        """P^T r; each coarse sum runs over the fine vertices in order."""
        return np.bincount(self.ends.ravel(), weights=(self.weights * r[:, None]).ravel(),
                           minlength=self.n_coarse)

    def coarse_kept(self, kept):
        """Flags of the coarse vertices whose own fine vertex is kept."""
        copies = self.weights[:, 1] == 0.0
        out = np.zeros(self.n_coarse, dtype=bool)
        out[self.ends[copies, 0]] = kept[copies]
        return out


def galerkin_map(fine, prolongation, coarse):
    """Where each term of P^T A P lands in the coarse pattern.

    For the fine entry in slot (k, i), with j = fine.cols[k, i], and u, v in
    {0, 1}, out[u, v, k, i] is the flat coarse position of the entry
    (ends[i, u], ends[j, v]). Terms with weight 0 and unused slots go to the
    extra position coarse.width * coarse.n. Fine entries of a nested
    refinement (or of a submesh of one) lie in one coarse triangle, so
    every term finds its entry.
    """
    ends, weights = prolongation.ends, prolongation.weights
    size = coarse.width * coarse.n
    out = np.full((2, 2, fine.width, fine.n), size,
                  dtype=np.int32 if size < 2 ** 31 else np.intp)
    for u in range(2):
        I = ends[:, u]
        row_cols = coarse.cols[:, I]            # the columns of row I, per fine row
        row_term = weights[:, u] != 0.0
        for v in range(2):
            for k in range(fine.width):
                j = fine.cols[k]
                term = row_term & (fine.counts > k) & (weights[j, v] != 0.0)
                # the lowest slot of row I holding J: unused slots repeat I
                slot = (row_cols == ends[j, v]).argmax(axis=0)
                out[u, v, k, term] = (slot * coarse.n + I)[term]
    return out


def galerkin(A, kept, prolongation, gmap, coarse):
    """The truncated Galerkin operator P^T A P on the coarse pattern, where
    the fine rows and columns not kept are dropped. Coarse rows and columns
    without a kept fine counterpart hold partial sums; callers keep them out
    of every product."""
    scale = prolongation.weights[:, 0] * kept       # 1, 1/2 or 0 per fine vertex
    terms = A.values * scale
    terms *= scale[A.pattern.cols]
    size = coarse.width * coarse.n + 1
    total = sum(np.bincount(layer.ravel(), weights=terms.ravel(), minlength=size)
                for layer in gmap.reshape(4, *terms.shape))
    return PatternMatrix(coarse, total[:-1].reshape(coarse.width, coarse.n))
