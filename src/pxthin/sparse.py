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


class P1Pattern:
    """The entries (i, j) of the P1 stiffness matrix of a triangulation.

    cols[k, i] is the column of row i's slot k; counts[i] is the number of
    its entries, and the unused slots k >= counts[i] repeat i with the value
    0. scatter takes the element entry (t, i, j), flattened in that order,
    to its flat slot position k * n + i, and diagonal[i] is the flat
    position of (i, i).
    """

    def __init__(self, triangles, n):
        # key row * n + col of entry (t, i, j), sorted once; the scatter map
        # is each entry's rank among the distinct keys, np.unique's inverse,
        # built in the sorted keys' buffer instead of further copies
        ranks = (triangles[:, :, None] * n + triangles[:, None, :]).ravel()
        order = ranks.argsort()
        ranks = ranks[order]
        first = np.empty(len(ranks), dtype=bool)
        first[:1] = True
        np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
        keys = ranks[first]
        np.cumsum(first, out=ranks)
        ranks -= 1
        del first
        scatter = np.empty_like(order)
        scatter[order] = ranks
        del order, ranks
        rows = keys // n
        self.n = n
        self.counts = np.bincount(rows, minlength=n)
        self.width = int(self.counts.max(initial=0))
        # distinct entry e, in key order, sits in slot e - (first entry of
        # its row), at flat position slot * n + row
        slot = np.arange(len(keys))
        slot -= (np.cumsum(self.counts) - self.counts)[rows]
        slot *= n
        slot += rows
        keys -= rows * n                                        # the columns
        self.cols = np.empty((self.width, n), dtype=np.intp)
        self.cols[:] = np.arange(n)
        self.cols.ravel()[slot] = keys
        self.diagonal = np.arange(n)            # a zero slot for an empty row
        on_diagonal = keys == rows
        self.diagonal[rows[on_diagonal]] = slot[on_diagonal]
        del keys, rows, on_diagonal
        np.take(slot, scatter, out=scatter)
        self.scatter = scatter
        for a in (self.counts, self.cols, self.diagonal, self.scatter):
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

    @property
    def shape(self):
        return len(self.ends), self.n_coarse

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
    terms = (A.values * scale) * scale[A.pattern.cols]
    size = coarse.width * coarse.n + 1
    total = sum(np.bincount(layer.ravel(), weights=terms.ravel(), minlength=size)
                for layer in gmap.reshape(4, *terms.shape))
    return PatternMatrix(coarse, total[:-1].reshape(coarse.width, coarse.n))
