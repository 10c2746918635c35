"""Matrices indexed by point sets, with localization norms.

A :class:`LocalizedMatrix` stores sparse entries a(λ, λ') between two
index sets.  Offsets λ - λ' are binned into integer cells by coordinate
floor; the offset profile (per-cell supremum of |a|) drives the
convolution-dominated norm, truncation tails, and the cutoff commutator
bound.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InvariantViolation
from .lattice import IndexSet, CutoffOperator

ENTRY_DROP_TOL = 1e-300


class OffsetProfile:
    """Per-cell suprema sup {|a(λ, λ')| : λ - λ' in k + [0,1)^d}, over
    distinct cells in lexicographic order (as :func:`group_max` returns them)."""

    def __init__(self, dim: int, cells: np.ndarray, sups: np.ndarray):
        self.dim = dim
        self.cells = np.asarray(cells, dtype=np.int64).reshape(-1, dim)
        self.sups = np.asarray(sups, dtype=np.float64).reshape(-1)

    def __len__(self) -> int:
        return self.cells.shape[0]

    def total(self) -> float:
        # lexicographic cell order fixes the summation order
        return float(np.sum(self.sups))


def _index_array(idx, axis: str) -> np.ndarray:
    """Entry indices as int64; a fractional or non-finite index is an error,
    not something to truncate."""
    arr = np.asarray(idx).reshape(-1)
    if arr.dtype.kind not in "iub":
        f = np.asarray(arr, dtype=np.float64)
        bad = ~np.isfinite(f) | (f != np.trunc(f))
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            raise InvariantViolation(f"{axis} index {float(f[t])!r} is not an integer")
    return arr.astype(np.int64)


def _row_major(i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the entries (i, j) are strictly increasing in (row, column).
    Row and column are compared apart: a key i * ncols + j could overflow."""
    di = np.diff(i)
    return bool(((di > 0) | ((di == 0) & (np.diff(j) > 0))).all())


class LocalizedMatrix:
    """Sparse matrix between two index sets with cached localization data."""

    def __init__(self, rows: IndexSet, cols: IndexSet, i, j, values):
        if rows.dim != cols.dim:
            raise ValueError("row and column index sets must share a dimension")
        i = _index_array(i, "row")
        j = _index_array(j, "column")
        v = np.asarray(values, dtype=np.float64).reshape(-1)
        if not (i.shape == j.shape == v.shape):
            raise ValueError("entry arrays must have matching lengths")
        if i.size:
            if i.min(initial=0) < 0 or i.max(initial=-1) >= len(rows):
                raise ValueError("row index out of range")
            if j.min(initial=0) < 0 or j.max(initial=-1) >= len(cols):
                raise ValueError("column index out of range")
        if not np.isfinite(v).all():
            t = int(np.flatnonzero(~np.isfinite(v))[0])
            raise InvariantViolation(f"non-finite entry {float(v[t])!r} at ({i[t]}, {j[t]})")
        keep = np.abs(v) >= ENTRY_DROP_TOL
        i, j, v = i[keep], j[keep], v[keep]
        # entries strictly increasing in (row, column), as the assemblers
        # emit them, are already in order and hold no duplicate; anything
        # else is sorted and scanned for duplicates
        if not _row_major(i, j):
            order = np.lexsort((j, i))
            i, j, v = i[order], j[order], v[order]
            dup = (np.diff(i) == 0) & (np.diff(j) == 0)
            if dup.any():
                t = int(np.flatnonzero(dup)[0])
                raise ValueError(f"duplicate entry at ({i[t]}, {j[t]})")
        for arr in (i, j, v):
            arr.setflags(write=False)
        self.rows = rows
        self.cols = cols
        self.i = i
        self.j = j
        self.values = v
        self._cache: dict = {}

    # -- basics ---------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    @property
    def nnz(self) -> int:
        return self.values.size

    @property
    def dim(self) -> int:
        return self.rows.dim

    def csr(self):
        """The entries as a ``scipy.sparse.csr_matrix``, imported at the
        first call: no dense p = 2, square p in {1, inf}, norm or density
        path needs scipy.sparse."""
        m = self._cache.get("csr")
        if m is None:
            import scipy.sparse as sp
            m = sp.csr_matrix((self.values, (self.i, self.j)), shape=self.shape)
            self._cache["csr"] = m
        return m

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.i, self.j] = self.values
        return out

    def offsets(self) -> np.ndarray:
        """λ_i - λ'_j per stored entry, shape (nnz, d)."""
        return self.rows.points[self.i] - self.cols.points[self.j]

    def band(self) -> float:
        """max ||λ - λ'||_inf over stored entries (0 for empty)."""
        b = self._cache.get("band")
        if b is None:
            b = float(np.abs(self.offsets()).max(initial=0.0))
            self._cache["band"] = b
        return b

    def window_prefix(self, m_rows: int, m_cols: int) -> "LocalizedMatrix":
        """The leading m_rows x m_cols block, on the first points of each set."""
        keep = (self.i < m_rows) & (self.j < m_cols)
        return LocalizedMatrix(self.rows.prefix(m_rows), self.cols.prefix(m_cols),
                               self.i[keep], self.j[keep], self.values[keep])

    def restrict_cols(self, idx: np.ndarray) -> "LocalizedMatrix":
        """The columns ``idx`` (ascending), on those points of the column set."""
        # column j is column pos[j] of the restriction, or dropped at -1
        pos = np.full(len(self.cols), -1)
        pos[idx] = np.arange(len(idx))
        keep = pos[self.j] >= 0
        return LocalizedMatrix(self.rows, self.cols.restrict(idx), self.i[keep],
                               pos[self.j[keep]], self.values[keep])

    # -- serialization ---------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows.to_json_dict(),
            "cols": self.cols.to_json_dict(),
            "entries": [[int(a), int(b), float(v)]
                        for a, b, v in zip(self.i, self.j, self.values)],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LocalizedMatrix":
        rows = IndexSet.from_json_dict(obj["rows"])
        cols = IndexSet.from_json_dict(obj["cols"])
        entries = obj.get("entries", [])
        if entries:
            arr = np.asarray(entries, dtype=float)
            i, j, v = arr[:, 0], arr[:, 1], arr[:, 2]
        else:
            i = j = np.empty(0, dtype=np.int64)
            v = np.empty(0)
        return cls(rows, cols, i, j, v)

    @classmethod
    def from_dense(cls, rows: IndexSet, cols: IndexSet,
                   dense: np.ndarray) -> "LocalizedMatrix":
        """Every nonzero entry of ``dense``; a NaN is kept, so the
        constructor rejects it."""
        dense = np.asarray(dense, dtype=float)
        if dense.shape != (len(rows), len(cols)):
            raise ValueError("dense shape mismatch")
        i, j = np.nonzero(dense)
        return cls(rows, cols, i, j, dense[i, j])


def toeplitz_entries(table, n: int):
    """Row-major (i, j, value) arrays of the n x n window of a centred,
    odd-length offset table: entry (i, j) is table[mid + i - j] for
    |i - j| <= mid, mid = len(table) // 2, clipped at the window edge.
    Every entry in the band is listed, zero or not."""
    table = np.asarray(table, dtype=np.float64)
    if table.size % 2 != 1:
        raise ValueError("Toeplitz band must have odd length (centered)")
    mid = table.size // 2
    kmax = min(mid, n - 1)
    # row r holds the columns max(0, r - kmax) .. min(n, r + kmax + 1) - 1
    r = np.arange(n)
    start = np.maximum(r - kmax, 0)
    lengths = np.minimum(r + kmax + 1, n) - start
    first = np.cumsum(lengths) - lengths
    ii = np.repeat(r, lengths)
    jj = np.arange(lengths.sum()) - np.repeat(first - start, lengths)
    return ii, jj, table[mid + ii - jj]


# ----------------------------------------------------------------------
# offset cells


def group_max(cells: np.ndarray, values: np.ndarray):
    """Maximum of ``values`` per distinct integer cell.

    ``cells`` is (n, d), or (n,) for one axis.  The distinct cells come back
    in the same form, in lexicographic order, with their maxima.
    """
    cells = np.asarray(cells, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    flat = cells.ndim == 1
    cols = cells[:, None] if flat else cells
    order = np.lexsort(cols.T[::-1])
    cols, values = cols[order], values[order]
    if values.size:
        new = (cols[1:] != cols[:-1]).any(axis=1)
        starts = np.concatenate(([0], np.flatnonzero(new) + 1))
        cols, values = cols[starts], np.maximum.reduceat(values, starts)
    return (cols[:, 0] if flat else cols), values


# ----------------------------------------------------------------------
# norms


def offset_profile(A: LocalizedMatrix) -> OffsetProfile:
    cells = np.floor(A.offsets()).astype(np.int64)
    return OffsetProfile(A.dim, *group_max(cells, np.abs(A.values)))


def sjostrand_norm(A: LocalizedMatrix) -> float:
    """Sum over offset cells of the per-cell supremum of |a|."""
    return offset_profile(A).total()


def abs_sums(A: LocalizedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) sums of |a|.  Each sum adds its entries in stored
    (row-major) order, as a CSR product with a ones vector does."""
    absv = np.abs(A.values)
    return (np.bincount(A.i, absv, minlength=A.shape[0]),
            np.bincount(A.j, absv, minlength=A.shape[1]))


def schur_norm(A: LocalizedMatrix) -> float:
    """max(max absolute row sum, max absolute column sum)."""
    row, col = abs_sums(A)
    return max(float(row.max(initial=0.0)), float(col.max(initial=0.0)))


def slant_norm(A: LocalizedMatrix, alpha: float) -> float:
    """Sup-norm along the slanted diagonal j' - alpha * j.

    Requires integer-lattice index sets (rows and columns); offsets are
    binned by coordinate floor of col_point - alpha * row_point.
    """
    if not np.isfinite(alpha):
        raise InvariantViolation(f"slant alpha must be finite, got {alpha!r}")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    for pts, name in ((A.rows.points, "row"), (A.cols.points, "column")):
        if pts.size and np.abs(pts - np.round(pts)).max() > 1e-9:
            raise ValueError(f"slant norm needs integer {name} lattice points")
    off = A.cols.points[A.j] - alpha * A.rows.points[A.i]
    _, sups = group_max(np.floor(off).astype(np.int64), np.abs(A.values))
    return float(np.sum(sups))


# ----------------------------------------------------------------------
# truncation


def truncate(A: LocalizedMatrix, s: float) -> LocalizedMatrix:
    """Keep entries with ||λ - λ'||_inf strictly below s."""
    if s <= 0:
        return LocalizedMatrix(A.rows, A.cols, [], [], [])
    if np.isinf(s):
        return A
    keep = np.abs(A.offsets()).max(axis=1) < s if A.nnz else np.empty(0, dtype=bool)
    return LocalizedMatrix(A.rows, A.cols, A.i[keep], A.j[keep], A.values[keep])


def truncation_tail(A: LocalizedMatrix, s_values: Iterable[float]) -> list[tuple[float, float]]:
    """Localization-norm tails ||A - A_s|| for ascending truncation radii."""
    s_list = [float(s) for s in s_values]
    if any(b < a for a, b in zip(s_list, s_list[1:])):
        raise ValueError("truncation radii must be ascending")
    off = A.offsets()
    dist = np.abs(off).max(axis=1, initial=0.0)
    cells = np.floor(off).astype(np.int64)
    absv = np.abs(A.values)
    out = []
    for s in s_list:
        mask = dist >= s
        _, sups = group_max(cells[mask], absv[mask])
        out.append((s, float(np.sum(sups))))
    return out


# ----------------------------------------------------------------------
# vector norms and commutator


def vector_pnorm(x: np.ndarray, p: float) -> float:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    if np.isinf(p):
        return float(np.abs(x).max())
    return float(np.linalg.norm(x.ravel(), ord=p))


def commutator_with_cutoff(A: LocalizedMatrix, op: CutoffOperator) -> LocalizedMatrix:
    """A_N Ψ - Ψ A_N for the scale-N truncation A_N of A.

    Entrywise this equals a_N(λ, λ') (ψ((λ'-n)/N) - ψ((λ-n)/N)); the
    cutoff Lipschitz constant makes its localization norm at most
    (band/N) ||A||_loc.
    """
    if op.target != A.rows and op.target != A.cols:
        raise ValueError("cutoff target must match the matrix rows or columns")
    AN = truncate(A, float(op.scale))
    w_rows = op.weights_on(A.rows.points)
    w_cols = op.weights_on(A.cols.points)
    vals = AN.values * (w_cols[AN.j] - w_rows[AN.i])
    return LocalizedMatrix(A.rows, A.cols, AN.i, AN.j, vals)
