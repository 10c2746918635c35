"""Finite windows of relatively-separated point sets and plateau cutoffs.

An :class:`IndexSet` is a finite list of distinct points inside an axis
box, standing in for a window of a relatively-separated subset of R^d.
The separation constant is the largest number of points any half-open
unit cube can contain; a cutoff operator is a plateau bump centred on
the coarse grid, evaluated on points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, integer_field

DISTINCT_TOL = 1e-12


def _as_points(points, dim: int | None = None) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError("points must be a (m, d) array")
    if dim is not None and pts.shape[1] != dim:
        raise ValueError(f"points have dim {pts.shape[1]}, expected {dim}")
    return pts


@dataclass(frozen=True)
class IndexSet:
    """Distinct points in an axis-aligned window.

    Two points are considered duplicates when every coordinate agrees
    within 1e-12; construction rejects duplicates and points outside the
    window.
    """

    dim: int
    points: np.ndarray
    window: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points, self.dim)
        win = np.asarray(self.window, dtype=np.float64)
        if win.shape != (self.dim, 2):
            raise ValueError(f"window must have shape ({self.dim}, 2)")
        if not (np.isfinite(pts).all() and np.isfinite(win).all()):
            raise InvariantViolation("points and window bounds must be finite")
        if (win[:, 1] < win[:, 0]).any():
            raise ValueError("window upper bounds must not be below lower bounds")
        if pts.size:
            lo, hi = win[:, 0], win[:, 1]
            if ((pts < lo - DISTINCT_TOL) | (pts > hi + DISTINCT_TOL)).any():
                raise ValueError("point outside window")
        _check_distinct(pts)
        pts = pts.copy()
        pts.setflags(write=False)
        win = win.copy()
        win.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "window", win)

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IndexSet)
            and self.dim == other.dim
            and self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.window, other.window)
        )

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.dim, (self.points + 0.0).tobytes(),
                     (self.window + 0.0).tobytes()))

    def prefix(self, m: int) -> "IndexSet":
        """Sub-index-set made of the first m stored points."""
        if not 0 <= m <= len(self):
            raise ValueError(f"prefix size {m} out of range")
        return IndexSet(self.dim, self.points[:m], self.window)

    def restrict(self, mask: np.ndarray) -> "IndexSet":
        """The selected points, in the same window."""
        return IndexSet(self.dim, self.points[np.asarray(mask)], self.window)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "window": [[float(a), float(b)] for a, b in self.window],
            "points": [[float(x) for x in p] for p in self.points],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "IndexSet":
        return cls(integer_field(obj["dim"], "dim"),
                   np.asarray(obj["points"], dtype=float),
                   np.asarray(obj["window"], dtype=float))

    @classmethod
    def integer_range(cls, lo: int, hi: int) -> "IndexSet":
        """Integer points lo..hi inclusive in the window [lo, hi+1)."""
        pts = np.arange(lo, hi + 1, dtype=float)
        return cls(1, pts, np.array([[float(lo), float(hi + 1)]]))

    @classmethod
    def dyadic_range(cls, level: int, k_lo: int, k_hi: int) -> "IndexSet":
        """Points k * 2^-level for k = k_lo..k_hi-1."""
        h = 2.0 ** (-level)
        pts = np.arange(k_lo, k_hi, dtype=float) * h
        return cls(1, pts, np.array([[k_lo * h, k_hi * h]]))


def _check_distinct(pts: np.ndarray) -> None:
    """Reject two points that agree within DISTINCT_TOL in every coordinate.

    After the lexicographic sort the axis-0 gap s[i + k, 0] - s[i, 0] grows
    with the lag k, so every lag up to that of a duplicate pair has some
    pair within tolerance on axis 0.  The scan over lags stops at the first
    lag without one; in one dimension that is lag 1.
    """
    m = pts.shape[0]
    if m < 2:
        return
    order = np.lexsort(pts.T[::-1])
    s = pts[order]
    for k in range(1, m):
        near = np.abs(s[k:] - s[:-k]) <= DISTINCT_TOL
        dup = near.all(axis=1)
        if dup.any():
            i = int(np.flatnonzero(dup)[0])
            raise ValueError(f"duplicate points (all coordinates within {DISTINCT_TOL}): "
                             f"{s[i].tolist()} and {s[i + k].tolist()}")
        if not near[:, 0].any():
            return


def _max_depth(pts: np.ndarray) -> int:
    """Maximum number of half-open unit cubes λ + [0,1)^d covering one point."""
    m, d = pts.shape
    if m == 0:
        return 0
    if d == 1:
        x = pts[:, 0]
        events = np.concatenate([np.stack([x, np.ones(m)], axis=1),
                                 np.stack([x + 1.0, -np.ones(m)], axis=1)])
        # ends sort before starts at equal coordinates: [λ, λ+1) is half-open
        order = np.lexsort((events[:, 1], events[:, 0]))
        return int(np.cumsum(events[order, 1]).max())
    x = pts[:, 0]
    best = 0
    for start in np.unique(x):
        active = (x <= start) & (start < x + 1.0)
        if active.sum() > best:
            best = max(best, _max_depth(pts[active][:, 1:]))
    return best


def separation_constant(s: IndexSet) -> int:
    """Largest point count of any unit cube, computed by exact sweep."""
    return _max_depth(s.points)


def cutoff_psi(x) -> np.ndarray | float:
    """Plateau bump min(max(2 - ||x||_inf, 0), 1): 1 on [-1,1]^d, 0 outside [-2,2]^d."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr[None, None]
        scalar = True
    elif arr.ndim == 1:
        # a single d-vector
        arr = arr[None, :]
        scalar = True
    else:
        scalar = False
    vals = np.minimum(np.maximum(2.0 - np.abs(arr).max(axis=-1), 0.0), 1.0)
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True)
class CutoffOperator:
    """Pointwise multiplication by ψ((λ - center)/scale) on an index set.

    The center must sit on the coarse grid: every coordinate an integer
    multiple of ``scale``.
    """

    center: np.ndarray
    scale: int
    target: IndexSet

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64).reshape(-1)
        if self.scale < 1 or int(self.scale) != self.scale:
            raise ValueError("scale must be a positive integer")
        if c.shape[0] != self.target.dim:
            raise ValueError("center dimension mismatch")
        ratio = c / float(self.scale)
        if np.abs(ratio - np.round(ratio)).max(initial=0.0) > 1e-9:
            raise ValueError("center coordinates must be integer multiples of scale")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "scale", int(self.scale))

    def weights_on(self, points: np.ndarray) -> np.ndarray:
        return cutoff_psi((np.asarray(points, dtype=float) - self.center) / self.scale)


@dataclass(frozen=True)
class PartitionReport:
    dim: int
    scale: int
    lower_bound: float
    upper_bound: float
    min_observed: float
    max_observed: float
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def cutoff_partition_check(scale: int, sample_points) -> PartitionReport:
    """Check 2^d <= sum_n ψ((x - n)/scale)^2 <= 4^d over coarse-grid centers n.

    The sum runs over n in scale * Z^d; ψ has support radius 2 so only a
    5^d block of centers contributes at any x.  A sample violates the
    check when it leaves the bounds by more than 1e-12.
    """
    pts = _as_points(sample_points)
    d = pts.shape[1]
    lo, hi = 2.0 ** d, 4.0 ** d
    u = pts / float(scale)
    base = np.floor(u).astype(np.int64)
    ranges = [np.arange(-2, 3)] * d
    offs = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, d)
    total = np.zeros(pts.shape[0])
    for off in offs:
        total += cutoff_psi(u - (base + off)) ** 2
    violations = []
    for x, s in zip(pts, total):
        if s < lo - 1e-12 or s > hi + 1e-12:
            violations.append((x.tolist(), float(s)))
    return PartitionReport(d, int(scale), lo, hi,
                           float(total.min()), float(total.max()), violations)
