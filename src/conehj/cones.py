"""Cone algebra on discretized monotone matrix paths.

The ambient space is L^2([0,1); S^D) with S^D the D x D symmetric
matrices under the trace inner product.  A partition j of [0,1) induces
the finite-dimensional space H^j = (S^D)^{|j|} with the cell-width
weighted inner product, the cone C^j of PSD-ordered increasing tuples,
and its dual cone of tuples with PSD weighted tail sums.  Step paths on
finite grids stand in for general L^2 elements; cell averaging
(projection) and step embedding (lift) move data between levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an argument violates an operation's precondition."""


class UnsupportedOperationError(NotImplementedError):
    """Raised for combinations (e.g. D > 1) outside the supported envelope."""


def default_psd_tol(a):
    """Scale-aware PSD tolerance 1e-9 * (1 + |a|)."""
    return 1e-9 * (1.0 + float(np.linalg.norm(a)))


# ---------------------------------------------------------------------------
# partitions

@dataclass(frozen=True)
class Partition:
    """Ordered breakpoints 0 < t_1 < ... < t_{|j|} = 1 of [0,1).

    The convention t_0 = 0 is implicit.  Refinement is breakpoint-set
    inclusion.
    """

    breaks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.breaks, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise InvalidInputError("breaks must be a non-empty 1-d sequence")
        if not np.all(np.diff(b) > 0) or b[0] <= 0.0:
            raise InvalidInputError("breaks must be strictly increasing in (0, 1]")
        if b[-1] != 1.0:
            raise InvalidInputError("last break must equal 1 exactly")
        object.__setattr__(self, "breaks", b)
        b.setflags(write=False)
        e = np.concatenate(([0.0], b))
        w = np.diff(e)
        e.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "_edges", e)
        object.__setattr__(self, "_widths", w)
        # partitions key the operator caches below, so hash once here
        object.__setattr__(self, "_hash", hash(b.tobytes()))

    @classmethod
    def uniform(cls, n: int) -> "Partition":
        if n < 1:
            raise InvalidInputError("uniform partition needs n >= 1")
        return cls(np.arange(1, n + 1) / n)

    @classmethod
    def dyadic(cls, k: int) -> "Partition":
        return cls.uniform(2 ** k)

    @property
    def size(self) -> int:
        return int(self.breaks.size)

    @property
    def edges(self) -> np.ndarray:
        """All cell edges (0, t_1, ..., 1), length |j| + 1."""
        return self._edges

    @property
    def widths(self) -> np.ndarray:
        return self._widths

    def integrate(self, v) -> np.ndarray:
        """sum_k w_k v[..., k], each row summed on its own (no matrix product),
        so no value depends on the row count, memory layout or BLAS threads."""
        return np.multiply(v, self._widths, order="C").sum(axis=-1)

    @property
    def is_uniform(self) -> bool:
        return bool(np.allclose(self.widths, 1.0 / self.size, rtol=0.0, atol=1e-14))

    @property
    def is_dyadic(self) -> bool:
        n = self.size
        return self.is_uniform and (n & (n - 1)) == 0

    def refines(self, other: "Partition") -> bool:
        """True iff ``other``'s breakpoints are a subset of this partition's."""
        return _refines_cached(self, other)

    def union(self, other: "Partition") -> "Partition":
        return _union_cached(self, other)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, Partition) and self._hash == other._hash
                and np.array_equal(self.breaks, other.breaks))

    def __hash__(self):
        return self._hash

    def to_json(self):
        if self.is_dyadic:
            return {"dyadic": int(np.log2(self.size))}
        if self.is_uniform:
            return {"uniform": self.size}
        return {"breaks": self.breaks.tolist()}

    @classmethod
    def from_json(cls, obj) -> "Partition":
        if not isinstance(obj, dict) or len(obj) != 1:
            raise InvalidInputError("partition spec must be one of "
                                    '{"uniform": n}, {"dyadic": k}, {"breaks": [...]}')
        if "uniform" in obj:
            return cls.uniform(int(obj["uniform"]))
        if "dyadic" in obj:
            return cls.dyadic(int(obj["dyadic"]))
        if "breaks" in obj:
            return cls(np.asarray(obj["breaks"], dtype=float))
        raise InvalidInputError(f"unknown partition key {set(obj)}")


# ---------------------------------------------------------------------------
# memoized partition plumbing (partitions are immutable and hashable, so
# unions, refinement tests and the operators between two partitions can be
# shared across calls)

@lru_cache(maxsize=4096)
def _union_cached(a: Partition, b: Partition) -> Partition:
    if a == b:
        return a
    # keep the operands' own breakpoints, so union cells are exact overlaps;
    # of two breaks within the refinement tolerance only the larger stays
    merged = np.union1d(a.breaks, b.breaks)
    return Partition(merged[np.append(np.diff(merged) > 1e-14, True)])


@lru_cache(maxsize=8192)
def _refines_cached(fine: Partition, coarse: Partition) -> bool:
    idx = np.searchsorted(fine.breaks, coarse.breaks)
    lo = fine.breaks[np.clip(idx - 1, 0, fine.breaks.size - 1)]
    hi = fine.breaks[np.clip(idx, 0, fine.breaks.size - 1)]
    near = np.minimum(np.abs(lo - coarse.breaks), np.abs(hi - coarse.breaks))
    return bool(np.all(near <= 1e-14))


@lru_cache(maxsize=4096)
def refinement_index(src: Partition, grid: Partition) -> np.ndarray:
    """Source-cell index owning each cell of a refining grid.

    Re-expressing a step path on ``grid`` (the lift of its values) is the
    gather ``values[refinement_index(src, grid)]``; the midpoint of each
    grid cell selects its source cell.
    """
    mids = 0.5 * (grid.edges[:-1] + grid.edges[1:])
    idx = np.searchsorted(src.breaks, mids, side="right")
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=4096)
def averaging_matrix(src: Partition, dst: Partition) -> np.ndarray:
    """Matrix of p_dst on step paths supported on ``src``, shape (|dst|, |src|).

    Entry (k, i) is |cell_k(dst) & cell_i(src)| / |cell_k(dst)|, so the
    cell averages of a path with values v are ``A @ v``.  Overlaps come
    from the breakpoints themselves, so the averages are exact up to the
    rounding of the product.
    """
    lo = np.maximum.outer(dst.edges[:-1], src.edges[:-1])
    hi = np.minimum.outer(dst.edges[1:], src.edges[1:])
    a = np.clip(hi - lo, 0.0, None) / dst.widths[:, None]
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# cone points

def _coerce_coords(coords):
    """Normalize coords to shape (n, D, D)."""
    c = np.asarray(coords, dtype=float)
    if c.ndim == 1:
        c = c[:, None, None]
    if c.ndim != 3 or c.shape[1] != c.shape[2]:
        raise InvalidInputError(f"coords must have shape (n,) or (n, D, D), got {c.shape}")
    if c.shape[1] == 1:
        return c.copy()
    ct = np.swapaxes(c, 1, 2)
    if float(np.abs(c - ct).max(initial=0.0)) \
            > 1e-12 * (1.0 + float(np.abs(c).max(initial=0.0))):
        raise InvalidInputError("coords must be symmetric matrices")
    return 0.5 * (c + np.swapaxes(c, 1, 2))


@dataclass(frozen=True, eq=False)
class ConePoint:
    """Element x of H^j: one symmetric matrix per partition cell.

    Like ``StepPath`` and ``DiscreteMeasure``, it compares and hashes by
    identity: its coordinates are an array, whose ``==`` is elementwise.
    """

    partition: Partition
    coords: np.ndarray

    def __post_init__(self):
        c = _coerce_coords(self.coords)
        if c.shape[0] != self.partition.size:
            raise InvalidInputError(
                f"{c.shape[0]} coords for a partition of size {self.partition.size}")
        object.__setattr__(self, "coords", c)
        c.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.coords.shape[1])

    @property
    def scalars(self) -> np.ndarray:
        """Coordinates as a flat vector; D = 1 only."""
        if self.dim != 1:
            raise UnsupportedOperationError("scalars requires D = 1")
        return self.coords[:, 0, 0]

    def inner(self, other: "ConePoint") -> float:
        """<x, y>_{H^j} = sum_k (t_k - t_{k-1}) x_k . y_k."""
        _check_same_space(self, other)
        return float(self.partition.integrate(
            np.sum(self.coords * other.coords, axis=(1, 2))))

    def norm(self) -> float:
        return np.sqrt(max(self.inner(self), 0.0))

    def norm_lp(self, p: float) -> float:
        """Weighted l^p norm (sum_k w_k |x_k|^p)^(1/p); p = inf gives max |x_k|."""
        mags = np.sqrt(np.sum(self.coords ** 2, axis=(1, 2)))
        if np.isinf(p):
            return float(mags.max(initial=0.0))
        return float(self.partition.integrate(mags ** p) ** (1.0 / p))

    def __add__(self, other):
        _check_same_space(self, other)
        return _cone_point(self.partition, self.coords + other.coords)

    def __sub__(self, other):
        _check_same_space(self, other)
        return _cone_point(self.partition, self.coords - other.coords)

    def __mul__(self, s: float):
        return _cone_point(self.partition, self.coords * float(s))

    __rmul__ = __mul__


def _cone_point(partition: Partition, coords: np.ndarray) -> ConePoint:
    """ConePoint without re-validation.

    Only for coords computed from already validated ones: a fresh or
    read-only (|j|, D, D) array of symmetric matrices.
    """
    x = object.__new__(ConePoint)
    coords.setflags(write=False)
    object.__setattr__(x, "partition", partition)
    object.__setattr__(x, "coords", coords)
    return x


def _check_same_space(x: ConePoint, y: ConePoint):
    if x.partition != y.partition:
        raise InvalidInputError("cone points live on different partitions")
    if x.dim != y.dim:
        raise InvalidInputError("cone points have different matrix dimension")


def _all_psd(mats: np.ndarray, tol) -> bool:
    """True iff every stacked symmetric matrix has min eigenvalue >= -tol.

    ``tol`` is one bound for all the matrices or one per matrix.
    """
    if mats.shape[-1] == 1:
        return bool(np.all(mats[:, 0, 0] >= -tol))
    # each diagonal entry bounds the smallest eigenvalue from above, so a
    # negative one settles the answer without an eigensolve
    if np.any(np.diagonal(mats, axis1=1, axis2=2) < -np.asarray(tol)[..., None]):
        return False
    if mats.shape[-1] == 2:
        a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
        lam = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
        return bool(np.all(lam >= -tol))
    return bool(np.all(np.linalg.eigvalsh(mats)[:, 0] >= -tol))


def is_in_cone(x: ConePoint) -> bool:
    """Membership in C^j: 0 <= x_1 <= ... <= x_{|j|} in the PSD order."""
    c = x.coords
    diffs = np.empty_like(c)
    diffs[0] = c[0]
    np.subtract(c[1:], c[:-1], out=diffs[1:])
    return _all_psd(diffs, default_psd_tol(c))


def is_in_dual(x: ConePoint, tol=None) -> bool:
    """Membership in (C^j)*: all weighted tail sums sum_{i>=k} w_i x_i are PSD."""
    c = x.coords
    if tol is None:
        tol = default_psd_tol(c)
    w = x.partition.widths
    tails = np.cumsum((w[:, None, None] * c)[::-1], axis=0)[::-1]
    return _all_psd(tails, tol)


def rearrange_sharp(x: ConePoint) -> ConePoint:
    """Nondecreasing rearrangement; D = 1 on a uniform partition only.

    The sorted point dominates x in the dual order and preserves every
    coordinate-wise statistic.
    """
    if x.dim != 1:
        raise UnsupportedOperationError("rearrangement requires D = 1")
    if not x.partition.is_uniform:
        raise UnsupportedOperationError("rearrangement requires a uniform partition")
    return ConePoint(x.partition, np.sort(x.scalars))


# ---------------------------------------------------------------------------
# step paths

@dataclass(frozen=True, eq=False)
class StepPath:
    """Piecewise-constant map [0,1) -> S^D on a support grid."""

    partition: Partition
    values: np.ndarray

    def __post_init__(self):
        v = _coerce_coords(self.values)
        if v.shape[0] != self.partition.size:
            raise InvalidInputError("one value per partition cell required")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    def refine_to(self, grid: Partition) -> "StepPath":
        """Re-express on a refining grid (exact for step functions)."""
        if grid == self.partition:
            return self
        if not grid.refines(self.partition):
            raise InvalidInputError("target grid must refine the support grid")
        return _step_path(grid, self.values[refinement_index(self.partition, grid)])

    def _merge_same_dim(self, other: "StepPath"):
        """Both paths re-expressed on the union grid."""
        if self.dim != other.dim:
            raise InvalidInputError("step paths have different matrix dimension")
        g = self.partition.union(other.partition)
        return self.refine_to(g), other.refine_to(g)

    def inner(self, other: "StepPath") -> float:
        a, b = self._merge_same_dim(other)
        return float(a.partition.integrate(np.sum(a.values * b.values,
                                                  axis=(1, 2))))

    def norm(self) -> float:
        return np.sqrt(max(self.inner(self), 0.0))

    def norm_lp(self, p: float) -> float:
        return _cone_point(self.partition, self.values).norm_lp(p)

    def __add__(self, other):
        a, b = self._merge_same_dim(other)
        return _step_path(a.partition, a.values + b.values)

    def __sub__(self, other):
        a, b = self._merge_same_dim(other)
        return _step_path(a.partition, a.values - b.values)

    def __mul__(self, s: float):
        return _step_path(self.partition, self.values * float(s))

    __rmul__ = __mul__

    @classmethod
    def from_json(cls, obj) -> "StepPath":
        return cls(Partition.from_json(obj["partition"]),
                   np.asarray(obj["values"], dtype=float))


def _step_path(partition: Partition, values: np.ndarray) -> StepPath:
    """StepPath without re-validation; the same contract as ``_cone_point``."""
    p = object.__new__(StepPath)
    values.setflags(write=False)
    object.__setattr__(p, "partition", partition)
    object.__setattr__(p, "values", values)
    return p


def project_pj(path: StepPath, j: Partition) -> ConePoint:
    """Cell averages of ``path`` over the cells of ``j`` (map p_j).

    Exact for step paths: one product with ``averaging_matrix``.
    """
    v = path.values
    n, D = v.shape[0], v.shape[1]
    out = (averaging_matrix(path.partition, j) @ v.reshape(n, D * D)) \
        .reshape(j.size, D, D)
    if D > 1:
        # the product need not round (p, q) and (q, p) alike
        out = 0.5 * (out + np.swapaxes(out, 1, 2))
    return _cone_point(j, out)


def lift_lj(x: ConePoint) -> StepPath:
    """Step path taking value x_k on [t_{k-1}, t_k) (map l_j)."""
    return _step_path(x.partition, x.coords)


# ---------------------------------------------------------------------------
# discrete monotone measures and the quantile isometry

@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported monotone measure sum_k (zeta_{k+1}-zeta_k) delta_{q_k}.

    Atoms are PSD-ordered increasing; levels are 0 = zeta_0 < ... <
    zeta_{K+1} = 1.
    """

    atoms: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        a = _coerce_coords(self.atoms)
        z = np.asarray(self.levels, dtype=float)
        if z.ndim != 1 or z.size != a.shape[0] + 1:
            raise InvalidInputError("levels must have one more entry than atoms")
        if z[0] != 0.0 or z[-1] != 1.0 or not np.all(np.diff(z) > 0):
            raise InvalidInputError("levels must increase strictly from 0 to 1")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("atoms must be finite")
        steps = np.diff(a, axis=0, prepend=0.0)
        tol = 1e-9 * (1.0 + np.linalg.norm(steps, axis=(1, 2)))
        if not _all_psd(steps, tol):
            raise InvalidInputError(
                "atoms must lie in the PSD cone and increase in the PSD order")
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "levels", z)
        a.setflags(write=False)
        z.setflags(write=False)

    @property
    def dim(self) -> int:
        return int(self.atoms.shape[1])

    @property
    def weights(self) -> np.ndarray:
        return np.diff(self.levels)

    @classmethod
    def delta(cls, q) -> "DiscreteMeasure":
        """The point mass at q, a scalar or a symmetric (D, D) matrix."""
        q = np.asarray(q, dtype=float)
        return cls(q.reshape(1, *(q.shape or (1, 1))), np.array([0.0, 1.0]))

    def to_json(self):
        return {"atoms": self.atoms.tolist(), "levels": self.levels.tolist()}

    @classmethod
    def from_json(cls, obj) -> "DiscreteMeasure":
        return cls(np.asarray(obj["atoms"], dtype=float),
                   np.asarray(obj["levels"], dtype=float))


def measure_to_quantile(m: DiscreteMeasure) -> StepPath:
    """Quantile path: value q_k on [zeta_k, zeta_{k+1})."""
    return StepPath(Partition(m.levels[1:]), m.atoms)


def wasserstein_p(m1: DiscreteMeasure, m2: DiscreteMeasure, p: float) -> float:
    """d_p between monotone measures: L^p norm of the quantile-path gap."""
    if p < 1:
        raise InvalidInputError("wasserstein order p must be >= 1")
    if m1.dim != m2.dim:
        raise InvalidInputError("measures have different matrix dimension")
    diff = measure_to_quantile(m1) - measure_to_quantile(m2)
    return diff.norm_lp(p)
