"""Phase-space and vector-field primitives shared by the whole package.

A state vector is a 1-D float64 numpy array with N >= 3 finite entries;
`as_state` is the single validation chokepoint.  Quadratic vector fields
store one full coefficient per monomial y_j*y_k with j <= k, so the stored
tensor round-trips with equations as written on paper.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from math import isfinite
import numpy as np

from . import kernels
from .errors import DimensionError, DomainError, ParameterError

#: relative tolerance of `painleve_condition`
PAINLEVE_RTOL = 1e-12


def as_state(coords, dim: int | None = None) -> np.ndarray:
    """Validate and return a state vector as a fresh float64 array.

    Raises DimensionError if fewer than 3 coordinates (or not matching `dim`)
    and DomainError on non-finite entries.
    """
    y = np.array(coords, dtype=float)
    if y.ndim != 1:
        raise DimensionError(f"state must be 1-D, got shape {y.shape}")
    if y.shape[0] < 3:
        raise DimensionError(f"state needs at least 3 coordinates, got {y.shape[0]}")
    if dim is not None and y.shape[0] != dim:
        raise DimensionError(f"expected dimension {dim}, got {y.shape[0]}")
    if not all(map(isfinite, y.tolist())):
        raise DomainError("state coordinates must be finite")
    return y


class MapStepScale(Enum):
    """Effective continuous time advanced by one map application at parameter
    eps.  Bilinearized (Hirota-Kimura type) maps double every quadratic term
    on the diagonal and therefore advance 2*eps; the half-step maps advance
    eps.  Convergence and conjugacy tests must scale time accordingly."""

    EPS = 1
    TWO_EPS = 2

    @property
    def factor(self) -> float:
        return 1.0 if self is MapStepScale.EPS else 2.0


@dataclass(frozen=True)
class QuadraticField:
    """Purely quadratic vector field dy_i/dt = sum_{j<=k} a[i,j,k] y_j y_k.

    `coeffs` has shape (dim, dim, dim) and must be strictly upper-triangular
    in its last two indices (entries with j > k are zero); the stored value is
    the full coefficient of the monomial y_j*y_k.  `terms` lists the nonzero
    entries (i, j, k, a[i,j,k]) once, as Python numbers in index order, so
    `coeffs` is a read-only copy.
    """

    dim: int
    coeffs: np.ndarray
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 3:
            raise DimensionError("quadratic fields need dim >= 3")
        c = np.array(self.coeffs, dtype=float)
        c.flags.writeable = False
        if c.shape != (self.dim,) * 3:
            raise DimensionError(
                f"coefficient tensor must be shape {(self.dim,)*3}, got {c.shape}")
        lower = np.tril_indices(self.dim, k=-1)
        if np.any(c[:, lower[0], lower[1]] != 0.0):
            raise ValueError("coefficients must use the j <= k convention")
        object.__setattr__(self, "coeffs", c)
        i, j, k = np.nonzero(c)
        object.__setattr__(self, "terms", tuple(zip(
            i.tolist(), j.tolist(), k.tolist(), c[i, j, k].tolist())))

    @classmethod
    def from_terms(cls, dim: int, terms: dict[tuple[int, int, int], float]) -> "QuadraticField":
        """Build from {(i, j, k): coefficient} with 0-based indices; (j, k) is
        sorted automatically."""
        c = np.zeros((dim, dim, dim))
        for (i, j, k), v in terms.items():
            lo, hi = (j, k) if j <= k else (k, j)
            c[i, lo, hi] += v
        return cls(dim, c)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return evaluate_field(self, y)


def evaluate_field(field_: QuadraticField, y) -> np.ndarray:
    """Evaluate the quadratic field at a state."""
    y = as_state(y, field_.dim)
    return np.array(kernels._rhs_quadratic_field(field_.terms, y.tolist()),
                    dtype=float)


def painleve_condition(a) -> bool:
    """Test the coefficient condition a12*a23*a31 == a13*a32*a21 for the 3x3
    matrix of a system dy_i/dt = y_i * sum_j a_ij y_j, up to relative
    tolerance PAINLEVE_RTOL."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise DimensionError("painleve_condition expects a 3x3 matrix")
    left = a[0, 1] * a[1, 2] * a[2, 0]
    right = a[0, 2] * a[2, 1] * a[1, 0]
    return abs(left - right) <= PAINLEVE_RTOL * (abs(left) + abs(right))


def elementary_symmetric(y, k: int) -> float:
    """e_k(y), the degree-k elementary symmetric polynomial; e_0 = 1."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DimensionError("elementary_symmetric expects a 1-D array")
    n = y.shape[0]
    if not 0 <= k <= n:
        raise IndexError(f"k must be in [0, {n}], got {k}")
    return float(kernels.esp_all(y)[k])


def fmt17(x: float) -> str:
    """17 significant digits: round-trip exact for IEEE doubles."""
    return format(float(x), ".17g")


@dataclass
class TrajectoryRecord:
    """Sampled trajectory of a flow or map with optional invariant columns.

    `to_csv` and `to_json` write the arrays as float64 values.  `times`,
    `states` and `invariants` have one row per sample, and there is one
    invariant name per invariant column, each distinct: each names one CSV
    column and one JSON key (ParameterError otherwise)."""

    system: str
    times: np.ndarray                   # shape (T+1,)
    states: np.ndarray                  # shape (T+1, N)
    invariant_names: list[str] = field(default_factory=list)
    invariants: np.ndarray | None = None  # shape (T+1, M)
    status: str = "ok"                  # ok | blowup | singular | domain

    def __post_init__(self):
        names = list(self.invariant_names)
        dup = [name for name in dict.fromkeys(names) if names.count(name) > 1]
        if dup:
            raise ParameterError(f"duplicate invariant names: {', '.join(dup)}")
        inv = () if self.invariants is None else (self.invariants,)
        counts = [len(t) for t in (self.times, self.states, *inv)]
        if len(set(counts)) > 1:
            raise ParameterError(f"times, states and invariants need one row "
                                 f"per sample, got {counts} rows")
        cols = np.shape(self.invariants)[1] if inv else 0
        if len(names) != cols:
            raise ParameterError(f"{len(names)} invariant names for {cols} "
                                 f"invariant columns")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    def _table(self) -> np.ndarray:
        """The columns t | y_1..y_N | invariants as one float array."""
        cols = [np.asarray(self.times, dtype=float)[:, None],
                np.asarray(self.states, dtype=float)]
        if self.invariants is not None:
            cols.append(np.asarray(self.invariants, dtype=float))
        return np.hstack(cols)

    def to_csv(self) -> str:
        # '%.17g' spells every double, nan and +-inf included, as fmt17 does
        n = self.dim
        header = ["step", "t"] + [f"y_{i+1}" for i in range(n)] + list(self.invariant_names)
        table = self._table()
        row = "%d" + ",%.17g" * table.shape[1]
        lines = [",".join(header)]
        lines += [row % (k, *r) for k, r in enumerate(table.tolist())]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        # json.dumps of one dict per row, spelled by one template per row:
        # '%r' spells a finite float as json does, and the non-finite cells
        # are swapped for json's own tokens
        n = self.dim
        table = self._table()
        row = '{"step": %d, "t": %r, "y": [' + ", ".join(["%r"] * n) + "]"
        if self.invariants is not None:
            row += ', "invariants": {' + ", ".join(
                encode_basestring_ascii(name).replace("%", "%%") + ": %r"
                for name in self.invariant_names) + "}"
        row += "}"
        rows = table.tolist()
        for k in np.flatnonzero(~np.isfinite(table).all(axis=1)).tolist():
            rows[k] = [v if isfinite(v) else _Verbatim(json.dumps(v))
                       for v in rows[k]]
        return '{"system": %s, "status": %s, "rows": [%s]}' % (
            encode_basestring_ascii(self.system),
            encode_basestring_ascii(self.status),
            ", ".join([row % (k, *r) for k, r in enumerate(rows)]))


class _Verbatim(str):
    """A string that '%r' writes as it is."""

    __repr__ = str.__str__
