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
from math import isfinite, prod
import numpy as np

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


def lookup(kind: str, name: str, dim: int | None, fixed: dict, any_dim: dict):
    """The `kind` (map or flow) called `name`: `fixed[name]()`, a
    three-dimensional target and DimensionError at any other `dim`, or
    `any_dim[name](dim)`, DimensionError without `dim`.  KeyError for a name
    in neither table.  `maps.get_map` and `flows.get_flow` look up by it."""
    if name in fixed:
        target = fixed[name]()
        if dim is not None and dim != target.dim:
            raise DimensionError(f"{name} is three-dimensional")
        return target
    if name in any_dim:
        if dim is None:
            raise DimensionError(f"{name} needs an explicit dimension")
        return any_dim[name](dim)
    raise KeyError(f"unknown {kind} {name!r}; known: "
                   f"{', '.join([*fixed, *any_dim])}")


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


def painleve_condition(a) -> bool:
    """Test the coefficient condition a12*a23*a31 == a13*a32*a21 for the 3x3
    matrix of a system dy_i/dt = y_i * sum_j a_ij y_j, up to relative
    tolerance PAINLEVE_RTOL."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise DimensionError("painleve_condition expects a 3x3 matrix")
    # each product in sorted order: a relabeling permutes the factors, and a
    # float product in another order can round or underflow to another value
    left = prod(sorted((a[0, 1], a[1, 2], a[2, 0])))
    right = prod(sorted((a[0, 2], a[2, 1], a[1, 0])))
    return abs(left - right) <= PAINLEVE_RTOL * (abs(left) + abs(right))


def fmt17(x: float) -> str:
    """17 significant digits: round-trip exact for IEEE doubles."""
    return format(float(x), ".17g")


@dataclass
class TrajectoryRecord:
    """Sampled trajectory of a flow or map with optional invariant columns.

    `times` is 1-D, `states` and `invariants` are 2-D with one row per
    sample, and there is one invariant name per invariant column, each
    distinct: each names one CSV column and one JSON key (ParameterError
    otherwise).  `to_csv` and `to_json` write the arrays as float64 values,
    each table by one template, the row template repeated once per sample,
    filled by one `%` from one flat tuple of cells.  Time and state cells go
    in as floats; an invariant column repeats its value along a conserved
    flow, so the invariant cells go in as strings, spelled once per distinct
    float64 bit pattern (0.0 and -0.0 apart, each NaN payload apart)."""

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
        shapes = [np.shape(a) for a in (self.times, self.states, *inv)]
        if [len(s) for s in shapes] != [1, 2, 2][:len(shapes)]:
            raise ParameterError(f"times must be 1-D, states and invariants "
                                 f"2-D, got shapes {shapes}")
        counts = [s[0] for s in shapes]
        if len(set(counts)) > 1:
            raise ParameterError(f"times, states and invariants need one row "
                                 f"per sample, got {counts} rows")
        cols = shapes[2][1] if inv else 0
        if len(names) != cols:
            raise ParameterError(f"{len(names)} invariant names for {cols} "
                                 f"invariant columns")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    def _cells(self, spell) -> np.ndarray:
        """The columns step | t | y_1..y_N | invariants as one object array:
        the step an int, t and y floats, and each invariant cell the string
        `spell` gives for its value, called once per distinct bit pattern."""
        y = np.asarray(self.states, dtype=float)
        rows, n = y.shape
        m = 0 if self.invariants is None else self.invariants.shape[1]
        cells = np.empty((rows, 2 + n + m), dtype=object)
        cells[:, 0] = range(rows)
        cells[:, 1] = np.asarray(self.times, dtype=float)
        cells[:, 2:2 + n] = y
        if m:
            bits = np.ascontiguousarray(self.invariants, dtype=float).view(np.int64)
            distinct, which = np.unique(bits, return_inverse=True)
            words = np.array([spell(v) for v in distinct.view(float).tolist()],
                             dtype=object)
            cells[:, 2 + n:] = words[which.reshape(bits.shape)]
        return cells

    def to_csv(self) -> str:
        # '%.17g' spells every double, nan and +-inf included, as fmt17
        # does; the invariant cells are fmt17's own strings
        n, m = self.dim, len(self.invariant_names)
        header = ["step", "t"] + [f"y_{i+1}" for i in range(n)] + list(self.invariant_names)
        cells = self._cells(fmt17)
        row = "%d" + ",%.17g" * (1 + n) + ",%s" * m + "\n"
        return (",".join(header) + "\n"
                + (row * len(cells)) % tuple(cells.ravel().tolist()))

    def to_json(self) -> str:
        # json.dumps of one dict per row: '%r' spells a finite float as json
        # does, and the non-finite time and state cells are swapped for
        # json's own tokens
        n = self.dim
        cells = self._cells(_json_float)
        row = '{"step": %d, "t": %r, "y": [' + ", ".join(["%r"] * n) + "]"
        if self.invariants is not None:
            row += ', "invariants": {' + ", ".join(
                encode_basestring_ascii(name).replace("%", "%%") + ": %s"
                for name in self.invariant_names) + "}"
        row += "}"
        floats = cells[:, 1:2 + n]
        bad = ~np.isfinite(np.column_stack((self.times, self.states)))
        if bad.any():
            floats[bad] = [_Verbatim(json.dumps(v)) for v in floats[bad].tolist()]
        return ('{"system": %s, "status": %s, "rows": ['
                + ", ".join([row] * len(cells)) + "]}") % (
            encode_basestring_ascii(self.system),
            encode_basestring_ascii(self.status), *cells.ravel().tolist())


def _json_float(v: float) -> str:
    """json's spelling of a float: its repr, or NaN, Infinity, -Infinity."""
    return repr(v) if isfinite(v) else json.dumps(v)


class _Verbatim(str):
    """A string that '%r' writes as it is."""

    __repr__ = str.__str__
