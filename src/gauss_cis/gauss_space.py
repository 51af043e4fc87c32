"""Evaluation, collocation, interpolation, and empirical frame bounds.

Functions here live on the coefficient side: f(x) = sum_n c_n e^{-c(x-n)^2}
with (c_n) square-summable, identified with its coefficient vector.  Entries
of every collocation matrix lie in (0, 1], so plain double precision is safe
throughout this module; log-domain arithmetic is reserved for the power
series side (module ``fock``).
"""

import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BadParameterError,
    EmptyWindowError,
    NoEnumerationError,
    SingularSystemError,
)
from .lattice import GaussianParam, NodeSequence

__all__ = [
    "CoefficientVector",
    "CollocationMatrix",
    "FrameBoundEntry",
    "FrameBoundReport",
    "evaluate",
    "collocation_matrix",
    "interpolate",
    "interpolation_to_json",
    "frame_bounds",
    "split_parts",
    "compact_block_hsnorm",
    "l2_norm_squared",
    "save_matrix",
    "load_matrix",
]

# numerical rank cutoff: sigma_min below this multiple of sigma_max is
# treated as rank deficiency rather than ill conditioning
_RANK_RTOL = 1e-13
# e^{-x} underflows to 0 in double precision for x above this
_UNDERFLOW = 746.0


@dataclass(frozen=True)
class CoefficientVector:
    """Finitely supported coefficient vector over an integer index range.

    ``values[i]`` is the coefficient of index ``start + i``.  Values must be
    finite; the stored array is read-only.
    """

    start: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex).copy()
        if arr.ndim != 1:
            raise BadParameterError("coefficients must be one-dimensional")
        if arr.size and not np.all(np.isfinite(arr)):
            raise BadParameterError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "start", int(self.start))

    @classmethod
    def basis(cls, n: int) -> "CoefficientVector":
        return cls(n, np.ones(1, dtype=complex))

    @property
    def index_range(self):
        return (self.start, self.start + len(self.values) - 1)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.start + len(self.values))

    def __len__(self):
        return len(self.values)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def value_at(self, n: int) -> complex:
        lo, hi = self.index_range
        if len(self.values) == 0 or n < lo or n > hi:
            return 0.0 + 0.0j
        return complex(self.values[n - lo])

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "real": [float(v.real) for v in self.values],
            "imag": [float(v.imag) for v in self.values],
        }


def _gaussian_tail_terms(a: float, d0) -> np.ndarray:
    """Terms e^{-2a d^2} at d = d0, d0 + 1, ... (negative d counts as 0).

    The terms run along a new last axis, one row per start distance in
    ``d0``, far enough that every row ends in terms that underflow to 0;
    summing a row gives that start's Gaussian tail.
    """
    d0 = np.asarray(d0, dtype=float)
    n_terms = int(np.ceil(np.sqrt(_UNDERFLOW / (2.0 * a)) - np.min(d0))) + 1
    d = np.maximum(d0[..., None] + np.arange(max(n_terms, 1)), 0.0)
    return np.exp(-2.0 * a * d * d)


def evaluate(c: GaussianParam, coeffs: CoefficientVector, x: float, tol: float = 1e-12):
    """Evaluate f(x) = sum_n c_n e^{-c(x-n)^2}.

    The sum runs over indices with |x - n| <= R, with R chosen so the
    neglected stored coefficients are certified below ``tol`` times the
    coefficient norm.  Returns ``(value, tail_bound)`` where ``tail_bound``
    is the exact bound sum |c_n| e^{-a(x-n)^2} over the neglected indices.
    """
    if tol <= 0.0:
        raise BadParameterError("tol must be > 0")
    if len(coeffs) == 0:
        return 0.0 + 0.0j, 0.0
    # smallest radius r >= 1 whose two-sided tail sum_{|d| >= r} e^{-2a d^2}
    # is at most tol^2; the last tail, past underflow, is 0
    tails = 2.0 * np.cumsum(_gaussian_tail_terms(c.a, 1.0)[::-1])[::-1]
    r = 1.0 + float(np.argmax(np.sqrt(tails) <= tol))
    n = coeffs.indices
    d = x - n
    near = np.abs(d) <= r
    value = complex(np.sum(coeffs.values[near] * np.exp(-c.c * d[near] ** 2)))
    tail = float(np.sum(np.abs(coeffs.values[~near]) * np.exp(-c.a * d[~near] ** 2)))
    return value, tail


@dataclass(frozen=True)
class CollocationMatrix:
    """Finite section of the node-evaluation map.

    Entry [i, j] equals e^{-c (lambda_{row_start+i} - (col_start+j))^2}; the
    entries are real ``float64`` when b = 0 and ``complex128`` otherwise.  The
    coefficient range extends ``buffer`` indices beyond the node span so
    that the neglected columns are certified below ``tail_bound`` (an upper
    bound on the operator norm of the dropped block via its Frobenius norm).
    """

    param: GaussianParam
    row_start: int
    col_start: int
    node_positions: np.ndarray
    entries: np.ndarray
    buffer: int
    tail_bound: float

    @property
    def row_range(self):
        return (self.row_start, self.row_start + self.entries.shape[0] - 1)

    @property
    def col_range(self):
        return (self.col_start, self.col_start + self.entries.shape[1] - 1)

    @property
    def col_indices(self) -> np.ndarray:
        return np.arange(self.col_start, self.col_start + self.entries.shape[1])


def collocation_matrix(
    c: GaussianParam, seq: NodeSequence, node_range, tol: float = 1e-12
) -> CollocationMatrix:
    """Build the collocation matrix for nodes in the inclusive index range.

    The coefficient (column) range is the integer hull of the node span
    widened by a buffer B with e^{-a B^2 / 2} < tol, so every neglected
    column entry is below tol^2.
    """
    if tol <= 0.0 or tol >= 1.0:
        raise BadParameterError("tol must be in (0, 1)")
    try:
        lam = seq.positions(node_range)
    except EmptyWindowError as exc:
        raise NoEnumerationError(str(exc)) from exc
    buffer = int(np.ceil(np.sqrt(2.0 * np.log(1.0 / tol) / c.a)))
    col_lo = int(np.floor(lam.min())) - buffer
    col_hi = int(np.ceil(lam.max())) + buffer
    cols = np.arange(col_lo, col_hi + 1, dtype=float)
    entries = np.exp(-(c.c if c.b else c.a) * (lam[:, None] - cols[None, :]) ** 2)

    # Frobenius bound on the dropped columns, summed per row until underflow
    dropped = np.concatenate([lam - (col_lo - 1), (col_hi + 1) - lam])
    tail_sq = np.sum(_gaussian_tail_terms(c.a, dropped))
    return CollocationMatrix(
        param=c,
        row_start=int(node_range[0]),
        col_start=col_lo,
        node_positions=lam,
        entries=entries,
        buffer=buffer,
        tail_bound=float(np.sqrt(tail_sq)),
    )


def interpolate(
    c: GaussianParam,
    seq: NodeSequence,
    samples,
    node_range,
    tol: float = 1e-12,
):
    """Least-squares solve for coefficients matching samples at the nodes.

    Returns ``(coeffs, residual)`` with the relative residual
    ||A c - s|| / ||s||.  Raises SingularSystemError when the matrix is
    numerically rank deficient, which signals failure of interpolation at
    this truncation.
    """
    samples = np.asarray(samples, dtype=complex)
    mat = collocation_matrix(c, seq, node_range, tol)
    if samples.shape != (mat.entries.shape[0],):
        raise BadParameterError(
            f"expected {mat.entries.shape[0]} samples, got {samples.shape}"
        )
    u, s, vh = np.linalg.svd(mat.entries, full_matrices=False)
    if s[-1] < _RANK_RTOL * s[0]:
        raise SingularSystemError(
            f"sigma_min/sigma_max = {s[-1] / s[0]:.3e} below rank threshold"
        )
    x = vh.conj().T @ ((u.conj().T @ samples) / s)
    norm_s = np.linalg.norm(samples)
    if norm_s == 0.0:
        residual = 0.0
        x = np.zeros_like(x)
    else:
        residual = float(np.linalg.norm(mat.entries @ x - samples) / norm_s)
    return CoefficientVector(mat.col_start, x), residual


def interpolation_to_json(coeffs: CoefficientVector, residual: float) -> dict:
    return {"coefficients": coeffs.to_json(), "residual": residual}


@dataclass(frozen=True)
class FrameBoundEntry:
    size: int
    n_rows: int
    n_cols: int
    sigma_min: float
    sigma_max: float
    tail_bound: float    # CollocationMatrix.tail_bound of the section's matrix

    def __post_init__(self):
        if self.sigma_min > self.sigma_max:
            raise BadParameterError("sigma_min cannot exceed sigma_max")


@dataclass(frozen=True)
class FrameBoundReport:
    """Extremal singular values of interior-restricted collocation sections.

    ``sigma_min_ratios`` pairs consecutive sizes; a stable ratio near 1
    indicates two-sided bounds surviving truncation growth, while a ratio
    bounded away from 1 flags degeneration.
    """

    orientation: str
    interior_fraction: float
    edge_margin: float
    entries: tuple

    def sigma_min_ratios(self):
        out = []
        for prev, cur in zip(self.entries, self.entries[1:]):
            out.append((prev.size, cur.size, cur.sigma_min / prev.sigma_min))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "orientation": self.orientation,
            "interior_fraction": self.interior_fraction,
            "edge_margin": self.edge_margin,
            "entries": [asdict(e) for e in self.entries],
            "sigma_min_ratios": [
                {"from": a, "to": b, "ratio": r} for a, b, r in self.sigma_min_ratios()
            ],
        }


def frame_bounds(
    c: GaussianParam,
    seq: NodeSequence,
    sizes,
    tol: float = 1e-14,
    interior_fraction: float = 2.0 / 3.0,
    edge_margin: float = 0.0,
    orientation: str = "interior_rows",
) -> FrameBoundReport:
    """Empirical frame/Riesz bounds from truncated collocation sections.

    For each size M the matrix is built on nodes [-M, M] with a coefficient
    buffer, then restricted to the interior before taking singular values:

    * ``interior_rows``: keep node rows with |lambda| inside the trimmed
      span (a wide matrix; sigma_min estimates the Riesz-sequence bound of
      the evaluation functionals).
    * ``interior_cols``: keep coefficient columns inside the trimmed span
      (a tall matrix; sigma_min estimates the sampling-side lower frame
      bound for interior-supported functions).

    The trim keeps |position| <= interior_fraction * span - edge_margin,
    where span is the smaller of |lambda_{-M}|, |lambda_M|.

    sigma_min and sigma_max come from a values-only dense SVD of the
    section, which runs in real arithmetic when b = 0 (the entries are then
    real).  Each entry also records the ``tail_bound`` of the section's
    collocation matrix.
    """
    sizes = [int(m) for m in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise BadParameterError("sizes must be increasing")
    if orientation not in ("interior_rows", "interior_cols"):
        raise BadParameterError(f"unknown orientation {orientation!r}")
    if not (np.isfinite(interior_fraction) and interior_fraction > 0.0):
        raise BadParameterError(f"interior_fraction must be finite and > 0, got {interior_fraction}")
    if not np.isfinite(edge_margin):
        raise BadParameterError(f"edge_margin must be finite, got {edge_margin}")
    entries = []
    for m in sizes:
        mat = collocation_matrix(c, seq, (-m, m), tol)
        span = min(abs(mat.node_positions[0]), abs(mat.node_positions[-1]))
        cutoff = interior_fraction * span - edge_margin
        if orientation == "interior_rows":
            keep = np.abs(mat.node_positions) <= cutoff
            sub = mat.entries[keep, :]
        else:
            keep = np.abs(mat.col_indices) <= cutoff
            sub = mat.entries[:, keep]
        if min(sub.shape) == 0:
            raise EmptyWindowError(f"interior trim removed everything at size {m}")
        s = np.linalg.svd(sub, compute_uv=False)
        entries.append(FrameBoundEntry(
            m, sub.shape[0], sub.shape[1], float(s[-1]), float(s[0]), mat.tail_bound
        ))
    return FrameBoundReport(
        orientation, interior_fraction, edge_margin, tuple(entries)
    )


def split_parts(coeffs: CoefficientVector):
    """Split into (negative-index part, center value, positive-index part).

    The partition is exact: reassembling the three parts reproduces the
    stored values bitwise.
    """
    lo, hi = coeffs.index_range
    vals = coeffs.values
    if len(vals) == 0:
        return CoefficientVector(-1, vals), 0.0 + 0.0j, CoefficientVector(1, vals)
    neg = vals[: max(0, min(hi, -1) - lo + 1)]
    pos = vals[max(0, 1 - lo) :] if hi >= 1 else vals[:0]
    c0 = coeffs.value_at(0)
    f_minus = CoefficientVector(lo if len(neg) else -1, neg)
    f_plus = CoefficientVector(max(lo, 1) if len(pos) else 1, pos)
    return f_minus, c0, f_plus


def compact_block_hsnorm(c: GaussianParam, seq: NodeSequence, window: int):
    """Hilbert-Schmidt norm of the cross block coupling the two half-axes.

    The block maps coefficients at indices n >= 1 to values at nodes with
    index m <= -1; its squared HS norm is the sum of squared entry
    magnitudes e^{-2a(lambda_m - n)^2} over the window
    -W <= m <= -1, 1 <= n <= W.  Returns ``(hs_norm, tail_bound)`` where
    ``tail_bound`` certifies the contribution of all neglected (m, n) pairs
    to the squared norm, using the Gaussian tail with the window's
    sup|delta|.
    """
    w = int(window)
    if w < 1:
        raise BadParameterError("window must be >= 1")
    lam = seq.positions((-w, -1))
    n = np.arange(1, w + 1, dtype=float)
    hs_sq = float(np.sum(np.exp(-2.0 * c.a * (lam[:, None] - n[None, :]) ** 2)))

    sup_delta = float(np.max(np.abs(lam - np.arange(-w, 0))))
    # pairs outside the window have |m| + n >= w + 2; at most u - 1 pairs
    # share a given u = |m| + n, each at distance >= u - sup|delta|
    terms = _gaussian_tail_terms(c.a, w + 2 - sup_delta)
    u = w + 2 + np.arange(len(terms))
    tail = float(np.sum((u - 1.0) * terms))
    return float(np.sqrt(hs_sq)), tail


def l2_norm_squared(
    c: GaussianParam, coeffs: CoefficientVector, pad: float = 8.0, step: float = 0.01
) -> float:
    """Numerically integrate |f|^2 over a wide interval around the support."""
    if len(coeffs) == 0:
        return 0.0
    lo, hi = coeffs.index_range
    x = np.arange(lo - pad, hi + pad + step, step)
    vals = np.exp(-c.c * (x[:, None] - coeffs.indices[None, :]) ** 2) @ coeffs.values
    return float(np.trapezoid(np.abs(vals) ** 2, x))


_MAGIC = b"GCISMTX1"


def save_matrix(mat: CollocationMatrix, path) -> None:
    """Write a matrix as little-endian binary: header, node positions, then
    row-major complex-double entries (real entries are widened)."""
    rows, cols = mat.entries.shape
    header = _MAGIC + struct.pack(
        "<qqqqqddd",
        mat.row_start,
        mat.row_start + rows - 1,
        mat.col_start,
        mat.col_start + cols - 1,
        mat.buffer,
        mat.param.a,
        mat.param.b,
        mat.tail_bound,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(mat.node_positions, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(mat.entries, dtype="<c16").tobytes())


def load_matrix(path) -> CollocationMatrix:
    """Read a matrix written by :func:`save_matrix`; entries are real when
    the stored b is 0, as :func:`collocation_matrix` builds them."""
    head_len = len(_MAGIC) + struct.calcsize("<qqqqqddd")
    with open(path, "rb") as fh:
        head = fh.read(head_len)
        if head[: len(_MAGIC)] != _MAGIC:
            raise BadParameterError("not a collocation matrix file")
        row_lo, row_hi, col_lo, col_hi, buffer, a, b, tail = struct.unpack(
            "<qqqqqddd", head[len(_MAGIC) :]
        )
        rows = row_hi - row_lo + 1
        cols = col_hi - col_lo + 1
        lam = np.frombuffer(fh.read(rows * 8), dtype="<f8").astype(float)
        data = np.frombuffer(fh.read(rows * cols * 16), dtype="<c16")
    entries = data.reshape(rows, cols).astype(complex)
    if b == 0.0:
        entries = entries.real.copy()
    return CollocationMatrix(
        param=GaussianParam(a, b),
        row_start=int(row_lo),
        col_start=int(col_lo),
        node_positions=lam,
        entries=entries,
        buffer=int(buffer),
        tail_bound=float(tail),
    )
