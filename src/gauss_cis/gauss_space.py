"""Evaluation, collocation, interpolation, and empirical frame bounds.

Functions here live on the coefficient side: f(x) = sum_n c_n e^{-c(x-n)^2}
with (c_n) square-summable, identified with its coefficient vector.  Entries
of every collocation matrix lie in (0, 1], so plain double precision is safe
throughout this module; log-domain arithmetic is reserved for the power
series side (module ``fock``).

Frame bounds of sections with at most 128 rows or columns come from a
dense SVD, which is the faster solver up to that size; larger sections go
to the band solver, whose module docstring (``band``) describes it and its
certificate.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .band import (_EPS, _MODEL_ROWS, _UNDERFLOW, _entries, _extreme_singular_values,
                   _gaussian_tail_terms, _integer_tail)
from .errors import (
    BadParameterError,
    EmptyWindowError,
    NoEnumerationError,
    SingularSystemError,
    array,
    real,
    whole,
    wholes,
)
from .lattice import GaussianParam, NodeSequence, _unit_offsets

__all__ = [
    "CoefficientVector",
    "CollocationMatrix",
    "FrameBoundEntry",
    "FrameBoundReport",
    "evaluate",
    "collocation_matrix",
    "interpolate",
    "frame_bounds",
    "split_parts",
    "compact_block_hsnorm",
    "l2_norm_squared",
]

# numerical rank cutoff: sigma_min below this multiple of sigma_max is
# treated as rank deficiency rather than ill conditioning
_RANK_RTOL = 1e-13
# frame-bound sections with min(rows, cols) above this take the band solver;
# it is the model block's size, so every band section has a central block
_DENSE_MAX = _MODEL_ROWS
# collocation_matrix's ``tol`` for every frame_bounds section
_FRAME_TOL = 1e-14


@dataclass(frozen=True)
class CoefficientVector:
    """Finitely supported coefficient vector over an integer index range.

    ``values[i]`` is the coefficient of index ``start + i``.  The values are
    read by ``errors.array`` as a read-only complex array, so a bool, a
    numeric string, NaN, +-inf or a rank other than 1 raises
    BadParameterError, as does a ``start`` that is not a whole number.
    """

    start: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", array(self.values, "coefficients", complex))
        object.__setattr__(self, "start", whole(self.start, "start"))

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
        """The coefficient of index ``n``, a whole number; 0 off the range."""
        n = whole(n, "n")
        lo, hi = self.index_range
        if len(self.values) == 0 or n < lo or n > hi:
            return 0.0 + 0.0j
        return complex(self.values[n - lo])


def evaluate(c: GaussianParam, coeffs: CoefficientVector, x: float, tol: float = 1e-12):
    """Evaluate f(x) = sum_n c_n e^{-c(x-n)^2}.

    The sum runs over indices with |x - n| <= R, with R chosen so the
    neglected stored coefficients are certified below ``tol`` times the
    coefficient norm.  Returns ``(value, tail_bound)`` where ``tail_bound``
    is the exact bound sum |c_n| e^{-a(x-n)^2} over the neglected indices.
    """
    real(tol, "tol", gt=0)
    x = real(x, "x")
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


def _section_frame(c: GaussianParam, seq: NodeSequence, node_range, tol: float):
    """``(positions, buffer, cols, tail_bound)`` of the collocation matrix
    on ``node_range``, without its entries; ``cols`` are its integer
    columns, as floats."""
    real(tol, "tol", gt=0, lt=1)
    try:
        lam = seq.positions(wholes(node_range, "node_range"))
    except EmptyWindowError as exc:
        raise NoEnumerationError(str(exc)) from exc
    buffer = int(np.ceil(np.sqrt(2.0 * np.log(1.0 / tol) / c.a)))
    col_lo = int(np.floor(lam.min())) - buffer
    col_hi = int(np.ceil(lam.max())) + buffer
    # a row further than this from both dropped sides has only tail terms
    # that underflow to 0; the outer rows stay, so that there is a row
    reach = np.sqrt(_UNDERFLOW / (2.0 * c.a))
    head = max(int(np.searchsorted(lam, col_lo - 1 + reach, "right")), 1)
    rear = min(int(np.searchsorted(lam, col_hi + 1 - reach, "left")), len(lam) - 1)
    ends = lam if head >= rear else np.concatenate([lam[:head], lam[rear:]])
    cols = np.arange(col_lo, col_hi + 1, dtype=float)
    return lam, buffer, cols, _integer_tail(c.a, ends, col_lo, col_hi)


def collocation_matrix(
    c: GaussianParam, seq: NodeSequence, node_range, tol: float = 1e-12
) -> CollocationMatrix:
    """Build the collocation matrix for nodes in the inclusive index range
    ``node_range``, two whole numbers (0.5 or NaN raises BadParameterError).

    The coefficient (column) range is the integer hull of the node span
    widened by a buffer B with e^{-a B^2 / 2} < tol, so every neglected
    column entry is below tol^2.
    """
    lam, buffer, cols, tail = _section_frame(c, seq, node_range, tol)
    return CollocationMatrix(
        param=c,
        row_start=int(node_range[0]),
        col_start=int(cols[0]),
        node_positions=lam,
        entries=_entries(c, lam[:, None], cols[None, :]),
        buffer=buffer,
        tail_bound=tail,
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
    this truncation.  Samples are read by ``errors.array``: a bool, a
    numeric string, NaN or +-inf, or a count other than one per node,
    raises BadParameterError naming them.
    """
    samples = array(samples, "samples", complex)
    mat = collocation_matrix(c, seq, node_range, tol)
    if len(samples) != len(mat.entries):
        raise BadParameterError(f"expected {len(mat.entries)} samples, got {len(samples)}")
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


@dataclass(frozen=True)
class FrameBoundEntry:
    size: int
    n_rows: int
    n_cols: int
    sigma_min: float
    sigma_max: float
    tail_bound: float    # CollocationMatrix.tail_bound of the section's matrix
    solver: str          # "svd" (dense) or "band" (banded Gram bisection)
    sigma_min_bracket: tuple    # certified (lo, hi) around sigma_min
    sigma_max_bracket: tuple    # certified (lo, hi) around sigma_max
    sweeps: int | None = None          # band: Cholesky sweeps of the bisection
    half_bandwidth: int | None = None  # band: half-bandwidth of the trimmed Gram band
    start: tuple | None = None   # band: how the (sigma_min, sigma_max) brackets started
    model_estimate: tuple | None = None  # band: each modelled side's start in sigma^2, else None
    stop: tuple | None = None    # band: why each of them stopped
    below_resolution: bool = False  # band: sigma_min is the upper end of its bracket
    decided_by: str | None = None  # band: "reduction" (periodic) or "twisted" sweeps
    levels: int | None = None    # band: levels of each reduction, None when twisted
    radius: tuple | None = None  # band: (formation, trim, factoring) rounding terms, in sigma^2

    def __post_init__(self):
        if self.sigma_min > self.sigma_max:
            raise BadParameterError("sigma_min cannot exceed sigma_max")

    def to_json(self) -> dict:
        """The entry as report.json records it: ``sweeps``,
        ``half_bandwidth``, ``start``, ``model_estimate``, ``stop``,
        ``below_resolution``, ``decided_by`` and ``levels`` only for a band
        entry."""
        out = asdict(self)
        if self.solver != "band":
            for key in ("sweeps", "half_bandwidth", "start", "model_estimate", "stop",
                        "below_resolution", "decided_by", "levels", "radius"):
                del out[key]
        return out


@dataclass(frozen=True)
class FrameBoundReport:
    """Extremal singular values of interior-restricted collocation sections.

    ``sigma_min_ratios`` pairs consecutive sizes; a stable ratio near 1
    indicates two-sided bounds surviving truncation growth, while a ratio
    bounded away from 1 flags degeneration.  A ratio after a sigma_min of 0
    (every entry underflowed) is None.
    """

    orientation: str
    interior_fraction: float
    edge_margin: float
    entries: tuple

    def sigma_min_ratios(self):
        return tuple(
            (prev.size, cur.size, cur.sigma_min / prev.sigma_min if prev.sigma_min > 0.0 else None)
            for prev, cur in zip(self.entries, self.entries[1:])
        )

    def to_json(self) -> dict:
        return {
            "orientation": self.orientation,
            "interior_fraction": self.interior_fraction,
            "edge_margin": self.edge_margin,
            "entries": [e.to_json() for e in self.entries],
            "sigma_min_ratios": [
                {"from": a, "to": b, "ratio": r} for a, b, r in self.sigma_min_ratios()
            ],
        }


def frame_bounds(
    c: GaussianParam,
    seq: NodeSequence,
    sizes,
    interior_fraction: float = 2.0 / 3.0,
    edge_margin: float = 0.0,
    orientation: str = "interior_rows",
) -> FrameBoundReport:
    """Empirical frame/Riesz bounds from truncated collocation sections.

    For each size M the matrix is built on nodes [-M, M] with a coefficient
    buffer (``tol`` 1e-14), then restricted to the interior before taking
    singular values:

    * ``interior_rows``: keep node rows with |lambda| inside the trimmed
      span (a wide matrix; sigma_min estimates the Riesz-sequence bound of
      the evaluation functionals).
    * ``interior_cols``: keep coefficient columns inside the trimmed span
      (a tall matrix; sigma_min estimates the sampling-side lower frame
      bound for interior-supported functions).

    The trim keeps |position| <= interior_fraction * span - edge_margin,
    where span is the smaller of |lambda_{-M}|, |lambda_M|.  ``sizes``
    must be increasing whole numbers >= 1, ``interior_fraction`` finite
    and > 0 and ``edge_margin`` finite (BadParameterError).

    Sections with min(rows, cols) <= 128 take a values-only dense SVD,
    which runs in real arithmetic when b = 0 (the entries are then real);
    each bracket is the value +- max(rows, cols) * eps * sigma_max.  Larger
    sections take the band solver, which is never dense; the module
    docstring of ``band`` describes it, its starts, stops and certificate.

    Each entry records its ``solver`` (``svd`` or ``band``), both certified
    brackets and the ``tail_bound`` of the section's collocation matrix.  A
    band entry also records its ``sweeps``, the ``half_bandwidth`` of its
    trimmed Gram band, how each bracket started (``start``: ``symbol``,
    ``model`` or ``diagonal``), the ``model_estimate`` (lambda_min,
    lambda_max) in sigma^2 that each modelled side started from (None for
    a side started from the diagonal), how each bracket stopped (``stop``:
    ``width`` or ``resolution``), whether sigma_min was
    ``below_resolution`` (its bracket never rose above twice the rounding
    radius), in which case sigma_min is the bracket's certified upper end,
    which routine ``decided_by`` its shifts (``reduction`` or ``twisted``),
    the ``levels`` of each reduction (None for the twisted sweep) and the
    ``radius``: the formation, trim and factoring terms of the rounding
    radius, in sigma^2.
    """
    sizes = _sizes(sizes)
    if orientation not in ("interior_rows", "interior_cols"):
        raise BadParameterError(f"unknown orientation {orientation!r}")
    real(interior_fraction, "interior_fraction", gt=0)
    real(edge_margin, "edge_margin")
    offsets = _unit_offsets(seq)
    entries = []
    for m in sizes:
        lam, buffer, cols, tail = _section_frame(c, seq, (-m, m), _FRAME_TOL)
        span = min(abs(lam[0]), abs(lam[-1]))
        cutoff = interior_fraction * span - edge_margin
        by_rows = orientation == "interior_rows"
        keep = np.abs(lam if by_rows else cols) <= cutoff
        rows, kept_cols = (lam[keep], cols) if by_rows else (lam, cols[keep])
        shape = (len(rows), len(kept_cols))
        if min(shape) == 0:
            raise EmptyWindowError(f"interior trim removed everything at size {m}")
        if min(shape) <= _DENSE_MAX:
            full = collocation_matrix(c, seq, (-m, m), _FRAME_TOL).entries
            s = np.linalg.svd(full[keep, :] if by_rows else full[:, keep], compute_uv=False)
            solver, values, diagnostics = "svd", s[[-1, 0]], {}
            err = max(shape) * _EPS * s[0]
            lo, hi = np.maximum(values - err, 0.0), values + err
        else:
            solver = "band"
            first = -m + int(np.argmax(keep)) if by_rows else -m
            period = None if offsets is None else (offsets, first)
            values, lo, hi, diagnostics = _extreme_singular_values(c, rows, kept_cols, buffer,
                                                                   period)
        entries.append(FrameBoundEntry(
            m, *shape, float(values[0]), float(values[1]), tail, solver,
            (float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])), **diagnostics,
        ))
    return FrameBoundReport(
        orientation, interior_fraction, edge_margin, tuple(entries)
    )


def _sizes(sizes, error=BadParameterError) -> tuple:
    """``sizes`` as increasing whole numbers >= 1, the truncation sizes M
    of ``frame_bounds``; anything else raises ``error``."""
    sizes = tuple(wholes(sizes, "sizes", ge=1, error=error))
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise error("sizes must be increasing")
    return sizes


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
    w = whole(window, "window", ge=1)
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


def l2_norm_squared(c: GaussianParam, coeffs: CoefficientVector) -> float:
    """||f||^2 over the real line, in closed form from the translates' Gram
    matrix: sqrt(pi / 2a) sum_{m,n} c_m conj(c_n) e^{-|c|^2 (m - n)^2 / (2a)}."""
    d = coeffs.indices[:, None] - coeffs.indices[None, :]
    gram = np.exp(-(c.a**2 + c.b**2) * d * d / (2.0 * c.a))
    return float(np.sqrt(np.pi / (2.0 * c.a)) * (coeffs.values @ gram @ coeffs.values.conj()).real)
