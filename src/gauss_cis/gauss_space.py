"""Evaluation, collocation, interpolation, and empirical frame bounds.

Functions here live on the coefficient side: f(x) = sum_n c_n e^{-c(x-n)^2}
with (c_n) square-summable, identified with its coefficient vector.  Entries
of every collocation matrix lie in (0, 1], so plain double precision is safe
throughout this module; log-domain arithmetic is reserved for the power
series side (module ``fock``).

Frame bounds of sections with at most 128 rows or columns come from a
dense SVD, which is the faster solver up to that size.  A larger section is
never built densely: its entries fall below tol^2 beyond ``buffer`` of the
diagonal, so the Gram matrix of its smaller side is banded, and its outer
diagonals fall off fast enough to be trimmed to about half that width.  A
twisted block Cholesky of the band, shifted by mu, succeeds exactly when mu
lies below the smallest eigenvalue.  A bisection on mu brackets both
extreme singular values, with a certificate for the dropped entries, the
trimmed diagonals and the rounding.  It starts from the eigenvalues of the
central 128-row block, extrapolated to the section's length wherever the
extrapolation stays positive, and is steered by the Schur complement of
the middle window, whose slope is at most -1.
"""

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
]

# numerical rank cutoff: sigma_min below this multiple of sigma_max is
# treated as rank deficiency rather than ill conditioning
_RANK_RTOL = 1e-13
# e^{-x} underflows to 0 in double precision for x above this
_UNDERFLOW = 746.0
# frame-bound sections with min(rows, cols) above this take the band solver;
# it is the model block's size, so every band section has a central block
_DENSE_MAX = 128
# collocation_matrix's ``tol`` for every frame_bounds section
_FRAME_TOL = 1e-14
# the band solver bisects until its eigenvalue brackets are this narrow
_BRACKET_RTOL = 1e-10
# a Cholesky window spans this many bandwidth-sized blocks
_WINDOW_BLOCKS = 3
_EPS = np.finfo(float).eps
# the band solver drops outer Gram diagonals while their largest row sum
# stays within this multiple of the Gershgorin bound
_TRIM_RTOL = _EPS
# the band solver models its extreme eigenvalues from a central block of
# this many rows and first shifts _MODEL_STEP of the model's move either side
_MODEL_ROWS = _DENSE_MAX
_MODEL_STEP = 0.01
# a slope-bound shift steps this fraction past the bound
_SLOPE_MARGIN = 1e-3


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


def _entries(c: GaussianParam, x, y) -> np.ndarray:
    """Collocation entries e^{-c (x - y)^2}, broadcast; real when b = 0."""
    return np.exp(-(c.c if c.b else c.a) * (x - y) ** 2)


def _integer_tail(a: float, lam, lo, hi) -> float:
    """Frobenius norm of the entries e^{-c (lam_i - n)^2} over the integers
    n < lo or n > hi (``lo``, ``hi`` broadcast against ``lam``), each row's
    two tails summed to underflow."""
    dropped = np.concatenate([lam - (lo - 1), (hi + 1) - lam])
    return float(np.sqrt(np.sum(_gaussian_tail_terms(a, dropped))))


def _section_frame(c: GaussianParam, seq: NodeSequence, node_range, tol: float):
    """``(positions, buffer, col_lo, col_hi, tail_bound)`` of the
    collocation matrix on ``node_range``, without its entries."""
    if tol <= 0.0 or tol >= 1.0:
        raise BadParameterError("tol must be in (0, 1)")
    try:
        lam = seq.positions(node_range)
    except EmptyWindowError as exc:
        raise NoEnumerationError(str(exc)) from exc
    buffer = int(np.ceil(np.sqrt(2.0 * np.log(1.0 / tol) / c.a)))
    col_lo = int(np.floor(lam.min())) - buffer
    col_hi = int(np.ceil(lam.max())) + buffer
    return lam, buffer, col_lo, col_hi, _integer_tail(c.a, lam, col_lo, col_hi)


def collocation_matrix(
    c: GaussianParam, seq: NodeSequence, node_range, tol: float = 1e-12
) -> CollocationMatrix:
    """Build the collocation matrix for nodes in the inclusive index range.

    The coefficient (column) range is the integer hull of the node span
    widened by a buffer B with e^{-a B^2 / 2} < tol, so every neglected
    column entry is below tol^2.
    """
    lam, buffer, col_lo, col_hi, tail = _section_frame(c, seq, node_range, tol)
    cols = np.arange(col_lo, col_hi + 1, dtype=float)
    return CollocationMatrix(
        param=c,
        row_start=int(node_range[0]),
        col_start=col_lo,
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
    solver: str          # "svd" (dense) or "band" (banded Gram bisection)
    sigma_min_bracket: tuple    # certified (lo, hi) around sigma_min
    sigma_max_bracket: tuple    # certified (lo, hi) around sigma_max
    sweeps: int | None = None          # band: Cholesky sweeps of the bisection
    half_bandwidth: int | None = None  # band: half-bandwidth of the trimmed Gram band
    start: tuple | None = None   # band: how the (sigma_min, sigma_max) brackets started
    model_estimate: tuple | None = None  # band: each modelled side's start in sigma^2, else None
    stop: tuple | None = None    # band: why each of them stopped
    below_resolution: bool = False  # band: sigma_min is the upper end of its bracket

    def __post_init__(self):
        if self.sigma_min > self.sigma_max:
            raise BadParameterError("sigma_min cannot exceed sigma_max")

    def to_json(self) -> dict:
        """The entry as report.json records it: ``sweeps``,
        ``half_bandwidth``, ``start``, ``model_estimate``, ``stop`` and
        ``below_resolution`` only for a band entry."""
        out = asdict(self)
        if self.solver != "band":
            for key in ("sweeps", "half_bandwidth", "start", "model_estimate", "stop",
                        "below_resolution"):
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
    where span is the smaller of |lambda_{-M}|, |lambda_M|.

    Sections with min(rows, cols) <= 128 take a values-only dense SVD,
    which runs in real arithmetic when b = 0 (the entries are then real);
    each bracket is the value +- max(rows, cols) * eps * sigma_max.  Larger
    sections are never built densely: the band solver trims the band of
    the smaller side's Gram matrix to a half-bandwidth of about 8 (from
    about 2 * buffer), bisects twisted Cholesky factorisations of it to a
    relative width of 1e-10 in sigma^2 or to the shifts' resolution,
    starting near each eigenvalue from the central 128-row block's and
    closing a bracket with one shift half that width past its success end
    once phi there says the root is nearer (6, 7, 9 and 11 sweeps at the
    critical shift for M = 128 to 1,024 and 15 at 16,384, 5 to 7 for a
    period-4 pattern at M = 128 to 512), reports the square roots of the
    midpoints, and certifies each bracket against the dropped
    entries, the trimmed diagonals and the rounding
    (``_extreme_singular_values``).  Each entry records its ``solver``,
    both brackets and the ``tail_bound`` of the section's collocation
    matrix; a band entry also records its ``sweeps``, ``half_bandwidth``,
    how each bracket started, the ``model_estimate`` (lambda_min,
    lambda_max) in sigma^2 that each modelled side started from (None for
    a side started from the diagonal), how each bracket stopped, and
    whether sigma_min was ``below_resolution`` (its bracket never rose
    above twice the rounding radius), in which case sigma_min is the
    bracket's certified upper end.
    """
    sizes = [int(m) for m in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise BadParameterError("sizes must be increasing")
    if sizes and sizes[0] < 1:
        raise BadParameterError(f"sizes must be >= 1, got {sizes[0]}")
    if orientation not in ("interior_rows", "interior_cols"):
        raise BadParameterError(f"unknown orientation {orientation!r}")
    if not (np.isfinite(interior_fraction) and interior_fraction > 0.0):
        raise BadParameterError(f"interior_fraction must be finite and > 0, got {interior_fraction}")
    if not np.isfinite(edge_margin):
        raise BadParameterError(f"edge_margin must be finite, got {edge_margin}")
    entries = []
    for m in sizes:
        lam, buffer, col_lo, col_hi, tail = _section_frame(c, seq, (-m, m), _FRAME_TOL)
        cols = np.arange(col_lo, col_hi + 1, dtype=float)
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
            values, lo, hi, diagnostics = _extreme_singular_values(c, rows, kept_cols, buffer)
        entries.append(FrameBoundEntry(
            m, *shape, float(values[0]), float(values[1]), tail, solver,
            (float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])), **diagnostics,
        ))
    return FrameBoundReport(
        orientation, interior_fraction, edge_margin, tuple(entries)
    )


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the rounding factor of k-term sums."""
    u = _EPS / 2.0
    return k * u / (1.0 - k * u)


def _gram_band(c: GaussianParam, p, q, radius: float):
    """Diagonals of the Gram matrix B B^H of a section's band, trimmed.

    B[i, j] = e^{-c (p_i - q_j)^2} where |p_i - q_j| <= radius and 0
    elsewhere, for increasing ``p`` and ``q``.  Gram entries at offset d
    fall off like e^{-a d^2 / 2}, so the outer diagonals are dropped while
    the largest row sum of the dropped ones stays within ``_TRIM_RTOL``
    times the Gershgorin bound g.  Returns ``(diags, width, norms, g,
    dropped)``: ``diags[d][i] = (B B^H)[i, i + d]`` up to the kept
    half-bandwidth, the most entries any row of B keeps, ||B||_1 ||B||_inf,
    the Gershgorin bound of the untrimmed matrix, and the largest dropped
    row sum, which bounds the 2-norm of the dropped Hermitian part.
    """
    first = np.searchsorted(q, p - radius, "left")
    kept = np.searchsorted(q, p + radius, "right") - first
    width = int(kept.max())
    t = np.arange(width)
    cols = first[:, None] + t
    # each row of the band is followed by `width` zeros, so that row i read
    # from column s on is views[i, s], zero-filled past the band's end
    padded = np.zeros((len(p), 2 * width), dtype=complex if c.b else float)
    band = padded[:, :width]
    np.copyto(band, _entries(c, p[:, None], q[np.minimum(cols, len(q) - 1)]),
              where=t < kept[:, None])
    views = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)
    mag = np.abs(band)
    norms = float(mag.sum(axis=1).max() * np.bincount(cols.ravel(), mag.ravel()).max())
    # row i + d meets row i where its band starts `shift` columns further on;
    # the gathered rows stay an unnamed left operand, because numpy may
    # compute into a temporary operand, and which operand comes first moves
    # the fused rounding of a complex product
    diags = [np.sum(band * band.conj(), axis=1)]
    for d in range(1, len(p)):
        shift = first[d:] - first[:-d]
        if shift.min() >= width:
            break
        diags.append(np.sum(views[np.arange(len(p) - d), np.minimum(shift, width)]
                            * band[d:].conj(), axis=1))
    rowsum = np.abs(diags[0])
    for d, g in enumerate(diags[1:], 1):
        rowsum[:-d] += np.abs(g)
        rowsum[d:] += np.abs(g)
    top = float(rowsum.max())
    dropped = np.zeros(len(p))
    keep = len(diags)
    while keep > 1:
        d = keep - 1
        trial = dropped.copy()
        trial[:-d] += np.abs(diags[d])
        trial[d:] += np.abs(diags[d])
        if trial.max() > _TRIM_RTOL * top:
            break
        dropped, keep = trial, d
    return diags[:keep], width, norms, top, float(dropped.max())


def _band_windows(diags, rows):
    """Dense windows ``G[rows[..., i], rows[..., j]]`` of the Hermitian band.

    The rows of each window are consecutive, running up or down.
    """
    span = rows.shape[-1]
    wins = np.zeros(rows.shape + (span,), dtype=diags[0].dtype)
    for d, g in enumerate(diags[:span]):
        r = np.arange(span - d)
        i, j = rows[..., : span - d], rows[..., d:]
        # the band stores G[i, j] at the smaller index; below it is the conjugate
        v = g[np.minimum(i, j)]
        v = np.where(i < j, v, v.conj())
        wins[..., r, r + d] = v
        wins[..., r + d, r] = v.conj()
    return wins


def _cholesky_windows(diags, nb: int):
    """The band as dense windows of a twisted block Cholesky sweep.

    Windows of ``_WINDOW_BLOCKS`` blocks of ``nb`` rows run in from both
    ends, in pairs: a forward one from the first row and a backward one,
    flipped, from the last.  Each shares one block with the next window in.
    The middle window, of 3 to 7 blocks when the windows hold 3, shares its
    first block with the last forward window and its last block with the
    last backward one.  Returns the pairs, shape (h, 2, s, s), and the
    middle window.
    """
    n = len(diags[0])
    span = _WINDOW_BLOCKS * nb
    step = span - nb
    count = max(0, (n - span) // (2 * step))
    ahead = np.arange(count)[:, None] * step + np.arange(span)
    rows = np.stack([ahead, n - 1 - ahead], axis=1)
    return _band_windows(diags, rows), _band_windows(diags, np.arange(count * step, n - count * step))


def _cholesky_or_none(mat):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _factor_each(mats):
    """Cholesky factors of a stack of matrices, one matrix at a time, and
    which of them exist; a matrix without one gets zeros.  The fallback for
    a batch that ``np.linalg.cholesky`` rejects as a whole."""
    flat = mats.reshape(-1, *mats.shape[-2:])
    factors = [_cholesky_or_none(x) for x in flat]
    low = np.stack([np.zeros_like(x) if f is None else f for x, f in zip(flat, factors)])
    fine = np.array([f is not None for f in factors])
    return low.reshape(mats.shape), fine.reshape(mats.shape[:-2])


def _definite(pairs, mid, nb: int, shifts, signs):
    """Whether sign * (G - shift I) has a Cholesky factor, for each pair,
    and phi, the smallest eigenvalue of its middle window's Schur complement.

    The sweep is twisted.  Step j factors forward window j and backward
    window j in one batch, each starting with the Schur complement its
    shared block inherits from step j - 1; the middle window then starts
    with both carried blocks in place.  The rows before and after the
    middle window are more than a bandwidth apart, so the matrix is
    definite exactly when both outer parts and the middle Schur complement
    are.  Each step is one ``np.linalg.cholesky`` call on the batch; only a
    batch it rejects is factored matrix by matrix, to find the pairs whose
    outer part broke down.  Those leave the batch, with phi left nan.
    """
    ok = np.ones(len(shifts), dtype=bool)
    phi = np.full(len(shifts), np.nan)
    live = np.arange(len(shifts))
    scale = signs[:, None, None, None]
    offset = (signs * shifts)[:, None, None, None] * np.eye(pairs.shape[-1])
    carry = None
    for win in pairs:
        mats = scale * win - offset
        if carry is not None:
            mats[..., :nb, :nb] = carry
        try:
            low = np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            low, fine = _factor_each(mats)
            fine = fine.all(axis=1)
            ok[live[~fine]] = False
            live, low, scale, offset = live[fine], low[fine], scale[fine], offset[fine]
            if live.size == 0:
                return ok, phi
        last = low[..., -nb:, -nb:]
        carry = last @ last.conj().swapaxes(-1, -2)
    mats = scale[:, 0] * mid - (signs * shifts)[live, None, None] * np.eye(len(mid))
    if carry is not None:
        mats[:, :nb, :nb] = carry[:, 0]
        mats[:, -nb:, -nb:] = carry[:, 1, ::-1, ::-1]
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        ok[live] = _factor_each(mats)[1]
    phi[live] = np.linalg.eigvalsh(mats)[:, 0]
    return ok, phi


def _extreme_singular_values(c: GaussianParam, lam, cols, buffer: int):
    """Extreme singular values of the section e^{-c (lam_i - n_j)^2}.

    ``lam`` are the section's increasing node positions, ``cols`` its
    increasing integer columns.  The Gram matrix G of the smaller side
    (A A^H for a wide section, A^H A, up to conjugation, for a tall one)
    has the squares of the singular values ``np.linalg.svd`` returns;
    entries of A beyond ``buffer`` of the diagonal are dropped, which leaves
    G banded, and its outer diagonals are trimmed (``_gram_band``) to a
    half-bandwidth P of about 8.  Each sweep shifts both extreme
    eigenvalues' brackets, in one batched twisted Cholesky factorisation
    (``_definite``).  The bracket ends are always a Cholesky success and a
    Cholesky failure; the estimates and phi below only choose the shifts.
    phi, the smallest eigenvalue of the middle window's Schur complement
    S(mu), is continuous and decreasing up to the first eigenvalue of the
    outer parts, with its first root at the extreme eigenvalue.  Three
    fixed rules place the shifts:

    * Modelled start.  The eigenvalues theta_k of the central block
      (``_edge_model``) bound lambda_min from above and lambda_max from
      below by Cauchy interlacing, and near a band edge theta_k ~
      lambda_inf + alpha k^2 / (L + 1)^2, so the two extreme ones
      extrapolate to the band's length.  Wherever the extrapolated
      estimate stays positive, the first sweep takes one shift either side
      of it, 1 % of the move away, so that a good estimate is bracketed at
      once.  Only a side without such a model starts from the diagonal:
      lambda_min from the smallest diagonal entry, with geometric steps
      down to the rounding radius, and lambda_max from the largest diagonal
      entry and the Gershgorin bound.  That is the critical shift's
      lambda_min at a = 1 beyond about 4,700 rows, where lambda_inf = 0 and
      the extrapolation overshoots below 0, and any band no longer than
      the block.
    * Slope bound.  Split G - mu I into the outer parts' block M_11 and the
      middle window's M_22; then S = M_22 - M_21 M_11^-1 M_12 has dS/dmu =
      -I - X^H X <= -I with X = M_11^-1 M_12, so phi' <= -1.  From a
      success end mu_s with phi_s > 0, phi therefore has its root by
      mu_s + phi_s, and G - mu I is not definite there (nor mu I - G at
      mu_s - phi_s, for lambda_max).  One rule steps from the success end:
      while phi is unknown at the failure end (an outer part failed
      first), or once half the stopping width, 0.5e-10 hi, is the longer
      step, the shift is the longer of phi_s (1 + 1e-3) and that half
      width, which counts only where it is at least the shifts'
      resolution.  Both lie past the root, so the shift fails; a closing
      half width closes the bracket, and where rounding lets it succeed,
      the success end still moves.  Without the half width, regula falsi
      lands on a success end whose phi is rounding and the end crawls by
      bisection.  Otherwise the shift is phi's regula falsi point once phi
      is known at both ends (Illinois variant: the phi of an end kept twice
      in a row is halved, once the other end's is known, so that the slope
      bound sees the true phi_s), and else the geometric or halving step.
    * Resolution stop.  A bracket stops at a relative width of 1e-10, or
      once it is narrower than 2 eps max G_ii, below which a shift no longer
      changes the shifted matrix, or once lambda_min's lies below twice the
      rounding radius.

    Each sweep takes one shift a side, the first two on a modelled side.
    About 7 sweeps bring a period-4 pattern at M = 512 to width, 7 to 11 a
    constant shift of 0.1 to 0.5 at M = 512 and 1,024, 6, 7, 9 and 11 the
    critical shift at M = 128, 256, 512 and 1,024, and 14 to 15 at M =
    4,096 to 16,384.

    Returns ``(values, lo, hi, diagnostics)``: (sigma_min, sigma_max), the
    square roots of the bracket midpoints, certified lower and upper ends,
    and the ``sweeps`` taken, the ``half_bandwidth`` P, each side's
    ``start`` (``model`` or ``diagonal``), ``model_estimate`` (the modelled
    start, or None) and ``stop``
    (``width`` or ``resolution``), and ``below_resolution``: whether
    lambda_min's bracket stayed below twice the rounding radius, in which
    case sigma_min is its certified upper end.  An eigenvalue
    bracket widens by the rounding radius, the sum of three terms:

    * forming G: gamma_{2w+4} ||A||_1 ||A||_inf for rows of at most w kept
      entries;
    * trimming G: the largest dropped row sum, which bounds the 2-norm of
      the dropped Hermitian part and so, by Weyl's inequality, how far it
      moves any eigenvalue;
    * factoring G - mu I.  A window's dense Cholesky has backward error
      gamma_{k+1} |L| |L^H| for a window of k rows, and a carried block
      gains gamma_nb |L| |L^H| from its product L L^H.  Every |L| |L^H|
      here has entries at most g by Cauchy-Schwarz: a row of L has squared
      norm at most a diagonal entry of the shifted matrix or of a Schur
      complement of it, which is at most the Gershgorin bound g for
      shifts in [0, g].  An entry of a shared block is rounded in the
      window that hands it on, in that product and in the window that
      takes it, so with outer windows of s rows and a middle one of
      m >= s rows every entry, in the middle window's two carried blocks
      too, is off by at most gamma_{s+m+nb+2} g.  The error keeps
      half-bandwidth P: in the twisted order each column of L is nonzero
      only within P below it (forward and middle windows) or within P
      above it (backward windows), so two rows that meet in a column are
      within P of each other.  Hence the term (2P + 1) gamma_{s+m+nb+2} g;
      Demmel's theorem gives the same radius for a factorisation that
      fails.

    A singular-value bracket then widens by the Frobenius norm of the
    entries of A dropped outside the band (Weyl).
    """
    p, q = (lam, cols) if len(lam) <= len(cols) else (cols, lam)
    diags, width, norms, top, dropped = _gram_band(c, p, q, buffer)
    half = len(diags) - 1
    nb = max(half, 1)
    pairs, mid = _cholesky_windows(diags, nb)
    # Gershgorin, raised so that mu I - G is strictly diagonally dominant
    top *= 1.0 + 1e-8
    factoring = _gamma(_WINDOW_BLOCKS * nb + len(mid) + nb + 2)
    rounding = _gamma(2 * width + 4) * norms + dropped + (2 * half + 1) * factoring * top
    diag = diags[0].real
    # below this width a shift no longer changes the shifted matrix
    resolution = 2.0 * _EPS * float(diag.max())
    # side 0: G - mu I is definite for mu <= ends[0, 0] and not at ends[0, 1];
    # side 1: mu I - G is definite at ends[1, 1] and not at ends[1, 0];
    # phis holds phi at each end (nan while unknown)
    ends = np.array([[0.0, float(diag.min())], [float(diag.max()), top]])
    phis = np.full((2, 2), np.nan)
    # side k factors sign[k] * (G - mu I); sign[k] points from its success end to its failure end
    sign = np.array([1.0, -1.0])
    estimate, move = _edge_model(diags)
    modelled = np.isfinite(move)
    start = tuple("model" if m else "diagonal" for m in modelled)
    # a modelled side's first sweep puts one shift either side of its
    # estimate, the one toward its success end first
    queued = [[], []]
    for k in np.flatnonzero(modelled):
        step = sign[k] * _MODEL_STEP * move[k]
        lo, hi = ends[k]
        queued[k] = [mu for mu in (estimate[k] - step, estimate[k] + step) if lo < mu < hi]
    moved = [None, None]
    sweeps = 0
    while True:
        stop = ["width" if hi - lo <= _BRACKET_RTOL * hi
                else "resolution" if hi - lo < resolution or hi <= 2.0 * rounding
                else None for lo, hi in ends]
        todo = [k for k in (0, 1) if stop[k] is None]
        if not todo:
            break
        shifts = [(k, mu) for k in todo
                  for mu in (queued[k] or [_next_shift(ends[k], phis[k], rounding, resolution, k)])]
        queued = [[], []]
        side, mus = np.array(shifts).T
        ok, phi = _definite(pairs, mid, nb, mus, sign[side.astype(int)])
        sweeps += 1
        for (k, mu), good, f in zip(shifts, ok, phi):
            # a first sweep's second shift is outside once the first fails
            if not ends[k, 0] < mu < ends[k, 1]:
                continue
            end = 0 if good == (k == 0) else 1
            ends[k, end], phis[k, end] = mu, f
            # Illinois: an end kept twice in a row while regula falsi steers
            if moved[k] == end and np.isfinite(f):
                phis[k, 1 - end] *= 0.5
            moved[k] = end
    lo, hi = ends.T
    values = np.sqrt(0.5 * (lo + hi))
    tail = _integer_tail(c.a, lam, np.ceil(lam - buffer), np.floor(lam + buffer))
    lower = np.maximum(np.sqrt(np.maximum(lo - rounding, 0.0)) - tail, 0.0)
    upper = np.sqrt(hi + rounding) + tail
    below = bool(hi[0] <= 2.0 * rounding)
    if below:
        values[0] = upper[0]
    return values, lower, upper, {
        "sweeps": sweeps, "half_bandwidth": half, "start": start,
        "model_estimate": tuple(float(x) if m else None for x, m in zip(estimate, modelled)),
        "stop": tuple(stop), "below_resolution": below,
    }


def _edge_model(diags):
    """Modelled extreme eigenvalues of the band and how far each was moved.

    The central ``_MODEL_ROWS``-row principal block's eigenvalues theta_k
    bound lambda_min from above and lambda_max from below (Cauchy
    interlacing).  Near a band edge theta_k ~ lambda_inf + alpha k^2 / (L +
    1)^2 for a block of L rows, so the two extreme ones extrapolate to the
    band's length.  Returns ``(estimate, move)``, (lambda_min, lambda_max)
    each: ``move`` is how far the estimate lies from the block value, below
    it for lambda_min and above it for lambda_max, and nan where no model
    holds: unless 0 < move < block value, which keeps each estimate
    positive and within a factor 2 of its block value.  A block of the
    whole band (a section of at most ``_MODEL_ROWS`` rows) has no room to
    extrapolate and so no model.
    """
    n = len(diags[0])
    size = min(_MODEL_ROWS, n)
    first = (n - size) // 2
    theta = np.linalg.eigvalsh(_band_windows(diags, np.arange(first, first + size)))
    block = theta[[0, -1]]
    shrink = 1.0 - ((size + 1.0) / (n + 1.0)) ** 2
    move = np.array([theta[1] - theta[0], theta[-1] - theta[-2]]) * shrink / 3.0
    estimate = block + np.array([-1.0, 1.0]) * move
    trusted = (0.0 < move) & (move < block)
    return estimate, np.where(trusted, move, np.nan)


def _next_shift(ends, phis, floor: float, resolution: float, side: int) -> float:
    """The next shift inside the bracket ``ends`` of ``side`` (0: lambda_min,
    whose success end is the lower; 1: lambda_max, the upper).

    A step from the success end toward the failure end when phi_s > 0
    and either phi is unknown at the failure end or the closing half width,
    half the stopping width 1e-10 * hi, is the longer step; the step is the
    longer of the slope bound phi_s (1 + ``_SLOPE_MARGIN``) and that half
    width, which counts only where it is at least ``resolution``.  A
    closing step fails, which closes the bracket, unless rounding lets it
    succeed.  Else the regula falsi point of phi when phi has opposite
    signs at the ends and the point falls strictly inside; else the
    bisection point above ``floor``.
    """
    lo, hi = ends
    phi_lo, phi_hi = phis
    slope = phis[side] * (1.0 + _SLOPE_MARGIN)
    close = 0.5 * _BRACKET_RTOL * hi
    close = close if close >= resolution else 0.0
    if phis[side] > 0.0 and (np.isnan(phis[1 - side]) or close > slope):
        mu = ends[side] + (1.0 - 2.0 * side) * max(slope, close)
        if lo < mu < hi:
            return mu
    if phi_lo * phi_hi < 0.0:
        mu = lo - phi_lo * (hi - lo) / (phi_hi - phi_lo)
        if lo < mu < hi:
            return mu
    return _bisection_point(max(lo, floor), hi)


def _bisection_point(lo: float, hi: float) -> float:
    """Geometric mean while the bracket spans more than a factor 2, then the
    midpoint; also the midpoint where lo * hi underflows (ends below about
    1e-154), which would put the geometric mean at or below lo."""
    mean = float(np.sqrt(lo * hi))
    return mean if hi > 2.0 * lo and mean > lo else 0.5 * (lo + hi)


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


def l2_norm_squared(c: GaussianParam, coeffs: CoefficientVector) -> float:
    """||f||^2 over the real line, in closed form from the translates' Gram
    matrix: sqrt(pi / 2a) sum_{m,n} c_m conj(c_n) e^{-|c|^2 (m - n)^2 / (2a)}."""
    d = coeffs.indices[:, None] - coeffs.indices[None, :]
    gram = np.exp(-(c.a**2 + c.b**2) * d * d / (2.0 * c.a))
    return float(np.sqrt(np.pi / (2.0 * c.a)) * (coeffs.values @ gram @ coeffs.values.conj()).real)
