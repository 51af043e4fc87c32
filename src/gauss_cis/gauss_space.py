"""Evaluation, collocation, interpolation, and empirical frame bounds.

Functions here live on the coefficient side: f(x) = sum_n c_n e^{-c(x-n)^2}
with (c_n) square-summable, identified with its coefficient vector.  Entries
of every collocation matrix lie in (0, 1], so plain double precision is safe
throughout this module; log-domain arithmetic is reserved for the power
series side (module ``fock``).

Frame bounds of small sections come from a dense SVD.  A large section is
never built densely: its entries fall below tol^2 beyond ``buffer`` of the
diagonal, so the Gram matrix of its smaller side is banded, and a block
Cholesky of that band, shifted by mu, succeeds exactly when mu lies below
the smallest eigenvalue.  Bisection on mu brackets both extreme singular
values, with a certificate for the dropped entries and the rounding.
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
# frame-bound sections with min(rows, cols) above this take the band solver
_DENSE_MAX = 256
# the band solver bisects until its eigenvalue brackets are this narrow
_BRACKET_RTOL = 1e-10
# a Cholesky window spans this many bandwidth-sized blocks
_WINDOW_BLOCKS = 3
_EPS = np.finfo(float).eps


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

    Sections with min(rows, cols) <= 256 take a values-only dense SVD,
    which runs in real arithmetic when b = 0 (the entries are then real);
    each bracket is the value +- max(rows, cols) * eps * sigma_max.  Larger
    sections are never built densely: the band solver bisects Cholesky
    factorisations of the band of the smaller side's Gram matrix to a
    relative width of 1e-10 in sigma^2, reports the square roots of the
    midpoints, and certifies each bracket against the dropped entries and
    the rounding.  Each entry records its ``solver``, both brackets and the
    ``tail_bound`` of the section's collocation matrix.
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
        lam, buffer, col_lo, col_hi, tail = _section_frame(c, seq, (-m, m), tol)
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
            full = collocation_matrix(c, seq, (-m, m), tol).entries
            s = np.linalg.svd(full[keep, :] if by_rows else full[:, keep], compute_uv=False)
            solver, values = "svd", s[[-1, 0]]
            err = max(shape) * _EPS * s[0]
            lo, hi = np.maximum(values - err, 0.0), values + err
        else:
            solver = "band"
            values, lo, hi = _extreme_singular_values(c, rows, kept_cols, buffer)
        entries.append(FrameBoundEntry(
            m, *shape, float(values[0]), float(values[1]), tail, solver,
            (float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])),
        ))
    return FrameBoundReport(
        orientation, interior_fraction, edge_margin, tuple(entries)
    )


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the rounding factor of k-term sums."""
    u = _EPS / 2.0
    return k * u / (1.0 - k * u)


def _gram_band(c: GaussianParam, p, q, radius: float):
    """Diagonals of the Gram matrix B B^H of a section's band.

    B[i, j] = e^{-c (p_i - q_j)^2} where |p_i - q_j| <= radius and 0
    elsewhere, for increasing ``p`` and ``q``.  Returns ``(diags, width,
    norms)``: ``diags[d][i] = (B B^H)[i, i + d]`` up to the half-bandwidth,
    the most entries any row keeps, and ||B||_1 ||B||_inf.
    """
    first = np.searchsorted(q, p - radius, "left")
    kept = np.searchsorted(q, p + radius, "right") - first
    width = int(kept.max())
    t = np.arange(width)
    cols = first[:, None] + t
    band = np.where(t < kept[:, None], _entries(c, p[:, None], q[np.minimum(cols, len(q) - 1)]), 0.0)
    mag = np.abs(band)
    norms = float(mag.sum(axis=1).max() * np.bincount(cols.ravel(), mag.ravel()).max())
    # row i + d meets row i where its band starts `shift` columns further on
    diags = [np.sum(band * band.conj(), axis=1)]
    for d in range(1, len(p)):
        shift = first[d:] - first[:-d]
        if shift.min() >= width:
            break
        idx = shift[:, None] + t
        mine = np.take_along_axis(band[:-d], np.minimum(idx, width - 1), axis=1)
        diags.append(np.sum(np.where(idx < width, mine, 0.0) * band[d:].conj(), axis=1))
    return diags, width, norms


def _cholesky_windows(diags, nb: int):
    """The band as dense windows of ``_WINDOW_BLOCKS`` blocks of ``nb`` rows.

    Consecutive windows share one block.  Returns the stacked windows (the
    last one zero-padded) and each window's true size.
    """
    n = len(diags[0])
    span = _WINDOW_BLOCKS * nb
    step = span - nb
    count = 1 + max(0, -(-(n - span) // step))
    rows = np.arange(count)[:, None] * step + np.arange(span)
    wins = np.zeros((count, span, span), dtype=diags[0].dtype)
    for d, g in enumerate(diags[:span]):
        r = np.arange(span - d)
        i = rows[:, : span - d]
        v = np.where(i < n - d, g[np.minimum(i, n - d - 1)], 0.0)
        wins[:, r, r + d] = v
        wins[:, r + d, r] = v.conj()
    return wins, np.minimum(span, n - rows[:, 0])


def _cholesky_or_none(mat):
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _definite(wins, sizes, nb: int, shifts, signs) -> np.ndarray:
    """Whether sign * (G - shift I) has a Cholesky factor, for each pair.

    One block Cholesky sweep over the windows serves every pair: window k
    starts with the Schur complement its shared block inherits from window
    k - 1.  A pair whose factorisation breaks down leaves the batch.
    """
    ok = np.ones(len(shifts), dtype=bool)
    live = np.flatnonzero(ok)
    eye = np.eye(wins.shape[1])
    scale, offset = signs[:, None, None], (signs * shifts)[:, None, None] * eye
    carry = None
    for win, size in zip(wins, sizes):
        mats = scale * win[:size, :size] - offset[:, :size, :size]
        if carry is not None:
            mats[:, :nb, :nb] = carry
        try:
            low = np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            factors = [_cholesky_or_none(x) for x in mats]
            fine = np.array([f is not None for f in factors])
            ok[live[~fine]] = False
            live, scale, offset = live[fine], scale[fine], offset[fine]
            if live.size == 0:
                break
            low = np.stack([f for f in factors if f is not None])
        last = low[:, -nb:, -nb:]
        carry = last @ last.conj().swapaxes(-1, -2)
    return ok


def _band_matvec(diags, x):
    y = diags[0] * x
    for d, g in enumerate(diags[1:], 1):
        y[:-d] += g * x[d:]
        y[d:] += g.conj() * x[:-d]
    return y


def _extreme_singular_values(c: GaussianParam, lam, cols, buffer: int):
    """Extreme singular values of the section e^{-c (lam_i - n_j)^2}.

    ``lam`` are the section's increasing node positions, ``cols`` its
    increasing integer columns.  The Gram matrix of the smaller side (A A^H
    for a wide section, A^H A, up to conjugation, for a tall one) has the
    squares of the singular values ``np.linalg.svd`` returns; entries
    beyond ``buffer`` of the diagonal are dropped, which leaves it banded.
    A bisection on each extreme eigenvalue, both served by one batched
    Cholesky sweep a step, starts from the smallest diagonal entry (and the
    rounding radius below it) for lambda_min and from a power-iteration
    Rayleigh quotient and the Gershgorin bound for lambda_max.

    Returns ``(values, lo, hi)``: (sigma_min, sigma_max), the square roots of
    the bracket midpoints, and certified lower and upper ends.  An eigenvalue
    bracket widens by the rounding radius: the error of forming the Gram
    matrix, gamma_{2w+4} ||A||_1 ||A||_inf for rows of at most w kept
    entries, plus the Cholesky backward error gamma_{2s+2} |L| |L^H| for
    windows of s rows, where rows of L have squared norm at most the
    Gershgorin bound g and |L| |L^H| is 2P + 1 wide, so its norm is at most
    (2P + 1) g (Demmel's theorem gives the same radius for a factorisation
    that fails).  A singular-value bracket then widens by the Frobenius norm
    of the dropped entries (Weyl).
    """
    p, q = (lam, cols) if len(lam) <= len(cols) else (cols, lam)
    diags, width, norms = _gram_band(c, p, q, buffer)
    half = len(diags) - 1
    nb = max(half, 1)
    wins, sizes = _cholesky_windows(diags, nb)
    rowsum = np.abs(diags[0])
    for d, g in enumerate(diags[1:], 1):
        rowsum[:-d] += np.abs(g)
        rowsum[d:] += np.abs(g)
    # Gershgorin, raised so that mu I - G is strictly diagonally dominant
    top = float(rowsum.max()) * (1.0 + 1e-8)
    rounding = (_gamma(2 * width + 4) * norms
                + (2 * half + 1) * _gamma(2 * wins.shape[1] + 2) * top)
    x = np.ones(len(p))
    for _ in range(8):
        x = _band_matvec(diags, x)
        x /= np.linalg.norm(x)
    quotient = float(np.vdot(x, _band_matvec(diags, x)).real)
    diag = diags[0].real
    # index 0: G - mu I is definite for mu <= lo[0] and not at hi[0];
    # index 1: mu I - G is definite at hi[1] and not at lo[1]
    lo = np.array([0.0, max(float(diag.max()), quotient)])
    hi = np.array([float(diag.min()), top])
    while True:
        todo = [k for k in (0, 1)
                if hi[k] - lo[k] > _BRACKET_RTOL * hi[k] and hi[k] > 2.0 * rounding]
        if not todo:
            break
        mus = np.array([_bisection_point(max(lo[k], rounding), hi[k]) for k in todo])
        signs = np.array([1.0 if k == 0 else -1.0 for k in todo])
        for k, mu, ok in zip(todo, mus, _definite(wins, sizes, nb, mus, signs)):
            if ok == (k == 0):
                lo[k] = mu
            else:
                hi[k] = mu
    values = np.sqrt(0.5 * (lo + hi))
    dropped = _integer_tail(c.a, lam, np.ceil(lam - buffer), np.floor(lam + buffer))
    lower = np.maximum(np.sqrt(np.maximum(lo - rounding, 0.0)) - dropped, 0.0)
    return values, lower, np.sqrt(hi + rounding) + dropped


def _bisection_point(lo: float, hi: float) -> float:
    """Geometric mean while the bracket spans more than a factor 2, then the midpoint."""
    return float(np.sqrt(lo * hi)) if hi > 2.0 * lo else 0.5 * (lo + hi)


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
