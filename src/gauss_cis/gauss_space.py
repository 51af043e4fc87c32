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
bisection on Cholesky decisions of the shifted band brackets both extreme
singular values, with a certificate for the dropped entries, the trimmed
diagonals and the rounding.  A periodic section takes its band from one
period, built once per pattern and kept across sizes and calls,
starts from its block symbol and is decided by cyclic reduction; any other
starts from its central block and is decided by a twisted sweep.
``_extreme_singular_values`` describes the solver and its certificate.
"""

import functools
from dataclasses import asdict, dataclass

import numpy as np

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
# a periodic band's symbol is scanned on this many angles, then on this many
# + 1 angles, _SYMBOL_GRID / 2 to a coarse step, around each side's best one
_SYMBOL_GRID = 64
# the one-period bands and symbol extremes of this many periodic patterns,
# phases and sides are kept (``_period_band``)
_PERIOD_BANDS = 32
# the symbol law's first shifts sit this many units of its error scale,
# its move / (N_b + 1), either side of its estimate; over 74 band sections
# 2 took the fewest sweeps of 1 to 6, and no section more than before
_LAW_STEP = 2.0
# each side's symbol branch, lambda_min's and lambda_max's, signed so that
# its extreme is a minimum
_SENSE = np.array([1.0, -1.0])
# a slope-bound shift steps this fraction past the bound
_SLOPE_MARGIN = 1e-3
# a reduction window's neighbour slots hold this multiple of I, so that the
# window factors exactly when its middle block does
_SLOT = 2.0 ** 200
# the three kinds of cyclic-reduction level (``_reduce``), by the length of
# each chain with its target: odd, 2, and even from 4.  State blocks: 0 and
# 1 the end blocks of the upper and the lower chain, 2 the inner block, 3
# and 4 the targets.  A kind factors the windows of the blocks
# ``factored``; window i's X are X_{2i}, for the block above it, and
# X_{2i+1}, for the one below.  New state block k is block old[k] less
# X_a X_a^H for each a in losses[k], summed by the 0/1 matrix ``gains``;
# window ``inner``, where there is one, gives the new coupling.
_LEVELS = tuple((np.array(factored), np.array(old),
                 np.array([[float(k in a) for k in range(2 * len(factored))] for a in losses]),
                 inner) for factored, old, losses, inner in (
    ((2,), (0, 1, 2, 3, 4), ((0,), (1,), (0, 1), (1,), (0,)), 0),
    ((0, 1), (0, 1, 2, 3, 4), ((), (), (), (1,), (2,)), None),
    ((0, 1, 2), (2, 2, 2, 3, 4), ((1, 4), (2, 5), (4, 5), (5,), (4,)), 2),
))


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


def _entries(c: GaussianParam, x, y) -> np.ndarray:
    """Collocation entries e^{-c (x - y)^2}, broadcast; real when b = 0."""
    return np.exp(-(c.c if c.b else c.a) * (x - y) ** 2)


def _integer_tail(a: float, lam, lo, hi, counts=1) -> float:
    """Frobenius norm of the entries e^{-c (lam_i - n)^2} over the integers
    n < lo or n > hi (``lo``, ``hi`` broadcast against ``lam``), each row's
    two tails summed to underflow and counted ``counts`` times (broadcast
    against ``lam``)."""
    dropped = np.stack([lam - (lo - 1), (hi + 1) - lam])
    return float(np.sqrt(np.sum(np.asarray(counts)[..., None] * _gaussian_tail_terms(a, dropped))))


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
    sections are never built densely: the band solver trims the band of
    the smaller side's Gram matrix (``_band``, which builds a periodic
    section's band from one period) to a half-bandwidth of about 8 (from
    about 2 * buffer), bisects Cholesky decisions on it to a relative
    width of 1e-10 in sigma^2 or to the shifts' resolution, starting near
    each eigenvalue, and closing a bracket with one shift half that width
    past its success end once phi there says the root is nearer; it
    reports the square roots of the midpoints and certifies each bracket
    against the dropped entries, the trimmed diagonals and the rounding
    (``_extreme_singular_values``, which also gives the solver's start
    rules and deciding routines).  Each entry records its ``solver``, both
    brackets and the ``tail_bound`` of the section's collocation matrix; a
    band entry also records its ``sweeps``, ``half_bandwidth``, how each
    bracket started (``symbol``, ``model`` or ``diagonal``), the
    ``model_estimate`` (lambda_min, lambda_max) in sigma^2 that each
    modelled side started from (None for a side started from the
    diagonal), how each bracket stopped, whether sigma_min was
    ``below_resolution`` (its bracket never rose above twice the rounding
    radius), in which case sigma_min is the bracket's certified upper end,
    which routine ``decided_by`` its shifts (``reduction`` or ``twisted``),
    the ``levels`` of each reduction (None for the twisted sweep) and the
    ``radius``: the formation, trim and factoring terms of the rounding
    radius, in sigma^2.

    A periodic section's one-period band, with its Gershgorin and trim
    sums, rounded offsets and symbol extremes, does not depend on M: it is
    built once per pattern, phase of the band's first row, buffer and
    side, and kept across sizes and calls (``_period_band``), so that the
    larger sizes of one call, and sizes asked for one call at a time, take
    it again.  Per section stay only each residue's count of rows, the
    position rounding term, the tail of the dropped entries and the symbol
    law's (pi / (N_b + 1))^2 term.  A kept record gives bitwise the
    entries a new one would.
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
    # a Hermitian diagonal is real; the product's imaginary parts are rounding
    diags = [np.sum(band * band.conj(), axis=1).real]
    for d in range(1, len(p)):
        shift = first[d:] - first[:-d]
        if shift.min() >= width:
            break
        diags.append(np.sum(views[np.arange(len(p) - d), np.minimum(shift, width)]
                            * band[d:].conj(), axis=1))
    # |G| of each off-diagonal on the rows above it, then on the rows below it
    mags = np.zeros((len(diags) - 1, 2, len(p)))
    for d, g in enumerate(diags[1:], 1):
        mags[d - 1, 0, :-d] = mags[d - 1, 1, d:] = np.abs(g)
    # Gershgorin row sums, added in order from the main diagonal out
    top = float(sum(mags.reshape(-1, len(p)), np.abs(diags[0])).max())
    # trial[j]: the largest row sum of the j + 1 outermost diagonals, added
    # from the outermost in; it only grows with j, so those within the
    # bound are the first ``cut``
    trial = np.cumsum(mags[::-1].reshape(-1, len(p)), axis=0)[1::2].max(axis=1)
    cut = int(np.count_nonzero(trial <= _TRIM_RTOL * top))
    return diags[:len(diags) - cut], width, norms, top, float(trial[cut - 1]) if cut else 0.0


def _band(c: GaussianParam, lam, cols, radius: int, period):
    """The trimmed Gram band of the section e^{-c (lam_i - n_j)^2} and the
    tail of its entries dropped outside the band.

    ``lam`` are the section's increasing node positions, ``cols`` its
    increasing integer columns, and the Gram side is the smaller one: A A^H
    for a wide section, A^H A, up to conjugation, for a tall one.
    ``period``, unless None, is ``(offsets, first)``: ``lam`` are then the
    positions n + offsets[n mod P] of the nodes n = first, first + 1, ....
    When every row of the Gram side keeps its whole band (the other side
    reaches past ``radius`` at both ends), the Gram matrix is block
    Toeplitz: shifting a node by P shifts its position by P, so rows i and
    i + P hold the same entries.  The band is then one period of every
    diagonal, built once per pattern by ``_period_band``, whose phase is
    the residue of the Gram side's first row.  Any other band is built by
    ``_gram_band`` from every row.

    A band from one period is that of the section A1 whose node n is at n
    + the rounded offset, exactly (``_period_band``).  Node n of ``lam``
    moves from there by at most delta_n, its own rounding (exact, from a
    two-sum) plus the offset's, and each entry e^{-c t^2} by at most
    delta_n |2 c t| e^{-a t^2} at some t near the column.  Over all
    integer columns the squares of h(t) = |2 c t| e^{-a t^2} sum to at
    most its integral |c|^2 sqrt(pi / 2a) / a plus 7 times its largest
    value 2 |c|^2 / (a e): once for each of its four monotone pieces and
    for each of the three points whose interval may straddle a join.
    Hence delta_n^2 |c|^2 (sqrt(pi / 2a) / a + 14 / (a e)) bounds row n's
    share of the Frobenius norm of A1 minus the section, which moves a
    singular value by at most that much (Weyl).  That term, each residue's
    count of rows and the tail below are all that a section of a periodic
    pattern computes itself.

    Returns ``(diags, width, norms, top, dropped, tail, one)``:
    ``_gram_band``'s outputs, with ``diags`` one period, row i's at i mod
    P, for a band from one period; ``tail``, the Frobenius norm of the
    entries dropped outside the band, from every row or from one node of
    each residue counted by how many rows it stands for, plus the position
    term for a band from one period; and that band's ``_PeriodBand``, or
    None for a band from every row.
    """
    wide = len(lam) <= len(cols)
    p, q = (lam, cols) if wide else (cols, lam)
    offsets, first = period or ((), 0)
    size = len(offsets)
    if not (size and len(p) >= size + 2 * _reach(radius, size)
            and q[0] < p[0] - radius and q[-1] > p[-1] + radius):
        tail = _integer_tail(c.a, lam, np.ceil(lam - radius), np.floor(lam + radius))
        return *_gram_band(c, p, q, radius), tail, None
    one = _period_band(c, offsets, int(first if wide else p[0]) % size, radius, wide)
    index = first + np.arange(len(lam))
    residue = index % size
    # position rounding: lam's own, exact from a two-sum, and the offsets'
    base = index.astype(float)
    back = lam - base
    delta = (np.abs((base - (lam - back)) + (np.asarray(offsets)[residue] - back))
             + one.slack[residue])
    per_delta = abs(c.c) * np.sqrt(np.sqrt(np.pi / (2.0 * c.a)) / c.a + 14.0 / (c.a * np.e))
    moved = per_delta * float(np.sqrt(delta @ delta))
    x = one.x
    tail = _integer_tail(c.a, x, np.ceil(x - radius), np.floor(x + radius),
                         np.bincount(residue, minlength=size))
    return one.diags, one.width, one.norms, one.top, one.dropped, tail + moved, one


def _reach(radius: int, size: int) -> int:
    """Rows of a band further apart than this share no column and no node."""
    return 2 * radius + 1 + size


@dataclass(frozen=True)
class _PeriodBand:
    """What a section of a periodic pattern takes from the pattern alone
    (``_period_band``); every array is read-only."""

    diags: tuple         # one period of each trimmed diagonal, row i's at i mod P
    width: int           # ``_gram_band``'s outputs for the small band
    norms: float
    top: float
    dropped: float
    x: np.ndarray        # i + the rounded offset of residue i
    slack: np.ndarray    # |offset - rounded offset|, by residue
    value: np.ndarray    # each extreme branch's lambda(theta_0), signed as a minimum
    curve: np.ndarray    # and its lambda''(theta_0)


@functools.lru_cache(maxsize=_PERIOD_BANDS)
def _period_band(c: GaussianParam, offsets: tuple, phase: int, radius: int, wide: bool):
    """One period of the trimmed Gram band of the pattern n + offsets[n mod
    P], and its symbol's extremes, for every section of it whose Gram side
    starts at residue ``phase`` (``_band``): nodes when ``wide``, integer
    columns otherwise.

    The band is built by ``_gram_band`` for P rows, from ``phase``, with
    ``_reach`` rows either side, enough for every partner of the middle P,
    and those P rows are one period of every diagonal.  Their top and
    dropped row sums and the band norms are every such section's, since an
    edge row of either has only fewer partners.  The nodes sit at the
    offsets rounded to multiples of the spacing of doubles near the small
    band's largest position, so that every position and every difference
    to a column is exact.  None of this depends on the section's size, so
    it is built once per pattern, phase, radius and side and kept, up to
    ``_PERIOD_BANDS`` records, with the module's constants as they are
    when it is built.
    """
    size = len(offsets)
    reach = _reach(radius, size)
    offs = np.asarray(offsets)
    # the small band's rows, node indices or columns: row reach has the phase
    rows = phase + np.arange(-reach, size + reach)
    nodes = rows if wide else np.arange(np.floor(rows[0] - radius - offs.max()) - 1,
                                        np.ceil(rows[-1] + radius - offs.min()) + 2, dtype=int)
    limit = float(np.abs(nodes).max() + np.abs(offs).max()) + radius + 2.0
    spacing = 2.0 ** (np.frexp(limit)[1] - 53)
    rounded = np.round(offs / spacing) * spacing
    at = nodes + rounded[nodes % size]
    p, q = ((at, np.arange(np.floor(at[0]) - radius - 1, np.ceil(at[-1]) + radius + 2))
            if wide else (rows.astype(float), at))
    diags, width, norms, top, dropped = _gram_band(c, p, q, radius)
    # copies, so that the small band's whole diagonals are freed
    diags = tuple(g[reach:reach + size].copy() for g in diags)
    x, slack = np.arange(size) + rounded, np.abs(offs - rounded)
    extremes = _symbol_extremes(diags)
    for a in (*diags, x, slack, *extremes):
        a.setflags(write=False)
    return _PeriodBand(diags, width, norms, top, dropped, x, slack, *extremes)


def _band_windows(diags, starts, span: int):
    """Principal blocks ``G[r:r + span, r:r + span]`` of the Hermitian band,
    one for each start row r in ``starts`` (any shape), in ascending rows.
    ``diags`` hold the whole band, or one period of a periodic band: P
    entries a diagonal, row i's at i mod P."""
    starts = np.asarray(starts)
    wins = np.zeros(starts.shape + (span, span), dtype=np.result_type(*diags))
    for d, g in enumerate(diags[:span]):
        r = np.arange(span - d)
        v = g[(starts[..., None] + r) % len(diags[0])]
        wins[..., r + d, r] = v.conj()
        wins[..., r, r + d] = v
    return wins


def _cholesky_windows(diags, nb: int, n: int):
    """The band of n rows as dense windows of a twisted block Cholesky sweep.

    Windows of ``_WINDOW_BLOCKS`` blocks of ``nb`` rows run in from both
    ends, in pairs: a forward one, the block from start row j * step, and a
    backward one, the block ending j * step before the last row, flipped
    ([::-1, ::-1]) so that its rows run up.  Each shares one block with the
    next window in.  The middle window, of 3 to 7 blocks when the windows
    hold 3, shares its first block with the last forward window and its
    last block with the last backward one.  Returns the pairs, shape
    (h, 2, s, s), and the middle window.
    """
    span = _WINDOW_BLOCKS * nb
    step = span - nb
    count = max(0, (n - span) // (2 * step))
    ahead = np.arange(count) * step
    pairs = _band_windows(diags, np.stack([ahead, n - span - ahead], axis=1), span)
    pairs[:, 1] = pairs[:, 1, ::-1, ::-1]
    return pairs, _band_windows(diags, [count * step], n - 2 * count * step)[0]


def _factor(mats, ok, live):
    """The one Cholesky step of both deciding routines.  ``mats`` is a
    stack whose first axis runs over the live shifts, ``live`` their
    indices into ``ok``.  Returns the factors of the shifts that factor
    every matrix of theirs and which shifts those are, as an index into
    the live ones: ``slice(None)`` where the batch factors, so that callers
    index views and copy nothing.  Only a batch that ``np.linalg.cholesky``
    rejects is factored matrix by matrix; a shift with a failing matrix is
    marked not definite in ``ok`` and leaves."""
    try:
        return np.linalg.cholesky(mats), slice(None)
    except np.linalg.LinAlgError:
        pass
    flat = mats.reshape(-1, *mats.shape[-2:])
    low = np.zeros_like(flat)
    fine = np.zeros(len(flat), dtype=bool)
    for i, x in enumerate(flat):
        try:
            low[i], fine[i] = np.linalg.cholesky(x), True
        except np.linalg.LinAlgError:
            pass
    fine = fine.reshape(len(mats), -1).all(axis=1)
    ok[live[~fine]] = False
    return low.reshape(mats.shape)[fine], fine


def _definite(pairs, mid, nb: int, shifts, signs):
    """Whether sign * (G - shift I) has a Cholesky factor, for each pair,
    and phi, the smallest eigenvalue of its middle window's Schur complement.

    The sweep is twisted.  Step j factors forward window j and backward
    window j in one batch, each starting with the Schur complement its
    shared block inherits from step j - 1; the middle window then starts
    with both carried blocks in place.  The rows before and after the
    middle window are more than a bandwidth apart, so the matrix is
    definite exactly when both outer parts and the middle Schur complement
    are.  Each step factors its batch in one ``_factor`` call; a shift
    whose outer part broke down leaves the batch, with phi left nan.
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
        low, fine = _factor(mats, ok, live)
        live, scale, offset = live[fine], scale[fine], offset[fine]
        if live.size == 0:
            return ok, phi
        last = low[..., -nb:, -nb:]
        carry = last @ last.conj().swapaxes(-1, -2)
    mats = scale[:, 0] * mid - (signs * shifts)[live, None, None] * np.eye(len(mid))
    if carry is not None:
        mats[:, :nb, :nb] = carry[:, 0]
        mats[:, -nb:, -nb:] = carry[:, 1, ::-1, ::-1]
    return _middle_window(mats, ok, phi, live)


def _middle_window(mats, ok, phi, live):
    """``(ok, phi)`` with the live shifts' entries set from their middle
    windows ``mats``: whether each has a Cholesky factor (``_factor``),
    and its smallest eigenvalue."""
    _factor(mats, ok, live)
    phi[live] = np.linalg.eigvalsh(mats)[:, 0]
    return ok, phi


def _chains(diags, n: int):
    """The chains of the cyclic reduction of a periodic band of n rows
    (``_extreme_singular_values``): the 2S-row principal block at the
    first whole block's phase, whose diagonal and upper right blocks are
    every block D and coupling U; the rows of the two end blocks as masks
    over a block, the upper one's last rows, half the rows left over after
    the whole blocks, rounded down, and the lower one's first rows; and
    ``count``, the blocks of each chain.
    """
    period, half = len(diags[0]), len(diags) - 1
    size = period * max(1, -(-half // period))
    count = max(0, -(-(n - 2 * size) // (2 * size)))
    cut = n - 2 * size * count
    top = cut // 2 if count else 0
    rows = np.arange(size)
    return (_band_windows(diags, [top], 2 * size)[0],
            np.stack([rows >= size - top, rows < cut - top]), count)


def _reduce(win, masks, count: int, half: int, rows: int, shifts, signs):
    """Whether sign * (G - shift I) is definite, for each shift, and phi,
    the smallest eigenvalue of the middle window's Schur complement, its
    first ``rows`` rows, by cyclic reduction of the chains of ``_chains``
    (``_extreme_singular_values``).

    A level is one ``_factor`` call on the windows of its eliminated state
    blocks: the block above two slots, each a coupling to a neighbour with
    ``_SLOT`` I as its own block, so the window factors exactly when the
    block is definite, and the factor's rows X below the block are the
    couplings times its inverse Cholesky factor.  A kept
    block loses X X^H of the window either side, and the kept blocks
    either side of an eliminated one are joined by -X_l X_r^H.  A shift
    whose block fails to factor in ``_factor`` leaves, phi nan.
    """
    size = len(win) // 2
    ok = np.ones(len(shifts), dtype=bool)
    phi = np.full(len(shifts), np.nan)
    live = np.arange(len(shifts))
    eye = np.eye(size)
    block = signs[:, None, None] * win[:size, :size] - (signs * shifts)[:, None, None] * eye
    blocks = np.repeat(block[:, None], 5, axis=1)
    upper = signs[:, None, None] * win[:size, size:]
    # an end block holds the identity off its rows, whatever the sign, and
    # its coupling's rows are masked to its own, until a level takes it;
    # the blocks in its place are whole
    keep = masks[:, :, None] & masks[:, None, :]
    pad = eye * ~masks[:, :, None]
    rows_of = np.ones((3, size), dtype=bool)
    rows_of[:2] = masks
    ends = True
    # a coupling is nonzero only on the last `half` rows of its upper block
    # and the first `half` columns of its lower one, so a slot has `half` rows
    span = size + 2 * half
    wins = np.zeros((len(shifts), 3, span, span), dtype=win.dtype)
    wins[..., np.arange(size, span), np.arange(size, span)] = _SLOT
    xs = np.zeros((len(shifts), 6, size, size), dtype=win.dtype)
    length = count + 1
    while length > 1:
        factored, old, gains, inner = _LEVELS[0 if length % 2 else 1 if length == 2 else 2]
        length = (length + 1) // 2
        slots = np.concatenate(
            [upper[:, size - half:], upper[:, :, :half].conj().swapaxes(-1, -2)], axis=1)[:, None]
        if ends:
            blocks[:, :2] = np.where(keep, blocks[:, :2], pad)
            slots = slots * rows_of[factored, None]
            ends = factored[0] != 0  # until a level factors the end blocks
        stack = wins[:, :len(factored)]
        stack[:, :, :size, :size] = blocks[:, factored]
        stack[:, :, size:, :size] = slots
        low, fine = _factor(stack, ok, live)
        live, upper, blocks, wins, xs = live[fine], upper[fine], blocks[fine], wins[fine], xs[fine]
        if live.size == 0:
            return ok, phi
        x = xs[:, :2 * len(factored)]
        x[:, 0::2, size - half:] = low[:, :, size:size + half, :size]
        x[:, 1::2, :half] = low[:, :, size + half:, :size]
        xh = x.conj().swapaxes(-1, -2)
        loss = (x @ xh).reshape(len(live), len(gains[0]), size * size)
        blocks = blocks[:, old] - (gains @ loss).reshape(len(live), 5, size, size)
        if inner is not None:
            upper = -(x[:, 2 * inner] @ xh[:, 2 * inner + 1])
    mats = np.zeros((len(live), 2 * size, 2 * size), dtype=win.dtype)
    mats[:, :size, :size] = blocks[:, 3]
    mats[:, size:, size:] = blocks[:, 4]
    mats[:, size:, :size] = signs[live, None, None] * win[size:, :size]
    return _middle_window(mats[:, :rows, :rows], ok, phi, live)


def _extreme_singular_values(c: GaussianParam, lam, cols, buffer: int, period=None):
    """Extreme singular values of the section e^{-c (lam_i - n_j)^2}.

    ``lam`` are the section's increasing node positions, ``cols`` its
    increasing integer columns, and ``period``, when given, ``(offsets,
    first)`` as ``_band`` takes it.  The Gram matrix G of the smaller side
    (A A^H for a wide section, A^H A, up to conjugation, for a tall one)
    has the squares of the singular values ``np.linalg.svd`` returns;
    entries of A beyond ``buffer`` of the diagonal are dropped, which leaves
    G banded, and its outer diagonals are trimmed (``_gram_band``) to a
    half-bandwidth P of about 8.  ``_band`` builds G's band: from one
    period where the section is periodic and every row of its smaller
    side keeps its whole band, from every row otherwise.  Each sweep
    shifts both extreme eigenvalues' brackets in one batched decision:
    cyclic reduction (below) for a band from one period, a twisted
    Cholesky sweep (``_definite``) for any other.  Both leave a middle window and factor
    the two outer parts onto it.  The bracket ends are always a Cholesky
    success and a Cholesky failure; the estimates and phi below only
    choose the shifts.
    phi, the smallest eigenvalue of the middle window's Schur complement
    S(mu), is continuous and decreasing up to the first eigenvalue of the
    outer parts, with its first root at the extreme eigenvalue.  Three
    fixed rules place the shifts:

    * Start.  One rule per input kind.  A band built from one period
      starts from its block symbol (``_symbol_law``, from the extremes
      ``_symbol_extremes`` finds once per one-period band):
      lambda(theta_0) + lambda''(theta_0) / 2 (pi / (N_b + 1))^2 for each
      extreme branch of the symbol, N_b = n / P blocks, with the first
      sweep's two shifts ``_LAW_STEP`` units of the law's error scale
      either side of it.  Any
      other band starts from its central block (``_edge_model``), whose
      eigenvalues theta_k bound lambda_min from above and lambda_max from
      below by Cauchy interlacing; near a band edge theta_k ~ lambda_inf +
      alpha k^2 / (L + 1)^2, so the two extreme ones extrapolate to the
      band's length, and the two shifts sit 1 % of the move either side.
      A side without its kind's start starts from the diagonal:
      lambda_min from the smallest diagonal entry, with geometric steps
      down to the rounding radius, and lambda_max from the largest
      diagonal entry and the Gershgorin bound.  That is a periodic side
      whose symbol law is not positive, any other band no longer than the
      block, or one whose extrapolation leaves 0.
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
      bisection; a phi_s that reads <= 0 is rounding too, so that end
      steps the half width (just under the resolution where it does not
      count).  Otherwise the shift is phi's regula falsi point once phi
      is known at both ends (Illinois variant: the phi of an end kept twice
      in a row is halved, once the other end's is known, so that the slope
      bound sees the true phi_s), moved out to just under the resolution
      from an end it comes nearer than that to where the bracket can only
      stop on resolution, and else the geometric or halving step.
    * Resolution stop.  A bracket stops at a relative width of 1e-10, or
      once it is narrower than 2 eps max G_ii, below which a shift no longer
      changes the shifted matrix, or once lambda_min's lies below twice the
      rounding radius.

    Cyclic reduction (``_chains``, ``_reduce``).  In blocks of S rows, the
    smallest multiple of the period not below P, a band from one period is
    block tridiagonal and Toeplitz: every block is D and every coupling U.
    A middle window of two blocks, w = 2S rows (the whole band where n <=
    2S), sits between two chains of ``count`` = ceil((n - 2S) / 2S) blocks
    each.  The rows left over after the whole blocks are split between the
    two far ends: each end block holds its rows and the identity elsewhere,
    and its coupling is masked to its rows.  Both chains so have the same
    length, counting their targets, the window's blocks, and odd-even
    reduction takes them onto the window in lock step, each level keeping
    the blocks of its target's parity, in ceil(log2(count + 1)) levels.
    The Schur complement onto the kept blocks is again of that form, so
    five state blocks hold every level: the two end blocks, one inner
    block, which serves both chains, and the two targets.  A level is one
    of three kinds (``_LEVELS``): an odd length eliminates the inner
    blocks, a length of 2 the end blocks, and an even length of 4 or more
    both; so it factors at most three windows, in one
    ``np.linalg.cholesky`` call.  By Sylvester's criterion G - mu I is
    definite exactly when every eliminated block and the middle window's
    Schur complement are.

    Each sweep takes one shift a side, the first two on a modelled side.
    From the symbol, 4 sweeps bring a period-4 pattern at M = 128 to 512
    to width; 3 to 4 a constant shift of 0.1 to 0.5 at M = 512 and
    1,024, except 0.49 at M = 1,024, which takes 6; 6, 6, 4 and 4 the
    critical shift at M = 128, 256, 512 and 1,024; and 3 at M = 4,096
    and 16,384.  From the central block, 6 to 10
    take the grids of slope 3/4 and 4/3 near M = 300, and up to about 40 an
    explicit window with random offsets.

    Returns ``(values, lo, hi, diagnostics)``: (sigma_min, sigma_max), the
    square roots of the bracket midpoints, certified lower and upper ends,
    and the ``sweeps`` taken, the ``half_bandwidth`` P, each side's
    ``start`` (``symbol``, ``model`` or ``diagonal``), ``model_estimate``
    (the modelled start, or None) and ``stop``
    (``width`` or ``resolution``), ``below_resolution``: whether
    lambda_min's bracket stayed below twice the rounding radius, in which
    case sigma_min is its certified upper end, ``decided_by``
    (``reduction`` or ``twisted``), the reduction's ``levels`` (None for
    the twisted sweep) and the ``radius``, the three terms below.  An
    eigenvalue bracket widens by the rounding radius, the sum of three
    terms:

    * forming G: gamma_{2w+4} ||A||_1 ||A||_inf for rows of at most w kept
      entries;
    * trimming G: the largest dropped row sum, which bounds the 2-norm of
      the dropped Hermitian part and so, by Weyl's inequality, how far it
      moves any eigenvalue;
    * factoring G - mu I in the twisted sweep.  A window's dense Cholesky
      has backward error gamma_{k+1} |L| |L^H| for a window of k rows, and
      a carried block
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
    * factoring G - mu I by cyclic reduction, in blocks of S rows.  A
      level's matrix is the Schur complement of G - mu I onto its blocks'
      rows, so a perturbation of it there is the same perturbation of
      G - mu I (Schur complement identity), and the levels' add.  A
      window's Cholesky moves its block and couplings by gamma_{S+1} g an
      entry, a product X X^H or X_l X_r^H is off by gamma_S g and a kept
      block, which loses two, by gamma_{2S+6} g.  A kept row is so off in
      its own block (S entries), its couplings to the eliminated blocks
      either side (2S) and its new couplings (2S), an eliminated row in 3S
      entries: a level's row sums, hence 2-norm, are at most S
      gamma_{6S+8} g, the same at every copy of a reused window.  With the
      middle window's w gamma_{w+1} g the term is (levels S gamma_{6S+8} +
      w gamma_{w+1}) g: at the critical shift 3.3, 4.2 and 6.0 times the
      twisted term at M = 1,024, 4,096 and 65,536 (7, 9, 13 levels,
      S = 8); Demmel's theorem again covers a failure.

    A singular-value bracket then widens by the Frobenius norm of the
    entries of A dropped outside the band (Weyl).  A band from one period
    is that of the section whose nodes sit exactly at n + the offsets, and
    its bracket widens by one more Weyl term, the Frobenius norm by which
    rounding the node positions can move the section's entries, so that
    it certifies both that section and the one built from
    ``seq.positions()``; the term is 0 where every position is exact, as
    at the critical shift.
    """
    n = min(len(lam), len(cols))
    diags, width, norms, top, dropped, tail, one = _band(c, lam, cols, buffer, period)
    periodic = one is not None
    estimate, spread = _symbol_law(one, n) if periodic else _edge_model(diags, n)
    modelled = np.isfinite(spread)
    start = tuple(("symbol" if periodic else "model") if m else "diagonal" for m in modelled)
    half = len(diags) - 1
    if periodic:
        win, masks, count = _chains(diags, n)
        # ceil(log2(count + 1)) levels
        size, levels = len(win) // 2, count.bit_length()
        rows = min(n, 2 * size)
        decide = functools.partial(_reduce, win, masks, count, half, rows)
        factoring = levels * size * _gamma(6 * size + 8) + rows * _gamma(rows + 1)
    else:
        nb = max(half, 1)
        pairs, mid = _cholesky_windows(diags, nb, n)
        decide = functools.partial(_definite, pairs, mid, nb)
        factoring = (2 * half + 1) * _gamma(_WINDOW_BLOCKS * nb + len(mid) + nb + 2)
        levels = None
    # Gershgorin, raised so that mu I - G is strictly diagonally dominant
    top *= 1.0 + 1e-8
    radius = (_gamma(2 * width + 4) * norms, dropped, factoring * top)
    rounding = radius[0] + radius[1] + radius[2]
    diag = diags[0]
    # below this width a shift no longer changes the shifted matrix
    resolution = 2.0 * _EPS * float(diag.max())
    # side 0: G - mu I is definite for mu <= ends[0, 0] and not at ends[0, 1];
    # side 1: mu I - G is definite at ends[1, 1] and not at ends[1, 0];
    # phis holds phi at each end (nan while unknown)
    ends = np.array([[0.0, float(diag.min())], [float(diag.max()), top]])
    phis = np.full((2, 2), np.nan)
    # side k factors sign[k] * (G - mu I); sign[k] points from its success end to its failure end
    sign = np.array([1.0, -1.0])
    # a modelled side's first sweep puts one shift either side of its
    # estimate, the one toward its success end first
    queued = [[], []]
    for k in np.flatnonzero(modelled):
        step = sign[k] * spread[k]
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
        ok, phi = decide(mus, sign[side.astype(int)])
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
    lower = np.maximum(np.sqrt(np.maximum(lo - rounding, 0.0)) - tail, 0.0)
    upper = np.sqrt(hi + rounding) + tail
    below = bool(hi[0] <= 2.0 * rounding)
    if below:
        values[0] = upper[0]
    return values, lower, upper, {
        "sweeps": sweeps, "half_bandwidth": half, "start": start,
        "model_estimate": tuple(float(x) if m else None for x, m in zip(estimate, modelled)),
        "stop": tuple(stop), "below_resolution": below,
        "decided_by": "reduction" if periodic else "twisted", "levels": levels,
        "radius": tuple(float(r) for r in radius),
    }


def _edge_model(diags, n: int):
    """Modelled extreme eigenvalues of the band of n rows and how far each
    was moved.

    The central ``_MODEL_ROWS``-row principal block's eigenvalues theta_k
    bound lambda_min from above and lambda_max from below (Cauchy
    interlacing).  Near a band edge theta_k ~ lambda_inf + alpha k^2 / (L +
    1)^2 for a block of L rows, so the two extreme ones extrapolate to the
    band's length.  Returns ``(estimate, spread)``, (lambda_min,
    lambda_max) each: ``spread``, how far the first two shifts sit either
    side of the estimate, is ``_MODEL_STEP`` times how far the estimate
    lies from the block value (below it for lambda_min, above it for
    lambda_max), and nan where no model holds: unless that move lies
    between 0 and the block value, which keeps each estimate positive and
    within a factor 2 of its block value.  A block of the whole band (a
    section of at most ``_MODEL_ROWS`` rows) has no room to extrapolate and
    so no model.
    """
    size = min(_MODEL_ROWS, n)
    first = (n - size) // 2
    theta = np.linalg.eigvalsh(_band_windows(diags, [first], size)[0])
    block = theta[[0, -1]]
    shrink = 1.0 - ((size + 1.0) / (n + 1.0)) ** 2
    move = np.array([theta[1] - theta[0], theta[-1] - theta[-2]]) * shrink / 3.0
    estimate = block + np.array([-1.0, 1.0]) * move
    trusted = (0.0 < move) & (move < block)
    return estimate, np.where(trusted, _MODEL_STEP * move, np.nan)


def _symbol_extremes(diags):
    """The symbol of a periodic band and its extreme branches' wells.

    ``diags`` hold one period of P rows (``_period_band``).  The band is a
    section of the block Toeplitz matrix whose P x P symbol F(theta) =
    sum_t G_t e^{i t theta} has the Gram blocks G_t as Fourier
    coefficients: G_t is the band's (0, t) block, rows 0 to P - 1 and
    columns tP to tP + P - 1, laid out by ``_band_windows`` for t = 0 ...
    T = ceil(half-bandwidth / P), and G_{-t} = G_t^H, so that F(theta) is
    one contraction of the phases with the blocks.  Two batched
    ``eigvalsh`` calls find both sides' theta_0, with no iteration.  The
    coarse grid has ``_SYMBOL_GRID`` angles in [-pi, pi), which holds -pi
    but not pi so that no angle counts twice.  The fine grid, one call for
    both sides, has ``_SYMBOL_GRID`` + 1 angles h = (2 pi /
    ``_SYMBOL_GRID``) / (``_SYMBOL_GRID`` / 2) apart, one coarse step
    either side of each side's best coarse angle.  There f_k is the
    branch, signed so that its extreme is a minimum, at index j + k, j its
    best index kept 2 from either end.  The parabola through f_-1, f_0,
    f_1 gives lambda(theta_0) = f_0 - (f_1 - f_-1)^2 / (8 (f_1 - 2 f_0 +
    f_-1)), nan where the second difference is not positive, and the
    five-point stencil gives lambda'' = (-f_-2 + 16 f_-1 - 30 f_0 + 16 f_1
    - f_2) / (12 h^2): at the critical shift it gives |S'(pi)| to 3e-11
    relative, where the 3-point stencil misses it by 1.5e-6.  Returns
    ``(value, curve)``: each side's lambda(theta_0) and lambda''(theta_0),
    signed so that the extreme is a minimum.
    """
    period = len(diags[0])
    tmax = -(-(len(diags) - 1) // period)
    # G_0 ... G_T side by side in the band's first P rows, then G_{-t} = G_t^H
    row = _band_windows(diags, [0], (tmax + 1) * period)[0, :period]
    blocks = row.reshape(period, tmax + 1, period).swapaxes(0, 1)
    blocks = np.concatenate([blocks[:0:-1].conj().swapaxes(-1, -2), blocks])
    t = np.arange(-tmax, tmax + 1)
    # the contraction as one matmul on the flattened blocks: np.tensordot's
    # call overhead is several times this small product's cost
    coef = blocks.reshape(len(t), period * period)

    def symbol(theta):
        return (np.exp(1j * np.outer(theta, t)) @ coef).reshape(-1, period, period)

    grid = -np.pi + 2.0 * np.pi * np.arange(_SYMBOL_GRID) / _SYMBOL_GRID
    coarse = np.linalg.eigvalsh(symbol(grid))[:, [0, -1]] * _SENSE
    h = 2.0 * np.pi / _SYMBOL_GRID / (_SYMBOL_GRID // 2)
    steps = h * np.arange(-(_SYMBOL_GRID // 2), _SYMBOL_GRID // 2 + 1)
    fine = (grid[np.argmin(coarse, axis=0)][:, None] + steps).ravel()
    branches = np.linalg.eigvalsh(symbol(fine)).reshape(2, len(steps), period)
    f = branches[[0, 1], :, [0, -1]] * _SENSE[:, None]
    j = np.clip(np.argmin(f, axis=1), 2, _SYMBOL_GRID - 2)
    fm2, fm1, f0, f1, f2 = (f[[0, 1], j + k] for k in range(-2, 3))
    second = f1 - 2.0 * f0 + fm1
    curve = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * f1 - f2) / (12.0 * h * h)
    # nan (no well) where the second difference is not positive, so a flat branch divides by no 0
    value = f0 - (f1 - fm1) ** 2 / (8.0 * np.where(second > 0.0, second, np.nan))
    return value, curve


def _symbol_law(one, n: int):
    """Extreme eigenvalues of a periodic band of n rows from its symbol.

    ``one`` is the band's ``_PeriodBand``, with each extreme branch's
    lambda(theta_0) and lambda''(theta_0) (``_symbol_extremes``).  An
    extreme eigenvalue of the band, a section of N_b = n / P blocks,
    approaches its branch's extreme value like lambda(theta_0) +
    lambda''(theta_0) / 2 (pi / (N_b + 1))^2, the lowest mode of the
    branch's quadratic well; only that term depends on the section.  A
    side where the curvature or either difference has the wrong sign has
    no well.

    The law's error is about C times its move over N_b + 1, with C
    between -2.4 and 2.1 over the frame-ladder patterns, constant shifts
    and random patterns of period up to 8 (measured against dense
    eigenvalues at M = 128 to 1,024).  Returns ``(estimate, spread)`` as
    ``_edge_model`` does, with ``spread`` ``_LAW_STEP`` such units, and
    nan for a side whose estimate is not positive or whose branch has no
    well there.
    """
    blocks = n / len(one.x) + 1.0
    waves = (np.pi / blocks) ** 2
    law = _SENSE * (one.value + 0.5 * one.curve * waves)
    well = (one.curve > 0.0) & (law > 0.0)
    spread = _LAW_STEP * 0.5 * one.curve * waves / blocks
    return np.where(well, law, np.nan), np.where(well, spread, np.nan)


def _next_shift(ends, phis, floor: float, resolution: float, side: int) -> float:
    """The next shift inside the bracket ``ends`` of ``side`` (0: lambda_min,
    whose success end is the lower; 1: lambda_max, the upper).

    A step from the success end toward the failure end when phi_s > 0
    and either phi is unknown at the failure end or the closing half width,
    half the stopping width 1e-10 * hi, is the longer step; the step is the
    longer of the slope bound phi_s (1 + ``_SLOPE_MARGIN``) and that half
    width, which counts only where it is at least ``resolution``.  A
    success end whose phi_s reads <= 0 has the root within rounding of it,
    so its step is that half width, or (1 - ``_SLOPE_MARGIN``)
    ``resolution`` where the half width does not count.  A closing step
    fails, which closes the bracket, unless rounding lets it succeed.  Else
    the regula falsi point of phi when phi has opposite signs at the ends
    and the point falls strictly inside; where that half width does not
    count, so that the bracket can only stop on ``resolution``, a point
    nearer an end than ``resolution`` moves to (1 - ``_SLOPE_MARGIN``)
    ``resolution`` from that end.  A shift that
    near leaves the shifted matrix about unchanged, so its decision is
    that end's and the bracket crawls (3 to 7 sweeps at the critical
    shift at M = 4,096); the moved shift closes the bracket when it
    decides as the far end.  Else the bisection point above ``floor``.
    """
    lo, hi = ends
    phi_lo, phi_hi = phis
    slope = phis[side] * (1.0 + _SLOPE_MARGIN)
    close = 0.5 * _BRACKET_RTOL * hi
    close = close if close >= resolution else 0.0
    if phis[side] <= 0.0:
        # phi_s <= 0 is rounding: the root lies within it of the success end
        step = close or (1.0 - _SLOPE_MARGIN) * resolution
    elif phis[side] > 0.0 and (np.isnan(phis[1 - side]) or close > slope):
        step = max(slope, close)
    else:
        step = 0.0
    mu = ends[side] + (1.0 - 2.0 * side) * step
    if step and lo < mu < hi:
        return mu
    if phi_lo * phi_hi < 0.0:
        mu = lo - phi_lo * (hi - lo) / (phi_hi - phi_lo)
        if lo < mu < hi:
            if not close:
                step = (1.0 - _SLOPE_MARGIN) * resolution
                mu = lo + step if mu - lo < resolution else hi - step if hi - mu < resolution else mu
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
