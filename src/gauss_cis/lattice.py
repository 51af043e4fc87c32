"""Real node sequences: models, separation, densities, and the CIS classifier.

A node sequence is an increasing set of reals indexed by integers.  Three
models are supported:

* ``AffineGrid(alpha, beta)``        lambda_n = alpha*n + beta
* ``PeriodicPerturbation(offsets)``  lambda_n = n + offsets[n mod P]
* ``ExplicitWindow(nodes, start)``   a finite window of explicit positions

The classifier decides whether the sequence admits an enumeration
lambda_n = n + delta_n with bounded delta_n whose long-window averages stay
strictly below 1/2.  For periodic and affine models the decision is exact;
for explicit windows it is a heuristic over the provided data and is
labelled as such.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadParameterError,
    ConfigInvalidError,
    EmptyWindowError,
    NonIncreasingError,
    WindowTooSmallError,
    array,
    coerce,
    real,
    reals,
    whole,
    wholes,
)

__all__ = [
    "GaussianParam",
    "NodeSequence",
    "AffineGrid",
    "PeriodicPerturbation",
    "ExplicitWindow",
    "Enumeration",
    "AvdoninVerdict",
    "DensityEstimate",
    "build_sequence",
    "check_separation",
    "canonical_enumeration",
    "beurling_densities",
    "avdonin_verdict",
]

# an explicit window must enumerate within this sup|delta| to be classified
_ENUMERATION_BOUND = 5.0


@dataclass(frozen=True)
class GaussianParam:
    """Complex Gaussian parameter c = a + ib with a > 0.

    ``a`` is the decay rate of the generator exp(-c x^2); ``b`` adds a
    chirp phase and never changes entry magnitudes.
    """

    a: float
    b: float = 0.0

    def __post_init__(self):
        real(self.a, "decay rate a", gt=0)
        real(self.b, "parameter b")

    @property
    def c(self) -> complex:
        return complex(self.a, self.b)


class NodeSequence:
    """Base class for node-sequence models.  Instances are immutable."""

    def positions(self, window=None) -> np.ndarray:
        """Node positions lambda_n for integer n in the inclusive window
        (lo, hi) of two whole numbers, or in ``default_window()``."""
        raise NotImplementedError

    def default_window(self):
        """Index window used when an operation needs concrete data: a
        finite model's stored range; an infinite model has none and raises
        BadParameterError."""
        raise BadParameterError(f"window is required: {type(self).__name__} is infinite")

    def _window(self, window):
        """The ends as ints: two whole numbers, read by ``errors.wholes``
        (0.5 or NaN raises BadParameterError); hi < lo raises
        EmptyWindowError."""
        ends = self.default_window() if window is None else wholes(window, "window")
        if len(ends) != 2:
            raise BadParameterError(f"window must be two ends, got {len(ends)}")
        lo, hi = ends
        if hi < lo:
            raise EmptyWindowError(f"empty index window [{lo}, {hi}]")
        return lo, hi


@dataclass(frozen=True)
class AffineGrid(NodeSequence):
    """lambda_n = alpha*n + beta with alpha > 0."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        real(self.alpha, "grid slope", gt=0)
        real(self.beta, "grid shift")

    def positions(self, window=None) -> np.ndarray:
        lo, hi = self._window(window)
        return self.alpha * np.arange(lo, hi + 1, dtype=float) + self.beta


@dataclass(frozen=True)
class PeriodicPerturbation(NodeSequence):
    """lambda_n = n + offsets[n mod P].  Must be strictly increasing."""

    offsets: tuple

    def __post_init__(self):
        offs = tuple(reals(self.offsets, "offsets"))
        if not offs:
            raise BadParameterError("period must be >= 1")
        object.__setattr__(self, "offsets", offs)
        # increasing across one period and the period boundary
        lam = np.arange(len(offs) + 1) + np.array(offs + (offs[0],))
        if np.any(np.diff(lam) <= 0.0):
            raise NonIncreasingError(
                f"offsets {offs} do not give an increasing sequence"
            )

    @property
    def period(self) -> int:
        return len(self.offsets)

    def positions(self, window=None) -> np.ndarray:
        lo, hi = self._window(window)
        n = np.arange(lo, hi + 1)
        return n + np.asarray(self.offsets)[np.mod(n, self.period)]


@dataclass(frozen=True)
class ExplicitWindow(NodeSequence):
    """A finite strictly increasing window of nodes with integer indexing.

    ``nodes[i]`` is the position of index ``start_index + i``.  The nodes
    are kept as a read-only float64 array (8 bytes a node; a tuple of
    Python floats takes 32); windows with equal nodes and start are equal.
    Nodes that ``errors.array`` rejects (a bool, a numeric string, NaN,
    +-inf, not 1-d) or no node at all, and a ``start_index`` that is not a
    whole number, raise BadParameterError; nodes that do not strictly
    increase raise NonIncreasingError.
    """

    nodes: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        arr = array(self.nodes, "nodes")
        if len(arr) == 0:
            raise BadParameterError("explicit window needs at least one node")
        if np.any(np.diff(arr) <= 0.0):
            raise NonIncreasingError("explicit nodes must be strictly increasing")
        object.__setattr__(self, "nodes", arr)
        object.__setattr__(self, "start_index", whole(self.start_index, "start_index"))

    def __eq__(self, other):
        if not isinstance(other, ExplicitWindow):
            return NotImplemented
        return self.start_index == other.start_index and np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash((self.start_index, self.nodes.tobytes()))

    @property
    def index_range(self):
        return (self.start_index, self.start_index + len(self.nodes) - 1)

    def positions(self, window=None) -> np.ndarray:
        lo, hi = self._window(window)
        s, e = self.index_range
        if lo < s or hi > e:
            raise EmptyWindowError(
                f"window [{lo}, {hi}] outside stored range [{s}, {e}]"
            )
        return self.nodes[lo - s : hi - s + 1].copy()

    def default_window(self):
        return self.index_range


def build_sequence(spec: dict) -> NodeSequence:
    """Build a validated NodeSequence from its JSON-style description.

    Accepted forms::

        {"kind": "affine",   "alpha": 1.0, "beta": 0.25}
        {"kind": "periodic", "offsets": [0.3, -0.3], "period": 2}
        {"kind": "explicit", "nodes": [...], "index_range": [lo, hi]}

    ``period`` is optional and must match ``len(offsets)`` when given;
    ``index_range`` is optional (defaults to starting at 0).  A spec or
    field of the wrong type or form, or a key its kind does not read,
    raises ConfigInvalidError.
    """
    if not isinstance(spec, dict):
        raise ConfigInvalidError(f"sequence must be a JSON object, not {type(spec).__name__}")
    return coerce(_sequence_from_spec, spec, "sequence")


def _sequence_from_spec(spec: dict) -> NodeSequence:
    kind = spec.get("kind")
    reads = {"affine": ("alpha", "beta"), "periodic": ("offsets", "period"),
             "explicit": ("nodes", "index_range")}
    if not isinstance(kind, str) or kind not in reads:
        raise BadParameterError(f"unknown sequence kind {kind!r}")
    for key in spec:
        if key not in ("kind", *reads[kind]):
            raise ConfigInvalidError(f"sequence key {key!r} is not read by kind {kind!r}")
    if kind == "affine":
        return AffineGrid(spec.get("alpha", 1.0), spec.get("beta", 0.0))
    if kind == "periodic":
        offsets = spec.get("offsets")
        if offsets is None:
            raise BadParameterError("periodic spec needs 'offsets'")
        period = spec.get("period")
        if period is not None and whole(period, "period", error=ConfigInvalidError) != len(offsets):
            raise BadParameterError(f"period {period} does not match {len(offsets)} offsets")
        return PeriodicPerturbation(offsets)
    nodes = spec.get("nodes")
    if nodes is None:
        raise BadParameterError("explicit spec needs 'nodes'")
    rng = spec.get("index_range")
    lo, hi = (0, len(nodes) - 1) if rng is None else wholes(
        rng, "index_range", error=ConfigInvalidError)
    if hi - lo + 1 != len(nodes):
        raise BadParameterError("index_range does not match node count")
    return ExplicitWindow(nodes, lo)


def check_separation(seq: NodeSequence):
    """Smallest gap between adjacent nodes.

    Returns ``(min_gap, separated)`` where ``separated`` means the gap is
    strictly positive.  For periodic and affine models the value is exact
    (gaps repeat); for explicit windows it is the minimum over the window.
    Quantitative margins are left to the caller: the raw gap is reported.
    """
    if isinstance(seq, AffineGrid):
        return float(seq.alpha), True
    # a periodic model needs one period and the step across its end
    lam = seq.positions((0, seq.period) if isinstance(seq, PeriodicPerturbation) else None)
    if len(lam) < 2:
        raise EmptyWindowError("separation needs at least two nodes")
    gap = float(np.min(np.diff(lam)))
    return gap, gap > 0.0


@dataclass(frozen=True)
class Enumeration:
    """Enumeration lambda_n = n + delta_n found for a sequence window.

    ``offset`` is the integer re-indexing applied to the stored indices,
    ``start_index`` the first canonical index, and ``deltas[i]`` the delta
    of canonical index ``start_index + i``.
    """

    offset: int
    start_index: int
    deltas: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.deltas)))


def _best_offset(indices, lam):
    """Integer offset k minimizing sup |lam - (indices + k)|.

    The sup is convex in k, smallest at the mid-range of lam - indices, so
    the floor of the mid-range and the next integer are the only candidates
    and the better is the global optimum; ties prefer small |k| within 1e-15.
    """
    r = lam - indices
    mid = int(np.floor((np.max(r) + np.min(r)) / 2.0))
    first, second = sorted((mid, mid + 1), key=lambda k: (abs(k), k))
    sup_first = float(np.max(np.abs(lam - (indices + first))))
    sup_second = float(np.max(np.abs(lam - (indices + second))))
    if sup_second < sup_first - 1e-15:
        return second, sup_second
    return first, sup_first


def _unit_offsets(seq: NodeSequence):
    """Offsets over one period where the positions of ``seq`` are n +
    offsets[n mod P], else None: a periodic model's own, and (beta,) for a
    grid of slope 1."""
    if isinstance(seq, PeriodicPerturbation):
        return seq.offsets
    return (float(seq.beta),) if isinstance(seq, AffineGrid) and seq.alpha == 1.0 else None


def canonical_enumeration(seq: NodeSequence, bound: float, window=None) -> Optional[Enumeration]:
    """Find an enumeration lambda_n = n + delta_n with sup|delta| <= bound.

    The only code that knows how each model is enumerated.  The integer
    re-indexing k minimizing sup|delta_n| is returned, or None when it misses
    the bound (a number > 0, or +inf).  k is closed form, the rounded
    mid-range of lambda_n - n, so the cost is O(n).  Periodic models read k
    exactly from one period of offsets; a unit-slope grid is the periodic
    sequence (beta,), and any other slope has no bounded enumeration (None).
    Explicit windows read k from the window.  ``window`` (by default one
    period, or the stored range) and ``deltas`` are in stored indices for
    every model, with ``start_index`` = lo + k, so the enumeration does not
    depend on how the window is numbered.  Re-running on an already
    canonical window returns offset 0 and identical deltas.
    """
    if not (isinstance(bound, float) and bound == np.inf):  # the exact models pass +inf
        real(bound, "bound", gt=0)
    offsets = _unit_offsets(seq)
    if offsets is not None:  # lambda_n - n over base 0, read exactly; k from one period
        offs = np.asarray(offsets)
        lo, hi = (0, len(offs) - 1) if window is None else seq._window(window)
        lam, base = offs[np.mod(np.arange(lo, hi + 1), len(offs))], 0.0
        k, sup = _best_offset(np.zeros_like(offs), offs)
    elif isinstance(seq, AffineGrid):
        return None
    else:  # lambda_n over base n; the window is its own period
        lo, hi = seq._window(window)
        lam, base = seq.positions((lo, hi)), np.arange(lo, hi + 1, dtype=float)
        k, sup = _best_offset(base, lam)
    if sup > bound:
        return None
    return Enumeration(offset=k, start_index=lo + k, deltas=lam - (base + k))


@dataclass(frozen=True)
class DensityEstimate:
    """Upper/lower Beurling density estimates.

    ``method`` is ``"exact_formula"`` for affine and periodic models and
    ``"window_sweep"`` for explicit data, in which case ``sweep`` holds one
    ``(r, d_plus, d_minus)`` row per radius and the reported values are
    those of the largest radius.  A row's d_plus is the most nodes in any
    closed window [t, t + r] over r, its d_minus the fewest over windows
    inside the data span; node x lies in the window from node y when
    x <= fl(y + r), the one rounding, so the rows are exact counts.
    ``monotone`` flags the expected trend (d_plus non-increasing, d_minus
    non-decreasing) across the sweep.
    """

    d_plus: float
    d_minus: float
    method: str
    r_values: tuple = ()
    sweep: tuple = ()
    monotone: bool = True

    def __post_init__(self):
        if self.d_minus > self.d_plus + 1e-12:
            raise BadParameterError("d_minus cannot exceed d_plus")


def _sweep_counts(nodes: np.ndarray, r: float):
    """(max, min) number of nodes in a closed window [t, t + r].

    The max is over all placements t, the min over placements inside the
    data span, x_0 <= t <= x_{n-1} - r.  Node k lies within r of node i
    when x_k <= fl(x_i + r): that one rounding is the only one, so every
    count is exact wherever x_i + r is.  With hi_i the number of nodes up
    to fl(x_i + r), the window starting at node i holds hi_i - i nodes,
    which gives the max.  Slide a window left until its left end is just
    past the nearest node x_j < t: no node joins at the left end and nodes
    only leave at the right, so the count does not rise.  The min is hence
    over the windows just past a node, hi_j - j - 1 nodes, that stay
    inside the span (hi_j < n); the window starting at x_0 holds one node
    more than the one just past it, or all n where r is the whole span.
    """
    n = len(nodes)
    hi = np.searchsorted(nodes, nodes + r, side="right")
    counts = hi - np.arange(n)
    return int(counts.max()), int((counts - 1)[hi < n].min(initial=n))


def beurling_densities(seq: NodeSequence, r_values) -> DensityEstimate:
    """Upper and lower Beurling densities.

    Affine grids have exact density 1/alpha and bounded periodic
    perturbations of the integers have density 1.  For explicit windows the
    sliding-count sweep is run at each radius in ``r_values`` (each finite,
    positive and at most half the data span), and the largest radius is
    reported.  The sweep counts nodes in closed windows [t, t + r], the
    min over placements inside the data span, with one rounding,
    fl(x_i + r): a window and a translate of it get the same densities
    wherever every x_i + r is exact in both.
    """
    if isinstance(seq, AffineGrid):
        d = 1.0 / seq.alpha
        return DensityEstimate(d, d, "exact_formula")
    if isinstance(seq, PeriodicPerturbation):
        return DensityEstimate(1.0, 1.0, "exact_formula")

    nodes = seq.positions()
    if len(nodes) < 2:
        raise WindowTooSmallError("density sweep needs at least two nodes")
    span = nodes[-1] - nodes[0]
    rs = sorted(reals(r_values, "radii", gt=0))
    if not rs:
        raise BadParameterError("radii must hold at least one radius")
    if rs[-1] > span / 2.0:
        raise WindowTooSmallError(
            f"largest radius {rs[-1]} exceeds half the data span {span / 2.0}"
        )
    sweep = []
    for r in rs:
        c_max, c_min = _sweep_counts(nodes, r)
        sweep.append((r, c_max / r, c_min / r))
    d_plus = sweep[-1][1]
    d_minus = sweep[-1][2]
    ups = [row[1] for row in sweep]
    downs = [row[2] for row in sweep]
    monotone = all(x >= y - 1e-12 for x, y in zip(ups, ups[1:])) and all(
        x <= y + 1e-12 for x, y in zip(downs, downs[1:])
    )
    return DensityEstimate(
        d_plus, d_minus, "window_sweep", tuple(rs), tuple(sweep), monotone
    )


@dataclass(frozen=True)
class AvdoninVerdict:
    """Outcome of the averaged-perturbation test.

    ``delta_sup`` is sup|delta_n| of the canonical enumeration, the smallest
    over integer re-indexings.  ``delta_star`` is the best (smallest over
    window lengths N = ``window_len``) value of sup_n of the distance from
    the mean of N consecutive deltas to one integer, the best for that N;
    the verdict passes when the sequence is separated, an enumeration
    exists, and ``delta_star < 1/2 - margin``.  ``caveat``
    distinguishes exact decisions (periodic, affine) from the finite-window
    heuristic used on explicit data.
    """

    separated: bool
    min_gap: float
    enumerable: bool
    delta_sup: float
    window_len: int
    delta_star: float
    passes: bool
    caveat: str
    margin: float

    def to_json(self) -> dict:
        return {
            "separated": self.separated,
            "min_gap": self.min_gap,
            "enumerable": self.enumerable,
            "delta_sup": None if np.isnan(self.delta_sup) else self.delta_sup,
            "best_window": {
                "N": self.window_len,
                "delta_star": None if np.isnan(self.delta_star) else self.delta_star,
            },
            "passes": self.passes,
            "caveat": self.caveat,
        }


def _window_means(deltas: np.ndarray, n: int) -> np.ndarray:
    """Means of every n consecutive deltas."""
    if n < 1 or n > len(deltas):
        raise BadParameterError(f"window length {n} not in [1, {len(deltas)}]")
    csum = np.concatenate([[0.0], np.cumsum(deltas)])
    return (csum[n:] - csum[:-n]) / n


def window_average_sup(deltas: np.ndarray, n: int) -> float:
    """sup over full windows of |mean of n consecutive deltas|; ``deltas``
    are read by ``errors.array`` and ``n`` as a whole number."""
    return float(np.max(np.abs(_window_means(array(deltas, "deltas"), whole(n, "n")))))


def _best_window(deltas: np.ndarray, n_max: int, from_integer: bool):
    """(N, sup) minimizing over N <= n_max the sup over full windows of the
    distance from the mean of N consecutive deltas to 0 or, ``from_integer``,
    to the integer nearest their mid-range, which minimizes that sup; a
    longer window wins only when better by more than 1e-15."""
    best_n, best = 1, np.inf
    for n in range(1, min(n_max, len(deltas)) + 1):
        means = _window_means(deltas, n)
        k = np.round((means.max() + means.min()) / 2.0) if from_integer else 0.0
        sup = float(np.max(np.abs(means - k)))
        if sup < best - 1e-15:
            best_n, best = n, sup
    return best_n, best


def best_window_average(deltas: np.ndarray, n_max: int):
    """(N, sup) minimizing window_average_sup over N <= n_max, a whole
    number >= 1; ``deltas`` are read by ``errors.array``."""
    return _best_window(array(deltas, "deltas"), whole(n_max, "n_max", ge=1), False)


def avdonin_verdict(seq: NodeSequence, n_max: int = 8, margin: float = 1e-9) -> AvdoninVerdict:
    """Classify a node sequence by the averaged-perturbation criterion.

    One path for every model (separation, :func:`canonical_enumeration`,
    window statistic, threshold), so a node set gets one verdict whether it
    is a periodic pattern, a unit-slope grid or an explicit window.  Each
    window length's averages are measured from the nearest integer, one
    integer per length, as re-indexing by k moves every average by k.

    Periodic and affine models: exact.  One period is enumerated, with no
    bound.  Windows of whole periods average to the mean delta, no window
    does better, so ``N = period`` and ``delta_star`` is the mean's
    distance to the nearest integer.

    Explicit window: heuristic over the stored data.  The enumeration must
    keep sup|delta| within 5; window averages are then swept for N up to
    ``n_max``, so the pattern (0.7, 0.7, 0.7, 0.7, -0.1) passes at N = 5
    with delta_star 0.46 in either form.

    ``margin`` guards the strict inequality against rounding at the
    boundary case delta_star = 1/2.  ``n_max`` not a whole number >= 1, or
    a ``margin`` that is not finite or is below 0, raises BadParameterError.
    """
    n_max = whole(n_max, "n_max", ge=1)
    real(margin, "margin", ge=0)
    min_gap, separated = check_separation(seq)
    exact = not isinstance(seq, ExplicitWindow)
    caveat = "exact" if exact else "finite_window_heuristic"
    enum = canonical_enumeration(seq, np.inf if exact else _ENUMERATION_BOUND)
    if enum is None:
        return AvdoninVerdict(
            separated, min_gap, False, np.nan, 0, np.nan, False, caveat, margin
        )
    if exact:
        mean = float(np.mean(enum.deltas))
        best_n, best = len(enum.deltas), abs(mean - round(mean))
    else:
        best_n, best = _best_window(enum.deltas, n_max, True)
    passes = separated and best < 0.5 - margin
    return AvdoninVerdict(
        separated, min_gap, True, enum.sup, best_n, best, passes, caveat, margin
    )
