import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_cis.errors import (
    BadParameterError,
    ConfigInvalidError,
    EmptyWindowError,
    NonIncreasingError,
    WindowTooSmallError,
)
from gauss_cis.experiments import half_grid
from gauss_cis.lattice import (
    AffineGrid,
    DensityEstimate,
    ExplicitWindow,
    GaussianParam,
    PeriodicPerturbation,
    avdonin_verdict,
    best_window_average,
    beurling_densities,
    build_sequence,
    canonical_enumeration,
    check_separation,
    window_average_sup,
)
from gauss_cis.lattice import _best_offset, _sweep_counts

# malformed inputs, each with the error it raises and a part of its message
_MALFORMED = {
    "window hi < lo": (lambda: AffineGrid(1.0).positions((3, 2)),
                       EmptyWindowError, "empty index window"),
    "affine beta inf": (lambda: AffineGrid(1.0, np.inf), BadParameterError, "shift must be finite"),
    "periodic no offsets": (lambda: PeriodicPerturbation(()),
                            BadParameterError, "period must be >= 1"),
    "periodic nan offset": (lambda: PeriodicPerturbation((0.1, np.nan)),
                            BadParameterError, "offsets must be finite"),
    "explicit empty": (lambda: ExplicitWindow(()), BadParameterError, "at least one node"),
    "explicit inf node": (lambda: ExplicitWindow((0.0, np.inf)),
                          BadParameterError, "nodes must be finite"),
    "spec without offsets": (lambda: build_sequence({"kind": "periodic"}),
                             BadParameterError, "needs 'offsets'"),
    "spec without nodes": (lambda: build_sequence({"kind": "explicit"}),
                           BadParameterError, "needs 'nodes'"),
    "spec unknown key": (
        lambda: build_sequence({"kind": "periodic", "offsets": [0.1], "x": np.nan}),
        ConfigInvalidError, "sequence key 'x' is not read by kind 'periodic'"),
    "spec index_range mismatch": (
        lambda: build_sequence({"kind": "explicit", "nodes": [0.0, 1.0], "index_range": [0, 5]}),
        BadParameterError, "does not match node count"),
    "densities of one node": (lambda: beurling_densities(ExplicitWindow((0.0,)), [1.0]),
                              WindowTooSmallError, "at least two nodes"),
    "window average of 0": (lambda: window_average_sup(np.zeros(4), 0),
                            BadParameterError, "window length 0"),
    "verdict n_max 0": (lambda: avdonin_verdict(PeriodicPerturbation((0.1,)), n_max=0),
                        BadParameterError, "n_max must be >= 1"),
    "verdict margin -0.1": (lambda: avdonin_verdict(PeriodicPerturbation((0.5,)), margin=-0.1),
                            BadParameterError, "margin must be finite and >= 0"),
    "verdict margin nan": (lambda: avdonin_verdict(ExplicitWindow((0.0, 1.0)), margin=np.nan),
                           BadParameterError, "margin must be finite and >= 0"),
    "verdict margin inf": (lambda: avdonin_verdict(ExplicitWindow((0.0, 1.0)), margin=np.inf),
                           BadParameterError, "margin must be finite and >= 0"),
    "verdict n_max nan": (lambda: avdonin_verdict(PeriodicPerturbation((0.1,)), n_max=np.nan),
                          BadParameterError, "n_max must be finite, got nan"),
    "verdict n_max 2.5": (lambda: avdonin_verdict(ExplicitWindow((0.0, 1.0, 2.0)), n_max=2.5),
                          BadParameterError, "n_max must be a whole number, got 2.5"),
    "enumeration bound nan": (lambda: canonical_enumeration(AffineGrid(1.0), np.nan),
                              BadParameterError, "bound must be finite and > 0, got nan"),
    "enumeration bound string": (lambda: canonical_enumeration(AffineGrid(1.0), "1"),
                                 BadParameterError, "bound must be a number, got '1'"),
    "enumeration bound true": (lambda: canonical_enumeration(AffineGrid(1.0), True),
                               BadParameterError, "bound must be a number, got True"),
    "density d_minus > d_plus": (lambda: DensityEstimate(1.0, 1.5, "window_sweep"),
                                 BadParameterError, "d_minus cannot exceed d_plus"),
    "half grid start string": (lambda: half_grid([0.1, 0.2], "1"),
                               BadParameterError, "start_index must be a number, got '1'"),
    # an infinite model has no default window
    "affine without window": (lambda: AffineGrid(1.0).positions(),
                              BadParameterError, "window is required: AffineGrid is infinite"),
    "periodic without window": (
        lambda: PeriodicPerturbation((0.1,)).positions(),
        BadParameterError, "window is required: PeriodicPerturbation is infinite"),
    "explicit start 1.5": (lambda: ExplicitWindow((0.0, 1.0), 1.5),
                           BadParameterError, "start_index must be a whole number, got 1.5"),
    "periodic string": (lambda: PeriodicPerturbation("ab"),
                        BadParameterError, "offsets must be a number, got 'a'"),
    "periodic scalar": (lambda: PeriodicPerturbation(5), BadParameterError, "offsets must be a list"),
    "decay rate true": (lambda: GaussianParam(True),
                        BadParameterError, "decay rate a must be a number, got True"),
    # a value of the wrong type in a spec is a config error, as it was when
    # the spec read it with float() and int()
    "spec slope true": (lambda: build_sequence({"kind": "affine", "alpha": True}),
                        ConfigInvalidError, r"grid slope must be a number, got True"),
    "spec period 1.5": (
        lambda: build_sequence({"kind": "periodic", "offsets": [0.1], "period": 1.5}),
        ConfigInvalidError, "period must be a whole number, got 1.5"),
    # nodes are read by errors.array: a numeric string or a bool is not a node
    "explicit string and bool nodes": (lambda: ExplicitWindow(["0.1", True, "2.1", 2.9]),
                                       BadParameterError, "nodes must be real numbers, got '0.1'"),
    "explicit bool node": (lambda: ExplicitWindow((0.0, True, 2.5)),
                           BadParameterError, "nodes must be real numbers, got True"),
    "spec string and bool nodes": (
        lambda: build_sequence({"kind": "explicit", "nodes": ["0.1", True, "2.1", 2.9]}),
        ConfigInvalidError, "nodes must be real numbers, got '0.1'"),
    # window ends are read as whole numbers, not truncated by int()
    "window end 0.5": (lambda: AffineGrid(1.0).positions((0.5, 2.9)),
                       BadParameterError, "window must be a whole number, got 0.5"),
    "window end nan": (lambda: AffineGrid(1.0).positions((0, np.nan)),
                       BadParameterError, "window must be finite, got nan"),
    "window of three ends": (lambda: AffineGrid(1.0).positions((0, 1, 2)),
                             BadParameterError, "window must be two ends, got 3"),
    "window average bool delta": (lambda: window_average_sup([0.1, True, 0.2], 2),
                                  BadParameterError, "deltas must be real numbers, got True"),
    "window average n 1.5": (lambda: window_average_sup(np.zeros(4), 1.5),
                             BadParameterError, "n must be a whole number, got 1.5"),
    "best window nan delta": (lambda: best_window_average([0.1, np.nan, 0.2], 2),
                              BadParameterError, "deltas must be finite, got nan"),
    "best window n_max 0": (lambda: best_window_average([0.1, 0.2], 0),
                            BadParameterError, "n_max must be >= 1, got 0"),
    "enumeration window 1.5": (
        lambda: canonical_enumeration(PeriodicPerturbation((0.1,)), 1.0, window=(0, 1.5)),
        BadParameterError, "window must be a whole number, got 1.5"),
}


@pytest.mark.parametrize("call, error, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_input_raises_its_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestGaussianParam:
    def test_valid(self):
        p = GaussianParam(0.5, -2.0)
        assert p.c == complex(0.5, -2.0)

    @pytest.mark.parametrize("a", [0.0, -1.0, np.nan, np.inf])
    def test_bad_decay(self, a):
        with pytest.raises(BadParameterError):
            GaussianParam(a)

    def test_bad_b(self):
        with pytest.raises(BadParameterError):
            GaussianParam(1.0, np.nan)


class TestBuildSequence:
    def test_affine(self):
        seq = build_sequence({"kind": "affine", "alpha": 1.0, "beta": 0.0})
        assert np.allclose(seq.positions((0, 3)), [0, 1, 2, 3])

    def test_periodic_non_increasing(self):
        # offsets (0.7, -0.7): lambda_0 = 0.7 > lambda_1 = 0.3
        with pytest.raises(NonIncreasingError):
            build_sequence({"kind": "periodic", "offsets": [0.7, -0.7]})

    def test_periodic_valid(self):
        seq = build_sequence({"kind": "periodic", "offsets": [0.3, -0.3]})
        assert np.allclose(seq.positions((0, 2)), [0.3, 0.7, 2.3])
        assert build_sequence({"kind": "periodic", "period": 2, "offsets": [0.3, -0.3]}) == seq

    def test_explicit_index_range(self):
        seq = build_sequence({"kind": "explicit", "nodes": [0.0, 1.5, 2.0], "index_range": [-1, 1]})
        assert seq.index_range == (-1, 1)
        assert np.array_equal(seq.positions((0, 1)), [1.5, 2.0])

    def test_explicit_duplicate_rejected(self):
        with pytest.raises(NonIncreasingError):
            build_sequence({"kind": "explicit", "nodes": [0.0, 0.0, 1.0]})

    def test_period_mismatch(self):
        with pytest.raises(BadParameterError):
            build_sequence({"kind": "periodic", "offsets": [0.1], "period": 2})

    def test_unknown_kind(self):
        with pytest.raises(BadParameterError):
            build_sequence({"kind": "random"})

    def test_bad_alpha(self):
        with pytest.raises(BadParameterError):
            build_sequence({"kind": "affine", "alpha": -2.0})


class TestSeparation:
    def test_integer_lattice(self):
        assert check_separation(AffineGrid(1.0)) == (1.0, True)

    def test_periodic_gap(self):
        gap, separated = check_separation(PeriodicPerturbation((0.3, -0.3)))
        assert separated
        assert gap == pytest.approx(0.4)

    def test_explicit_window(self):
        seq = ExplicitWindow((0.0, 0.05, 1.0))
        gap, separated = check_separation(seq)
        assert gap == pytest.approx(0.05)
        assert separated

    def test_single_node_rejected(self):
        with pytest.raises(EmptyWindowError):
            check_separation(ExplicitWindow((1.0,)))


class TestCanonicalEnumeration:
    def test_shifted_lattice(self):
        enum = canonical_enumeration(AffineGrid(1.0, 0.25), bound=1.0)
        assert enum.offset == 0
        assert np.allclose(enum.deltas, 0.25)

    def test_streched_grid_fails(self):
        enum = canonical_enumeration(AffineGrid(2.0), bound=10.0, window=(-50, 50))
        assert enum is None

    def test_periodic_already_canonical(self):
        enum = canonical_enumeration(PeriodicPerturbation((0.3, -0.3)), bound=1.0)
        assert enum.offset == 0
        assert np.allclose(enum.deltas, [0.3, -0.3])

    def test_reindexing_reduces_sup(self):
        # nodes n + 0.75 re-enumerate as (n+1) - 0.25
        nodes = tuple(n + 0.75 for n in range(12))
        enum = canonical_enumeration(ExplicitWindow(nodes), bound=0.3)
        assert enum.offset == 1
        assert np.allclose(enum.deltas, -0.25)

    def test_idempotent(self):
        nodes = tuple(n + d for n, d in zip(range(8), [0.1, -0.2, 0.3, 0.0, -0.1, 0.2, -0.3, 0.1]))
        first = canonical_enumeration(ExplicitWindow(nodes), bound=1.0)
        rebuilt = ExplicitWindow(
            tuple(n + d for n, d in zip(
                range(first.start_index, first.start_index + len(first.deltas)),
                first.deltas)),
            first.start_index,
        )
        second = canonical_enumeration(rebuilt, bound=1.0)
        assert second.offset == 0
        assert np.allclose(second.deltas, first.deltas)

    def test_bound_must_be_positive(self):
        with pytest.raises(BadParameterError):
            canonical_enumeration(AffineGrid(1.0), bound=0.0)

    def test_non_unit_slope_has_no_enumeration_even_on_a_window(self):
        assert canonical_enumeration(AffineGrid(0.95), 5.0) is None
        assert canonical_enumeration(AffineGrid(0.95), 5.0, window=(-3, 3)) is None

    def test_unit_slope_grid_is_the_one_offset_periodic_sequence(self):
        for beta in (0.25, 0.75, 1.5, -2.5, 3.2):
            grid = canonical_enumeration(AffineGrid(1.0, beta), bound=1.0)
            periodic = canonical_enumeration(PeriodicPerturbation((beta,)), bound=1.0)
            assert (grid.offset, grid.start_index) == (periodic.offset, periodic.start_index)
            assert np.array_equal(grid.deltas, periodic.deltas) and len(grid.deltas) == 1
        # at a half-integer shift the smaller |k| wins
        assert canonical_enumeration(AffineGrid(1.0, 1.5), bound=1.0).offset == 1

    def test_model_and_its_explicit_window_enumerate_alike(self):
        # deltas are in stored indices for every model: lambda at stored
        # index lo + i is start_index + i + deltas[i], also where k is not a
        # multiple of the period, as for (0.9, 0.8) with k = 1
        rng = np.random.default_rng(34)
        for _ in range(400):
            period = int(rng.integers(1, 7))
            offs = rng.uniform(-3.0, 3.0) + rng.uniform(-0.45, 0.45, period)
            seq = AffineGrid(1.0, offs[0]) if period == 1 and rng.random() < 0.5 else (
                PeriodicPerturbation(tuple(offs)))
            lo = int(rng.integers(-1000, 1001))
            window = (lo, lo + period * int(rng.integers(1, 4)) + int(rng.integers(0, period)) - 1)
            model = canonical_enumeration(seq, np.inf, window)
            data = canonical_enumeration(ExplicitWindow(seq.positions(window), lo), 1.0)
            assert (model.offset, model.start_index) == (data.offset, data.start_index)
            assert np.allclose(model.deltas, data.deltas, rtol=0.0, atol=1e-12)
        enum = canonical_enumeration(PeriodicPerturbation((0.9, 0.8)), 1.0)
        assert (enum.offset, enum.start_index) == (1, 1)
        assert np.allclose(enum.deltas, [-0.1, -0.2], rtol=0.0, atol=1e-15)


class TestBeurlingDensities:
    def test_affine_exact(self):
        est = beurling_densities(AffineGrid(0.9), [10])
        assert est.method == "exact_formula"
        assert est.d_plus == pytest.approx(1.0 / 0.9)
        assert est.d_minus == pytest.approx(1.0 / 0.9)

    def test_periodic_exact(self):
        est = beurling_densities(PeriodicPerturbation((0.45, -0.35)), [10])
        assert est.d_plus == est.d_minus == 1.0

    def test_punctured_lattice_sweep(self):
        nodes = tuple(n for n in range(-100, 101) if n != 0)
        est = beurling_densities(ExplicitWindow(nodes, -100), [50.0, 100.0])
        assert est.method == "window_sweep"
        by_r = {r: (up, down) for r, up, down in est.sweep}
        assert by_r[50.0] == pytest.approx((51 / 50, 49 / 50))
        assert by_r[100.0] == pytest.approx((100 / 100, 99 / 100))
        # one missing point washes out as r grows
        assert est.d_minus > by_r[50.0][1]
        assert est.monotone

    def test_removal_changes_at_most_count_over_r(self):
        full = tuple(range(-60, 61))
        holed = tuple(n for n in full if n not in (0, 7, -13))
        for r in (20.0, 30.0):
            e_full = beurling_densities(ExplicitWindow(full, -60), [r])
            e_holed = beurling_densities(ExplicitWindow(holed, -60), [r])
            assert abs(e_full.d_plus - e_holed.d_plus) <= 3 / r + 1e-12
            assert abs(e_full.d_minus - e_holed.d_minus) <= 3 / r + 1e-12

    def test_radius_too_large(self):
        with pytest.raises(WindowTooSmallError):
            beurling_densities(ExplicitWindow(tuple(range(10))), [6.0])

    @pytest.mark.parametrize("radii", [[np.nan], [np.inf], [-np.inf], [10.0, np.nan], [],
                                       ["a"], 5.0, None, [[1, 2]]])
    def test_radii_must_be_finite_and_positive(self, radii):
        with pytest.raises(BadParameterError):
            beurling_densities(ExplicitWindow(tuple(range(100))), radii)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_translation_by_2_to_the_40(self, seed):
        # nodes on multiples of 1/64 and their translates by 2^40 are both
        # exact doubles, so both windows hold the same counts; a nudge of a
        # small fraction of the gap falls below the spacing of doubles there
        offsets = np.random.default_rng(seed).integers(-16, 17, 401) / 64.0
        nodes = np.arange(-200, 201) + offsets
        here = beurling_densities(ExplicitWindow(nodes, -200), [25.0])
        far = beurling_densities(ExplicitWindow(nodes + 2.0**40, -200), [25.0])
        assert here.sweep == far.sweep == ((25.0, 26 / 25, 24 / 25),)


def _oracle_counts(x, r):
    """(max, min) of #{t <= x <= t + r} at every event t (a node, a node
    less r, hence both ends of the span) and midway between consecutive
    events; the min over t inside [x_0, x_{n-1} - r]."""
    events = np.unique(np.concatenate([x, x - r]))
    ts = np.concatenate([events, 0.5 * (events[:-1] + events[1:])])
    counts = np.count_nonzero((x >= ts[:, None]) & (x <= ts[:, None] + r), axis=1)
    inside = (ts >= x[0]) & (ts <= x[-1] - r)
    return int(counts.max()), int(counts[inside].min())


def _dyadic_window(gaps, q, shift, steps):
    """Nodes ``shift`` + cumulative ``gaps`` / 2^q and a radius of ``steps``
    / 2^q, at most the span, or half the span where ``steps`` is None.
    Every node, node less r and midpoint is then a double on the 2^-(q+2)
    grid below 2^41, so the oracle's sums are exact and so is fl(x_i + r)."""
    x = shift + np.concatenate([[0], np.cumsum(gaps)]) / 2.0**q
    span = x[-1] - x[0]
    return x, span / 2.0 if steps is None else min(steps / 2.0**q, span)


class TestSweepCounts:
    @given(
        gaps=st.lists(st.integers(1, 200), min_size=1, max_size=40),
        # 2^-q grids; q = 0 and 2 give exact ties x_k = x_i + r
        q=st.sampled_from([0, 2, 6]),
        shift=st.sampled_from([0.0, 2.0**40, -(2.0**40), 3.0]),
        steps=st.none() | st.integers(1, 8000),
    )
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matches_the_oracle(self, gaps, q, shift, steps):
        x, r = _dyadic_window(gaps, q, shift, steps)
        assert _sweep_counts(x, r) == _oracle_counts(x, r)

    def test_matches_the_oracle_on_seeded_windows(self):
        rng = np.random.default_rng(2026)
        for case in range(5000):
            gaps = rng.integers(1, rng.choice([3, 201]), rng.integers(1, 41))
            shift = (0.0, 2.0**40, -(2.0**40), 3.0)[case % 4]
            steps = None if case % 5 == 0 else int(rng.integers(1, 8001))
            x, r = _dyadic_window(gaps, rng.choice([0, 2, 6]), shift, steps)
            assert _sweep_counts(x, r) == _oracle_counts(x, r), (x, r)


class TestAvdoninVerdict:
    def test_integer_lattice_passes(self):
        v = avdonin_verdict(AffineGrid(1.0))
        assert v.passes and v.delta_star == 0.0 and v.caveat == "exact"

    def test_half_shift_fails_exactly(self):
        v = avdonin_verdict(AffineGrid(1.0, 0.5))
        assert not v.passes
        assert v.delta_star == pytest.approx(0.5, abs=1e-15)
        v2 = avdonin_verdict(PeriodicPerturbation((0.5,)))
        assert not v2.passes
        assert v2.delta_star == pytest.approx(0.5, abs=1e-15)

    def test_three_quarter_shift_reduces(self):
        # {n + 3/4} = {m - 1/4} after re-enumeration
        v = avdonin_verdict(AffineGrid(1.0, 0.75))
        assert v.passes
        assert v.delta_star == pytest.approx(0.25, abs=1e-15)

    def test_periodic_passes_with_period_window(self):
        v = avdonin_verdict(PeriodicPerturbation((0.45, -0.35)))
        assert v.passes
        assert v.window_len == 2
        assert v.delta_star == pytest.approx(0.05, abs=1e-15)

    def test_streched_grid_not_enumerable(self):
        v = avdonin_verdict(AffineGrid(2.0))
        assert not v.enumerable and not v.passes

    def test_large_alternating_period_four(self):
        v = avdonin_verdict(PeriodicPerturbation((0.7, -0.1, -0.7, 0.1)))
        assert v.passes
        assert v.delta_star == pytest.approx(0.0, abs=1e-15)
        assert v.delta_sup == pytest.approx(0.7)

    def test_periodic_mean_equals_bruteforce_window_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            p = int(rng.integers(1, 5))
            offs = rng.uniform(-0.2, 0.2, p)
            offs = offs - offs.mean() + rng.uniform(-0.3, 0.3)
            try:
                seq = PeriodicPerturbation(tuple(offs))
            except NonIncreasingError:
                continue
            v = avdonin_verdict(seq)
            deltas = np.asarray(seq.offsets * 8)  # long tiled window
            mean = abs(float(np.mean(offs)))
            assert v.delta_star == pytest.approx(mean, abs=1e-14)
            # no window length does better than the period mean
            for n in range(1, 4 * p + 1):
                assert window_average_sup(deltas, n) >= mean - 1e-12

    def test_shift_property(self):
        base = np.array([0.12, -0.07, 0.02, -0.05])
        for s in (-0.2, 0.1, 0.3):
            v = avdonin_verdict(PeriodicPerturbation(tuple(base + s)))
            assert v.delta_star == pytest.approx(abs(base.mean() + s), abs=1e-14)

    def test_explicit_window_heuristic(self):
        rng = np.random.default_rng(5)
        deltas = rng.uniform(-0.3, 0.3, 64)
        nodes = tuple(np.arange(64) + deltas)
        v = avdonin_verdict(ExplicitWindow(nodes), n_max=8)
        assert v.caveat == "finite_window_heuristic"
        assert v.enumerable
        # oracle: sweep window averages directly
        best = min(
            max(abs(deltas[i : i + n].mean()) for i in range(64 - n + 1))
            for n in range(1, 9)
        )
        assert v.delta_star == pytest.approx(best, abs=1e-14)

    def test_long_period_pattern_passes_past_the_enumeration_bound(self):
        # best sup|delta| is 6.0 > enumeration_bound, but the bound is for
        # explicit data only; the mean -5.85 lies 0.15 from an integer
        v = avdonin_verdict(PeriodicPerturbation(tuple(-0.9 * i for i in range(14))))
        assert v.passes and v.enumerable and v.caveat == "exact"
        assert v.window_len == 14
        assert v.delta_sup == pytest.approx(6.0, abs=1e-12)
        assert v.delta_star == pytest.approx(0.15, abs=1e-12)

    def test_three_forms_of_one_node_set_get_one_verdict(self):
        rng = np.random.default_rng(31)
        for beta in rng.uniform(-3.0, 3.0, 200):
            forms = (
                PeriodicPerturbation((beta,)),
                AffineGrid(1.0, beta),
                ExplicitWindow(tuple(np.arange(-20, 21) + beta), -20),
            )
            verdicts = [avdonin_verdict(seq) for seq in forms]
            assert len({v.passes for v in verdicts}) == 1
            stars = [v.delta_star for v in verdicts]
            assert max(stars) - min(stars) <= 1e-12
            assert stars[0] == pytest.approx(abs(beta - np.round(beta)), abs=1e-12)

    def test_pattern_averaging_past_one_half_gets_one_verdict(self):
        # window means of 5 lie at 0.54, 0.46 from the integer 1; the
        # explicit form measures them from there too, not from 0
        seq = PeriodicPerturbation((0.7, 0.7, 0.7, 0.7, -0.1))
        for form in (seq, ExplicitWindow(tuple(seq.positions((-40, 39))), -40)):
            v = avdonin_verdict(form)
            assert v.passes and v.enumerable and v.window_len == 5
            assert v.delta_star == pytest.approx(0.46, abs=1e-12)

    def test_periodic_and_explicit_forms_agree(self):
        # for N <= n_max, some N-window mean is at least as far from each
        # integer as the period mean, so whole periods are the best window
        rng = np.random.default_rng(14)
        for period in range(1, 9):
            for _ in range(25):
                seq = PeriodicPerturbation(tuple(rng.uniform(0.0, 0.95, period)))
                exact = avdonin_verdict(seq)
                window = avdonin_verdict(ExplicitWindow(tuple(seq.positions((-40, 39))), -40))
                assert window.passes == exact.passes
                assert window.delta_star == pytest.approx(exact.delta_star, abs=1e-12)

    def test_explicit_window_without_enumeration(self):
        # a stretched grid drifts past the enumeration bound within the window
        n = np.arange(-100, 100)
        v = avdonin_verdict(ExplicitWindow(tuple(1.1 * n), -100))
        assert v.separated and not v.enumerable and not v.passes
        data = v.to_json()
        assert data["enumerable"] is False and data["passes"] is False
        assert data["delta_sup"] is None and data["best_window"]["delta_star"] is None

    def test_offsets_past_one_half_re_enumerate(self):
        v = avdonin_verdict(PeriodicPerturbation((0.75,)))
        assert v.passes and v.delta_star == pytest.approx(0.25, abs=1e-15)
        assert v.delta_sup == pytest.approx(0.25, abs=1e-15)
        v = avdonin_verdict(PeriodicPerturbation((0.9, 1.1)))
        assert v.passes and v.delta_star == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        shift=st.floats(-0.5, 0.5),
        wobble=st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=8),
        j=st.sampled_from([-2, -1, 1, 3]),
    )
    def test_integer_shift_of_every_offset_leaves_the_verdict(self, shift, wobble, j):
        # offsets within 0.45 of a common shift always give an increasing
        # sequence; adding j to each one only re-indexes it
        offsets = np.asarray(wobble) + shift
        base = avdonin_verdict(PeriodicPerturbation(tuple(offsets)))
        moved = avdonin_verdict(PeriodicPerturbation(tuple(offsets + j)))
        assert moved.passes == base.passes
        assert moved.window_len == base.window_len
        assert moved.delta_star == pytest.approx(base.delta_star, abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 64),
        start=st.integers(-10**6, 10**6),
    )
    def test_verdict_does_not_depend_on_the_numbering(self, seed, n, start):
        # one node set, stored from two start indices, is one set
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(-50, 51)) + np.arange(n) + rng.uniform(-0.45, 0.45, n)
        moved = ExplicitWindow(nodes, start)
        assert avdonin_verdict(moved) == avdonin_verdict(ExplicitWindow(nodes, 0))
        enum = canonical_enumeration(moved, 5.0)
        rebuilt = enum.start_index + np.arange(n) + enum.deltas
        assert np.allclose(rebuilt, nodes, rtol=0.0, atol=1e-9)

    def test_verdict_json_fields(self):
        v = avdonin_verdict(PeriodicPerturbation((0.45, -0.35)))
        data = v.to_json()
        assert set(data) == {
            "separated", "min_gap", "enumerable", "delta_sup", "best_window",
            "passes", "caveat",
        }
        assert data["best_window"]["N"] == 2


def test_window_average_sup_against_loops():
    deltas = np.array([0.4, -0.1, 0.3, 0.2, -0.5, 0.0, 0.1])
    for n in range(1, 8):
        expected = max(
            abs(sum(deltas[i : i + n]) / n) for i in range(len(deltas) - n + 1)
        )
        assert window_average_sup(deltas, n) == pytest.approx(expected, abs=1e-15)


# -- the closed-form offset against the scan it replaced ---------------------

def _scan_best_offset(indices, lam, k_range):
    """Reference: try every offset, ties preferring small |k|."""
    best = None
    for k in sorted(k_range, key=lambda k: (abs(k), k)):
        sup = float(np.max(np.abs(lam - (indices + k))))
        if best is None or sup < best[1] - 1e-15:
            best = (k, sup)
    return best


def _random_residuals(rng, n):
    """lambda_n - n with a shift of up to 20, on a dyadic grid half the time
    so that mid-ranges tie exactly."""
    shift = rng.choice([0.0, rng.uniform(-3, 3), rng.integers(-40, 40) / 2.0])
    if rng.random() < 0.5:
        return shift + rng.integers(-3, 4, n) / 8.0
    return shift + rng.uniform(-0.45, 0.45, n)


def _around_optimum(residuals, extra=1):
    """Offsets from ``extra`` below the least residual to ``extra`` above the
    largest: the sup is convex, smallest at the residuals' mid-range, so the
    best integer offset lies inside."""
    return range(int(np.floor(residuals.min())) - extra, int(np.ceil(residuals.max())) + extra + 1)


class TestClosedFormOffset:
    def test_matches_scan_on_explicit_windows(self):
        rng = np.random.default_rng(7)
        for _ in range(1500):
            n = int(rng.integers(1, 40))
            start = int(rng.integers(-50, 50))
            indices = np.arange(start, start + n, dtype=float)
            stretch = 1.0 if rng.random() < 0.7 else 1.1
            lam = stretch * indices + _random_residuals(rng, n)
            seq = ExplicitWindow(tuple(lam), start)
            k, sup = _scan_best_offset(indices, lam, _around_optimum(lam - indices))
            enum = canonical_enumeration(seq, 1e9)
            assert enum.offset == k
            assert enum.sup == sup
            assert np.array_equal(enum.deltas, lam - (indices + k))

    def test_matches_scan_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(4000):
            n = int(rng.integers(1, 30))
            indices = np.arange(n, dtype=float) + int(rng.integers(-20, 20))
            lam = indices + _random_residuals(rng, n)
            k_range = _around_optimum(lam - indices, int(rng.integers(0, 12)))
            assert _best_offset(indices, lam) == _scan_best_offset(indices, lam, k_range)

    def test_matches_scan_on_periodic_offsets(self):
        rng = np.random.default_rng(13)
        for _ in range(1500):
            offs = _random_residuals(rng, int(rng.integers(1, 9)))
            seq = PeriodicPerturbation(tuple(offs))
            offs = np.asarray(seq.offsets)
            k, sup = _scan_best_offset(np.zeros_like(offs), offs, _around_optimum(offs))
            enum = canonical_enumeration(seq, 1e9)
            assert (enum.offset, float(np.max(np.abs(enum.deltas)))) == (k, sup)

    def test_explicit_window_stores_a_read_only_array(self):
        seq = ExplicitWindow([0.0, 1.5, 2.0], -1)
        assert seq.nodes.dtype == np.float64 and not seq.nodes.flags.writeable
        assert seq == ExplicitWindow((0.0, 1.5, 2.0), -1)
        assert seq != ExplicitWindow((0.0, 1.5, 2.0), 0)
        assert seq != ExplicitWindow((0.0, 1.5, 2.5), -1)
        assert len({seq, ExplicitWindow(np.array([0.0, 1.5, 2.0]), -1)}) == 1
        assert seq.__eq__((0.0, 1.5, 2.0)) is NotImplemented and seq != (0.0, 1.5, 2.0)
        assert np.array_equal(seq.positions((-1, 0)), [0.0, 1.5])

    def test_long_explicit_window_is_classified_in_linear_time(self):
        rng = np.random.default_rng(4)
        n = 16384
        idx = np.arange(-(n // 2), n - n // 2)
        seq = ExplicitWindow(tuple(idx + rng.uniform(-0.3, 0.3, n)), int(idx[0]))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            verdict = avdonin_verdict(seq)
            times.append(time.perf_counter() - start)
        assert verdict.passes
        assert min(times) < 0.1
