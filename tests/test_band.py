"""The band solver (``gauss_cis.band``) against dense references: its band
builders, starts, deciding routines, bracket loop and certificate."""

import inspect
import json
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_cis import band as solver
from gauss_cis import gauss_space
from gauss_cis.gauss_space import collocation_matrix, frame_bounds
from gauss_cis.lattice import (
    AffineGrid,
    ExplicitWindow,
    GaussianParam,
    PeriodicPerturbation,
    canonical_enumeration,
)

A1 = GaussianParam(1.0)


def _section(c, seq, m, interior_fraction, edge_margin, orientation, tol=1e-14):
    """The interior section frame_bounds takes singular values of, with the
    node positions, columns and buffer the band solver takes for it."""
    mat = collocation_matrix(c, seq, (-m, m), tol)
    lam, cols = mat.node_positions, mat.col_indices.astype(float)
    cutoff = interior_fraction * min(abs(lam[0]), abs(lam[-1])) - edge_margin
    if orientation == "interior_rows":
        keep = np.abs(lam) <= cutoff
        return mat.entries[keep, :], lam[keep], cols, mat.buffer
    keep = np.abs(cols) <= cutoff
    return mat.entries[:, keep], lam, cols[keep], mat.buffer


def _first_index(seq, m, lam):
    """The node index of ``lam[0]`` among the nodes -m ... m of ``seq``."""
    return -m + int(np.searchsorted(seq.positions((-m, m)), lam[0]))


def _inside(value, bracket):
    return bracket[0] <= value <= bracket[1]


PATTERN = (0.7, -0.1, -0.7, 0.1)


class TestFrameBoundSolver:
    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("orientation", ["interior_rows", "interior_cols"])
    @pytest.mark.parametrize("seq", [
        PeriodicPerturbation((0.3,)),
        PeriodicPerturbation((0.45, -0.35)),
        AffineGrid(1.0),
    ], ids=repr)
    def test_matches_complex_svd(self, seq, orientation, b):
        c = GaussianParam(1.0, b)
        sizes = (16, 64, 256)
        report = frame_bounds(c, seq, sizes, orientation=orientation)
        for m, e in zip(sizes, report.entries):
            sub = _section(c, seq, m, 2.0 / 3.0, 0.0, orientation)[0]
            s = np.linalg.svd(sub.astype(complex), compute_uv=False)
            assert (e.n_rows < e.n_cols) == (orientation == "interior_rows")
            assert e.sigma_min == pytest.approx(s[-1], rel=1e-9)
            assert e.sigma_max == pytest.approx(s[0], rel=1e-9)

    @pytest.mark.parametrize("m, sigma_min, sigma_max", [
        # dense complex SVD of the same sections
        (512, 0.0014568878348403661, 1.7722662798521855),
        (1024, 0.0007264056551674061, 1.7722694475038014),
    ])
    def test_critical_shift_matches_dense_reference(self, m, sigma_min, sigma_max):
        e, = frame_bounds(A1, PeriodicPerturbation((0.5,)), (m,),
                          interior_fraction=1.0, edge_margin=3.0).entries
        assert e.sigma_min == pytest.approx(sigma_min, rel=1e-8)
        assert e.sigma_max == pytest.approx(sigma_max, rel=1e-8)

    def test_entry_records_tail_bound(self):
        seq = PeriodicPerturbation((0.3,))
        report = frame_bounds(A1, seq, (16, 32))
        for e, row in zip(report.entries, report.to_json()["entries"]):
            assert e.tail_bound == collocation_matrix(A1, seq, (-e.size, e.size), 1e-14).tail_bound
            assert row["tail_bound"] == e.tail_bound


class TestBandSolver:
    """The banded Gram bisection against the dense SVD of the same section."""

    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("orientation", ["interior_rows", "interior_cols"])
    @pytest.mark.parametrize("seq", [
        PeriodicPerturbation((0.5,)),
        PeriodicPerturbation((0.45, -0.35)),
        PeriodicPerturbation((0.7, -0.1, -0.7, 0.1)),
    ], ids=repr)
    def test_matches_svd(self, seq, orientation, b):
        c = GaussianParam(1.0, b)
        for m in (48, 200):
            sub, lam, cols, buffer = _section(c, seq, m, 1.0, 3.0, orientation)
            s = np.linalg.svd(sub, compute_uv=False)
            values, lo, hi, _ = solver._extreme_singular_values(c, lam, cols, buffer)
            assert values[0] == pytest.approx(s[-1], rel=1e-9)
            assert values[1] == pytest.approx(s[0], rel=1e-9)
            assert np.all(lo <= s[[-1, 0]]) and np.all(s[[-1, 0]] <= hi)

    def test_matches_svd_at_m_1024(self):
        seq = PeriodicPerturbation((0.5,))
        sub, lam, cols, buffer = _section(A1, seq, 1024, 1.0, 3.0, "interior_rows")
        s = np.linalg.svd(sub, compute_uv=False)
        e, = frame_bounds(A1, seq, (1024,), interior_fraction=1.0, edge_margin=3.0).entries
        assert e.solver == "band" and (e.n_rows, e.n_cols) == sub.shape
        assert e.sigma_min == pytest.approx(s[-1], rel=1e-9)
        assert e.sigma_max == pytest.approx(s[0], rel=1e-9)
        # forming the Gram matrix costs eps * kappa^2 here, more than the
        # bisection width, so only the certified radius keeps s inside
        assert _inside(s[-1], e.sigma_min_bracket) and _inside(s[0], e.sigma_max_bracket)

    @pytest.mark.parametrize("b", [0.0, 1.5])
    @pytest.mark.parametrize("alpha, orientation, size, tall", [
        (0.75, "interior_cols", 320, True),    # Gram of the columns, A^H A
        (4.0 / 3.0, "interior_rows", 256, False),    # Gram of the rows, A A^H
    ])
    def test_rational_grids_use_the_smaller_side(self, alpha, orientation, size, tall, b):
        c, seq = GaussianParam(1.0, b), AffineGrid(alpha)
        sub, *_ = _section(c, seq, size, 2.0 / 3.0, 0.0, orientation)
        s = np.linalg.svd(sub, compute_uv=False)
        e, = frame_bounds(c, seq, (size,), orientation=orientation).entries
        assert e.solver == "band" and (e.n_rows > e.n_cols) == tall
        assert min(e.n_rows, e.n_cols) > gauss_space._DENSE_MAX
        assert e.sigma_min == pytest.approx(s[-1], rel=1e-9)
        assert e.sigma_max == pytest.approx(s[0], rel=1e-9)

    @given(
        offsets=st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=6),
        b=st.sampled_from([0.0, 2.0]),
        orientation=st.sampled_from(["interior_rows", "interior_cols"]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_brackets_contain_svd_values(self, offsets, b, orientation):
        # a wide section keeps every row's band and is built from one
        # period; a tall one lacks nodes near its outer columns, and at
        # about 75 columns has no room for the central block's model
        c, seq = GaussianParam(1.0, b), PeriodicPerturbation(tuple(offsets))
        sub, lam, cols, buffer = _section(c, seq, 40, 1.0, 3.0, orientation)
        s = np.linalg.svd(sub, compute_uv=False)
        period = (seq.offsets, _first_index(seq, 40, lam))
        values, lo, hi, diagnostics = solver._extreme_singular_values(c, lam, cols, buffer,
                                                                           period)
        wide = orientation == "interior_rows"
        assert diagnostics["start"][1] == ("symbol" if wide else "diagonal")
        assert diagnostics["decided_by"] == ("reduction" if wide else "twisted")
        for k, exact in enumerate(s[[-1, 0]]):
            assert lo[k] <= exact <= hi[k]
            assert lo[k] <= values[k] <= hi[k]

    def test_repeat_calls_are_bitwise_equal(self):
        c, seq = GaussianParam(1.0, 2.0), PeriodicPerturbation((0.7, -0.1, -0.7, 0.1))
        first, second = (frame_bounds(c, seq, (200, 300)) for _ in range(2))
        assert [e.solver for e in first.entries] == ["band", "band"]
        assert first == second

    def test_entries_record_solver_and_brackets(self):
        seq = PeriodicPerturbation((0.3,))
        report = frame_bounds(A1, seq, (64, 256))
        assert [e.solver for e in report.entries] == ["svd", "band"]
        rows = json.loads(json.dumps(report.to_json()))["entries"]
        for e, row in zip(report.entries, rows):
            assert _inside(e.sigma_min, e.sigma_min_bracket)
            assert _inside(e.sigma_max, e.sigma_max_bracket)
            assert e.sigma_min_bracket[0] < e.sigma_min_bracket[1]
            assert row["solver"] == e.solver
            assert row["sigma_min_bracket"] == list(e.sigma_min_bracket)
            assert row["sigma_max_bracket"] == list(e.sigma_max_bracket)
            band_keys = ("sweeps", "half_bandwidth", "start", "model_estimate", "stop",
                         "below_resolution", "decided_by", "levels", "radius")
            if e.solver == "band":
                # a periodic section of 0.3 shifted nodes is decided by reduction
                assert row["decided_by"] == e.decided_by == "reduction"
                assert row["levels"] == e.levels > 0
                assert row["sweeps"] == e.sweeps > 0
                assert row["half_bandwidth"] == e.half_bandwidth > 0
                assert row["start"] == list(e.start)
                assert set(e.start) <= {"symbol", "model", "diagonal"}
                # a modelled side records the sigma^2 it started from
                assert row["model_estimate"] == list(e.model_estimate)
                assert [x is None for x in e.model_estimate] == [s == "diagonal" for s in e.start]
                assert row["stop"] == list(e.stop) and set(e.stop) <= {"width", "resolution"}
                assert row["below_resolution"] is e.below_resolution is False
                # the rounding radius's formation, trim and factoring terms
                assert row["radius"] == list(e.radius) and len(e.radius) == 3
                assert min(e.radius) >= 0.0 and e.radius[0] > 0.0 and e.radius[2] > 0.0
            else:
                assert not set(band_keys) & set(row)

    def test_dense_svd_up_to_128_rows(self):
        critical = PeriodicPerturbation((0.5,))
        svd, band = frame_bounds(A1, critical, (64, 96), interior_fraction=1.0,
                                 edge_margin=3.0).entries
        assert (svd.solver, svd.n_rows) == ("svd", 122)
        assert (band.solver, band.n_rows) == ("band", 186)

    @pytest.mark.parametrize("orientation", ["interior_rows", "interior_cols"])
    @pytest.mark.parametrize("seq, b, m", [
        (PeriodicPerturbation((0.5,)), 0.0, 96),
        (PeriodicPerturbation((0.5,)), 0.0, 128),
        (PeriodicPerturbation((0.5,)), 2.0, 96),
        (PeriodicPerturbation(PATTERN), 0.0, 96),
        (PeriodicPerturbation(PATTERN), 2.0, 96),
        (PeriodicPerturbation(PATTERN), 2.0, 128),
        (AffineGrid(0.75), 0.0, 96),
        (AffineGrid(4.0 / 3.0), 0.0, 96),
    ], ids=repr)
    def test_band_sections_just_above_the_cutoff(self, seq, b, m, orientation):
        # the band solver's smallest sections: min side 129 to 256
        c = GaussianParam(1.0, b)
        sub, *_ = _section(c, seq, m, 1.0, 3.0, orientation)
        s = np.linalg.svd(sub, compute_uv=False)
        e, = frame_bounds(c, seq, (m,), interior_fraction=1.0, edge_margin=3.0,
                          orientation=orientation).entries
        assert e.solver == "band" and (e.n_rows, e.n_cols) == sub.shape
        assert gauss_space._DENSE_MAX < min(sub.shape) <= 256
        assert _inside(s[-1], e.sigma_min_bracket) and _inside(s[0], e.sigma_max_bracket)
        assert e.sigma_max == pytest.approx(s[0], rel=1e-9)
        # a grid trimmed on its denser side leaves columns (or rows) it does
        # not sample, so sigma_min is about 0 and only its bracket is certain
        by_rows = orientation == "interior_rows"
        deficient = isinstance(seq, AffineGrid) and (seq.alpha < 1.0) == by_rows
        assert e.below_resolution is deficient
        if not deficient:
            assert e.sigma_min == pytest.approx(s[-1], rel=1e-9)

    def test_critical_shift_at_m_4096(self):
        e, = frame_bounds(A1, PeriodicPerturbation((0.5,)), (4096,)).entries
        assert e.solver == "band" and e.n_rows == 5460
        # the banded-Gram scratch computation this solver was designed from
        assert e.sigma_min == pytest.approx(2.7169427262e-4, rel=1e-8)
        assert _inside(e.sigma_min, e.sigma_min_bracket)


def _forward_windows(diags, nb):
    """Windows of three nb-row blocks from the first row, consecutive ones
    sharing one block, the last zero-padded; returns them and their sizes."""
    n = len(diags[0])
    span, step = 3 * nb, 2 * nb
    count = 1 + max(0, -(-(n - span) // step))
    rows = np.arange(count)[:, None] * step + np.arange(span)
    wins = np.zeros((count, span, span), dtype=np.result_type(*diags))
    for d, g in enumerate(diags[:span]):
        r = np.arange(span - d)
        i = rows[:, : span - d]
        v = np.where(i < n - d, g[np.minimum(i, n - d - 1)], 0.0)
        wins[:, r, r + d] = v
        wins[:, r + d, r] = v.conj()
    return wins, np.minimum(span, n - rows[:, 0])


def _forward_definite(wins, sizes, nb, shifts, signs):
    """Whether sign * (G - shift I) has a Cholesky factor, from one forward
    block Cholesky sweep over ``_forward_windows``: the oracle for the
    twisted sweep."""
    ok = np.ones(len(shifts), dtype=bool)
    for k, (shift, sign) in enumerate(zip(shifts, signs)):
        carry = None
        for win, size in zip(wins, sizes):
            mat = sign * (win[:size, :size] - shift * np.eye(size))
            if carry is not None:
                mat[:nb, :nb] = carry
            try:
                low = np.linalg.cholesky(mat)
            except np.linalg.LinAlgError:
                ok[k] = False
                break
            last = low[-nb:, -nb:]
            carry = last @ last.conj().T
    return ok


def _dense_gram(diags):
    """G from its band."""
    n = len(diags[0])
    gram = np.zeros((n, n), dtype=np.result_type(*diags))
    for d, g in enumerate(diags):
        gram[np.arange(d, n), np.arange(n - d)] = g.conj()
        gram[np.arange(n - d), np.arange(d, n)] = g
    return gram


def _trimmed_band(c, seq, m, orientation):
    """The trimmed Gram band the band solver takes for a section."""
    _, lam, cols, buffer = _section(c, seq, m, 1.0, 3.0, orientation)
    p, q = (lam, cols) if len(lam) <= len(cols) else (cols, lam)
    return solver._gram_band(c, p, q, buffer)[0]


def _band_rows(p, q, radius):
    """Where each row's band starts and the most entries a row keeps: row i
    keeps the columns j with p_i - radius <= q_j <= p_i + radius."""
    first = np.searchsorted(q, p - radius, "left")
    return first, int((np.searchsorted(q, p + radius, "right") - first).max())


def _take_along_diagonals(c, p, q, radius):
    """Every diagonal of the band's Gram matrix, from a ``take_along_axis``
    gather on the unpadded band: a second oracle for ``_gram_band``."""
    first, width = _band_rows(p, q, radius)
    kept = np.searchsorted(q, p + radius, "right") - first
    t = np.arange(width)
    cols = first[:, None] + t
    band = np.where(t < kept[:, None],
                    solver._entries(c, p[:, None], q[np.minimum(cols, len(q) - 1)]), 0.0)
    diags = [np.sum(band * band.conj(), axis=1).real]
    for d in range(1, len(p)):
        shift = first[d:] - first[:-d]
        if shift.min() >= width:
            break
        idx = shift[:, None] + t
        mine = np.take_along_axis(band[:-d], np.minimum(idx, width - 1), axis=1)
        diags.append(np.sum(np.where(idx < width, mine, 0.0) * band[d:].conj(), axis=1))
    return diags


class TestGramBand:
    """The Gram band against a dense B B^H built from ``_entries``."""

    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("seq, orientation, m", [
        (PeriodicPerturbation(PATTERN), "interior_rows", 200),    # wide: A A^H
        (PeriodicPerturbation(PATTERN), "interior_cols", 200),    # tall: A^H A
        (AffineGrid(0.75), "interior_cols", 200),
        (AffineGrid(4.0 / 3.0), "interior_rows", 200),
        # large enough that numpy may reuse a temporary of the product
        (PeriodicPerturbation(PATTERN), "interior_rows", 512),
    ], ids=repr)
    def test_diagonals_match_the_dense_product(self, monkeypatch, seq, orientation, m, b):
        c = GaussianParam(1.0, b)
        _, lam, cols, buffer = _section(c, seq, m, 1.0, 3.0, orientation)
        p, q = (lam, cols) if len(lam) <= len(cols) else (cols, lam)
        diags, width, norms, top, dropped = solver._gram_band(c, p, q, buffer)
        first, band_width = _band_rows(p, q, buffer)
        assert width == band_width
        n = len(p)
        inside = (q >= p[:, None] - buffer) & (q <= p[:, None] + buffer)
        dense = np.where(inside, solver._entries(c, p[:, None], q[None, :]), 0.0)
        mag = np.abs(dense)
        assert norms == pytest.approx(mag.sum(axis=1).max() * mag.sum(axis=0).max(), rel=1e-14)
        # the dense rows' products summed over row i + d's band, in column
        # order, are the band's sums term for term; at b != 0 numpy may
        # order a complex product's operands either way, which moves the
        # fused rounding by an ulp
        padded = np.concatenate([dense, np.zeros((n, width))], axis=1)
        full = np.zeros((n, n), dtype=dense.dtype)
        for d in range(n):
            rows = np.arange(n - d)[:, None]
            window = first[d:, None] + np.arange(width)
            full[rows[:, 0], rows[:, 0] + d] = np.sum(
                padded[rows, window] * padded[rows + d, window].conj(), axis=1)
        full += np.triu(full, 1).conj().T
        bound = 2.0 * solver._gamma(width) * (mag @ mag.T)
        assert np.all(np.abs(dense @ dense.conj().T - full) <= bound)
        oracle = _take_along_diagonals(c, p, q, buffer)
        # with no trim every diagonal up to the last nonzero one is kept,
        # those whose rows' bands only partly meet too
        monkeypatch.setattr(solver, "_TRIM_RTOL", 0.0)
        untrimmed = solver._gram_band(c, p, q, buffer)[0]
        assert len(diags) < len(untrimmed) <= len(oracle)
        assert all(np.array_equal(g, h) for g, h in zip(diags, untrimmed))
        for d, g in enumerate(untrimmed):
            assert np.array_equal(g, oracle[d])
            if b == 0.0:
                assert np.array_equal(g, np.diagonal(full, d))
            else:
                assert np.all(np.abs(g - np.diagonal(full, d)) <= np.diagonal(bound, d))
        assert not any(g.any() for g in oracle[len(untrimmed):])
        assert not np.triu(full, len(untrimmed)).any()
        # the trim: a Gershgorin bound and dropped row sums of the dense matrix
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        assert top == pytest.approx(np.abs(full).sum(axis=1).max(), rel=1e-14)
        outer = np.where(offset >= len(diags), np.abs(full), 0.0).sum(axis=1)
        assert dropped == pytest.approx(outer.max(), rel=1e-13, abs=1e-300)
        assert dropped <= np.finfo(float).eps * top

    @pytest.mark.parametrize("seed", range(8))
    def test_trim_equals_the_sequential_loop(self, seed):
        # random bands, wide and tall: the Gershgorin bound and the trim are
        # bitwise those of the loop that adds one diagonal at a time
        rng = np.random.default_rng([seed, 26])
        cut = 0
        for _ in range(10):
            c = GaussianParam(float(rng.choice([0.25, 0.5, 1.0, 2.0])),
                              float(rng.choice([0.0, 2.0])))
            n = int(rng.integers(5, 401))
            lam = np.arange(n) + np.sort(rng.uniform(-0.45, 0.45, n))
            buffer = int(np.ceil(np.sqrt(2.0 * np.log(1e14) / c.a)))
            cols = np.arange(np.floor(lam[0]) - int(rng.integers(0, buffer + 1)),
                             np.ceil(lam[-1]) + int(rng.integers(0, buffer + 1)) + 1)
            inner = slice(n // 4, 3 * n // 4 + 1)
            p, q = (lam[inner], cols) if rng.random() < 0.5 else (cols[inner], lam)
            diags, _, _, top, dropped = solver._gram_band(c, p, q, buffer)
            keep, loop_top, loop_dropped = _sequential_trim(_take_along_diagonals(c, p, q, buffer))
            assert (len(diags), top, dropped) == (keep, loop_top, loop_dropped)
            cut += loop_dropped > 0.0
        assert cut > 0


def _sequential_trim(diags):
    """The trim as a loop over the untrimmed ``diags``: row sums added from
    the main diagonal out, then the outer diagonals' row sums added from
    the outermost in while their largest stays within ``_TRIM_RTOL`` of
    the Gershgorin bound.  Returns the diagonals kept, the bound and the
    largest dropped row sum."""
    rowsum = np.abs(diags[0])
    for d, g in enumerate(diags[1:], 1):
        rowsum[:-d] += np.abs(g)
        rowsum[d:] += np.abs(g)
    top = float(rowsum.max())
    dropped = np.zeros(len(diags[0]))
    keep = len(diags)
    while keep > 1:
        d = keep - 1
        trial = dropped.copy()
        trial[:-d] += np.abs(diags[d])
        trial[d:] += np.abs(diags[d])
        if trial.max() > solver._TRIM_RTOL * top:
            break
        dropped, keep = trial, d
    return keep, top, float(dropped.max())


def _one_period_section(c, seq, m, interior_fraction, edge_margin, orientation):
    """A periodic section's Gram side p, other side q, buffer, and its
    band as ``_band`` builds it (``_Band``)."""
    _, lam, cols, buffer = _section(c, seq, m, interior_fraction, edge_margin, orientation)
    band = solver._band(c, lam, cols, buffer, (seq.offsets, _first_index(seq, m, lam)))
    p, q = (lam, cols) if len(lam) <= len(cols) else (cols, lam)
    return p, q, buffer, band


class TestOnePeriodBand:
    """A periodic section's band from one period against the generic build."""

    @pytest.mark.parametrize("seed", [None, *range(6)])
    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("orientation, trim", [("interior_rows", (1.0, 3.0)),
                                                   ("interior_cols", (2.0 / 3.0, 0.0))])
    def test_matches_the_generic_band(self, seed, b, orientation, trim):
        # seed None: the critical shift; else offsets on a 1/1024 grid.
        # Both keep every position exact, so the two builds differ only in
        # how a sum is rounded, and at the critical shift not at all
        if seed is None:
            offsets, m = (0.5,), 300
        else:
            rng = np.random.default_rng([seed, 19])
            offsets = tuple(np.sort(rng.integers(-400, 400, int(rng.integers(1, 9)))) / 1024.0)
            m = int(rng.integers(150, 400))
        c, seq, period = GaussianParam(1.0, b), PeriodicPerturbation(offsets), len(offsets)
        p, q, buffer, band = _one_period_section(c, seq, m, *trim, orientation)
        diags, width, norms, top, dropped = solver._gram_band(c, p, q, buffer)
        (one, one_width, one_norms, one_top, one_dropped), tail = band.gram, band.tail
        assert band.decided_by == "reduction"
        assert len(one) == len(diags) and one_width == width
        ulps = 0.0 if seed is None else 4.0 * np.finfo(float).eps * diags[0].max()
        for d, g in enumerate(diags):
            assert np.all(np.abs(one[d][np.arange(len(g)) % period] - g) <= ulps)
        assert one_norms == pytest.approx(norms, rel=1e-14)
        assert one_top == pytest.approx(top, rel=1e-14)
        assert one_dropped == pytest.approx(dropped, rel=1e-12, abs=1e-300)
        lam = p if orientation == "interior_rows" else q
        generic = solver._integer_tail(c.a, lam, np.ceil(lam - buffer), np.floor(lam + buffer))
        assert tail == pytest.approx(generic, rel=1e-12)

    def test_incomplete_edge_columns_take_the_generic_build(self):
        # trimmed to fraction 1 and margin 3, the outer kept columns lack
        # nodes within the buffer, so their Gram rows are not all alike
        c, seq = GaussianParam(1.0, 2.0), PeriodicPerturbation(PATTERN)
        band = _one_period_section(c, seq, 200, 1.0, 3.0, "interior_cols")[3]
        assert band.decided_by == "twisted"
        e, = frame_bounds(c, seq, (200,), interior_fraction=1.0, edge_margin=3.0,
                          orientation="interior_cols").entries
        assert e.solver == "band" and e.start == ("model", "model")

    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("orientation, trim", [("interior_rows", (1.0, 3.0)),
                                                   ("interior_cols", (2.0 / 3.0, 0.0))])
    def test_unit_slope_grid_is_its_periodic_form(self, b, orientation, trim):
        # n + 0.3 as a grid of slope 1 is the periodic sequence (0.3,) to
        # frame_bounds and to canonical_enumeration; slope 0.9 is neither
        c = GaussianParam(1.0, b)
        kw = dict(interior_fraction=trim[0], edge_margin=trim[1], orientation=orientation)
        grid, periodic, slanted = (frame_bounds(c, seq, (300,), **kw).entries[0] for seq in (
            AffineGrid(1.0, 0.3), PeriodicPerturbation((0.3,)), AffineGrid(0.9, 0.3)))
        assert grid.to_json() == periodic.to_json()
        assert (grid.decided_by, grid.start) == ("reduction", ("symbol", "symbol"))
        assert slanted.decided_by == "twisted"
        one, other = (canonical_enumeration(seq, 0.5) for seq in (AffineGrid(1.0, 0.3),
                                                                 PeriodicPerturbation((0.3,))))
        assert one.offset == other.offset and np.array_equal(one.deltas, other.deltas)
        assert canonical_enumeration(AffineGrid(0.9, 0.3), 0.5) is None

    def test_brackets_hold_the_positions_section(self):
        # offsets that are not binary fractions round differently at every
        # node, so the section from seq.positions() differs from the one
        # period's; the band's Weyl term covers the difference
        c, seq, m = A1, PeriodicPerturbation((0.3, 0.7)), 1024
        sub, lam, cols, buffer = _section(c, seq, m, 1.0, 3.0, "interior_rows")
        first = _first_index(seq, m, lam)
        tail = solver._band(c, lam, cols, buffer, (seq.offsets, first)).tail
        # the one-period section: node n at exactly n + its offset, which
        # differs from a column by a few units plus a binary offset here
        n = first + np.arange(len(lam))
        spacing = 2.0 ** -47
        rounded = np.round(np.array(seq.offsets) / spacing) * spacing
        near = np.subtract.outer(n, cols) + rounded[n % 2][:, None]
        one = np.where(np.abs(near) < 40.0, np.exp(-near * near), 0.0)
        assert 0.0 < np.linalg.norm(sub - one) <= tail
        s = np.linalg.svd(sub, compute_uv=False)[[-1, 0]]
        e, = frame_bounds(c, seq, (m,), interior_fraction=1.0, edge_margin=3.0).entries
        assert e.start == ("symbol", "symbol") and s[0] < 1e-3
        assert _inside(s[0], e.sigma_min_bracket) and _inside(s[1], e.sigma_max_bracket)

    def test_real_main_diagonal(self):
        # a Hermitian diagonal is real; at b != 0 the complex product left
        # imaginary parts of about 1e-17 in it
        c, seq = GaussianParam(1.0, 2.0), PeriodicPerturbation(PATTERN)
        sub, lam, cols, buffer = _section(c, seq, 200, 1.0, 3.0, "interior_rows")
        for band in (solver._gram_band(c, lam, cols, buffer)[0],
                     _one_period_section(c, seq, 200, 1.0, 3.0, "interior_rows")[3].gram[0]):
            assert band[0].dtype == float
            nb = len(band) - 1
            pairs, mid = solver._cholesky_windows(band, nb, len(lam))
            for win in (pairs, mid):
                assert np.iscomplexobj(win)
                assert not np.diagonal(win, axis1=-2, axis2=-1).imag.any()
        s = np.linalg.svd(sub, compute_uv=False)[[-1, 0]]
        e, = frame_bounds(c, seq, (200,), interior_fraction=1.0, edge_margin=3.0).entries
        assert _inside(s[0], e.sigma_min_bracket) and _inside(s[1], e.sigma_max_bracket)

    @pytest.mark.parametrize("b, sigma_min, sigma_max", [
        # the values before the main diagonal was made real
        (0.0, 0.2035119747284433, 1.8115144874788178),
        (2.0, 0.5225497937705949, 1.5472612792412597),
    ])
    def test_generic_sections_keep_their_values(self, b, sigma_min, sigma_max):
        idx = np.arange(-300, 301)
        window = ExplicitWindow(tuple(idx + np.random.default_rng(3).uniform(-0.3, 0.3, len(idx))),
                                -300)
        e, = frame_bounds(GaussianParam(1.0, b), window, (250,), interior_fraction=1.0,
                          edge_margin=3.0).entries
        assert (e.solver, e.start) == ("band", ("model", "model"))
        assert (e.sigma_min, e.sigma_max) == (sigma_min, sigma_max)


def _kept_record(c, seq, m):
    """The Gram side of a periodic section's rows, trimmed to fraction 1 and
    margin 3, and the one-period record (``_period_band``) that ``_band``
    built its band from."""
    p, _, buffer, band = _one_period_section(c, seq, m, 1.0, 3.0, "interior_rows")
    one = solver._period_band(c, seq.offsets, _first_index(seq, m, p) % len(seq.offsets),
                              buffer, True)
    # the kept record, so _band took this phase and side
    assert band.decided_by == "reduction" and band.gram is one.gram
    return p, one


class TestSymbolLaw:
    """Starts from the symbol of a periodic band."""

    def test_critical_curvature(self):
        # at a = 1 and offset 1/2 the symbol S of a row vanishes at pi, so
        # lambda_min ~ |S'(pi)|^2 (pi / (n + 1))^2, and |S'(pi)| =
        # |sum_k k e^{-(k - 1/2)^2} (-1)^k| = 0.4722219, theta_1'(0) / 2 at nome e^{-1}
        c, seq = A1, PeriodicPerturbation((0.5,))
        p, one = _kept_record(c, seq, 512)
        n = len(p)
        estimate, step = solver._symbol_law(one, n)
        assert np.sqrt(estimate[0]) * (n + 1) / np.pi == pytest.approx(0.4722219, abs=1e-7)
        k = np.arange(-40.0, 41.0)
        assert np.sqrt(estimate[0]) * (n + 1) / np.pi == pytest.approx(
            abs(np.sum(k * np.exp(-(k - 0.5) ** 2) * (-1.0) ** k)), rel=1e-9)
        assert np.all(step > 0.0)

    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.4, 0.45])
    def test_constant_shift_limit_is_the_jacobi_triple_product(self, delta):
        # a row's symbol is S(theta) = sum_k e^{-(k - delta)^2} e^{i k theta},
        # whose extremes at theta = pi and 0 are by Jacobi's triple product
        # e^{-delta^2} prod (1 - q^{2k}) (1 -+ q^{2k-1-2 delta}) (1 -+ q^{2k-1+2 delta}),
        # q = e^{-1}; at n = 10^12 the law's move is far below rounding
        c, seq = A1, PeriodicPerturbation((delta,))
        _, one = _kept_record(c, seq, 200)
        estimate, _ = solver._symbol_law(one, 10 ** 12)
        q, k = np.exp(-1.0), np.arange(1.0, 40.0)
        for value, sign in zip(np.sqrt(estimate), (-1.0, 1.0)):
            odd = sign * q ** (2.0 * k - 1.0)
            product = np.prod((1.0 - q ** (2.0 * k)) * (1.0 + odd * np.exp(2.0 * delta))
                              * (1.0 + odd * np.exp(-2.0 * delta)))
            assert value == pytest.approx(np.exp(-delta ** 2) * abs(product), rel=1e-12)
        # the sigma_min values to six digits
        assert np.sqrt(estimate[0]) == pytest.approx(
            {0.1: 0.285912, 0.3: 0.176703, 0.4: 0.0928985, 0.45: 0.0470282}[delta], rel=1e-5)

    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("offsets", [(0.5,), (0.3,), PATTERN, (0.45, -0.35)], ids=repr)
    def test_starts_bracket_the_extreme_eigenvalues(self, offsets, b):
        # the law's error scales like its move over N_b + 1; the first two
        # shifts of each side sit _LAW_STEP such units either side
        c, seq = GaussianParam(1.0, b), PeriodicPerturbation(offsets)
        p, one = _kept_record(c, seq, 200)
        estimate, step = solver._symbol_law(one, len(p))
        period = len(offsets)
        full = [g[np.arange(len(p) - d) % period] for d, g in enumerate(one.gram[0])]
        eig = np.linalg.eigvalsh(_dense_gram(full))[[0, -1]]
        assert np.all(np.abs(estimate - eig) < step)


def _ladder(c, seq, sizes, orientation):
    """``to_json`` of each size's entry, one ``frame_bounds`` call a size, in order."""
    trim = (1.0, 3.0) if orientation == "interior_rows" else (2.0 / 3.0, 0.0)
    return {m: frame_bounds(c, seq, (m,), interior_fraction=trim[0], edge_margin=trim[1],
                            orientation=orientation).entries[0].to_json() for m in sizes}


class TestPeriodBandCache:
    """One period of a periodic band and its symbol extremes, built once per
    pattern, phase, radius and side and kept across sizes and calls."""

    SIZES = (150, 201, 256, 300)

    def test_warm_cache_gives_the_cold_entries(self):
        c, seq = GaussianParam(1.0, 2.0), PeriodicPerturbation(PATTERN)
        solver._period_band.cache_clear()
        cold = _ladder(c, seq, self.SIZES, "interior_rows")
        built = solver._period_band.cache_info()
        warm = _ladder(c, seq, self.SIZES, "interior_rows")
        again = solver._period_band.cache_info()
        # every size of the second pass took a kept record, and no field moved by a bit
        assert all(e["start"] == ("symbol", "symbol") for e in cold.values())
        assert again.misses == built.misses and again.hits == built.hits + len(self.SIZES)
        assert json.dumps(warm) == json.dumps(cold)

    def test_one_call_takes_its_records_again(self):
        # the four sizes' Gram sides start at two phases of the pattern
        c, seq = GaussianParam(1.0, 2.0), PeriodicPerturbation(PATTERN)
        alone = _ladder(c, seq, self.SIZES, "interior_rows")
        solver._period_band.cache_clear()
        report = frame_bounds(c, seq, self.SIZES, interior_fraction=1.0, edge_margin=3.0)
        info = solver._period_band.cache_info()
        assert (info.misses, info.hits) == (2, len(self.SIZES) - 2)
        together = {m: e.to_json() for m, e in zip(self.SIZES, report.entries)}
        assert json.dumps(together) == json.dumps(alone)

    def test_entries_do_not_depend_on_call_order(self):
        c = GaussianParam(1.0, 2.0)
        legs = [(seq, orientation) for seq in (PeriodicPerturbation(PATTERN),
                                               PeriodicPerturbation((0.3, -0.2, 0.45)))
                for orientation in ("interior_rows", "interior_cols")]
        alone = {}
        for seq, orientation in legs:
            solver._period_band.cache_clear()
            alone[seq, orientation] = _ladder(c, seq, self.SIZES, orientation)
        # sizes descending, the two patterns interleaved, cols before rows
        solver._period_band.cache_clear()
        mixed = {key: {} for key in legs}
        for m in self.SIZES[::-1]:
            for seq, orientation in legs[::-1]:
                mixed[seq, orientation].update(_ladder(c, seq, (m,), orientation))
        assert any(e["decided_by"] == "reduction" for e in mixed[legs[1]].values())
        for key in legs:
            assert json.dumps(mixed[key], sort_keys=True) == json.dumps(alone[key], sort_keys=True)

    def test_phases_get_their_own_records(self):
        # the P rows of phase 1 are those of phase 0 shifted by one row, so
        # the diagonals turn by one entry, up to how their sums round
        one = [solver._period_band(GaussianParam(1.0, 2.0), PATTERN, phase, 8, True)
               for phase in (0, 1)]
        assert one[0] is not one[1]
        assert not np.array_equal(one[0].gram[0][1], one[1].gram[0][1])
        for g, h in zip(one[0].gram[0], one[1].gram[0]):
            assert np.allclose(np.roll(g, -1), h, rtol=1e-13, atol=0.0)
        assert solver._period_band(GaussianParam(1.0, 2.0), PATTERN, 1, 8, True) is one[1]

    def test_kept_arrays_are_read_only(self):
        one = solver._period_band(GaussianParam(1.0, 2.0), PATTERN, 0, 8, True)
        for a in (*one.gram[0], one.x, one.slack, one.value, one.curve):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_cache_keeps_its_fixed_size(self):
        held = solver._PERIOD_BANDS
        for k in range(held + 5):
            solver._period_band(A1, (0.01 * k,), 0, 8, True)
        info = solver._period_band.cache_info()
        assert info.maxsize == held and info.currsize == held


class TestFactor:
    """The one Cholesky step of both deciding routines."""

    @staticmethod
    def _stack(seed, failing=()):
        """Seeded Hermitian positive definite matrices, 4 shifts of 3 each;
        the shifts in ``failing`` get one indefinite matrix."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 3, 5, 5)) + 1j * rng.standard_normal((4, 3, 5, 5))
        mats = x @ x.conj().swapaxes(-1, -2) + 0.1 * np.eye(5)
        for k in failing:
            mats[k, 1] -= 100.0 * np.eye(5)
        return mats

    def test_a_batch_that_factors_is_indexed_whole(self):
        mats = self._stack(0)
        ok, live = np.ones(9, dtype=bool), np.array([1, 4, 5, 8])
        low, fine = solver._factor(mats, ok, live)
        # a slice, not a mask: callers index views and copy no state
        assert fine == slice(None) and ok.all()
        assert low.tobytes() == np.linalg.cholesky(mats).tobytes()

    def test_failing_shifts_leave_and_are_marked(self):
        mats = self._stack(1, failing=(1, 3))
        ok, live = np.ones(9, dtype=bool), np.array([1, 4, 5, 8])
        low, fine = solver._factor(mats, ok, live)
        assert np.array_equal(fine, [True, False, True, False])
        assert np.array_equal(np.flatnonzero(~ok), [4, 8])
        assert low.shape == (2, 3, 5, 5)
        assert np.array_equal(low, np.linalg.cholesky(mats[[0, 2]]))

    @pytest.mark.parametrize("seq", [PeriodicPerturbation(PATTERN), AffineGrid(0.9)], ids=repr)
    def test_every_cholesky_call_is_the_one_step(self, seq):
        # the reduction, the twisted sweep and their middle windows all
        # factor through _factor, which indexes a batch that factors whole
        factor, cholesky, inside, calls = solver._factor, np.linalg.cholesky, [], []

        def step(mats, ok, live):
            inside.append(True)
            try:
                low, fine = factor(mats, ok, live)
            finally:
                inside.pop()
            calls.append(fine)
            return low, fine

        def checked(mats):
            assert inside, "np.linalg.cholesky called outside _factor"
            return cholesky(mats)

        with mock.patch.object(solver, "_factor", step), \
                mock.patch.object(np.linalg, "cholesky", checked):
            e, = frame_bounds(GaussianParam(1.0, 2.0), seq, (300,)).entries
        assert e.solver == "band" and calls
        assert e.decided_by == ("reduction" if isinstance(seq, PeriodicPerturbation) else "twisted")
        assert any(isinstance(fine, slice) for fine in calls)


class TestTwistedSweep:
    """The twisted Cholesky sweep, its steering and the trimmed band."""

    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("orientation", ["interior_rows", "interior_cols"])
    @pytest.mark.parametrize("seq", [PeriodicPerturbation((0.5,)), PeriodicPerturbation(PATTERN)],
                             ids=repr)
    def test_decisions_equal_the_forward_sweep(self, seq, orientation, b):
        c = GaussianParam(1.0, b)
        diags = _trimmed_band(c, seq, 200, orientation)
        nb = len(diags) - 1
        eig = np.linalg.eigvalsh(_dense_gram(diags))[[0, -1]]
        # seeded shifts on both sides of each extreme eigenvalue, some past
        # the outer parts' own extreme eigenvalues
        rng = np.random.default_rng([int(b), len(seq.offsets), orientation == "interior_rows"])
        rel = rng.choice([-1.0, 1.0], (2, 16)) * 10.0 ** rng.uniform(-7.0, 0.5, (2, 16))
        shifts = (eig[:, None] * (1.0 + rel)).ravel()
        signs = np.repeat([1.0, -1.0], 16)
        twisted, phi = solver._definite(
            *solver._cholesky_windows(diags, nb, len(diags[0])), nb, shifts, signs)
        assert np.array_equal(twisted, _forward_definite(*_forward_windows(diags, nb), nb,
                                                         shifts, signs))
        assert np.array_equal(twisted, np.where(signs > 0, shifts < eig[0], shifts > eig[1]))
        # phi has the decision's sign wherever the outer parts factor
        known = ~np.isnan(phi)
        assert known.any() and not known.all()
        assert np.array_equal(phi[known] > 0, twisted[known])

    @staticmethod
    def _sweep(b=0.0):
        """The critical shift's windows at M = 200 and the dense band's
        extreme eigenvalues."""
        diags = _trimmed_band(GaussianParam(1.0, b), PeriodicPerturbation((0.5,)), 200,
                              "interior_rows")
        nb = len(diags) - 1
        pairs, mid = solver._cholesky_windows(diags, nb, len(diags[0]))
        return pairs, mid, nb, np.linalg.eigvalsh(_dense_gram(diags))[[0, -1]]

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_all_failing_in_the_first_window_return_at_once(self, b):
        # past lambda_max every diagonal entry of G - mu I is negative (and
        # below lambda_min every one of mu I - G), so the first pivot fails
        pairs, mid, nb, eig = self._sweep(b)
        shifts = np.array([1.5 * eig[1], 2.0 * eig[1], 0.5 * eig[0]])
        signs = np.array([1.0, 1.0, -1.0])
        cholesky, eigvalsh = mock.Mock(wraps=np.linalg.cholesky), mock.Mock()
        with mock.patch.object(np.linalg, "cholesky", cholesky), \
                mock.patch.object(np.linalg, "eigvalsh", eigvalsh):
            ok, phi = solver._definite(pairs, mid, nb, shifts, signs)
        assert not ok.any() and np.isnan(phi).all()
        # one batch over the first pair of windows, then each of its matrices
        batches = [call for call in cholesky.call_args_list if call.args[0].ndim > 2]
        assert len(batches) == 1 and batches[0].args[0].shape[:2] == (3, 2)
        assert cholesky.call_count == 1 + 2 * len(shifts)
        eigvalsh.assert_not_called()

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_failing_in_the_middle_window_knows_phi(self, b):
        # the critical shift's lambda_min falls like 1 / n^2, so just past it
        # the outer parts, each about half the band, still factor, and only
        # the middle Schur complement fails
        pairs, mid, nb, eig = self._sweep(b)
        ok, phi = solver._definite(pairs, mid, nb, eig[0] * np.array([1.0 + 1e-4, 1.0 - 1e-4]),
                                        np.ones(2))
        assert np.array_equal(ok, [False, True])
        assert np.isfinite(phi).all() and phi[0] <= 0.0 < phi[1]

    def test_no_fallback_when_the_batch_factors(self):
        pairs, mid, nb, eig = self._sweep(2.0)
        cholesky = mock.Mock(wraps=np.linalg.cholesky)

        def one_at_a_time():
            # the batches are 3-d or 4-d; only the fallback factors single matrices
            return sum(call.args[0].ndim == 2 for call in cholesky.call_args_list)

        with mock.patch.object(np.linalg, "cholesky", cholesky):
            ok, phi = solver._definite(pairs, mid, nb, np.array([0.5 * eig[0], 1.5 * eig[1]]),
                                            np.array([1.0, -1.0]))
            assert ok.all() and np.all(phi > 0.0)
            assert one_at_a_time() == 0
            # the same sweep with one shift past lambda_min takes the fallback
            ok, _ = solver._definite(pairs, mid, nb, np.array([0.5 * eig[0], 1.5 * eig[0]]),
                                          np.array([1.0, 1.0]))
            assert np.array_equal(ok, [True, False]) and one_at_a_time() > 0

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_windows_are_blocks_of_the_dense_band(self, b):
        diags = _trimmed_band(GaussianParam(1.0, b), PeriodicPerturbation(PATTERN), 200,
                              "interior_rows")
        nb = len(diags) - 1
        pairs, mid = solver._cholesky_windows(diags, nb, len(diags[0]))
        gram, n, s = _dense_gram(diags), len(diags[0]), 3 * nb

        def same_bits(x, y):
            return x.shape == y.shape and x.tobytes() == y.tobytes()

        assert len(pairs) > 1
        # forward window j is the block from row 2 nb j, backward window j
        # the block ending 2 nb j before the last row, flipped
        for j, (ahead, back) in enumerate(pairs):
            r = 2 * nb * j
            assert same_bits(ahead, gram[r:r + s, r:r + s])
            assert same_bits(back, gram[n - r - s:n - r, n - r - s:n - r][::-1, ::-1])
        r = 2 * nb * len(pairs)
        assert same_bits(mid, gram[r:n - r, r:n - r])

    @given(
        offsets=st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=6),
        m=st.integers(30, 150),
        b=st.sampled_from([0.0, 2.0]),
        orientation=st.sampled_from(["interior_rows", "interior_cols"]),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_trimmed_band_brackets_contain_svd_values(self, offsets, m, b, orientation):
        c, seq = GaussianParam(1.0, b), PeriodicPerturbation(tuple(offsets))
        sub, lam, cols, buffer = _section(c, seq, m, 1.0, 3.0, orientation)
        s = np.linalg.svd(sub, compute_uv=False)[[-1, 0]]
        values, lo, hi, diagnostics = solver._extreme_singular_values(c, lam, cols, buffer)
        # the untrimmed band reaches twice the buffer; the trim keeps about half
        assert diagnostics["half_bandwidth"] <= buffer
        assert np.all(lo <= s) and np.all(s <= hi)
        assert np.all(lo <= values) and np.all(values <= hi)

    def test_sweep_counts(self):
        critical, wider = frame_bounds(A1, PeriodicPerturbation((0.5,)), (1024, 4096),
                                       interior_fraction=1.0, edge_margin=3.0).entries
        pattern, = frame_bounds(GaussianParam(1.0, 2.0), PeriodicPerturbation(PATTERN), (512,),
                                interior_fraction=1.0, edge_margin=3.0).entries
        tall, = frame_bounds(A1, AffineGrid(0.75), (320,), orientation="interior_cols").entries
        wide, = frame_bounds(A1, AffineGrid(4.0 / 3.0), (256,)).entries
        shifted = frame_bounds(A1, PeriodicPerturbation((0.45,)), (512, 1024),
                               interior_fraction=1.0, edge_margin=3.0).entries
        entries = (critical, wider, pattern, tall, wide, *shifted)
        assert {e.solver for e in entries} == {"band"}
        assert min(tall.n_cols, wide.n_rows) > gauss_space._DENSE_MAX
        assert critical.sweeps <= 4 and critical.half_bandwidth == 8
        assert wider.sweeps <= 3
        assert pattern.sweeps <= 4 and pattern.half_bandwidth <= 9
        assert tall.sweeps <= 10 and wide.sweeps <= 6
        assert max(e.sweeps for e in shifted) <= 4
        # periodic sections start from their symbol and are decided by
        # cyclic reduction, grids of other slopes start from the central
        # block's model and are decided by the twisted sweep
        assert all(e.start == ("symbol", "symbol") for e in (critical, wider, pattern, *shifted))
        assert {e.decided_by for e in (critical, wider, pattern, *shifted)} == {"reduction"}
        assert tall.start == wide.start == ("model", "model")
        assert tall.decided_by == wide.decided_by == "twisted"
        assert tall.levels is wide.levels is None and critical.levels == 7
        # the critical shift's lambda_min tends to 0, yet the symbol law's
        # lowest mode stays positive at 5,460 rows
        assert 0.0 < wider.model_estimate[0] < critical.model_estimate[0]
        # the closing shift: once phi at the success end is below half the
        # stopping width, one shift that far on fails and closes the bracket;
        # without it these ends crawl by bisection, to 11, 12 and 10 sweeps
        for seq, m, trim, orientation, most in [
            (PeriodicPerturbation((0.5,)), 256, (1.0, 3.0), "interior_rows", 6),
            (AffineGrid(0.9), 512, (2.0 / 3.0, 0.0), "interior_cols", 6),
            (AffineGrid(4.0 / 3.0), 256, (2.0 / 3.0, 0.0), "interior_cols", 6),
        ]:
            e, = frame_bounds(A1, seq, (m,), *trim, orientation=orientation).entries
            assert e.solver == "band" and e.sweeps <= most
            s = np.linalg.svd(_section(A1, seq, m, *trim, orientation)[0], compute_uv=False)
            assert _inside(s[-1], e.sigma_min_bracket) and _inside(s[0], e.sigma_max_bracket)
            assert e.sigma_max == pytest.approx(s[0], rel=1e-9)
            # 4/3 n trimmed on its columns leaves columns it does not sample
            if not e.below_resolution:
                assert e.sigma_min == pytest.approx(s[-1], rel=1e-9)

    def test_trimmed_diagonals_widen_the_radius(self, monkeypatch):
        # trimming far past the fixed rule moves the eigenvalues by much more
        # than the rounding, so the brackets hold only through the Weyl term
        monkeypatch.setattr(solver, "_TRIM_RTOL", 1e-6)
        c = GaussianParam(1.0, 2.0)
        sub, lam, cols, buffer = _section(c, PeriodicPerturbation(PATTERN), 60, 1.0, 3.0,
                                          "interior_rows")
        s = np.linalg.svd(sub, compute_uv=False)[[-1, 0]]
        _, lo, hi, diagnostics = solver._extreme_singular_values(c, lam, cols, buffer)
        assert diagnostics["half_bandwidth"] < 8
        assert np.all(lo <= s) and np.all(s <= hi)

    def test_phi_only_chooses_the_shifts(self, monkeypatch):
        # with phi replaced by noise the bisection takes other steps, but its
        # bracket ends are still Cholesky successes and failures
        c = GaussianParam(1.0, 2.0)
        sub, lam, cols, buffer = _section(c, PeriodicPerturbation(PATTERN), 120, 1.0, 3.0,
                                          "interior_rows")
        s = np.linalg.svd(sub, compute_uv=False)[[-1, 0]]
        steered = solver._extreme_singular_values(c, lam, cols, buffer)
        rng = np.random.default_rng(11)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda mats: rng.standard_normal(mats.shape[:-1]))
        values, lo, hi, diagnostics = solver._extreme_singular_values(c, lam, cols, buffer)
        assert diagnostics["sweeps"] != steered[3]["sweeps"]
        assert values == pytest.approx(s, rel=1e-9)
        assert np.all(lo <= s) and np.all(s <= hi)


def _periodic_band(seed, b, orientation):
    """One period of the trimmed band of a seeded pattern of period up to 8."""
    rng = np.random.default_rng([seed, 23])
    offsets = tuple(np.sort(rng.uniform(-0.45, 0.45, int(rng.integers(1, 9)))))
    trim = (1.0, 3.0) if orientation == "interior_rows" else (2.0 / 3.0, 0.0)
    band = _one_period_section(GaussianParam(1.0, b), PeriodicPerturbation(offsets), 150,
                               *trim, orientation)[3]
    assert band.decided_by == "reduction"
    return band.gram[0]


def _expanded(diags, n):
    """The band of n rows whose diagonals repeat one period, ``diags``."""
    return [g[np.arange(n - d) % len(diags[0])] for d, g in enumerate(diags)]


def _block_size(diags):
    """The reduction's block size S, from the 2S-row block of ``_chains``."""
    return len(solver._chains(diags, 1)[0]) // 2


def _reduced(diags, n, shifts, signs):
    """``_reduce``'s decisions and phi on the band of n rows that repeats
    ``diags``, with the middle window of 2S rows, or of n where n < 2S."""
    win, masks, count = solver._chains(diags, n)
    return solver._reduce(win, masks, count, len(diags) - 1, min(n, len(win)), shifts, signs)


class TestCyclicReduction:
    """The cyclic reduction that decides a band built from one period."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("orientation", ["interior_rows", "interior_cols"])
    def test_decisions_equal_dense_eigenvalues_and_the_twisted_sweep(self, seed, b, orientation):
        # every n from 1 to 4S + 1 (the middle window alone, then chains
        # with two cut end blocks, one empty and two whole ones) and 5 to 33
        # blocks, the last whole, of one row or one row short, whose levels
        # take all three kinds; shifts 1e-3 ... 1e-9 either side of each
        # extreme eigenvalue
        diags = _periodic_band(seed, b, orientation)
        nb = len(diags) - 1
        size = _block_size(diags)
        assert size % len(diags[0]) == 0 and size >= nb
        rel = 10.0 ** -np.arange(3.0, 10.0)
        rel = np.concatenate([rel, -rel])
        signs = np.repeat([1.0, -1.0], len(rel))
        sizes = set(range(1, 4 * size + 2)) | {(blocks - 1) * size + last
                                                for blocks in (5, 7, 9, 15, 17, 31, 33)
                                                for last in (size, 1, size - 1)}
        for n in sorted(sizes):
            eig = np.linalg.eigvalsh(_dense_gram(_expanded(diags, n)))[[0, -1]]
            shifts = (eig[:, None] * (1.0 + rel)).ravel()
            ok, phi = _reduced(diags, n, shifts, signs)
            assert np.array_equal(ok, np.where(signs > 0, shifts < eig[0], shifts > eig[1]))
            twisted, _ = solver._definite(*solver._cholesky_windows(diags, nb, n),
                                               nb, shifts, signs)
            assert np.array_equal(ok, twisted)

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_phi_is_negative_where_the_middle_window_fails(self, b):
        # phi is known where every level factors, negative exactly where
        # the middle window then fails, and its slope between two shifts is
        # at most -1 toward the failure end
        diags = _periodic_band(4, b, "interior_rows")
        n = 40 * _block_size(diags) + 3
        eig = np.linalg.eigvalsh(_dense_gram(_expanded(diags, n)))[[0, -1]]
        rel = 10.0 ** np.linspace(-8.0, -2.0, 13)
        for side, sign in ((0, 1.0), (1, -1.0)):
            shifts = eig[side] * (1.0 + np.concatenate([-rel[::-1], rel]))
            ok, phi = _reduced(diags, n, shifts, np.full(len(shifts), sign))
            known = np.isfinite(phi)
            assert known.sum() > len(rel) and not ok[~known].any()
            assert np.array_equal(phi[known] < 0.0, ~ok[known]) and (~ok[known]).any()
            slope = np.diff(phi[known]) / np.diff(sign * shifts[known])
            assert np.all(slope <= -1.0)

    @pytest.mark.parametrize("b", [0.0, 2.0])
    def test_blocks_are_blocks_of_the_dense_band(self, b):
        diags = _periodic_band(5, b, "interior_rows")
        half, size = len(diags) - 1, _block_size(diags)

        def same_bits(x, y):
            return x.shape == y.shape and x.tobytes() == y.tobytes()

        # two cut end blocks, one empty, two whole, two cut again; then the
        # middle window alone
        for n in (36 * size + 5, 4 * size + 1, 4 * size, 3 * size + 3, 2 * size, 1):
            win, masks, count = solver._chains(diags, n)
            gram = _dense_gram(_expanded(diags, n))
            top, bottom = (int(k) for k in masks.sum(axis=1))
            if count == 0:
                assert n <= 2 * size and same_bits(win[:n, :n], gram)
                continue
            assert top + bottom + 2 * count * size == n and abs(top - bottom) <= 1
            assert np.array_equal(masks[0], np.arange(size) >= size - top)
            assert np.array_equal(masks[1], np.arange(size) < bottom)
            block, couple = win[:size, :size], win[:size, size:]
            # each chain: its end block, count - 1 whole blocks and its
            # target, one of the middle window's two blocks
            starts = top + size * np.arange(2 * count)
            for r in starts:
                assert same_bits(block, gram[r:r + size, r:r + size])
            for r in starts[:-1]:
                assert same_bits(couple, gram[r:r + size, r + size:r + 2 * size])
            # an end block is the block cut to its rows, its coupling too
            assert same_bits(block[size - top:, size - top:], gram[:top, :top])
            assert same_bits(couple[size - top:], gram[:top, top:top + size])
            assert same_bits(block[:bottom, :bottom], gram[n - bottom:, n - bottom:])
            assert same_bits(couple[:, :bottom], gram[n - bottom - size:n - bottom, n - bottom:])
        # a coupling reaches only the last half rows and the first half columns
        assert not couple[:size - half].any() and not couple[:, half:].any()

    def test_one_cholesky_batch_a_level(self):
        # both chains share their inner block, so a level factors at most
        # three windows, in one call, and then the middle window; this band
        # takes a level of each kind: 1, 2 and 3 windows
        diags = _periodic_band(2, 0.0, "interior_rows")
        size = _block_size(diags)
        n = 125 * size + 1
        count = solver._chains(diags, n)[2]
        levels = int(np.ceil(np.log2(count + 1)))
        assert 0 < levels <= int(np.ceil(np.log2(126)))
        top = float(np.abs(_dense_gram(_expanded(diags, 3 * size))).sum(axis=1).max())
        cholesky = mock.Mock(wraps=np.linalg.cholesky)
        with mock.patch.object(np.linalg, "cholesky", cholesky):
            ok, phi = _reduced(diags, n, np.array([0.0, 2.0 * top]), np.array([1.0, -1.0]))
        assert ok.all() and np.all(phi > 0.0)
        shapes = [call.args[0].shape for call in cholesky.call_args_list]
        assert len(shapes) == levels + 1
        assert {shape[1] for shape in shapes[:-1]} == {1, 2, 3}

    @pytest.mark.parametrize("periodic", [True, False])
    def test_rounding_radius_terms(self, periodic):
        # the factoring term recomputed from its inputs: for the reduction
        # its levels, block size S and middle window of 2S rows, for the
        # twisted sweep its window sizes.  sigma_min is small, so its
        # bracket is wider by the term than the bisection alone makes it
        m = 300
        seq = (PeriodicPerturbation((0.5,)) if periodic
               else ExplicitWindow(tuple(np.arange(-m, m + 1) + 0.5), -m))
        _, lam, cols, buffer = _section(A1, seq, m, 1.0, 3.0, "interior_rows")
        period = ((0.5,), _first_index(seq, m, lam)) if periodic else None
        values, lo, hi, diagnostics = solver._extreme_singular_values(A1, lam, cols, buffer,
                                                                           period)
        n, gamma = len(lam), solver._gamma
        if periodic:
            diags, width, norms, top, dropped = solver._band(A1, lam, cols, buffer, period).gram
            size = _block_size(diags)
            assert diagnostics["decided_by"] == "reduction" and 2 * size < n
            factoring = (diagnostics["levels"] * size * gamma(6 * size + 8)
                         + 2 * size * gamma(2 * size + 1))
        else:
            diags, width, norms, top, dropped = solver._gram_band(A1, lam, cols, buffer)
            nb = len(diags) - 1
            pairs, mid = solver._cholesky_windows(diags, nb, n)
            assert diagnostics["decided_by"] == "twisted" and len(pairs) > 0
            factoring = (2 * nb + 1) * gamma(pairs.shape[-1] + len(mid) + nb + 2)
        top *= 1.0 + 1e-8
        terms = (gamma(2 * width + 4) * norms, dropped, factoring * top)
        assert diagnostics["radius"] == pytest.approx(terms, rel=1e-12, abs=0.0)
        radius = sum(terms)
        assert not diagnostics["below_resolution"]
        assert hi[0] >= np.sqrt(values[0] ** 2 + radius)
        assert lo[0] <= np.sqrt(values[0] ** 2 - radius)

    def test_near_critical_section_at_m_1024(self):
        # delta = 0.49: sigma_min is 2.6e-2, not 0, so the bisection closes
        # on width; the dense SVD lies inside both brackets
        seq = PeriodicPerturbation((0.49,))
        sub, *_ = _section(A1, seq, 1024, 1.0, 3.0, "interior_rows")
        s = np.linalg.svd(sub, compute_uv=False)
        e, = frame_bounds(A1, seq, (1024,), interior_fraction=1.0, edge_margin=3.0).entries
        assert e.decided_by == "reduction" and e.stop == ("width", "width")
        assert _inside(s[-1], e.sigma_min_bracket) and _inside(s[0], e.sigma_max_bracket)
        assert e.sigma_min == pytest.approx(s[-1], rel=1e-9)

    def test_regula_falsi_keeps_the_resolution_from_an_end(self):
        # where the bracket can only stop on the shifts' resolution, a
        # regula falsi point nearer an end than that moves to just under it
        # from that end; elsewhere it stays
        lo, resolution = 1e-8, 5e-16
        ends = np.array([lo, lo + 1e-14])
        step = (1.0 - solver._SLOPE_MARGIN) * resolution
        shift = solver._next_shift
        assert shift(ends, np.array([1e-14, -1e-6]), 0.0, resolution, 0) == lo + step
        assert shift(ends, np.array([1e-6, -1e-14]), 0.0, resolution, 0) == ends[1] - step
        assert shift(ends, np.array([-1e-14, 1e-6]), 0.0, resolution, 1) == lo + step
        middle = shift(ends, np.array([1e-6, -1e-6]), 0.0, resolution, 0)
        assert middle == lo - 1e-6 * 1e-14 / -2e-6
        # where the half width, 0.5e-10 hi, counts, the point near the end stays
        wide = np.array([1e-3, 1e-3 + 1e-9])
        near = shift(wide, np.array([1e-13, -1e-6]), 0.0, resolution, 0)
        assert near == 1e-3 - 1e-13 * (wide[1] - wide[0]) / (-1e-6 - 1e-13)
        assert 1e-3 < near < 1e-3 + resolution


def _explicit_window(seed):
    """Integers -700 ... 700 moved by seeded offsets in (-0.3, 0.3)."""
    idx = np.arange(-700, 701)
    offsets = np.random.default_rng(seed).uniform(-0.3, 0.3, len(idx))
    return ExplicitWindow(tuple(idx + offsets), -700)


class TestShiftSteering:
    """Where the band solver starts, how it steps and when it stops; the
    bracket ends stay Cholesky decisions whatever steers them."""

    @pytest.mark.parametrize("b, sweeps, sigma_min, sigma_max", [
        # the previous solver (bisection steered by phi alone) on the same sections
        (0.0, 39, 0.192977863974501, 1.82024025024942),
        (2.0, 39, 0.482416332458384, 1.56449295602571),
    ])
    def test_misfired_model_costs_at_most_two_sweeps(self, b, sweeps, sigma_min, sigma_max):
        # random offsets put the extreme eigenvectors away from the central
        # block, so its trusted model misses and the bisection does the rest
        e, = frame_bounds(GaussianParam(1.0, b), _explicit_window(7), (600,),
                          interior_fraction=1.0, edge_margin=3.0).entries
        assert e.solver == "band" and e.start == ("model", "model")
        assert e.sweeps <= sweeps + 2
        assert e.sigma_min == pytest.approx(sigma_min, rel=1e-9)
        assert e.sigma_max == pytest.approx(sigma_max, rel=1e-9)

    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("scale", [0.7, 1.3, None])
    def test_estimates_only_steer(self, monkeypatch, scale, b):
        # scale None: the symbol gives no start, so both sides start from
        # the diagonal; a periodic band has no other start
        c, seq = GaussianParam(1.0, b), PeriodicPerturbation(PATTERN)
        sub, lam, cols, buffer = _section(c, seq, 150, 1.0, 3.0, "interior_rows")
        s = np.linalg.svd(sub, compute_uv=False)[[-1, 0]]
        period = (PATTERN, _first_index(seq, 150, lam))
        steered = solver._extreme_singular_values(c, lam, cols, buffer, period)
        assert steered[3]["start"] == ("symbol", "symbol")
        law = solver._symbol_law
        if scale is None:
            monkeypatch.setattr(solver, "_symbol_law",
                                lambda one, n: (law(one, n)[0], np.full(2, np.nan)))
        else:
            monkeypatch.setattr(solver, "_symbol_law",
                                lambda one, n: (scale * law(one, n)[0], law(one, n)[1]))
        values, lo, hi, diagnostics = solver._extreme_singular_values(c, lam, cols, buffer,
                                                                           period)
        assert diagnostics["start"] == (("symbol",) * 2 if scale else ("diagonal",) * 2)
        assert diagnostics["sweeps"] > steered[3]["sweeps"]
        assert values == pytest.approx(steered[0], rel=1e-10)
        assert np.all(lo <= s) and np.all(s <= hi)

    def test_geometric_shift_survives_underflow(self):
        # lo * hi underflows to 0, which once froze the bracket of a section
        # whose Gram entries are near 1e-235 (a = 3000, shift 0.3)
        lo, hi = 6.7e-250, 3.0e-235
        assert lo < solver._bisection_point(lo, hi) < hi
        e, = frame_bounds(GaussianParam(3000.0), PeriodicPerturbation((0.3,)), (512,),
                          interior_fraction=1.0, edge_margin=3.0).entries
        assert e.solver == "band" and e.stop == ("width", "width")
        assert 0.0 < e.sigma_min <= e.sigma_max

    @given(
        offsets=st.lists(st.floats(-0.45, 0.45), min_size=1, max_size=6),
        m=st.integers(70, 200),
        b=st.sampled_from([0.0, 2.0]),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_slope_bound_passes_the_root(self, offsets, m, b):
        # phi' <= -1, so G - mu I is not definite at mu_s + phi_s (mu I - G
        # at mu_s - phi_s) for any success mu_s; a phi_s within the shifts'
        # resolution is rounding
        c = GaussianParam(1.0, b)
        _, lam, cols, buffer = _section(c, PeriodicPerturbation(tuple(offsets)), m, 1.0, 3.0,
                                        "interior_rows")
        definite, taken = solver._definite, []

        def recording(pairs, mid, nb, shifts, signs):
            ok, phi = definite(pairs, mid, nb, shifts, signs)
            taken.append((pairs, mid, nb, shifts[ok], signs[ok], phi[ok]))
            return ok, phi

        with mock.patch.object(solver, "_definite", recording):
            solver._extreme_singular_values(c, lam, cols, buffer)
        checked = 0
        for pairs, mid, nb, mus, signs, phis in taken:
            clear = phis > 2.0 * np.finfo(float).eps * np.abs(mid).max()
            past = mus[clear] + signs[clear] * phis[clear] * (1.0 + solver._SLOPE_MARGIN)
            ok, _ = definite(pairs, mid, nb, past, signs[clear])
            assert not ok.any()
            checked += clear.sum()
        assert checked > 0

    def test_one_success_end_rule_takes_the_two_rules_shifts(self):
        # the closing shift and the slope bound were two rules, the closing
        # shift first; on brackets still running (wider than 1e-10 hi) the
        # one rule takes the same shift, bit for bit.  Both move a regula
        # falsi point within the resolution of an end where the closing
        # half width does not count, and both step that half width (else
        # just under the resolution) from a success end whose phi is <= 0
        def two_rules(ends, phis, floor, resolution, side):
            lo, hi = ends
            phi_lo, phi_hi = phis
            close = 0.5 * solver._BRACKET_RTOL * hi
            if phis[side] <= 0.0:
                step = (close if close >= resolution
                        else (1.0 - solver._SLOPE_MARGIN) * resolution)
                mu = ends[side] + (1.0 - 2.0 * side) * step
                if lo < mu < hi:
                    return mu
            if close >= resolution and 0.0 < phis[side] * (1.0 + solver._SLOPE_MARGIN) < close:
                mu = ends[side] + (1.0 - 2.0 * side) * close
                if lo < mu < hi:
                    return mu
            if phi_lo * phi_hi < 0.0:
                mu = lo - phi_lo * (hi - lo) / (phi_hi - phi_lo)
                step = (1.0 - solver._SLOPE_MARGIN) * resolution
                if lo < mu < hi and close < resolution and mu - lo < resolution:
                    return lo + step
                if lo < mu < hi and close < resolution and hi - mu < resolution:
                    return hi - step
                if lo < mu < hi:
                    return mu
            if np.isnan(phis[1 - side]) and phis[side] > 0.0:
                mu = ends[side] + (1.0 - 2.0 * side) * phis[side] * (1.0 + solver._SLOPE_MARGIN)
                if lo < mu < hi:
                    return mu
            return solver._bisection_point(max(lo, floor), hi)

        rng = np.random.default_rng(2024)
        closing = 0
        for _ in range(4000):
            hi = 10.0 ** rng.uniform(-3.0, 3.0)
            lo = hi * (1.0 - 10.0 ** rng.uniform(-9.9, 0.0)) if rng.random() < 0.8 else 0.0
            width, side = hi - lo, int(rng.integers(2))
            phis = np.empty(2)
            phis[side] = rng.choice([np.nan, -width * rng.random(),
                                     hi * 10.0 ** rng.uniform(-25.0, -8.0),
                                     width * 10.0 ** rng.uniform(-6.0, 0.0)])
            phis[1 - side] = rng.choice([np.nan, -width * rng.random(), width * rng.random()])
            args = (np.array([lo, hi]), phis, 0.0, hi * 10.0 ** rng.uniform(-20.0, -8.0), side)
            assert solver._next_shift(*args) == two_rules(*args)
            close = 0.5 * solver._BRACKET_RTOL * hi
            closing += args[3] <= close and 0.0 < phis[side] < close
        assert closing > 100

    def test_success_end_with_phi_at_most_zero_closes(self):
        # phi at a success end reads <= 0 by rounding: the root is within
        # rounding of that end, so the closing half width is the next step.
        # Which sections read so follows the last bits of phi, so they are
        # taken from a fixed range of seeded period-6 patterns
        c, m = GaussianParam(1.0, 2.0), 128
        next_shift = solver._next_shift
        # the same rule without the clause: such an end bisected
        source = textwrap.dedent(inspect.getsource(next_shift))
        clause = "if phis[side] <= 0.0:"
        assert source.count(clause) == 1
        namespace = dict(vars(solver))
        exec(source.replace(clause, "if False:"), namespace)

        def run(seq, rule):
            rounded = []

            def recording(ends, phis, floor, resolution, side):
                rounded.append(phis[side] <= 0.0)
                return rule(ends, phis, floor, resolution, side)

            with mock.patch.object(solver, "_next_shift", recording):
                e, = frame_bounds(c, seq, (m,), orientation="interior_cols").entries
            return e, any(rounded)

        fired = saved = 0
        for seed in range(300):
            seq = PeriodicPerturbation(tuple(np.random.default_rng(seed).uniform(-0.45, 0.45, 6)))
            e, rounded = run(seq, next_shift)
            if not rounded:
                continue
            fired += 1
            assert e.solver == "band" and e.stop == ("width", "width")
            without = run(seq, namespace["_next_shift"])[0].sweeps
            assert e.sweeps <= without
            saved += e.sweeps < without
            s = np.linalg.svd(_section(c, seq, m, 2.0 / 3.0, 0.0, "interior_cols")[0],
                              compute_uv=False)
            assert _inside(s[-1], e.sigma_min_bracket) and _inside(s[0], e.sigma_max_bracket)
        # the clause fires on 21 sections and saves sweeps on 14 of them
        assert fired > 0 and saved > 0

    def test_below_resolution_reports_the_upper_end(self):
        # oversampled rows: lambda_min is about 1e-32, far below the radius
        c, seq = A1, AffineGrid(0.9)
        e, = frame_bounds(c, seq, (300,)).entries
        sub, *_ = _section(c, seq, 300, 2.0 / 3.0, 0.0, "interior_rows")
        s = np.linalg.svd(sub, compute_uv=False)
        assert e.solver == "band" and e.below_resolution and e.stop[0] == "resolution"
        assert e.sigma_min == e.sigma_min_bracket[1] and e.sigma_min_bracket[0] == 0.0
        assert _inside(s[-1], e.sigma_min_bracket) and _inside(s[0], e.sigma_max_bracket)
        assert e.sigma_max == pytest.approx(s[0], rel=1e-9)
        assert json.loads(json.dumps(e.to_json()))["below_resolution"] is True


class TestBrackets:
    """``_brackets`` runs one bracket loop over whatever deciding routine it
    is handed; here one that answers from a dense ``eigvalsh``."""

    @pytest.mark.parametrize("modelled", [False, True])
    @pytest.mark.parametrize("b", [0.0, 2.0])
    @pytest.mark.parametrize("seq", [PeriodicPerturbation((0.5,)), PeriodicPerturbation(PATTERN),
                                     _explicit_window(5)], ids=["critical", "pattern", "explicit"])
    def test_a_dense_routine_brackets_the_dense_extremes(self, seq, b, modelled):
        c = GaussianParam(1.0, b)
        sub, *_ = _section(c, seq, 24, 1.0, 3.0, "interior_rows")
        gram = sub @ sub.conj().T
        assert 20 <= len(gram) <= 60
        eye, calls = np.eye(len(gram)), []

        def dense(shifts, signs):
            # sign (G - shift I) is definite where its smallest eigenvalue,
            # phi of a middle window that is the whole band, is positive
            calls.append(len(shifts))
            phi = np.linalg.eigvalsh(signs[:, None, None] * (gram - shifts[:, None, None] * eye))
            return phi[:, 0] > 0.0, phi[:, 0]

        eig = np.linalg.eigvalsh(gram)[[0, -1]]
        top = float(np.abs(gram).sum(axis=1).max()) * (1.0 + 1e-8)
        # eigvalsh's own rounding, which the dense decisions carry
        rounding = len(gram) * np.finfo(float).eps * top
        # a model start either side of the dense values, else the diagonal
        estimate = eig * (1.0 + np.array([3e-3, -3e-3])) if modelled else np.full(2, np.nan)
        spread = 1e-2 * eig if modelled else np.full(2, np.nan)
        ends, sweeps, stop = solver._brackets(dense, np.diagonal(gram).real, top, rounding,
                                              estimate, spread)
        assert sweeps == len(calls) > 0 and max(calls) <= 4
        for (lo, hi), exact, why in zip(ends, eig, stop):
            assert lo - rounding <= exact <= hi + rounding
            assert why in ("width", "resolution")
            if why == "width":
                assert hi - lo <= solver._BRACKET_RTOL * hi
        assert stop[1] == "width"
