"""Clicks, coincidence bookkeeping and accidental subtraction."""

import itertools
import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memnet_sim import config as cf
from memnet_sim import detection as det
from memnet_sim import quantum as q


def synthetic_table(signal, true_vis, accidental, n_trials):
    """Signal coincidences at a chosen visibility plus a uniform floor.

    The singles are arranged so that the per-cell accidental estimate
    ``n_wo * n_ro / N`` equals the floor exactly.
    """
    same = signal * (1 + true_vis) / 4
    cross = signal * (1 - true_vis) / 4
    wo = np.sqrt(accidental * n_trials)
    return det.CoincidenceTable(
        n_RL=same + accidental,
        n_LR=same + accidental,
        n_LL=cross + accidental,
        n_RR=cross + accidental,
        n_woR=wo,
        n_woL=wo,
        n_roR=wo,
        n_roL=wo,
        N=n_trials,
    )


class TestConfigAndTable:
    def test_detector_config_validation(self):
        cf.DetectorConfig()
        with pytest.raises(ValueError):
            cf.DetectorConfig(dark_count_prob=-0.1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            det.CoincidenceTable(n_RL=-1, N=10)

    def test_singles_must_cover_coincidences(self):
        with pytest.raises(ValueError, match="n_woR"):
            det.CoincidenceTable(n_RL=5, n_RR=5, n_woR=8, n_roL=5, n_roR=5, N=10)

    @pytest.mark.parametrize(
        "fields, single",
        [
            (dict(n_RL=1, n_woR=5, n_roL=5, N=1), "n_woR"),  # 25 accidentals in 1 coincidence
            (dict(n_RL=5, n_woR=5, n_roL=5, N=0), "n_woR"),  # coincidences without trials
            (dict(n_woL=11, N=10), "n_woL"),
            (dict(n_roR=11, N=10), "n_roR"),
            (dict(n_roL=11, N=10), "n_roL"),
        ],
    )
    def test_singles_must_fit_in_the_trials(self, fields, single):
        # a channel clicks at most once per trial
        with pytest.raises(ValueError) as err:
            det.CoincidenceTable(**fields)
        assert str(err.value) == f"{single} larger than the trial count N"

    @pytest.mark.parametrize("name, value", [("n_RL", math.nan), ("N", math.inf)])
    def test_non_finite_counts_rejected(self, name, value):
        with pytest.raises(ValueError) as err:
            det.CoincidenceTable(**{name: value})
        assert str(err.value) == f"{name} must be finite and non-negative"


def born(basis, ket):
    return np.abs(basis.conj().T @ ket) ** 2


def photon_clicks(arrival, basis, ket, dark=0.0):
    return det.analyzer_clicks(det.photon_hits(arrival, born(basis, ket)), dark)


def enumerated_clicks(photons, dark):
    """Brute-force 2x2 click distribution of one two-channel analyzer.

    ``photons`` lists ``(arrival, born)`` per photon.  Every photon's fate
    (lost, channel 0, channel 1) and every channel's dark bit are
    enumerated; a channel clicks when a photon or a dark count fires it.
    """
    fates = [
        [(None, 1.0 - arrival), (0, arrival * b[0]), (1, arrival * b[1])]
        for arrival, b in photons
    ]
    out = np.zeros((2, 2))
    for combo in itertools.product(*fates):
        p_fate = math.prod(p for _, p in combo)
        hit = [any(ch == c for c, _ in combo) for ch in (0, 1)]
        for darks in itertools.product((0, 1), repeat=2):
            p_dark = math.prod(dark if d else 1.0 - dark for d in darks)
            click = tuple(int(hit[ch] or darks[ch]) for ch in (0, 1))
            out[click] += p_fate * p_dark
    return out


ELLIPTICAL = np.array([np.cos(0.3), np.sin(0.3) * np.exp(0.7j)])
CLICK_CASES = {
    "vacuum": ([], det.NO_HITS),
    "partial_arrival": (
        [(0.37, born(q.BASIS_RL, ELLIPTICAL))],
        det.photon_hits(0.37, born(q.BASIS_RL, ELLIPTICAL)),
    ),
    "bunched_hv_basis": (
        [(1.0, born(q.BASIS_Z, q.KET_H)), (1.0, born(q.BASIS_Z, q.KET_V))],
        det.bunched_hits(born(q.BASIS_Z, q.KET_H), born(q.BASIS_Z, q.KET_V)),
    ),
    "bunched_da_basis": (
        [(1.0, born(q.BASIS_DA, q.KET_H)), (1.0, born(q.BASIS_DA, q.KET_V))],
        det.bunched_hits(born(q.BASIS_DA, q.KET_H), born(q.BASIS_DA, q.KET_V)),
    ),
}


class TestDetect:
    """The exact analyzer click model shared by every analyzer."""

    def test_circular_photon_hits_its_channel(self):
        r = photon_clicks(1.0, q.BASIS_RL, q.KET_R)
        l = photon_clicks(1.0, q.BASIS_RL, q.KET_L)
        np.testing.assert_allclose(r, [[0, 0], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(l, [[0, 1], [0, 0]], atol=1e-15)

    def test_dead_detector_never_clicks(self):
        clicks = photon_clicks(0.0, q.BASIS_RL, q.KET_R)
        np.testing.assert_array_equal(clicks, [[1, 0], [0, 0]])

    def test_vacuum_dark_rate(self):
        d = 1e-3
        clicks = det.analyzer_clicks(det.NO_HITS, d)
        expect = np.outer([1 - d, d], [1 - d, d])
        np.testing.assert_allclose(clicks, expect, rtol=1e-15)
        # each channel fires on its own with the dark-count probability
        assert clicks[1].sum() == pytest.approx(d, rel=1e-15)
        assert clicks[:, 1].sum() == pytest.approx(d, rel=1e-15)

    def test_efficiency_and_born_rule(self):
        # |H> arriving with probability 0.6 splits evenly between R and L
        clicks = photon_clicks(0.6, q.BASIS_RL, q.KET_H)
        np.testing.assert_allclose(clicks, [[0.4, 0.3], [0.3, 0.0]], atol=1e-15)

    def test_custom_basis(self):
        d = photon_clicks(1.0, q.BASIS_DA, q.KET_D)
        a = photon_clicks(1.0, q.BASIS_DA, q.KET_A)
        np.testing.assert_allclose(d, [[0, 0], [1, 0]], atol=1e-15)
        np.testing.assert_allclose(a, [[0, 1], [0, 0]], atol=1e-15)

    @pytest.mark.parametrize("dark", [0.0, 1e-3, 0.3, 1.0])
    @pytest.mark.parametrize("case", sorted(CLICK_CASES))
    def test_matches_enumeration(self, case, dark):
        photons, hits = CLICK_CASES[case]
        np.testing.assert_allclose(
            det.analyzer_clicks(hits, dark),
            enumerated_clicks(photons, dark),
            rtol=0.0,
            atol=1e-15,
        )

    def test_bunched_pair_single_click_only_off_the_hv_basis(self):
        _, hv = CLICK_CASES["bunched_hv_basis"]
        _, da = CLICK_CASES["bunched_da_basis"]
        clicks_hv = det.analyzer_clicks(hv, 0.0)
        clicks_da = det.analyzer_clicks(da, 0.0)
        assert clicks_hv[1, 0] == clicks_hv[0, 1] == 0.0
        assert clicks_da[1, 0] == pytest.approx(0.25)
        assert clicks_da[0, 1] == pytest.approx(0.25)

    @given(
        arrival=st.floats(0.0, 1.0),
        b0=st.floats(0.0, 1.0),
        c0=st.floats(0.0, 1.0),
        dark=st.floats(0.0, 1.0),
        bunched=st.booleans(),
    )
    def test_output_is_normalized_distribution(self, arrival, b0, c0, dark, bunched):
        if bunched:
            hits = det.bunched_hits((b0, 1.0 - b0), (c0, 1.0 - c0))
        else:
            hits = det.photon_hits(arrival, (b0, 1.0 - b0))
        clicks = det.analyzer_clicks(hits, dark)
        assert clicks.shape == (2, 2)
        assert np.all(clicks >= -1e-15)
        assert clicks.sum() == pytest.approx(1.0, abs=1e-12)


class TestVisibility:
    def test_perfect_correlation(self):
        t = det.CoincidenceTable(
            n_RL=50, n_LR=50, n_woR=50, n_woL=50, n_roR=50, n_roL=50, N=100
        )
        assert det.visibility_raw(t) == pytest.approx(1.0)

    def test_flat_counts(self):
        t = det.CoincidenceTable(
            n_RL=5, n_LR=5, n_LL=5, n_RR=5,
            n_woR=10, n_woL=10, n_roR=10, n_roL=10, N=100,
        )
        assert det.visibility_raw(t) == pytest.approx(0.0)

    def test_empty_table_errors(self):
        with pytest.raises(ValueError, match="no coincidences"):
            det.visibility_raw(det.CoincidenceTable(N=10))


class TestSubtractAccidentals:
    def test_zero_singles_unchanged(self):
        t = det.CoincidenceTable(n_RL=0, n_LR=0, N=100)
        corrected, clamped = det.subtract_accidentals(t)
        assert corrected == t
        assert not clamped
        # and therefore idempotent
        again, _ = det.subtract_accidentals(corrected)
        assert again == corrected

    def test_four_cell_equations(self):
        t = det.CoincidenceTable(
            n_RL=40, n_LR=35, n_LL=12, n_RR=9,
            n_woR=100, n_woL=90, n_roR=80, n_roL=70, N=1000,
        )
        corrected, clamped = det.subtract_accidentals(t)
        assert corrected.n_RL == pytest.approx(40 - 100 * 70 / 1000)
        assert corrected.n_LR == pytest.approx(35 - 90 * 80 / 1000)
        assert corrected.n_LL == pytest.approx(12 - 90 * 70 / 1000)
        assert corrected.n_RR == pytest.approx(9 - 100 * 80 / 1000)
        assert not clamped
        assert corrected.n_woR == t.n_woR and corrected.N == t.N

    def test_purely_accidental_table_clears(self):
        wo, ro, n = 200.0, 150.0, 10_000.0
        acc = wo * ro / n
        t = det.CoincidenceTable(
            n_RL=acc, n_LR=acc, n_LL=acc, n_RR=acc,
            n_woR=wo, n_woL=wo, n_roR=ro, n_roL=ro, N=n,
        )
        corrected, clamped = det.subtract_accidentals(t)
        assert corrected.coincidence_sum() == pytest.approx(0.0, abs=1e-12)
        assert not clamped

    def test_negative_cells_clamp_with_flag(self):
        t = det.CoincidenceTable(
            n_RL=1, n_woR=100, n_roL=100, N=100,
        )
        corrected, clamped = det.subtract_accidentals(t)
        assert clamped
        assert corrected.n_RL == 0.0

    def test_zero_trials_errors(self):
        with pytest.raises(ValueError, match="N > 0"):
            det.subtract_accidentals(det.CoincidenceTable(N=0))

    def test_recovers_true_visibility(self):
        # raw visibility degraded to 0.90 by a uniform accidental floor
        signal = 9000.0
        accidental = signal * (0.98 / 0.90 - 1.0) / 4.0
        t = synthetic_table(signal, 0.98, accidental, 1_000_000.0)
        assert det.visibility_raw(t) == pytest.approx(0.90, abs=1e-12)
        corrected, clamped = det.subtract_accidentals(t)
        assert det.visibility_raw(corrected) == pytest.approx(0.98, abs=1e-12)
        assert not clamped

    def test_uniform_accidentals_never_lower_visibility(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            signal = rng.uniform(100, 10_000)
            vis = rng.uniform(0.0, 1.0)
            acc = rng.uniform(0.0, signal / 4)
            t = synthetic_table(signal, vis, acc, 1_000_000.0)
            corrected, _ = det.subtract_accidentals(t)
            assert det.visibility_raw(corrected) >= det.visibility_raw(t) - 1e-12


# ---------------------------------------------------------------------------
# the pair analysis against per-cell scalar formulas of its own


def scalar_table(counts16):
    """The coincidence table of 16 click counts, bits (w0, w1, r0, r1)."""
    c = np.asarray(counts16).reshape(2, 2, 2, 2)
    return det.CoincidenceTable(
        n_RL=float(c[1, 0, 0, 1]),
        n_LR=float(c[0, 1, 1, 0]),
        n_LL=float(c[0, 1, 0, 1]),
        n_RR=float(c[1, 0, 1, 0]),
        n_woR=float(c[1].sum()),
        n_woL=float(c[:, 1].sum()),
        n_roR=float(c[:, :, 1].sum()),
        n_roL=float(c[..., 1].sum()),
        N=float(c.sum()),
    )


def scalar_subtract(table):
    """The accidental-corrected table and its clamp flag, cell by cell: each
    cell less ``n_wo(i) * n_ro(j) / N``, a negative cell set to zero."""
    corrected = {
        "n_RL": table.n_RL - table.n_woR * table.n_roL / table.N,
        "n_LR": table.n_LR - table.n_woL * table.n_roR / table.N,
        "n_LL": table.n_LL - table.n_woL * table.n_roL / table.N,
        "n_RR": table.n_RR - table.n_woR * table.n_roR / table.N,
    }
    clamped = any(v < 0.0 for v in corrected.values())
    corrected = {k: max(v, 0.0) for k, v in corrected.items()}
    return replace(table, **corrected), clamped


def scalar_visibility(table):
    """Visibility and its binomial sigma, or ``(None, None)`` without coincidences."""
    n_coinc = table.n_RL + table.n_LR + table.n_LL + table.n_RR
    if n_coinc <= 0.0:
        return None, None
    v = (table.n_RL + table.n_LR - table.n_LL - table.n_RR) / n_coinc
    return v, math.sqrt(max(1.0 - v * v, 0.0) / n_coinc) or 1.0 / n_coinc


def same_bits(got, want):
    return [float(x).hex() for x in got] == [float(x).hex() for x in want]


def pair_count_stacks():
    """Count stacks of every kind the pair scenarios meet: random draws at
    small and large budgets (clamped cells, tables without coincidences),
    a table with no click at all, singles without coincidences, a lone
    coincidence and perfect correlation (sigma 0, so ``1 / n``)."""
    rng = np.random.default_rng(16)
    stacks = []
    for n in (1, 3, 20, 200, 20_000, 2_000_000):
        p = rng.dirichlet(np.full(16, 0.3), size=40)
        p[:, 0] += 20.0 * rng.random(40)  # mostly no click, as in the scenarios
        p /= p.sum(axis=1, keepdims=True)
        stacks.append(np.array([rng.multinomial(n, row) for row in p]))
    special = np.zeros((5, 16), dtype=np.int64)
    special[0, 0] = 7  # no click at all
    special[1, [0b1000, 0b0001]] = 5  # write and read singles, no coincidence
    special[2, [0, 0b1001]] = [9, 1]  # one coincidence, nothing else
    special[3, [0b1001, 0b0110]] = 50  # only correlated coincidences: v = 1
    special[4, [0b1010, 0b0101]] = 50  # only anticorrelated: v = -1
    stacks.append(special)
    return stacks


class TestPairStack:
    @pytest.mark.parametrize("counts", pair_count_stacks())
    def test_equals_the_scalar_path_bit_for_bit(self, counts):
        pairs = det.pair_stack(det.pair_fields(counts))
        for i, row in enumerate(counts):
            raw = scalar_table(row)
            corrected, clamped = scalar_subtract(raw)
            assert det.CoincidenceTable(*pairs.fields[i]) == raw
            fields = [getattr(raw, name) for name in det.CSV_HEADER.split(",")]
            assert same_bits(pairs.fields[i], fields)
            cells = [corrected.n_RL, corrected.n_LR, corrected.n_LL, corrected.n_RR]
            assert same_bits(pairs.corrected[i], cells)
            assert pairs.clamped[i] == clamped
            view, view_clamped = det.subtract_accidentals(raw)
            assert same_bits(astuple(view), astuple(corrected))
            assert view_clamped == clamped
            for kind, table in enumerate((raw, corrected)):
                total = table.coincidence_sum()
                v, sigma = scalar_visibility(table)
                assert (pairs.coincidences[kind, i] > 0.0) == (v is not None)
                assert same_bits(
                    [pairs.coincidences[kind, i], pairs.efficiency[kind, i]],
                    [total, total / max(table.n_woR + table.n_woL, 1.0)],
                )
                assert same_bits(
                    [pairs.visibility[kind, i], pairs.sigma[kind, i]],
                    [v, sigma] if v is not None else [0.0, 0.0],
                )
                if v is not None:
                    assert same_bits([det.visibility_raw(table)], [v])

    def test_stacks_cover_every_case(self):
        counts = np.concatenate(pair_count_stacks())
        pairs = det.pair_stack(det.pair_fields(counts))
        assert pairs.clamped.any() and not pairs.clamped.all()
        seen = pairs.coincidences > 0.0
        assert not seen[0].all() and not seen[1].all()
        assert (seen[0] & ~seen[1]).any()  # the correction removes every coincidence
        assert (pairs.fields[:, :8] == 0).all(axis=1).any()  # a table with no click
        assert np.isin(pairs.visibility[0], (1.0, -1.0)).any()

    def test_zero_trials_errors(self):
        with pytest.raises(ValueError, match="N > 0"):
            det.pair_stack(np.zeros((2, 9)))

    def test_perfect_correlation_keeps_a_nonzero_sigma(self):
        # v = +-1 zeroes the binomial sigma; the error bar becomes 1 / n instead
        fields = [[50, 50, 0, 0, 50, 50, 50, 50, 100], [0, 0, 1, 0, 0, 1, 0, 1, 1]]
        pairs = det.pair_stack(fields)
        np.testing.assert_array_equal(pairs.visibility[0], [1.0, -1.0])
        np.testing.assert_array_equal(pairs.sigma[0], [1.0 / 100, 1.0])


class TestCsvNumbers:
    VALUES = [0.0, -0.0, 0.1, 1e-300, 1e20, math.inf, -math.inf, math.nan, 3.0, -2.5]

    def test_column_equals_scalar(self):
        assert det.csv_numbers(self.VALUES) == [det.csv_number(v) for v in self.VALUES]

    def test_int64_counts(self):
        counts = np.array([[0, 1, 2**31], [2**53, 2**53 + 1, 2**62]], dtype=np.int64)
        assert det.csv_numbers(counts) == [det.csv_number(v) for v in counts.ravel()]

    def test_stack_and_tables_write_the_same_bytes(self, tmp_path):
        counts = np.concatenate(pair_count_stacks())
        pairs = det.pair_stack(det.pair_fields(counts))
        det.write_coincidence_csv(tmp_path / "stack.csv", pairs.fields)
        tables = np.array([astuple(scalar_table(c)) for c in counts])
        det.write_coincidence_csv(tmp_path / "tables.csv", tables)
        stack = (tmp_path / "stack.csv").read_bytes()
        assert stack == (tmp_path / "tables.csv").read_bytes()

    def test_coincidence_rows_follow_the_header(self, tmp_path):
        tables = [
            det.CoincidenceTable(
                n_RL=40, n_LR=35, n_LL=12, n_RR=9,
                n_woR=100, n_woL=90, n_roR=80, n_roL=70, N=1000,
            ),
            det.CoincidenceTable(n_RL=0.25, n_woR=1, n_roL=1, N=8),
        ]
        path = tmp_path / "pair.csv"
        det.write_coincidence_csv(path, np.array([astuple(t) for t in tables]))
        assert path.read_bytes() == (
            f"{det.CSV_HEADER}\n40,35,12,9,100,90,80,70,1000\n0.25,0,0,0,1,0,0,1,8\n"
        ).encode()

    def test_empty_stack_writes_the_header(self, tmp_path):
        det.write_coincidence_csv(tmp_path / "empty.csv", np.zeros((0, 9)))
        assert (tmp_path / "empty.csv").read_text() == det.CSV_HEADER + "\n"
