"""Witness decomposition, count-based fidelity estimation, sigma propagation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memnet_sim import quantum as q
from memnet_sim import witness as w


def ghz_projector_direct(spec: w.GhzSpec) -> np.ndarray:
    """Independent construction straight from the two branch kets."""
    dim = 2**spec.n_qubits
    ket = np.zeros(dim, dtype=complex)
    ket[q.bits_to_index(spec.pattern0)] = 1 / np.sqrt(2)
    ket[q.bits_to_index(spec.pattern1)] = spec.phase / np.sqrt(2)
    return np.outer(ket, ket.conj())


def reconstruct(spec: w.GhzSpec) -> np.ndarray:
    return sum(t.coefficient * t.embed() for t in w.decompose(spec))


SPEC6 = w.GhzSpec.parse("HHH↓↓↑", "VVV↑↑↓")
SPEC3 = w.GhzSpec.parse("↓↓↑", "↑↑↓")


class TestSpecParsing:
    def test_symbol_alphabet(self):
        assert SPEC6.pattern0 == (0, 0, 0, 0, 0, 1)
        assert SPEC6.pattern1 == (1, 1, 1, 1, 1, 0)
        assert SPEC3.pattern0 == (0, 0, 1)

    def test_non_complementary_rejected(self):
        with pytest.raises(ValueError, match="complement"):
            w.GhzSpec(2, (0, 0), (1, 0))

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            w.GhzSpec(2, (0, 0), (1, 1), phase=2)


class TestDecomposition:
    @pytest.mark.parametrize(
        "spec",
        [
            w.GhzSpec(2, (0, 0), (1, 1)),
            w.GhzSpec(3, (0, 0, 0), (1, 1, 1)),
            SPEC3,
            SPEC6,
            w.GhzSpec(6, (0,) * 6, (1,) * 6, phase=-1),
            w.GhzSpec(4, (0, 1, 1, 0), (1, 0, 0, 1), phase=-1),
        ],
    )
    def test_reconstructs_projector(self, spec):
        np.testing.assert_allclose(
            reconstruct(spec), ghz_projector_direct(spec), atol=1e-12
        )

    def test_term_inventory(self):
        terms = w.decompose(SPEC6)
        pops = [t for t in terms if t.setting_id == w.POPULATION_SETTING]
        cohs = [t for t in terms if t.setting_id != w.POPULATION_SETTING]
        assert len(pops) == 2 and all(t.coefficient == 0.5 for t in pops)
        assert len(cohs) == 6
        assert sorted(t.setting_id for t in cohs) == [f"m{k}" for k in range(6)]
        assert all(abs(abs(t.coefficient) - 1 / 12) < 1e-15 for t in cohs)

    def test_setting_bases_diagonalize_terms(self):
        bases = w.setting_bases(SPEC6)
        for term in w.decompose(SPEC6):
            if term.setting_id == w.POPULATION_SETTING:
                continue
            for factor, basis in zip(term.factors, bases[term.setting_id]):
                d = basis.conj().T @ factor @ basis
                np.testing.assert_allclose(d, np.diag([1, -1]), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 6),
    bits=st.integers(0, 63),
    phase=st.sampled_from([+1, -1]),
)
def test_reconstruction_identity_random_patterns(n, bits, phase):
    p0 = tuple((bits >> i) & 1 for i in range(n))
    p1 = tuple(1 - b for b in p0)
    spec = w.GhzSpec(n, p0, p1, phase)
    np.testing.assert_allclose(reconstruct(spec), ghz_projector_direct(spec), atol=1e-12)


class TestFidelityFromExpectations:
    def test_six_fold_published_point(self):
        # populations 0.43/0.28 and a coherence sum consistent with 0.686
        m = [0.662 * (-1) ** n for n in range(6)]
        f = w.fidelity_from_expectations(SPEC6, 0.28, 0.43, m)
        assert f == pytest.approx(0.5 * 0.71 + 0.331, abs=1e-12)
        assert f == pytest.approx(0.686, abs=1e-3)

    def test_three_fold_published_point(self):
        m = [0.638 * (-1) ** n for n in range(3)]
        f = w.fidelity_from_expectations(SPEC3, 0.30, 0.48, m)
        assert f == pytest.approx(0.39 + 0.319, abs=1e-12)
        assert f == pytest.approx(0.709, abs=1e-3)

    def test_exact_on_random_states(self):
        rng = np.random.default_rng(42)
        reg = (q.spin("I"), q.spin("II"), q.spin("III"))
        terms = w.decompose(SPEC3)
        target = np.zeros(8, dtype=complex)
        target[q.bits_to_index(SPEC3.pattern0)] = 1 / np.sqrt(2)
        target[q.bits_to_index(SPEC3.pattern1)] = 1 / np.sqrt(2)
        psi = q.DensityMatrix(reg, np.outer(target, target.conj()))
        for _ in range(25):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            m = a @ a.conj().T
            rho = q.DensityMatrix(reg, m / np.trace(m))
            p0 = np.real(np.trace(rho.matrix @ terms[0].embed()))
            p1 = np.real(np.trace(rho.matrix @ terms[1].embed()))
            coh = [
                np.real(np.trace(rho.matrix @ t.embed()))
                for t in terms
                if t.setting_id != w.POPULATION_SETTING
            ]
            f = w.fidelity_from_expectations(SPEC3, p0, p1, coh)
            np.testing.assert_allclose(f, q.pure_state_fidelity(psi, rho), atol=1e-10)

    def test_monotone_in_inputs(self):
        m = [0.5 * (-1) ** n for n in range(3)]
        base = w.fidelity_from_expectations(SPEC3, 0.3, 0.4, m)
        assert w.fidelity_from_expectations(SPEC3, 0.35, 0.4, m) > base
        better = [0.6 if n == 0 else m[n] for n in range(3)]
        assert w.fidelity_from_expectations(SPEC3, 0.3, 0.4, better) > base


def multinomial_tables(spec, rng, shots, rho):
    """Sample ideal-measurement count tables from an exact state."""
    reg = tuple(q.spin(n) for n in ("I", "II", "III"))
    dm = q.DensityMatrix(reg, rho)
    bases = w.setting_bases(spec)
    tables = {}
    for sid, basis in bases.items():
        probs = q.measurement_probabilities(dm, basis, list(reg))
        counts = rng.multinomial(shots, probs / probs.sum())
        tables[sid] = w.SettingCounts(
            sid,
            {
                w.pattern_string(q.index_to_bits(i, 3)): int(c)
                for i, c in enumerate(counts)
                if c
            },
            total=shots,
        )
    return tables


class TestFidelityFromCounts:
    def test_matches_expectation_route_on_sampled_data(self):
        rng = np.random.default_rng(1)
        ket = np.zeros(8, dtype=complex)
        ket[q.bits_to_index(SPEC3.pattern0)] = 1 / np.sqrt(2)
        ket[q.bits_to_index(SPEC3.pattern1)] = 1 / np.sqrt(2)
        rho = 0.8 * np.outer(ket, ket.conj()) + 0.2 * np.eye(8) / 8
        tables = multinomial_tables(SPEC3, rng, 200_000, rho)
        f, sigma = w.fidelity_from_counts(SPEC3, tables)
        assert f == pytest.approx(0.8 + 0.2 / 8, abs=5 * sigma)
        assert 0 < sigma < 0.01

    def test_sigma_scales_inverse_sqrt(self):
        counts = {"000": 300, "011": 40, "110": 500, "101": 60}
        coh = {
            w.pattern_string(q.index_to_bits(i, 3)): 50 + 10 * i for i in range(8)
        }
        tables = {w.POPULATION_SETTING: w.SettingCounts(w.POPULATION_SETTING, counts)}
        for k in range(3):
            tables[f"m{k}"] = w.SettingCounts(f"m{k}", coh)
        f1, s1 = w.fidelity_from_counts(SPEC3, tables)
        doubled = {
            sid: w.SettingCounts(sid, {p: 2 * c for p, c in t.counts.items()})
            for sid, t in tables.items()
        }
        f2, s2 = w.fidelity_from_counts(SPEC3, doubled)
        assert f2 == pytest.approx(f1, abs=1e-12)
        assert s2 == pytest.approx(s1 / np.sqrt(2), rel=1e-9)

    def test_sigma_against_parametric_bootstrap(self):
        rng = np.random.default_rng(2024)
        ket = np.zeros(8, dtype=complex)
        ket[q.bits_to_index(SPEC3.pattern0)] = 1 / np.sqrt(2)
        ket[q.bits_to_index(SPEC3.pattern1)] = 1 / np.sqrt(2)
        rho = 0.7 * np.outer(ket, ket.conj()) + 0.3 * np.eye(8) / 8
        tables = multinomial_tables(SPEC3, rng, 3_000, rho)
        _, sigma = w.fidelity_from_counts(SPEC3, tables)
        boot = []
        for _ in range(2_000):
            resampled = {
                sid: w.SettingCounts(
                    sid, {p: rng.poisson(c) for p, c in t.counts.items()}
                )
                for sid, t in tables.items()
            }
            try:
                fb, _ = w.fidelity_from_counts(SPEC3, resampled)
            except ValueError:
                continue
            boot.append(fb)
        assert sigma == pytest.approx(np.std(boot), rel=0.10)

    def test_calibration_weights_reweight_ratios(self):
        # hand-computed weighted ratio estimates on a small fixed table
        pop = {"001": 40.0, "110": 30.0, "000": 20.0, "111": 10.0}
        coh = {"000": 50.0, "011": 10.0, "001": 25.0, "111": 15.0}
        weights = {"001": 2.0, "110": 0.5, "000": 1.0, "111": 4.0, "011": 1.0}
        tables = {w.POPULATION_SETTING: w.SettingCounts(w.POPULATION_SETTING, pop)}
        for k in range(3):
            tables[f"m{k}"] = w.SettingCounts(f"m{k}", coh)
        f, _ = w.fidelity_from_counts(SPEC3, tables, weights=weights)
        wpop = {p: weights[p] * c for p, c in pop.items()}
        wcoh = {p: weights[p] * c for p, c in coh.items()}
        p0 = wpop["001"] / sum(wpop.values())
        p1 = wpop["110"] / sum(wpop.values())
        # parity sign: even bit-sum patterns count +1, odd count -1
        r = (wcoh["000"] + wcoh["011"] - wcoh["001"] - wcoh["111"]) / sum(
            wcoh.values()
        )
        expected = 0.5 * (p0 + p1) + (1 / 6) * (r - r + r)
        assert f == pytest.approx(expected, abs=1e-12)

    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(5)
        ket = np.zeros(8, dtype=complex)
        ket[q.bits_to_index(SPEC3.pattern0)] = 1 / np.sqrt(2)
        ket[q.bits_to_index(SPEC3.pattern1)] = 1 / np.sqrt(2)
        rho = 0.75 * np.outer(ket, ket.conj()) + 0.25 * np.eye(8) / 8
        tables = multinomial_tables(SPEC3, rng, 10_000, rho)
        unit = {w.pattern_string(q.index_to_bits(i, 3)): 1.0 for i in range(8)}
        f0, s0 = w.fidelity_from_counts(SPEC3, tables)
        f1, s1 = w.fidelity_from_counts(SPEC3, tables, weights=unit)
        assert f1 == pytest.approx(f0, abs=1e-12)
        assert s1 == pytest.approx(s0, rel=1e-9)

    def test_missing_setting_errors(self):
        tables = {
            w.POPULATION_SETTING: w.SettingCounts(w.POPULATION_SETTING, {"001": 5})
        }
        with pytest.raises(ValueError, match="missing settings"):
            w.fidelity_from_counts(SPEC3, tables)

    def test_zero_total_errors(self):
        tables = {
            sid: w.SettingCounts(sid, {"001": 0})
            for sid in SPEC3.setting_ids()
        }
        with pytest.raises(ValueError, match="zero total"):
            w.fidelity_from_counts(SPEC3, tables)

    def test_counts_exceeding_total_rejected(self):
        with pytest.raises(ValueError, match="exceeds total"):
            w.SettingCounts("population", {"00": 10, "11": 10}, total=5)


class TestBellFidelity:
    def test_published_value(self):
        assert w.bell_fidelity_from_visibilities(0.901, 0.901) == pytest.approx(
            0.926, abs=1e-3
        )

    def test_perfect_visibilities(self):
        assert w.bell_fidelity_from_visibilities(1.0, 1.0) == pytest.approx(1.0)

    def test_range_check(self):
        with pytest.raises(ValueError):
            w.bell_fidelity_from_visibilities(1.2, 0.5)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        tables = [
            w.SettingCounts("population", {"000": 12, "111": 30}),
            w.SettingCounts("m0", {"010": 7, "101": 1}),
        ]
        path = tmp_path / "counts.csv"
        w.write_setting_counts_csv(path, tables)
        back = w.read_setting_counts_csv(path)
        assert back["population"].counts == {"000": 12, "111": 30}
        assert back["m0"].counts == {"010": 7, "101": 1}
        header = path.read_text().splitlines()[0]
        assert header == "setting_id,outcome_pattern,count"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,pattern,n\npopulation,000,3\n")
        with pytest.raises(ValueError, match="header"):
            w.read_setting_counts_csv(path)
