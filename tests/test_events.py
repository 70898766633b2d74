"""Tests for heralded-event enumeration, conditional sampling, raw trials."""

import itertools
import math

import numpy as np
import pytest

from memnet_sim import config as cf
from memnet_sim import detection as det
from memnet_sim import events as ev
from memnet_sim import harness as h
from memnet_sim import node as nd
from memnet_sim import optics as op
from memnet_sim import quantum as q
from memnet_sim import witness as w
from memnet_sim.detection import DetectorConfig
from memnet_sim.node import NodeConfig


def noisy_config(p_w=0.3, dark=0.05, **node_kwargs):
    defaults = dict(
        p_w=p_w,
        eta_r0=0.6,
        tau_mem_us=75.0,
        tau_vis_us=169.2,
        depol_weight=0.1,
        branch_weight_down=0.45,
    )
    defaults.update(node_kwargs)
    nodes = tuple(NodeConfig(nid, **defaults) for nid in ("I", "II", "III"))
    return cf.ExperimentConfig(
        nodes=nodes,
        detector=DetectorConfig(dark_count_prob=dark),
        read_delay_us=5.0,
        interference_visibility=0.9,
    )


def random_config(rng, p_w=(0.02, 0.45), dark=(0.0, 0.1)):
    """A valid config with independently drawn node parameters."""
    nodes = tuple(
        NodeConfig(
            nid,
            p_w=rng.uniform(*p_w),
            eta_r0=rng.uniform(0.2, 1.0),
            tau_mem_us=rng.uniform(20.0, 500.0),
            tau_vis_us=rng.uniform(20.0, 500.0),
            zeeman_period_us=rng.uniform(3.0, 8.0),
            phi0=rng.uniform(0.0, 2 * math.pi),
            excitation_order=int(rng.integers(1, 3)),
            depol_weight=rng.uniform(0.0, 0.3),
            branch_weight_down=rng.uniform(0.3, 0.7),
        )
        for nid in ("I", "II", "III")
    )
    return cf.ExperimentConfig(
        nodes=nodes,
        detector=DetectorConfig(dark_count_prob=rng.uniform(*dark)),
        read_delay_us=rng.uniform(0.0, 10.0),
        interference_visibility=rng.uniform(0.5, 1.0),
    )


def loop_write_branches(terms):
    """Yield (probability, photon pol per node or None, memory kind per node)
    for every incoherent write branch, one at a time."""
    for combo in itertools.product((ev.VACUUM, ev.SINGLE, ev.DOUBLE), repeat=3):
        base = math.prod(t.write_probabilities[c] for t, c in zip(terms, combo))
        if base <= 0.0:
            continue
        photon_nodes = [k for k in range(3) if combo[k] != ev.VACUUM]
        for pols in itertools.product((0, 1), repeat=len(photon_nodes)):
            if combo == (ev.SINGLE,) * 3 and pols in ((0, 0, 0), (1, 1, 1)):
                continue
            prob = base
            photon_pol = [None, None, None]
            kinds = [ev.VACUUM, ev.VACUUM, ev.VACUUM]
            for k, pol in zip(photon_nodes, pols):
                photon_pol[k] = pol
                if combo[k] == ev.SINGLE:
                    prob *= terms[k].born[pol]
                    kinds[k] = ("single", pol)
                else:
                    prob *= 0.5
                    kinds[k] = ev.DOUBLE
            yield prob, photon_pol, kinds


def loop_port_loads(photon_pol):
    ports = [[], [], []]
    for k, pol in enumerate(photon_pol):
        if pol is not None:
            ports[op.ROUTE[(k, "HV"[pol])]].append(pol)
    return [tuple(p) for p in ports]


def loop_single_click(hits, dark):
    clicks = det.analyzer_clicks(hits, dark)
    one = np.array([clicks[1, 0], clicks[0, 1]])
    total = float(one.sum())
    if total <= 0.0:
        return 0.0, np.array([0.5, 0.5])
    return total, one / total


def loop_port_outcomes(port_bases, dark):
    out = {}
    for port, basis in enumerate(port_bases):
        born_h, born_v = np.abs(basis) ** 2
        hits = {
            (): det.NO_HITS,
            (0,): det.photon_hits(1.0, born_h),
            (1,): det.photon_hits(1.0, born_v),
            (0, 1): det.bunched_hits(born_h, born_v),
            (1, 0): det.bunched_hits(born_h, born_v),
        }
        out.update({(port, k): loop_single_click(h, dark) for k, h in hits.items()})
    return out


def loop_memory_outcomes(memory_bases, terms, dark):
    out = {}
    for k, (term, basis) in enumerate(zip(terms, memory_bases)):
        hits = {
            ev.VACUUM: det.NO_HITS,
            ev.DOUBLE: det.photon_hits(term.eta_dbl, (0.5, 0.5)),
        }
        for pol in (0, 1):
            born = nd.born2(basis, term.spins[pol])
            hits["single", pol] = det.photon_hits(term.eta, born)
        out.update({(k, kind): loop_single_click(h, dark) for kind, h in hits.items()})
    return out


def reference_station_state(cfg):
    """The coherent sector's six-qubit state and its flipped twin, built
    apart from the tables: each fresh pair aged by ``storage_channel`` and
    mapped by its waveplate, then ``connect_three``."""
    kwargs = {"extra_coherence": cfg.interference_visibility}
    if cfg.envelopes:
        kwargs["envelopes"] = {
            nid: cf.envelope_from_spec(spec) for nid, spec in cfg.envelopes.items()
        }
        kwargs["delta_omega_rad_per_us"] = 2 * math.pi / cfg.nodes[0].zeeman_period_us
    pairs = [
        q.apply_unitary(
            nd.storage_channel(n, nd.entangled_pair_state(n), cfg.read_delay_us),
            op.polarization_map(n.node_id),
            [q.photon(n.node_id)],
        )
        for n in cfg.nodes
    ]
    state, _ = op.connect_three(pairs, **kwargs)
    return state, q.apply_unitary(state, q.PAULI_Z, [q.spin("I")])


def loop_coherent_dist(states, setting, real):
    """Ports plus the retrieved memories, measured directly, with uniform
    dark-count axes inserted for the others; flattened to 64."""
    state, flipped_state = states
    targets = list(op.STATION_PORTS) + [op.MEMORY_SPINS[k] for k in sorted(real)]
    bases = list(setting.port_bases) + [setting.memory_bases[k] for k in sorted(real)]
    dist = q.measurement_probabilities(state, bases, targets)
    if setting.feedforward:
        flipped = q.measurement_probabilities(flipped_state, bases, targets)
        herald = np.arange(dist.size) >> len(real)
        parity = ((herald >> 2) + (herald >> 1) + herald) & 1
        dist = np.where(parity == 1, flipped, dist)
    arr = dist.reshape([2] * (3 + len(real)))
    for k in range(3):
        if k not in real:
            arr = np.expand_dims(arr, axis=3 + k)
    return (np.broadcast_to(arr, [2] * 6) * 0.5 ** (3 - len(real))).reshape(-1)


def loop_event_tables(cfg, settings):
    """Reference tables: one event class at a time, its distribution the
    Kronecker product of its six factors, and one measurement of the
    coherent sector's six-qubit state per retrieval subset."""
    terms = ev._station_terms(cfg)
    states = reference_station_state(cfg)
    p_coherent = math.prod(t.write_probabilities[ev.SINGLE] for t in terms) * (
        math.prod(t.born[0] for t in terms) + math.prod(t.born[1] for t in terms)
    )
    dark = cfg.detector.dark_count_prob
    hit_one, _ = loop_single_click(det.photon_hits(1.0, (0.5, 0.5)), dark)
    fill, _ = loop_single_click(det.NO_HITS, dark)
    branches = list(loop_write_branches(terms))
    tables = []
    for setting in settings:
        probs, dists = [], []
        ports = loop_port_outcomes(setting.port_bases, dark)
        memories = loop_memory_outcomes(setting.memory_bases, terms, dark)
        for prob, photon_pol, kinds in branches:
            factors = []
            for port, load in enumerate(loop_port_loads(photon_pol)):
                p_click, dist = ports[port, load]
                prob = prob * p_click
                factors.append(dist)
            for k, kind in enumerate(kinds):
                p_click, dist = memories[k, kind]
                prob = prob * p_click
                factors.append(dist)
            if prob > 0.0:
                probs.append(prob)
                out = factors[0]
                for f in factors[1:]:
                    out = np.kron(out, f)
                dists.append(out)
        clean = 0.0
        for mask in range(8):
            real = frozenset(k for k in range(3) if mask >> k & 1)
            prob = p_coherent * hit_one**3
            for k in range(3):
                if k in real:
                    prob *= terms[k].eta * hit_one
                else:
                    prob *= (1.0 - terms[k].eta) * fill
            if prob <= 0.0:
                continue
            probs.append(prob)
            dists.append(loop_coherent_dist(states, setting, real))
            if len(real) == 3:
                clean = prob
        tables.append((setting.setting_id, np.array(probs), np.array(dists), clean))
    return tables


def loop_conditional_success(cfg):
    """Reference: the false-herald sum accumulated branch by branch."""
    terms = ev._station_terms(cfg)
    dark = cfg.detector.dark_count_prob
    hit_one, _ = loop_single_click(det.photon_hits(1.0, (0.5, 0.5)), dark)
    p_all_single = math.prod(t.write_probabilities[ev.SINGLE] for t in terms)
    success = math.prod(t.born[0] for t in terms) + math.prod(
        t.born[1] for t in terms
    )
    numerator = p_all_single * success * hit_one**3
    denom = numerator
    ports = loop_port_outcomes((q.BASIS_DA,) * 3, dark)
    for prob, photon_pol, _ in loop_write_branches(terms):
        for port, load in enumerate(loop_port_loads(photon_pol)):
            prob = prob * ports[port, load][0]
        denom += prob
    return numerator / denom


def displaced_envelopes(cfg):
    return cfg.with_overrides(
        envelopes={
            "I": {"shape": "gaussian", "center_us": 0.0, "width_us": 0.05},
            "II": {"shape": "gaussian", "center_us": 0.0, "width_us": 0.05},
            "III": {"shape": "gaussian", "center_us": 0.08, "width_us": 0.05},
        }
    )


ORACLE_CONFIGS = {
    "ideal": lambda: cf.preset("ideal"),
    "paper": lambda: cf.preset("paper"),
    "noisy": lambda: noisy_config(),
    "envelopes": lambda: displaced_envelopes(noisy_config()),
    **{
        f"random{seed}": (lambda seed=seed: random_config(np.random.default_rng(seed)))
        for seed in (101, 102, 103)
    },
}


def table_distributions(tables):
    """Each setting's exact 64-pattern distribution, as witness counts."""
    return {t.setting_id: t.outcome_distribution() for t in tables}


class TestSettings:
    def test_ghz6_setting_ids(self):
        ids = [s.setting_id for s in ev.ghz6_settings()]
        assert ids == ["population", "m0", "m1", "m2", "m3", "m4", "m5"]

    def test_ghz6_population_ports_are_hv(self):
        pop = ev.ghz6_settings()[0]
        for b in pop.port_bases:
            np.testing.assert_allclose(b, np.eye(2))
        assert not pop.feedforward

    def test_ghz6_coherence_ports_are_equatorial(self):
        for s in ev.ghz6_settings()[1:]:
            for b in s.port_bases:
                np.testing.assert_allclose(np.abs(b), np.full((2, 2), 2**-0.5))

    def test_ghz3_settings_fixed_da_ports(self):
        for s in ev.ghz3_settings():
            assert s.feedforward
            for b in s.port_bases:
                np.testing.assert_allclose(b.real, np.array([[1, 1], [1, -1]]) / 2**0.5)

    def test_ghz3_setting_ids(self):
        ids = [s.setting_id for s in ev.ghz3_settings()]
        assert ids == ["population", "m0", "m1", "m2"]


class TestIdealTables:
    def test_single_clean_class(self):
        cfg = cf.preset("ideal")
        table = ev.build_event_tables(cfg, [ev.ghz6_settings()[0]])[0]
        assert table.probabilities.size == 1
        p, eta = cfg.nodes[0].p_w, cfg.nodes[0].eta_r0
        expected = p**3 * 0.25 * eta**3
        assert table.p_sixfold == pytest.approx(expected, rel=1e-12)
        assert table.clean_probability == pytest.approx(expected, rel=1e-12)

    def test_population_support_is_ghz(self):
        cfg = cf.preset("ideal")
        table = ev.build_event_tables(cfg, [ev.ghz6_settings()[0]])[0]
        dist = table.outcome_distribution()
        assert dist[0b000001] == pytest.approx(0.5, abs=1e-12)
        assert dist[0b111110] == pytest.approx(0.5, abs=1e-12)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_ghz6_fidelity_is_one(self):
        cfg = cf.preset("ideal")
        tables = ev.build_event_tables(cfg, ev.ghz6_settings())
        f, _ = w.fidelity_from_counts(ev.GHZ6_SPEC, table_distributions(tables))
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_ghz3_fidelity_is_one_and_heralds_uniform(self):
        cfg = cf.preset("ideal")
        tables = ev.build_event_tables(cfg, ev.ghz3_settings())
        settings = {}
        for t in tables:
            dist = t.outcome_distribution().reshape(8, 8)
            np.testing.assert_allclose(dist.sum(axis=1), 0.125, atol=1e-12)
            settings[t.setting_id] = dist.sum(axis=0)
        f, _ = w.fidelity_from_counts(ev.GHZ3_SPEC, settings)
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_feedforward_flag_matters(self):
        # without the herald-conditioned flip the coherence settings average
        # to zero over the eight patterns and the fidelity drops to the
        # population floor
        cfg = cf.preset("ideal")
        no_ff = [
            ev.SettingSpec(s.setting_id, s.port_bases, s.memory_bases, False)
            for s in ev.ghz3_settings()
        ]
        tables = ev.build_event_tables(cfg, no_ff)
        settings = {}
        for t in tables:
            settings[t.setting_id] = t.outcome_distribution().reshape(8, 8).sum(axis=0)
        f, _ = w.fidelity_from_counts(ev.GHZ3_SPEC, settings)
        assert f == pytest.approx(0.5, abs=1e-9)


class TestNoisyTables:
    def test_rows_normalized_and_bounded(self):
        cfg = noisy_config()
        for setting in (*ev.ghz6_settings(), *ev.ghz3_settings()):
            table = ev.build_event_tables(cfg, [setting])[0]
            np.testing.assert_allclose(
                table.distributions.sum(axis=1), 1.0, atol=1e-9
            )
            assert 0.0 < table.clean_probability < table.p_sixfold < 1.0

    def test_herald_probability_constant_across_memory_settings(self):
        # memory analyzer bases cannot change how often six-folds occur
        cfg = noisy_config()
        tables = ev.build_event_tables(cfg, ev.ghz3_settings())
        p = [t.p_sixfold for t in tables]
        np.testing.assert_allclose(p, p[0], rtol=1e-12)

    def test_population_ports_reject_bunching(self):
        # in the H/V port basis a bunched port never fakes a single click,
        # so the herald rate is lower than in an equatorial port basis
        cfg = noisy_config(dark=0.02)
        tables = ev.build_event_tables(cfg, ev.ghz6_settings()[:2])
        assert tables[0].p_sixfold < tables[1].p_sixfold

    def test_displaced_envelopes_cut_coherence_not_populations(self):
        base = noisy_config(dark=0.0)
        envs = {
            "I": {"shape": "gaussian", "center_us": 0.0, "width_us": 0.05},
            "II": {"shape": "gaussian", "center_us": 0.0, "width_us": 0.05},
            "III": {"shape": "gaussian", "center_us": 0.08, "width_us": 0.05},
        }
        displaced = base.with_overrides(envelopes=envs)
        pop0, popd = (
            ev.build_event_tables(c, [ev.ghz6_settings()[0]])[0].outcome_distribution()
            for c in (base, displaced)
        )
        np.testing.assert_allclose(popd, pop0, atol=1e-12)
        m0, md = (
            ev.build_event_tables(c, ev.ghz6_settings())
            for c in (base, displaced)
        )
        f0, _ = w.fidelity_from_counts(ev.GHZ6_SPEC, table_distributions(m0))
        fd, _ = w.fidelity_from_counts(ev.GHZ6_SPEC, table_distributions(md))
        assert fd < f0 - 0.01


class TestSampler:
    def test_sample_matches_expectation(self):
        cfg = noisy_config()
        table = ev.build_event_tables(cfg, [ev.ghz6_settings()[3]])[0]
        n = 200_000
        counts = table.sample(n, np.random.default_rng(5))
        assert counts.sum() == n
        mu = n * table.outcome_distribution()
        sd = np.sqrt(np.maximum(mu * (1 - mu / n), 1e-12))
        assert np.all(np.abs(counts - mu) <= 5.0 * sd + 1.0)

    def test_sample_deterministic_given_stream(self):
        cfg = noisy_config()
        table = ev.build_event_tables(cfg, [ev.ghz3_settings()[0]])[0]
        a = table.sample(5000, np.random.Generator(np.random.Philox(key=123)))
        b = table.sample(5000, np.random.Generator(np.random.Philox(key=123)))
        np.testing.assert_array_equal(a, b)


class TestConditionalSuccess:
    def test_ideal_is_exactly_one(self):
        assert ev.conditional_success_estimate(cf.preset("ideal")) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_no_dark_limit_approaches_one(self):
        cfg = cf.ExperimentConfig()  # order 2, zero dark counts
        assert ev.conditional_success_estimate(cfg) > 0.93
        tiny = tuple(
            NodeConfig(nid, p_w=1e-4, excitation_order=2) for nid in ("I", "II", "III")
        )
        est = ev.conditional_success_estimate(cf.ExperimentConfig(nodes=tiny))
        assert est > 0.999

    def test_doubling_p_w_decreases_without_darks(self):
        def est(p):
            nodes = tuple(
                NodeConfig(nid, p_w=p, excitation_order=2)
                for nid in ("I", "II", "III")
            )
            return ev.conditional_success_estimate(cf.ExperimentConfig(nodes=nodes))

        assert est(0.2) < est(0.1) < est(0.05)

    def test_dark_counts_lower_the_estimate(self):
        base = cf.ExperimentConfig()
        dark = base.with_overrides(detector=DetectorConfig(dark_count_prob=0.01))
        assert ev.conditional_success_estimate(dark) < ev.conditional_success_estimate(
            base
        )

    def test_saturated_darks_raise(self):
        # every channel always clicks, so no port shows exactly one click
        cfg = cf.preset("paper").with_overrides(
            detector=DetectorConfig(dark_count_prob=1.0)
        )
        with pytest.raises(ValueError, match="no station heralds possible"):
            ev.conditional_success_estimate(cfg)


class TestCoherentSector:
    @pytest.mark.parametrize("name", ["noisy", "random101", "random102"])
    def test_state_aged_by_read_delay(self, name):
        # reference order: the station on fresh pairs, then storage on the
        # six-qubit state; the sector ages each pair before the station
        cfg = ORACLE_CONFIGS[name]()
        aged = [
            q.DensityMatrix((q.photon(n.node_id), q.spin(n.node_id)), t.pair.reshape(4, 4))
            for n, t in zip(cfg.nodes, ev._station_terms(cfg))
        ]
        got, _ = op.connect_three(aged, extra_coherence=cfg.interference_visibility)
        pairs = [
            q.apply_unitary(
                nd.entangled_pair_state(n),
                op.polarization_map(n.node_id),
                [q.photon(n.node_id)],
            )
            for n in cfg.nodes
        ]
        state, _ = op.connect_three(pairs, extra_coherence=cfg.interference_visibility)
        for n in cfg.nodes:
            state = nd.storage_channel(n, state, cfg.read_delay_us)
        np.testing.assert_allclose(got.matrix, state.matrix, rtol=0, atol=1e-12)


class TestNoSixQubitState:
    @pytest.mark.parametrize("scenario", cf.SCENARIO_IDS)
    def test_scenarios_build_no_register_state(self, scenario, monkeypatch):
        # every scenario runs on plain arrays: the register layer, storage
        # channel and six-qubit path are the tests' reference only
        def refuse(*args, **kwargs):
            raise AssertionError("register-layer path called")

        monkeypatch.setattr(op, "connect_three", refuse)
        monkeypatch.setattr(q, "measurement_probabilities", refuse)
        monkeypatch.setattr(q, "apply_unitary", refuse)
        monkeypatch.setattr(nd, "storage_channel", refuse)
        monkeypatch.setattr(q.DensityMatrix, "__post_init__", refuse)
        cfg = cf.preset("paper").with_overrides(scenario=scenario, samples=2_000)
        assert h.run_scenario(cfg).body


class TestLoopOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("make_settings", [ev.ghz6_settings, ev.ghz3_settings])
    def test_tables_match_loop_reference(self, name, make_settings):
        cfg = ORACLE_CONFIGS[name]()
        settings = make_settings()
        got = ev.build_event_tables(cfg, settings)
        want = loop_event_tables(cfg, settings)
        assert [t.setting_id for t in got] == [sid for sid, *_ in want]
        for table, (_, probs, dists, clean) in zip(got, want):
            # same multiplication order, so the class probabilities are equal
            np.testing.assert_array_equal(table.probabilities, probs)
            np.testing.assert_allclose(table.distributions, dists, rtol=0, atol=1e-15)
            assert table.clean_probability == clean

    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_conditional_success_matches_loop(self, name):
        cfg = ORACLE_CONFIGS[name]()
        want = loop_conditional_success(cfg)
        assert ev.conditional_success_estimate(cfg) == want
        shared = ev._write_branches(cfg)
        assert ev.conditional_success_estimate(cfg, _branches=shared) == want


class TestRawAgainstTable:
    @pytest.mark.parametrize(
        "setting_factory, index",
        [(ev.ghz6_settings, 0), (ev.ghz6_settings, 2), (ev.ghz3_settings, 1)],
    )
    def test_raw_counts_within_5_sigma(self, setting_factory, index):
        cfg = noisy_config()
        setting = setting_factory()[index]
        table = ev.build_event_tables(cfg, [setting])[0]
        n = 300_000
        raw = ev.raw_trial_counts(cfg, setting, n, np.random.default_rng(11))
        mu = table.expected_counts(n)
        sd = np.sqrt(np.maximum(mu * (1 - mu / n), 1e-12))
        assert np.all(np.abs(raw - mu) <= 5.0 * sd + 1.0)
        total_sd = np.sqrt(mu.sum())
        assert abs(raw.sum() - mu.sum()) <= 5.0 * total_sd

    @pytest.mark.parametrize("seed", [201, 202, 203])
    def test_random_configs_within_5_sigma(self, seed):
        # high excitation and dark-count probabilities, so that 1e5 raw
        # trials hold enough six-folds to test every populated cell
        rng = np.random.default_rng(seed)
        cfg = random_config(rng, p_w=(0.2, 0.45), dark=(0.02, 0.1))
        n = 100_000
        ghz6 = ev.ghz6_settings()
        # H/V ports (routing), equatorial ports (bunching), feed-forward
        for setting in (
            ghz6[0],
            ghz6[rng.integers(1, 7)],
            ev.ghz3_settings()[rng.integers(4)],
        ):
            table = ev.build_event_tables(cfg, [setting])[0]
            raw = ev.raw_trial_counts(cfg, setting, n, rng)
            mu = table.expected_counts(n)
            sd = np.sqrt(np.maximum(mu * (1 - mu / n), 1e-12))
            assert np.all(np.abs(raw - mu) <= 5.0 * sd + 1.0)
            assert abs(raw.sum() - mu.sum()) <= 5.0 * np.sqrt(mu.sum())


def assert_tables_identical(got, want):
    """Same setting ids, and every array and clean probability bit for bit."""
    assert [t.setting_id for t in got] == [t.setting_id for t in want]
    for a, b in zip(got, want):
        assert a.probabilities.shape == b.probabilities.shape
        assert a.probabilities.tobytes() == b.probabilities.tobytes()
        assert a.distributions.shape == b.distributions.shape
        assert a.distributions.tobytes() == b.distributions.tobytes()
        assert a.clean_probability == b.clean_probability


SETTING_LISTS = {
    "ghz6": lambda: list(ev.ghz6_settings()),
    "ghz3": lambda: list(ev.ghz3_settings()),
    "ghz6_reversed": lambda: list(ev.ghz6_settings())[::-1],
    "ghz3_reversed": lambda: list(ev.ghz3_settings())[::-1],
    # feed-forward on some settings of the stack and off on others
    "mixed": lambda: [
        s for pair in zip(ev.ghz3_settings(), ev.ghz6_settings()) for s in pair
    ] + list(ev.ghz6_settings()[4:]),
}


class TestSettingsBatch:
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("settings", sorted(SETTING_LISTS))
    def test_stack_equals_one_setting_at_a_time(self, name, settings):
        cfg = ORACLE_CONFIGS[name]()
        stack = SETTING_LISTS[settings]()
        alone = [ev.build_event_tables(cfg, [s])[0] for s in stack]
        assert_tables_identical(ev.build_event_tables(cfg, stack), alone)

    @pytest.mark.parametrize("settings", sorted(SETTING_LISTS))
    def test_each_stage_runs_once_per_build(self, settings, monkeypatch):
        calls = {}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("_port_outcomes", "_memory_outcomes", "_coherent_dist"):
            monkeypatch.setattr(ev, name, counted(getattr(ev, name)))
        tables = ev.build_event_tables(noisy_config(), SETTING_LISTS[settings]())
        assert len(tables) == len(SETTING_LISTS[settings]())
        assert calls == {"_port_outcomes": 1, "_memory_outcomes": 1, "_coherent_dist": 1}
