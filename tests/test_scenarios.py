"""Harness and CLI tests: determinism, report artifacts, scenario outputs."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from memnet_sim import cli
from memnet_sim import config as cf
from memnet_sim import detection as det
from memnet_sim import events as ev
from memnet_sim import harness as h
from memnet_sim import node as nd
from memnet_sim import optics as op
from memnet_sim import quantum as q
from memnet_sim import witness as w


def paper_cfg(**kw):
    return cf.preset("paper").with_overrides(**kw)


def ideal_cfg(**kw):
    return cf.preset("ideal").with_overrides(**kw)


def strict_json(text):
    """Parse JSON, rejecting the non-standard Infinity and NaN constants."""

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


GAUSSIAN = {"shape": "gaussian", "center_us": 0.0, "width_us": 0.05}
# a JSON integer beyond the float range
HUGE = 10**400

# the stages each scenario times in report.meta
TELEMETRY_STAGES = {
    "ghz6": {"table_build", "sampling", "estimate"},
    "ghz3": {"table_build", "sampling", "estimate"},
    "pair_tomography": {"tables"},
    "raman_delay_sweep": {"tables", "fit"},
    "lifetime_sweep": {"tables", "fit"},
    "two_node_swap": {"integrals"},
}
# the z value each fitted scenario's gate tests, which meta.fit reports
FIT_Z = {"raman_delay_sweep": "amplitude_z", "lifetime_sweep": "decay_z"}


def set_key(path, value):
    """Config-dict edit that puts ``value`` at the nested key ``path``."""

    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return data

    return edit


def node_i(key, value):
    """Config-dict edit setting node I's ``key``."""
    return set_key(("nodes", 0, key), value)


def swap_params(params):
    """Config-dict edit giving the two_node_swap scenario ``params``."""
    return set_key(("scenario_params",), params)


def raman_params(params):
    """Config-dict edit switching to raman_delay_sweep with ``params``."""

    def edit(data):
        return {**data, "scenario": "raman_delay_sweep", "scenario_params": params}

    return edit


def expected_table(dist, trials):
    """The coincidence table of ``trials`` times the click distribution."""
    return det.CoincidenceTable(*det.pair_stack([dist * trials]).fields[0])


def envelope_for_node_i(spec):
    """Config-dict edit giving node I ``spec`` and nodes II, III ``GAUSSIAN``."""
    return set_key(("envelopes",), {"I": spec, "II": GAUSSIAN, "III": GAUSSIAN})


# ---------------------------------------------------------------------------
# pair trial distribution


class TestPairTrialDistribution:
    def test_normalized_and_nonnegative(self):
        cfg = paper_cfg()
        node = cfg.node("I")
        dist = h._pair_trial_distribution(
            node, cfg.detector, q.BASIS_RL, h._SPIN_RL, 0.0
        )
        assert dist.shape == (16,)
        assert np.all(dist >= 0.0)
        np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)

    def test_noiseless_eigen_correlations_are_exact(self):
        # first-order pair with no darks: coincidences happen exactly when
        # the write fires and the read retrieves, and in the circular/spin-RL
        # analyzer pair they are strictly cross-labeled
        cfg = ideal_cfg()
        node = cfg.node("I")
        dist = h._pair_trial_distribution(
            node, cfg.detector, q.BASIS_RL, h._SPIN_RL, 0.0
        )
        table = expected_table(dist, 1e9)
        expected = node.p_w * node.eta_r0
        np.testing.assert_allclose(table.n_RL + table.n_LR, expected * 1e9, rtol=1e-9)
        assert table.n_RR == pytest.approx(0.0, abs=1e-3)
        assert table.n_LL == pytest.approx(0.0, abs=1e-3)
        assert det.visibility_raw(table) == pytest.approx(1.0, abs=1e-9)

    def test_branch_weight_sets_circular_channel_ratio(self):
        cfg = ideal_cfg()
        node = cf.NodeConfig(**{**cfg.node("I").__dict__, "branch_weight_down": 0.3})
        dist = h._pair_trial_distribution(
            node, cfg.detector, q.BASIS_RL, h._SPIN_RL, 0.0
        )
        table = expected_table(dist, 1e9)
        # the down branch carries the R write photon
        ratio = table.n_RL / (table.n_RL + table.n_LR)
        assert ratio == pytest.approx(0.3, abs=1e-9)

    def test_super_visibility_decays_with_storage_time(self):
        cfg = paper_cfg()
        node = cfg.node("I")

        def corrected_v(dt):
            theta = nd.zeeman_phase(node, dt)
            dist = h._pair_trial_distribution(
                node, cfg.detector, q.BASIS_Z, h._spin_super_basis(theta), dt
            )
            table = expected_table(dist, 1e12)
            corr, _ = det.subtract_accidentals(table)
            return det.visibility_raw(corr)

        period = node.zeeman_period_us
        vs = [corrected_v(k * period) for k in (0, 5, 10, 20)]
        assert all(v1 > v2 for v1, v2 in zip(vs, vs[1:]))
        # decay envelope matches tau_vis within a few percent
        expected = vs[0] * math.exp(-20 * period / node.tau_vis_us)
        assert vs[-1] == pytest.approx(expected, rel=0.05)

    def test_dark_counts_populate_anticorrelated_cells(self):
        cfg = ideal_cfg()
        node = cfg.node("I")
        dark = det.DetectorConfig(dark_count_prob=0.002)
        dist = h._pair_trial_distribution(node, dark, q.BASIS_RL, h._SPIN_RL, 0.0)
        table = expected_table(dist, 1e9)
        assert table.n_RR > 0.0
        assert table.n_LL > 0.0
        assert det.visibility_raw(table) < 1.0


# ---------------------------------------------------------------------------
# deterministic per-table sampling


class TestDeterminism:
    def test_table_rng_stream_is_stable(self):
        a = h._table_rng(7, 3).random(4)
        b = h._table_rng(7, 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_tables_get_distinct_streams(self):
        streams = h._TableStreams(7)
        draws = [streams.take(5).random(4) for _ in range(3)]
        assert (streams.taken, streams.draws) == (3, 15)
        np.testing.assert_array_equal(draws[1], h._table_rng(7, 1).random(4))
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])
        assert not np.array_equal(draws[0], h._table_rng(8, 0).random(4))

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 1, 2**32])
    def test_int_key_draws_as_the_two_word_key(self, seed, index):
        key = np.array([seed, index], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = h._table_rng(seed, index)
        np.testing.assert_array_equal(got.random(8), want.random(8))
        dist = np.full(16, 1.0 / 16)
        np.testing.assert_array_equal(got.multinomial(10_000, dist), want.multinomial(10_000, dist))

    def test_pair_table_holds_odd_budget(self):
        rep = h.run_scenario(paper_cfg(scenario="pair_tomography", samples=1041))
        for table in rep.body["tables"].values():
            assert table["N"] == 1041

    def test_split_budget_is_balanced(self):
        parts = h._split_budget(10, 3)
        assert parts == [4, 3, 3]
        assert sum(h._split_budget(9999, 7)) == 9999

    @pytest.mark.parametrize("scenario", ["pair_tomography", "ghz6", "ghz3"])
    def test_worker_count_does_not_change_body(self, scenario):
        base = paper_cfg(scenario=scenario, samples=4000, seed=31)
        r1 = h.run_scenario(base.with_overrides(workers=1))
        r8 = h.run_scenario(base.with_overrides(workers=8))
        assert r1.body_json() == r8.body_json()
        assert r1.meta["workers"] == 1
        assert r8.meta["workers"] == 8

    def test_same_seed_reproduces_same_seed_differs(self):
        base = paper_cfg(scenario="ghz6", samples=3000)
        r1 = h.run_scenario(base.with_overrides(seed=5))
        r2 = h.run_scenario(base.with_overrides(seed=5))
        r3 = h.run_scenario(base.with_overrides(seed=6))
        assert r1.body_json() == r2.body_json()
        assert r1.body_json() != r3.body_json()


# ---------------------------------------------------------------------------
# scenario bodies


class TestPairTomography:
    def test_visibilities_and_bell_fidelity(self):
        rep = h.run_scenario(
            paper_cfg(scenario="pair_tomography", samples=1_000_000, seed=2)
        )
        b = rep.body
        v = b["visibilities"]
        assert v["eigen"]["corrected"] > v["eigen"]["raw"]
        assert v["super"]["corrected"] > v["super"]["raw"]
        node = paper_cfg().node("I")
        expected_super = (1.0 - node.depol_weight) * 2.0 * math.sqrt(
            node.branch_weight_down * (1.0 - node.branch_weight_down)
        )
        assert v["super"]["corrected"] == pytest.approx(expected_super, abs=0.03)
        f = b["bell_fidelity"]
        assert 0.8 < f["raw"] < f["corrected"] <= 1.0

    def test_ideal_pair_reaches_unit_fidelity(self):
        rep = h.run_scenario(
            ideal_cfg(scenario="pair_tomography", samples=200_000, seed=1)
        )
        assert rep.body["bell_fidelity"]["raw"] == pytest.approx(1.0, abs=1e-9)

    def test_empty_tables_report_null_visibilities(self, capsys):
        rc = cli.main(
            ["--preset", "paper", "--scenario", "pair_tomography", "--samples", "1"]
        )
        assert rc == 0
        body = strict_json(capsys.readouterr().out)["body"]
        for basis in ("eigen", "super"):
            vis = body["visibilities"][basis]
            assert vis["no_coincidences"] is True
            for key in ("raw", "raw_sigma", "corrected", "corrected_sigma"):
                assert vis[key] is None
        assert body["bell_fidelity"] == {"raw": None, "corrected": None}

    def test_unknown_scenario_param_rejected(self):
        cfg = paper_cfg(scenario="pair_tomography", scenario_params={"nope": 1})
        with pytest.raises(ValueError, match="unknown scenario_params"):
            h.run_scenario(cfg)


class TestRamanDelaySweep:
    def test_recovers_zeeman_period(self):
        rep = h.run_scenario(
            paper_cfg(scenario="raman_delay_sweep", samples=50_000, seed=3)
        )
        fit = rep.body["fit"]
        period = paper_cfg().node("I").zeeman_period_us
        assert fit["resolved"] is True
        assert fit["period_us"] == pytest.approx(period, rel=0.02)
        assert fit["configured_period_us"] == period

    def test_unresolved_fit_reports_null(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "memnet_sim.cli",
                "--preset",
                "paper",
                "--scenario",
                "raman_delay_sweep",
                "--samples",
                "5",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        fit = strict_json(proc.stdout)["body"]["fit"]
        assert fit["resolved"] is False
        for key in ("period_us", "period_sigma_us", "amplitude", "phase_rad", "floor"):
            assert fit[key] is None
        assert fit["configured_period_us"] == paper_cfg().node("I").zeeman_period_us

    def test_noise_without_spin_coherence_is_unresolved(self):
        # one write branch and no depolarization leave no spin coherence, so
        # no oscillation: a fitted period would be noise
        data = paper_cfg(scenario="raman_delay_sweep", samples=20_000).to_dict()
        for n in data["nodes"]:
            n.update(branch_weight_down=1.0, depol_weight=0.0)
        cfg = cf.ExperimentConfig.from_dict(data)
        for seed in range(40):
            fit = h.run_scenario(cfg.with_overrides(seed=seed)).body["fit"]
            assert fit["resolved"] is False, seed
            for key in ("period_us", "period_sigma_us", "amplitude", "phase_rad", "floor"):
                assert fit[key] is None

    def test_ncop_columns_oscillate_in_antiphase(self):
        rep = h.run_scenario(
            paper_cfg(scenario="raman_delay_sweep", samples=200_000, seed=4)
        )
        rows = rep.body["points"]
        par = np.array([r["ncop_parallel"] for r in rows])
        cross = np.array([r["ncop_cross"] for r in rows])
        corr = np.corrcoef(par, cross)[0, 1]
        assert corr < -0.8

    def test_rejects_degenerate_grid(self):
        cfg = paper_cfg(
            scenario="raman_delay_sweep", scenario_params={"delays_us": [0.0, 1.0]}
        )
        with pytest.raises(ValueError, match="at least 5"):
            h.run_scenario(cfg)


class TestLifetimeSweep:
    def test_fits_lifetime_and_crossing(self):
        rep = h.run_scenario(
            paper_cfg(scenario="lifetime_sweep", samples=400_000, seed=8)
        )
        fit = rep.body["fit"]
        assert fit["lifetime_us"] == pytest.approx(75.0, rel=0.05)
        assert fit["visibility_crossing_us"] == pytest.approx(41.0, abs=3.0)
        assert fit["tau_vis_us"] == pytest.approx(169.2)

    def test_visibility0_mean_matches_large_budget(self):
        # a point weighted by its own noisy visibility counts for more the
        # higher it fluctuates, so small budgets pulled visibility0 above 1
        reference = h.run_scenario(
            paper_cfg(scenario="lifetime_sweep", samples=2_000_000, seed=0)
        ).body["fit"]["visibility0"]
        values = np.array(
            [
                h.run_scenario(
                    paper_cfg(scenario="lifetime_sweep", samples=2_000, seed=seed)
                ).body["fit"]["visibility0"]
                for seed in range(16)
            ]
        )
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - reference) <= 3.0 * stderr

    def test_ideal_memory_has_no_crossing(self):
        # infinite coherence time: visibility never decays through 1/sqrt(2)
        rep = h.run_scenario(
            ideal_cfg(
                scenario="lifetime_sweep",
                samples=50_000,
                seed=1,
                scenario_params={"delays_us": [0.0, 10.0, 20.0, 30.0, 40.0]},
            )
        )
        fit = rep.body["fit"]
        assert fit["visibility_crossing_us"] is None
        assert fit["tau_vis_us"] is None
        assert fit["lifetime_us"] is None

    @pytest.mark.parametrize("seed", range(8))
    def test_ideal_memory_reports_no_lifetime(self, seed):
        # an ideal memory does not decay; noise alone must not resolve one
        rep = h.run_scenario(
            ideal_cfg(
                scenario="lifetime_sweep",
                samples=50_000,
                seed=seed,
                scenario_params={"delays_us": [0.0, 10.0, 20.0, 30.0, 40.0]},
            )
        )
        fit = rep.body["fit"]
        assert fit["lifetime_us"] is None
        assert fit["lifetime_sigma_us"] is None

    @pytest.mark.parametrize("samples", [5, 20])
    def test_sparse_sweep_fit_failure_reports_no_lifetime(self, samples):
        # a handful of trials per point can stall or degenerate the decay fit
        for seed in range(20):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = h.run_scenario(
                    paper_cfg(scenario="lifetime_sweep", samples=samples, seed=seed)
                )
            fit = rep.body["fit"]
            assert fit["lifetime_us"] is None or fit["lifetime_us"] > 0.0


class TestTwoNodeSwap:
    def test_flip_unit_and_ordering(self):
        rep = h.run_scenario(paper_cfg(scenario="two_node_swap"))
        b = rep.body
        assert b["flip_min"] == pytest.approx(1.0, abs=1e-9)
        assert b["flip_max"] == pytest.approx(1.0, abs=1e-9)
        assert b["ordering_holds"] is True
        assert b["noflip_max"] < 1.0

    def test_grid_dimensions_follow_params(self):
        cfg = paper_cfg(
            scenario="two_node_swap",
            scenario_params={
                "delta_omega_rad_per_us": [0.5, 1.0],
                "width_us": [0.05, 0.1, 0.2],
            },
        )
        rep = h.run_scenario(cfg)
        assert len(rep.body["grid"]) == 6

    def test_paper_body_matches_gaussian_closed_form(self):
        # no flip: the beat exp(-i dw t) between Gaussian photons of width
        # sigma leaves the averaged coherence exp(-(dw sigma)^2)
        body = h.run_scenario(paper_cfg(scenario="two_node_swap", seed=0)).body
        point = body["point"]
        dw, sigma = point["delta_omega_rad_per_us"], point["width_us"]
        want = 0.5 * (1.0 + math.exp(-((dw * sigma) ** 2)))
        assert point["fidelity_noflip"] == pytest.approx(want, abs=1e-4)
        for flip in (point["fidelity_flip"], body["flip_min"], body["flip_max"]):
            assert flip == pytest.approx(1.0, abs=1e-9)
        # the 4-sigma envelope cut leaves the widest grid rows ~7e-5 off
        for dw, sigma, flip, noflip in body["grid"]:
            assert noflip == pytest.approx(0.5 * (1.0 + math.exp(-((dw * sigma) ** 2))), abs=1e-4)
            assert flip == pytest.approx(1.0, abs=1e-9)


class TestGhzScenarios:
    def test_estimator_matches_exact_fidelity(self):
        # the sampled witness estimate must agree with the fidelity computed
        # from the exact conditional distributions within a few sigma
        rep = h.run_scenario(paper_cfg(scenario="ghz6", samples=20_000, seed=12))
        f = rep.body["fidelity"]
        assert abs(f["estimate"] - f["exact"]) < 5.0 * f["sigma"]

    def test_ghz3_estimator_matches_exact(self):
        rep = h.run_scenario(paper_cfg(scenario="ghz3", samples=20_000, seed=13))
        f = rep.body["fidelity"]
        assert abs(f["estimate"] - f["exact"]) < 5.0 * f["sigma"]

    @pytest.mark.parametrize("scenario", ["ghz6", "ghz3"])
    def test_one_herald_model_per_run(self, scenario, monkeypatch):
        # tables, success estimate and rate budget read one model: the node
        # terms, station branches and hit chances are worked out once
        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(ev, "herald_model")
        count(ev, "_single_click")
        count(nd, "node_terms")
        count(op, "station_branches")
        count(op, "routing_acceptance")
        h.run_scenario(paper_cfg(scenario=scenario, samples=2_000))
        assert calls == {
            "herald_model": 1,
            "node_terms": 3,
            "station_branches": 1,
            # the model's acceptance and station_branches' own success check
            "routing_acceptance": 2,
            # hit one, empty fill; then the setting stack's ports and
            # memories, and the success estimate's D/A ports
            "_single_click": 5,
        }

    def test_ideal_fidelities_are_unity(self):
        for scenario in ("ghz6", "ghz3"):
            rep = h.run_scenario(ideal_cfg(scenario=scenario, samples=5000, seed=2))
            f = rep.body["fidelity"]
            assert f["exact"] == pytest.approx(1.0, abs=1e-9)
            assert f["estimate"] == pytest.approx(1.0, abs=5 * max(f["sigma"], 1e-6))

    def test_setting_counts_total_matches_budget(self):
        rep = h.run_scenario(paper_cfg(scenario="ghz6", samples=10_000, seed=9))
        counts = rep.body["setting_counts"]
        total = sum(sum(t.values()) for t in counts.values())
        assert total == 10_000
        assert len(counts) == 7

    def test_ghz3_herald_totals_match_budget(self):
        rep = h.run_scenario(paper_cfg(scenario="ghz3", samples=8_000, seed=9))
        heralds = rep.body["herald_pattern_counts"]
        assert len(heralds) == 8
        assert sum(heralds.values()) == 8_000

    def test_body_carries_rate_and_estimate(self):
        rep = h.run_scenario(paper_cfg(scenario="ghz3", samples=2_000, seed=1))
        b = rep.body
        assert 0.0 < b["conditional_success_estimate"] < 1.0
        assert b["rate"]["sixfold_probability"] < b["rate"]["joint_write_read"]

    @pytest.mark.parametrize(
        "scenario, samples, empty",
        [
            ("ghz6", 1, ["m0", "m1", "m2", "m3", "m4", "m5"]),
            ("ghz3", 3, ["m2"]),
            ("ghz6", 7, []),  # one event per setting keeps an estimate
        ],
    )
    def test_small_budgets_flag_empty_settings(self, scenario, samples, empty, capsys):
        argv = ["--preset", "paper", "--scenario", scenario, "--samples", str(samples)]
        assert cli.main(argv) == 0
        body = strict_json(capsys.readouterr().out)["body"]
        assert body["empty_settings"] == empty
        fid = body["fidelity"]
        assert (fid["estimate"] is None, fid["sigma"] is None) == (bool(empty),) * 2
        assert 0.0 < fid["exact"] < 1.0
        assert body["populations"] is not None

    def test_empty_population_setting_reports_null_populations(self):
        # the budget split fills the population table first, so list it last
        runner = h._RUNNERS["ghz3"].func
        body, *_ = runner(
            paper_cfg(scenario="ghz3", samples=3),
            h._TableStreams(0),
            spec=ev.GHZ3_SPEC,
            make_settings=lambda: ev.ghz3_settings()[::-1],
        )
        assert body["empty_settings"] == [w.POPULATION_SETTING]
        assert body["populations"] is None
        assert body["fidelity"]["estimate"] is None

    @pytest.mark.parametrize(
        "scenario, make_settings",
        [
            ("ghz6", ev.ghz6_settings),
            ("ghz3", ev.ghz3_settings),
            ("pair_tomography", None),
            ("raman_delay_sweep", None),
            ("lifetime_sweep", None),
            ("two_node_swap", None),
        ],
    )
    def test_meta_telemetry_leaves_body_unchanged(
        self, scenario, make_settings, monkeypatch
    ):
        cfg = paper_cfg(scenario=scenario, samples=20_000, seed=4)
        streams = []
        draws = []
        table_rng = h._table_rng

        class CountedStream:
            """A table stream that records the size of every multinomial."""

            def __init__(self, rng):
                self.rng = rng

            def multinomial(self, n, pvals):
                draws.append(n)
                return self.rng.multinomial(n, pvals)

        def counted(seed, index):
            streams.append(index)
            return CountedStream(table_rng(seed, index))

        integrals = []
        swap_fidelity = h.op.averaged_swap_fidelity

        def counted_integral(*args):
            integrals.append(args)
            return swap_fidelity(*args)

        monkeypatch.setattr(h, "_table_rng", counted)
        monkeypatch.setattr(h.op, "averaged_swap_fidelity", counted_integral)
        report = h.run_scenario(cfg)
        n_streams, n_draws, n_integrals = len(streams), sum(draws), len(integrals)
        # the runner alone, outside run_scenario, gives the same body
        body, *_ = h._RUNNERS[scenario](cfg, h._TableStreams(cfg.seed))
        plain = h.RunReport(
            scenario, cfg.seed, {**report.body, **h._plain(body)}, meta={}
        )
        assert report.body_json() == plain.body_json()
        envelope = {"scenario", "seed", "samples", "config"}
        assert set(report.body) == set(body) | envelope
        fitted = {"fit"} if scenario in FIT_Z else set()
        assert set(report.meta) == {
            "version", "wall_time_s", "workers", "stage_s", "counters", *fitted
        }
        if fitted:
            fit = report.meta["fit"]
            assert set(fit) == {"iterations", "reduced_chi2", FIT_Z[scenario]}
            assert fit["iterations"] >= 1 and fit["reduced_chi2"] >= 0.0
            assert fit[FIT_Z[scenario]] > 0.0
        assert set(report.meta["stage_s"]) == TELEMETRY_STAGES[scenario]
        assert all(v >= 0.0 for v in report.meta["stage_s"].values())
        counters = {"rng_streams": n_streams, "draws": n_draws}
        if make_settings is not None:
            tables = ev.build_event_tables(cfg, make_settings())
            counters["event_classes"] = sum(t.probabilities.size for t in tables)
            assert n_streams == len(tables)
        if scenario == "two_node_swap":
            assert n_integrals == 52  # at the default grid
            counters["integrals"] = n_integrals
        assert report.meta["counters"] == counters


# ---------------------------------------------------------------------------
# rate arithmetic


class TestRateArithmetic:
    def test_joint_is_product_of_node_probabilities(self):
        cfg = paper_cfg()
        r = h.rate_arithmetic(cfg)
        expected = np.prod([n.p_w * n.eta_r0 for n in cfg.nodes])
        assert r["joint_write_read"] == pytest.approx(float(expected), rel=1e-12)

    def test_acceptance_is_quarter_for_balanced_pure_nodes(self):
        cfg = ideal_cfg()
        r = h.rate_arithmetic(cfg)
        assert r["pattern_acceptance"] == pytest.approx(0.25, rel=1e-12)

    def test_zero_acceptance_budgets_zero_and_run_errors(self):
        # every photon routes the wrong way: the budget is still a number,
        # and the heralded run fails at its table build with one message
        nodes = tuple(
            cf.NodeConfig(**{**n.__dict__, "branch_weight_down": 1.0})
            for n in ideal_cfg().nodes
        )
        cfg = ideal_cfg(nodes=nodes, detector=det.DetectorConfig(dark_count_prob=0.01))
        assert h.rate_arithmetic(cfg)["pattern_acceptance"] == 0.0
        assert ev.conditional_success_estimate(ev.herald_model(cfg)) == 0.0
        for scenario in ("ghz6", "ghz3"):
            with pytest.raises(ValueError, match="post-selection has zero probability"):
                h.run_scenario(cfg.with_overrides(scenario=scenario, samples=100))

    def test_sixfold_matches_event_table_probability(self):
        # the closed-form rate budget counts only first-order events, so it
        # must match the enumerated event tables exactly when double
        # excitations and dark counts are switched off
        cfg = paper_cfg(detector=det.DetectorConfig(dark_count_prob=0.0))
        first_order = cfg.with_overrides(
            nodes=tuple(
                cf.NodeConfig(**{**n.__dict__, "excitation_order": 1})
                for n in cfg.nodes
            )
        )
        tables = ev.build_event_tables(first_order, ev.ghz6_settings()[:1])
        r = h.rate_arithmetic(first_order)
        assert tables[0].p_sixfold == pytest.approx(
            r["sixfold_probability"], rel=1e-9
        )
        # with double excitations back on the enumerated probability gains a
        # few percent of contaminated heralds on top of the clean budget
        full = ev.build_event_tables(cfg, ev.ghz6_settings()[:1])
        excess = full[0].p_sixfold / h.rate_arithmetic(cfg)["sixfold_probability"]
        assert 1.0 < excess < 1.2


# ---------------------------------------------------------------------------
# cold start: no scenario loads scipy, the fitted ones included

COLD_START = """
import contextlib, io, json, sys
import memnet_sim.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {"import": scipy_modules()}
out, samples, seed, scenarios = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
for scenario in scenarios:
    argv = ["--preset", "paper", "--scenario", scenario, "--samples", samples]
    argv += ["--seed", seed]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", f"{out}/{scenario}"])
    loaded[scenario] = [rc, scipy_modules()]
print(json.dumps(loaded))
"""


def run_fresh(tmp_path, samples, seed, *scenarios):
    """Run ``scenarios`` in order in a new interpreter; returns the scipy
    modules loaded after import and after each scenario, and stderr."""
    args = [str(tmp_path), str(samples), str(seed), *scenarios]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), proc.stderr


class TestColdStart:
    def test_no_scenario_loads_scipy(self, tmp_path):
        loaded, _ = run_fresh(tmp_path, 1000, 0, *TELEMETRY_STAGES)
        assert loaded["import"] == []
        for scenario in TELEMETRY_STAGES:
            assert loaded[scenario] == [0, []], scenario

    def test_sparse_lifetime_fit_stays_silent(self, tmp_path):
        # at seed 13 five trials per point leave a decay fit that does not
        # converge; nothing about it may reach stderr
        # (TestRamanDelaySweep::test_unresolved_fit_reports_null checks the
        # same for the Raman fit)
        loaded, stderr = run_fresh(tmp_path, 5, 13, "lifetime_sweep")
        assert loaded["lifetime_sweep"] == [0, []]
        assert stderr == ""


# ---------------------------------------------------------------------------
# reports and emission


class TestReports:
    def test_body_is_json_clean(self):
        rep = h.run_scenario(paper_cfg(scenario="ghz3", samples=1_000, seed=0))
        parsed = json.loads(rep.body_json())
        assert parsed["scenario"] == "ghz3"
        assert "workers" not in parsed["config"]
        assert "out_dir" not in parsed["config"]

    def test_emit_writes_bundle(self, tmp_path):
        rep = h.run_scenario(paper_cfg(scenario="ghz6", samples=1_000, seed=0))
        written = h.emit_report(rep, tmp_path)
        names = {str(Path(p).relative_to(tmp_path)) for p in written}
        assert "report.json" in names
        assert "counts/ghz6_settings.csv" in names
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["schema_version"] == cf.SCHEMA_VERSION
        assert data["body"]["fidelity"]["estimate"] == rep.body["fidelity"]["estimate"]

    def test_emitted_setting_counts_roundtrip(self, tmp_path):
        rep = h.run_scenario(paper_cfg(scenario="ghz6", samples=2_000, seed=4))
        h.emit_report(rep, tmp_path)
        by_id = w.read_setting_counts_csv(tmp_path / "counts" / "ghz6_settings.csv")
        assert set(by_id) == set(rep.body["setting_counts"])
        for sid, counts in rep.body["setting_counts"].items():
            expected = np.zeros(64)
            for pat, c in counts.items():
                expected[int(pat, 2)] = c
            np.testing.assert_array_equal(by_id[sid], expected)
        fid, _ = w.fidelity_from_counts(ev.GHZ6_SPEC, by_id)
        assert fid == rep.body["fidelity"]["estimate"]

    def test_emitted_sweep_csv_has_header_and_rows(self, tmp_path):
        cfg = paper_cfg(scenario="raman_delay_sweep", samples=5_000, seed=0)
        rep = h.run_scenario(cfg)
        h.emit_report(rep, tmp_path)
        lines = (tmp_path / "sweeps" / "raman_delay.csv").read_text().strip().split("\n")
        assert lines[0].startswith("delay_us,ncop_parallel,ncop_cross")
        assert len(lines) == 1 + len(rep.body["points"])

    def test_emitted_coincidence_csv_roundtrip(self, tmp_path):
        cfg = paper_cfg(scenario="pair_tomography", samples=10_000, seed=6)
        rep = h.run_scenario(cfg)
        h.emit_report(rep, tmp_path)
        tables = det.read_coincidence_csv(tmp_path / "counts" / "pair_eigen.csv")
        assert len(tables) == 1
        assert tables[0].N == 10_000

    def test_failed_emit_leaves_no_report(self, tmp_path):
        rep = h.run_scenario(paper_cfg(scenario="ghz3", samples=1_000, seed=0))
        rep.body["fidelity"]["sigma"] = math.nan
        out = tmp_path / "bundle"
        with pytest.raises(ValueError, match="Out of range float values"):
            h.emit_report(rep, out)
        assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# CLI


def bundle_files(out):
    """The report body and every CSV of a bundle, keyed by relative path."""
    files = {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*.csv"))
    }
    files["body"] = json.loads((out / "report.json").read_text())["body"]
    return files


class TestCli:
    def test_repeated_main_matches_a_fresh_process(self, tmp_path, capsys):
        argv = ["--preset", "paper", "--scenario", "pair_tomography", "--samples", "3000"]
        fresh = subprocess.run(
            [sys.executable, "-m", "memnet_sim.cli", *argv, "--out", str(tmp_path / "fresh")],
            capture_output=True,
            text=True,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert cli.main([*argv, "--out", str(tmp_path / "first")]) == 0
        with pytest.raises(SystemExit) as usage:
            cli.main(["--samples", "many"])
        assert usage.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as shown:
            cli.main(["--help"])
        assert shown.value.code == 0
        help_text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert capsys.readouterr().out == help_text
        assert cli.main([*argv, "--out", str(tmp_path / "again")]) == 0
        want = bundle_files(tmp_path / "fresh")
        assert len(want) == 3
        assert bundle_files(tmp_path / "first") == want
        assert bundle_files(tmp_path / "again") == want

    def test_overflowing_csv_envelope_errors_once(self, tmp_path, capsys):
        envelope = tmp_path / "loud.csv"
        envelope.write_text("time_us,re,im\n0.0,1e200,0\n0.1,1e200,0\n0.2,1e200,0\n")
        data = paper_cfg(scenario="ghz3", samples=100).to_dict()
        data["envelopes"] = {"I": {"csv": str(envelope)}, "II": GAUSSIAN, "III": GAUSSIAN}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "memnet-sim: error: envelope squared norm overflows: amplitudes up to 1e+200"
        )
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rows", ["", "0.0,1.0,0.0\n"])
    def test_short_csv_envelope_errors_once(self, rows, tmp_path):
        envelope = tmp_path / "short.csv"
        envelope.write_text("time_us,re,im\n" + rows)
        data = paper_cfg(scenario="ghz3", samples=100).to_dict()
        data["envelopes"] = {"I": {"csv": str(envelope)}, "II": GAUSSIAN, "III": GAUSSIAN}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        run = subprocess.run(
            [sys.executable, "-m", "memnet_sim.cli", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        n_rows = rows.count("\n")
        assert run.returncode == 1
        assert run.stderr == (
            f"memnet-sim: error: envelope CSV {envelope} needs at least two rows, has {n_rows}\n"
        )

    @pytest.mark.parametrize(
        "row, problem",
        [("0.1,x,0.0\n", "'0.1,x,0.0'"), ("0.1,1.0\n", "'0.1,1.0'")],
    )
    def test_malformed_csv_envelope_row_names_file_and_line(self, row, problem, tmp_path, capsys):
        envelope = tmp_path / "malformed.csv"
        envelope.write_text("time_us,re,im\n0.0,1.0,0.0\n" + row + "0.2,1.0,0.0\n")
        data = paper_cfg(scenario="ghz3", samples=100).to_dict()
        data["envelopes"] = {"I": {"csv": str(envelope)}, "II": GAUSSIAN, "III": GAUSSIAN}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert cli.main(["--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"memnet-sim: error: envelope CSV {envelope} line 3 is not three numbers: {problem}\n"
        )

    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("pair_tomography", {"read_delay_us": 1e308}),
            ("ghz3", {"read_delay_us": 1e308}),
            ("lifetime_sweep", {"scenario_params": {"delays_us": [0.0, 1.0, 2.0, 1e308]}}),
        ],
    )
    def test_overflowing_storage_time_errors_once(self, scenario, override, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(paper_cfg(scenario=scenario, samples=100, **override).to_json())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memnet-sim: error: storage time 1e+308 us overflows")
        assert err.count("\n") == 1

    def test_too_many_samples_errors_once(self, capsys):
        argv = ["--preset", "ideal", "--scenario", "pair_tomography", "--samples"]
        assert cli.main([*argv, str(2**63)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("memnet-sim: error: samples must be")
        assert err.count("\n") == 1

    def test_preset_run_writes_bundle(self, tmp_path):
        rc = cli.main(
            [
                "--preset",
                "ideal",
                "--scenario",
                "two_node_swap",
                "--seed",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "sweeps" / "two_node_swap.csv").exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(paper_cfg(scenario="ghz3", samples=500).to_json())
        out = tmp_path / "out"
        rc = cli.main(
            [
                "--config",
                str(cfg_path),
                "--samples",
                "800",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        data = json.loads((out / "report.json").read_text())
        assert data["body"]["samples"] == 800
        assert data["seed"] == 3

    def test_stdout_mode_prints_report(self, capsys):
        rc = cli.main(
            ["--preset", "ideal", "--scenario", "two_node_swap", "--seed", "1"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "two_node_swap"

    def test_stdout_carries_the_report_json_payload(self, tmp_path, capsys):
        argv = ["--preset", "paper", "--scenario", "ghz3", "--samples", "400"]
        assert cli.main(argv) == 0
        printed = strict_json(capsys.readouterr().out)
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        written = strict_json((tmp_path / "report.json").read_text())
        assert printed["schema_version"] == cf.SCHEMA_VERSION
        assert printed["body"] == written["body"]
        assert set(printed) == set(written)

    def test_missing_config_file_errors(self, capsys):
        rc = cli.main(["--config", "/nonexistent/cfg.json", "--scenario", "ghz6"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_content_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        rc = cli.main(["--config", str(bad)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_out_of_range_seed_errors(self, seed, capsys):
        rc = cli.main(
            ["--preset", "ideal", "--scenario", "two_node_swap", "--seed", seed]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memnet-sim: error: seed must be an integer in [0, 2**64)")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda d: d["nodes"][1].update(pw=0.01), "'pw'"),
            (lambda d: d.update(sampels=10), "'sampels'"),
        ],
    )
    def test_unknown_config_key_errors(self, edit, named, tmp_path, capsys):
        data = paper_cfg(scenario="two_node_swap").to_dict()
        edit(data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        rc = cli.main(["--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memnet-sim: error: unknown")
        assert named in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (set_key(("nodes", 0, "p_w"), "0.1"), "node key 'p_w' must be a number"),
            (
                set_key(("detector", "dark_count_prob"), None),
                "detector key 'dark_count_prob' must be a number",
            ),
            (lambda d: [], "config must be a JSON object"),
            (lambda d: {"nodes": 5}, "config key 'nodes' must be a list"),
            (
                set_key(("calibration_weights",), [1]),
                "config key 'calibration_weights' must be an object",
            ),
            (
                set_key(("calibration_weights",), {"population": True}),
                "calibration weight 'population' must be a positive number",
            ),
            (
                set_key(
                    ("calibration_weights",),
                    {"HHV": 5.0, "0101": 3.0, "population": 2.0},
                ),
                "calibration weight key 'HHV' must be an outcome pattern of 0s and 1s",
            ),
            (
                set_key(("calibration_weights",), {"": 2.0}),
                "calibration weight key '' must be an outcome pattern of 0s and 1s",
            ),
            (envelope_for_node_i(5), "envelope for node 'I' must be an object"),
            (
                set_key(("envelopes",), dict.fromkeys(("I", "II", "III", "IV"), GAUSSIAN)),
                "envelopes keys must be exactly ['I', 'II', 'III'], not "
                "['I', 'II', 'III', 'IV']",
            ),
            (
                set_key(("envelopes",), {"I": GAUSSIAN}),
                "envelopes keys must be exactly ['I', 'II', 'III'], not ['I']",
            ),
            (
                envelope_for_node_i({"shape": "gaussian", "width_us": 0.05}),
                "envelope for node 'I': missing key(s) ['center_us']",
            ),
            (
                envelope_for_node_i({"shape": "triangle"}),
                "envelope for node 'I' needs a 'csv' path or a 'shape'",
            ),
            (
                envelope_for_node_i({**GAUSSIAN, "width_us": -1.0}),
                "envelope for node 'I': width_us must be positive",
            ),
            (
                envelope_for_node_i({**GAUSSIAN, "center_us": math.nan}),
                "envelope for node 'I' key 'center_us' has a wrong type or value: nan",
            ),
            (
                envelope_for_node_i({**GAUSSIAN, "width_us": 1e300}),
                "envelope for node 'I': width_us 1e+300 is too large for a finite "
                "Gaussian grid",
            ),
            (
                # 512 samples from 1e308 us over 1e308 us: the last times overflow
                envelope_for_node_i({"shape": "square", "start_us": 1e308, "width_us": 1e308}),
                "envelope for node 'I': grid times must be finite",
            ),
            (
                swap_params({"width_us": 0.05}),
                "scenario_params key 'width_us' must be a non-empty list of positive",
            ),
            (
                swap_params({"width_us": []}),
                "scenario_params key 'width_us' must be a non-empty list",
            ),
            (
                swap_params({"width_us": [float("nan")]}),
                "scenario_params key 'width_us' must be a non-empty list",
            ),
            (
                swap_params({"width_us": [0.05, 0.0]}),
                "scenario_params key 'width_us' must be a non-empty list of positive",
            ),
            (
                swap_params({"width_us": [0.05, 1e300]}),
                "scenario_params key 'width_us' must be a non-empty list of positive finite "
                "numbers, each small enough for a Gaussian grid",
            ),
            (
                swap_params({"point_width_us": 1e300}),
                "scenario_params key 'point_width_us' must be a positive finite number small "
                "enough for a Gaussian grid",
            ),
            (
                swap_params({"delta_omega_rad_per_us": {"a": 1}}),
                "scenario_params key 'delta_omega_rad_per_us' must be a non-empty list",
            ),
            (
                swap_params({"delta_omega_rad_per_us": [1.0, True]}),
                "scenario_params key 'delta_omega_rad_per_us' must be a non-empty list",
            ),
            (
                swap_params({"point_width_us": -0.05}),
                "scenario_params key 'point_width_us' must be a positive finite number",
            ),
            (
                swap_params({"point_width_us": "0.05"}),
                "scenario_params key 'point_width_us' must be a positive finite number",
            ),
            (
                swap_params({"delays_us": [0.0, 1.0, 2.0, 3.0, 4.0]}),
                "unknown scenario_params ['delays_us'] for two_node_swap",
            ),
            (
                raman_params({"delays_us": [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]}),
                "scenario_params key 'delays_us' must be a non-empty list",
            ),
            (
                raman_params({"delays_us": [0.0, 1.0, float("inf"), 3.0, 4.0]}),
                "scenario_params key 'delays_us' must be a non-empty list",
            ),
            (
                raman_params({"delays_us": [-1.0, 0.0, 1.0, 2.0, 3.0]}),
                "scenario_params key 'delays_us' must be a non-empty list of non-negative",
            ),
            (
                raman_params({"delays_us": [0.0, 1.0, 2.0, 3.0]}),
                "raman_delay_sweep needs at least 5 points in scenario_params key 'delays_us'",
            ),
            (
                raman_params({"node": "IV"}),
                "scenario_params key 'node' must be one of ['I', 'II', 'III']",
            ),
            (set_key(("nodes", 0, "tau_mem_us"), math.nan), "tau_mem_us must be positive, not nan"),
            (set_key(("nodes", 2, "tau_vis_us"), math.nan), "tau_vis_us must be positive, not nan"),
            (
                set_key(("nodes", 1, "zeeman_period_us"), math.nan),
                "zeeman_period_us must be positive and finite, not nan",
            ),
            (
                set_key(("nodes", 0, "zeeman_period_us"), math.inf),
                "zeeman_period_us must be positive and finite, not inf",
            ),
            (set_key(("nodes", 0, "phi0"), math.nan), "phi0 must be finite, not nan"),
            (set_key(("nodes", 1, "phi0"), -math.inf), "phi0 must be finite, not -inf"),
            (
                set_key(("read_delay_us",), math.nan),
                "read_delay_us must be non-negative and finite, not nan",
            ),
            (
                set_key(("read_delay_us",), math.inf),
                "read_delay_us must be non-negative and finite, not inf",
            ),
            (
                set_key(("timing", "trial_us"), math.nan),
                "trial_us must be positive and finite, not nan",
            ),
            (
                set_key(("timing", "cycle_ms"), math.inf),
                "cycle_ms must be positive and finite, not inf",
            ),
            (
                # refused before any grid is built: 10**12 samples are 16 TB
                envelope_for_node_i({**GAUSSIAN, "n": 10**12}),
                "envelope for node 'I' key 'n' exceeds 1048576 samples: 1000000000000",
            ),
        ],
        ids=[
            "p_w_string",
            "dark_null",
            "top_level_list",
            "nodes_number",
            "weights_list",
            "weight_bool",
            "weight_key_symbols",
            "weight_key_empty",
            "envelope_number",
            "envelope_extra_node",
            "envelope_missing_node",
            "envelope_missing_key",
            "envelope_unknown_shape",
            "envelope_negative_width",
            "envelope_center_nan",
            "envelope_huge_width",
            "envelope_grid_overflow",
            "swap_width_scalar",
            "swap_width_empty",
            "swap_width_nan",
            "swap_width_zero",
            "swap_width_huge",
            "swap_point_width_huge",
            "swap_dw_object",
            "swap_dw_bool",
            "swap_point_width_negative",
            "swap_point_width_string",
            "swap_delays",
            "raman_delays_2d",
            "raman_delays_inf",
            "raman_delays_negative",
            "raman_delays_four",
            "raman_node_unknown",
            "tau_mem_nan",
            "tau_vis_nan",
            "zeeman_period_nan",
            "zeeman_period_inf",
            "phi0_nan",
            "phi0_minus_inf",
            "read_delay_nan",
            "read_delay_inf",
            "trial_us_nan",
            "cycle_ms_inf",
            "envelope_n_above_cap",
        ],
    )
    def test_mistyped_config_errors(self, edit, message, tmp_path, capsys):
        data = edit(paper_cfg(scenario="two_node_swap").to_dict())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        rc = cli.main(["--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"memnet-sim: error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, key",
        [
            (set_key(("read_delay_us",), HUGE), "read_delay_us"),
            (set_key(("calibration_weights",), {"population": HUGE}), "population"),
            (set_key(("nodes", 0, "zeeman_period_us"), HUGE), "zeeman_period_us"),
            (set_key(("nodes", 1, "tau_mem_us"), HUGE), "tau_mem_us"),
            (set_key(("nodes", 2, "tau_vis_us"), HUGE), "tau_vis_us"),
            (set_key(("nodes", 0, "phi0"), HUGE), "phi0"),
            (set_key(("timing", "trial_us"), HUGE), "trial_us"),
            (set_key(("timing", "cycle_ms"), HUGE), "cycle_ms"),
            (raman_params({"delays_us": [0.0, 1.0, 2.0, 3.0, HUGE]}), "delays_us"),
            (swap_params({"width_us": [0.05, HUGE]}), "width_us"),
            (swap_params({"delta_omega_rad_per_us": [1.0, HUGE]}), "delta_omega_rad_per_us"),
            (swap_params({"point_width_us": HUGE}), "point_width_us"),
            (envelope_for_node_i({**GAUSSIAN, "center_us": HUGE}), "center_us"),
            (envelope_for_node_i({**GAUSSIAN, "n": HUGE}), "n"),
        ],
    )
    def test_integer_beyond_float_range_errors_once(self, edit, key, tmp_path, capsys):
        data = edit(paper_cfg(scenario="two_node_swap").to_dict())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        rc = cli.main(["--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memnet-sim: error: ")
        assert f"'{key}'" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "scenario, edit, key",
        [
            # the trial limit memory_window_ms * 1000 / trial_us overflows
            ("ghz3", set_key(("timing", "trial_us"), 1e-320), "trial_us"),
            ("ghz3", set_key(("timing", "trial_us"), 1e-310), "trial_us"),
            # the sweeps' default delays reach 22 periods, the swap's detunings 8 pi / period
            ("lifetime_sweep", node_i("zeeman_period_us", 1e308), "zeeman_period_us"),
            ("lifetime_sweep", node_i("zeeman_period_us", 1e307), "zeeman_period_us"),
            ("lifetime_sweep", node_i("zeeman_period_us", 1e-320), "zeeman_period_us"),
            ("raman_delay_sweep", node_i("zeeman_period_us", 1e308), "zeeman_period_us"),
            ("two_node_swap", node_i("zeeman_period_us", 1e-307), "zeeman_period_us"),
            # a decay grid spans eight lifetimes
            (
                "ghz3",
                envelope_for_node_i(
                    {"shape": "exponential-decay", "start_us": 0.0, "tau_us": 1e308}
                ),
                "tau_us",
            ),
            ("ghz3", envelope_for_node_i({"shape": []}), "shape"),
            # the beat phase 1e308 * 4 us over a grid of four widths of 1 us
            (
                "two_node_swap",
                swap_params({"delta_omega_rad_per_us": [1e308], "width_us": [1.0]}),
                "detuning",
            ),
        ],
        ids=[
            "trial_us_1e-320", "trial_us_1e-310", "lifetime_period_1e308",
            "lifetime_period_1e307", "lifetime_period_1e-320", "raman_period_1e308",
            "swap_period_1e-307", "decay_tau_1e308", "shape_list", "swap_detuning_1e308",
        ],
    )
    def test_derived_quantity_overflow_errors_once(self, scenario, edit, key, tmp_path, capsys):
        data = edit(paper_cfg(scenario=scenario, samples=100).to_dict())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memnet-sim: error: ")
        assert key in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "scenario, edit",
        [
            ("lifetime_sweep", node_i("tau_vis_us", 1e-320)),
            ("lifetime_sweep", node_i("tau_mem_us", 1e-320)),
            ("raman_delay_sweep", node_i("tau_mem_us", 1e-320)),
            # the starting decay rate 1 / span of the lifetime fit overflows
            (
                "lifetime_sweep",
                set_key(("scenario_params",), {"delays_us": [0.0, 1e-320, 2e-320, 3e-320]}),
            ),
            ("pair_tomography", set_key(("read_delay_us",), 2**64)),
        ],
        ids=["tau_vis_tiny", "tau_mem_tiny", "raman_tau_mem_tiny", "subnormal_span", "int_delay"],
    )
    def test_tiny_lifetimes_and_spans_run_clean(self, scenario, edit, tmp_path, capsys):
        data = edit(paper_cfg(scenario=scenario, samples=100).to_dict())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(path)])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        assert strict_json(out)["scenario"] == scenario

    @pytest.mark.parametrize(
        "build, key",
        [
            pytest.param(lambda: nd.NodeConfig(phi0=HUGE), "phi0", id="phi0"),
            pytest.param(
                lambda: nd.NodeConfig(zeeman_period_us=HUGE), "zeeman_period_us", id="zeeman"
            ),
            pytest.param(lambda: nd.NodeConfig(tau_mem_us=HUGE), "tau_mem_us", id="tau_mem"),
            pytest.param(lambda: nd.NodeConfig(tau_vis_us=HUGE), "tau_vis_us", id="tau_vis"),
            pytest.param(lambda: op.Envelope(HUGE, 1.0, [1, 1]), "start_us", id="start"),
            pytest.param(lambda: op.Envelope(0.0, HUGE, [1, 1]), "step_us", id="step"),
            # numpy's own conversion of the amplitudes overflows
            pytest.param(lambda: op.Envelope(0.0, 1.0, [HUGE, 1]), "envelope", id="amplitudes"),
            pytest.param(lambda: op.Envelope.square(HUGE, 1.0), "start_us", id="square"),
            pytest.param(
                lambda: op.Envelope.exponential_decay(HUGE, 1.0), "start_us", id="decay"
            ),
            pytest.param(lambda: op.Envelope.gaussian(HUGE, 1.0), "center_us", id="gaussian"),
            pytest.param(lambda: op.Envelope.square(0.0, HUGE), "width_us", id="square_width"),
            pytest.param(
                lambda: op.Envelope.exponential_decay(0.0, HUGE), "tau_us", id="decay_tau"
            ),
        ],
    )
    def test_integer_beyond_float_range_from_python_errors_once(self, build, key):
        with pytest.raises(ValueError) as exc:
            build()
        message = str(exc.value)
        assert message.startswith(f"{key} ")
        assert "\n" not in message

    @pytest.mark.parametrize(
        "scenario, key, bits", [("ghz3", "0101", 3), ("ghz6", "001", 6)]
    )
    def test_calibration_weight_keys_must_fit_the_scenario(
        self, scenario, key, bits, tmp_path, capsys
    ):
        data = paper_cfg(scenario=scenario, samples=100).to_dict()
        data["calibration_weights"] = {key: 3.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        rc = cli.main(["--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (
            f"memnet-sim: error: calibration_weights keys ['{key}'] are not "
            f"{bits}-bit patterns of 0 and 1\n"
        )

    def test_calibration_weight_overflowing_the_witness_errors_once(self, tmp_path, capsys):
        # the witness variance squares each weighted count: 1e308 overflows
        # it, where the weight alone is a finite positive number
        data = paper_cfg(scenario="ghz3").to_dict()
        data["calibration_weights"] = {"000": 1e308}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["--config", str(path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "memnet-sim: error: calibration weight '000' 1e+308 overflows the "
            "witness variance at this sample count\n"
        )

    def test_calibration_weights_move_the_ghz3_estimate(self):
        cfg = paper_cfg(scenario="ghz3", samples=20_000)
        plain = h.run_scenario(cfg).body
        weighted = h.run_scenario(cfg.with_overrides(calibration_weights={"001": 2.0})).body
        assert weighted["setting_counts"] == plain["setting_counts"]
        assert weighted["fidelity"]["exact"] == plain["fidelity"]["exact"]
        assert weighted["populations"]["pattern0"] > plain["populations"]["pattern0"]
        assert weighted["fidelity"]["estimate"] != plain["fidelity"]["estimate"]

    @pytest.mark.parametrize("scenario", ["ghz6", "ghz3"])
    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_single_branch_pairs_error_once(self, scenario, weight, tmp_path, capsys):
        # one write outcome never occurs: its conditional spin is left
        # maximally mixed, and the station can never herald
        data = paper_cfg(scenario=scenario).to_dict()
        for n in data["nodes"]:
            n.update(branch_weight_down=weight, depol_weight=0.0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        rc = cli.main(["--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("memnet-sim: error: ")
        assert err.count("\n") == 1

    def test_module_execution_path(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "memnet_sim.cli",
                "--preset",
                "ideal",
                "--scenario",
                "two_node_swap",
                "--seed",
                "0",
                "--out",
                str(tmp_path / "run"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run" / "report.json").exists()
