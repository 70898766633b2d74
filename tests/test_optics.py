"""Station optics: routing oracle, heralded GHZ state, swap analysis."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

from memnet_sim import config as cf
from memnet_sim import node, optics
from memnet_sim import quantum as q


def ghz_ket(pattern0, pattern1, phase=1.0) -> np.ndarray:
    """(|pattern0> + phase |pattern1>)/sqrt2 as a plain ket."""
    ket = np.zeros(2 ** len(pattern0), dtype=complex)
    ket[q.bits_to_index(pattern0)] = 1 / np.sqrt(2)
    ket[q.bits_to_index(pattern1)] = phase / np.sqrt(2)
    return ket


def fidelity(ket, state) -> float:
    """<ket| rho |ket>."""
    return float(np.real(ket.conj() @ state.matrix @ ket))


# ports then spins I..III, the order connect_three assembles
GHZ6_TARGET = ghz_ket((0, 0, 0, 0, 0, 1), (1, 1, 1, 1, 1, 0))
GHZ3_TARGET = ghz_ket((0, 0, 1), (1, 1, 0))


def mapped_pairs(**node_kwargs):
    pairs = []
    for nid in optics.NODE_IDS:
        cfg = cf.NodeConfig(node_id=nid, **node_kwargs)
        pair = node.entangled_pair_state(cfg)
        pairs.append(
            q.apply_unitary(pair, optics.polarization_map(nid), [q.photon(nid)])
        )
    return pairs


def random_pure_pairs(rng):
    coeffs, pairs = [], []
    for nid in optics.NODE_IDS:
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c /= np.linalg.norm(c)
        amps = np.array(
            [c[p, s] for p in range(2) for s in range(2)], dtype=complex
        )
        pairs.append(
            q.DensityMatrix((q.photon(nid), q.spin(nid)), np.outer(amps, amps.conj()))
        )
        coeffs.append(c)
    return coeffs, pairs


def herald_memories(rho6, pattern):
    """Memory state heralded by a D/A port pattern (bit 1 = A), feed-forward
    applied: project the ports onto the pattern's kets, then flip spin I's
    phase when the pattern holds an odd number of A outcomes."""
    port_ket = np.array([1.0 + 0j])
    for b in pattern:
        port_ket = np.kron(port_ket, q.BASIS_DA[:, b])
    block = np.einsum(
        "a,asbt,b->st", port_ket.conj(), rho6.matrix.reshape(8, 8, 8, 8), port_ket
    )
    memories = q.DensityMatrix(optics.MEMORY_SPINS, block / np.trace(block).real)
    if sum(pattern) % 2:
        memories = q.apply_unitary(memories, q.PAULI_Z, [q.spin("I")])
    return memories


def nested_trapezoid_swap_fidelity(flip, f, g, dw, branch=1):
    """Swap fidelity from the full 2-D detection-time grid: build the
    conditional amplitudes on the union grid of both envelopes, then
    integrate numerator and density with a nested trapezoidal rule."""
    t = np.union1d(f.times_us, g.times_us)
    fa = f.values_at(t)
    ga = g.values_at(t) * np.exp(-1j * dw * t)
    if flip:
        common = np.outer(fa, ga)
        amps = {1: common, 2: branch * common}
        target = {1: 1.0 / math.sqrt(2), 2: branch / math.sqrt(2)}
    else:
        amps = {0: np.outer(fa, fa), 3: branch * np.outer(ga, ga)}
        target = {0: 1.0 / math.sqrt(2), 3: branch / math.sqrt(2)}
    overlap = sum(np.conj(target[j]) * amps[j] for j in amps)
    density = sum(np.abs(c) ** 2 for c in amps.values())

    def integrate(grid2d):
        return np.trapezoid(np.trapezoid(grid2d, t, axis=1), t)

    return float(integrate(np.abs(overlap) ** 2) / integrate(density))


def union_grid_swap_fidelity(flip, f, g, dw):
    """The separable swap formula with both envelopes interpolated onto the
    union of their grids and trapezoidal weights built per call: the
    reference that the same-grid path must equal bit for bit."""
    t = np.union1d(f.times_us, g.times_us)
    fa = f.values_at(t)
    ga = g.values_at(t) * np.exp(-1j * dw * t)
    half_steps = 0.5 * np.diff(t)
    w = np.zeros(t.size)
    w[:-1] += half_steps
    w[1:] += half_steps
    norm_f = float(np.sum(w * np.abs(fa) ** 2))
    norm_g = float(np.sum(w * np.abs(ga) ** 2))
    if flip:
        numerator = density = 2.0 * norm_f * norm_g
    else:
        cross = complex(np.sum(w * np.conj(fa) * ga))
        density = norm_f * norm_f + norm_g * norm_g
        numerator = 0.5 * (density + 2.0 * (cross * cross).real)
    return numerator / density


def wide_gaussian(center_us, width_us, n, span_widths):
    """Gaussian envelope sampled over ``span_widths`` widths on each side of
    its center, as ``Envelope.gaussian`` samples it over four."""
    start = center_us - span_widths * width_us
    step = 2.0 * span_widths * width_us / (n - 1)
    t = start + step * np.arange(n)
    return optics.Envelope(start, step, np.exp(-((t - center_us) ** 2) / (4.0 * width_us**2)))


def random_envelope(rng, n, grid=None):
    """Random complex envelope of ``n`` samples; ``grid`` fixes its
    ``(start_us, step_us)``."""
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    if grid is None:
        grid = (rng.uniform(-1.0, 1.0), rng.uniform(0.01, 0.5))
    return optics.Envelope(*grid, values)


def station_enumeration_oracle(coeffs):
    """Walk every routed term of the product state and keep one-per-port."""
    amp6 = np.zeros(64, dtype=complex)
    total = 0.0
    for pols in itertools.product(range(2), repeat=3):
        ports = [optics.ROUTE[(k, "HV"[p])] for k, p in enumerate(pols)]
        for spins in itertools.product(range(2), repeat=3):
            amp = math.prod(coeffs[k][pols[k], spins[k]] for k in range(3))
            total += abs(amp) ** 2
            if sorted(ports) == [0, 1, 2]:
                pol_at_port = [0, 0, 0]
                for k, p in enumerate(pols):
                    pol_at_port[ports[k]] = p
                amp6[q.bits_to_index(tuple(pol_at_port) + spins)] += amp
    success = float(np.sum(np.abs(amp6) ** 2))
    return np.outer(amp6, amp6.conj()) / success, success, total


class TestPolarizationMap:
    def test_sigma_plus_targets(self):
        np.testing.assert_allclose(
            optics.polarization_map("I") @ q.KET_R, q.KET_H, atol=1e-12
        )
        np.testing.assert_allclose(
            optics.polarization_map("II") @ q.KET_R, q.KET_H, atol=1e-12
        )
        np.testing.assert_allclose(
            optics.polarization_map("III") @ q.KET_R, q.KET_V, atol=1e-12
        )

    def test_unitary(self):
        for nid in optics.NODE_IDS:
            m = optics.polarization_map(nid)
            np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_unknown_node(self):
        with pytest.raises(ValueError):
            optics.polarization_map("IV")


class TestStationRouting:
    def test_route_is_the_docstring_table(self):
        rows = re.findall(r"node (\w+): +H -> port (\d) +V -> port (\d)", optics.__doc__)
        assert [nid for nid, _, _ in rows] == list(optics.NODE_IDS)
        table = {}
        for k, (_, h_port, v_port) in enumerate(rows):
            table[k, "H"], table[k, "V"] = int(h_port), int(v_port)
        assert optics.ROUTE == table

    def test_only_all_h_and_all_v_load_every_port_once(self):
        assert optics.ONE_PER_PORT == ((0, 0, 0), (1, 1, 1))

    def test_each_port_takes_one_h_and_one_v(self):
        # photons sharing a port always carry opposite polarizations, the
        # premise of detection.bunched_hits
        for port in range(3):
            pols = sorted(pol for (_, pol), p in optics.ROUTE.items() if p == port)
            assert pols == ["H", "V"]


class TestConnectThree:
    def test_ideal_pairs_give_ghz6(self):
        rho6, success = optics.connect_three(mapped_pairs())
        assert success == pytest.approx(0.25, abs=1e-12)
        assert rho6.register == optics.STATION_PORTS + optics.MEMORY_SPINS
        assert fidelity(GHZ6_TARGET, rho6) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_enumeration_oracle_on_random_pairs(self):
        rng = np.random.default_rng(99)
        for _ in range(8):
            coeffs, pairs = random_pure_pairs(rng)
            want_rho, want_success, total = station_enumeration_oracle(coeffs)
            rho6, success = optics.connect_three(pairs)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert success == pytest.approx(want_success, abs=1e-12)
            np.testing.assert_allclose(rho6.matrix, want_rho, atol=1e-10)

    def test_success_plus_discard_is_one(self):
        rng = np.random.default_rng(123)
        coeffs, _ = random_pure_pairs(rng)
        _, success, total = station_enumeration_oracle(coeffs)
        assert 0.0 <= success <= 1.0
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mixture_linearity(self):
        rng = np.random.default_rng(5)
        coeffs_a, pairs_a = random_pure_pairs(rng)
        coeffs_b, pairs_b = random_pure_pairs(rng)
        mixed_first = q.DensityMatrix(
            pairs_a[0].register,
            0.6 * pairs_a[0].matrix + 0.4 * pairs_b[0].matrix,
        )
        rho_mix, s_mix = optics.connect_three([mixed_first, pairs_a[1], pairs_a[2]])
        rho_a, s_a = optics.connect_three(pairs_a)
        rho_b, s_b = optics.connect_three([pairs_b[0], pairs_a[1], pairs_a[2]])
        unnorm = 0.6 * s_a * rho_a.matrix + 0.4 * s_b * rho_b.matrix
        assert s_mix == pytest.approx(0.6 * s_a + 0.4 * s_b, abs=1e-12)
        np.testing.assert_allclose(rho_mix.matrix * s_mix, unnorm, atol=1e-12)

    def test_depolarized_pairs_put_weight_off_branch(self):
        rho6, _ = optics.connect_three(mapped_pairs(depol_weight=0.099))
        pops = np.real(np.diag(rho6.matrix))
        branch0 = q.bits_to_index((0, 0, 0, 0, 0, 1))
        branch1 = q.bits_to_index((1, 1, 1, 1, 1, 0))
        assert pops[branch0] + pops[branch1] > 0.75
        off = pops.sum() - pops[branch0] - pops[branch1]
        assert off > 0.0

    def test_extra_coherence_scales_fidelity(self):
        rho6, _ = optics.connect_three(mapped_pairs(), extra_coherence=0.9)
        f = fidelity(GHZ6_TARGET, rho6)
        assert f == pytest.approx(0.5 * (1 + 0.9), abs=1e-12)

    def test_envelope_beat_reduces_coherence(self):
        sigma, dw = 0.3, 1.7
        env = wide_gaussian(0.0, sigma, 2048, 6.0)
        rho6, _ = optics.connect_three(
            mapped_pairs(),
            envelopes={"I": env, "II": env, "III": env},
            delta_omega_rad_per_us=dw,
        )
        f = fidelity(GHZ6_TARGET, rho6)
        assert f == pytest.approx(0.5 * (1 + math.exp(-(dw * sigma) ** 2 / 2)), abs=1e-4)

    def test_distinct_envelopes_use_all_three_overlaps(self):
        e1 = wide_gaussian(0.0, 0.2, 1024, 6.0)
        e3 = wide_gaussian(0.15, 0.2, 1024, 6.0)
        envs = {"I": e1, "II": e1, "III": e3}
        dw = 0.9
        rho6, _ = optics.connect_three(
            mapped_pairs(), envelopes=envs, delta_omega_rad_per_us=dw
        )
        xi = (
            e1.overlap(e1, dw) * e1.overlap(e3) * e3.overlap(e1)
        )
        f = fidelity(GHZ6_TARGET, rho6)
        assert f == pytest.approx(0.5 * (1 + xi.real), abs=1e-12)

    def test_branch_coherence_is_the_overlap_of_v_with_h_modes(self):
        # The all-H/all-V coherence is prod over ports of <m_V|m_H>, the
        # overlap of the photon the port takes in the all-V branch with the
        # one it takes in the all-H branch.  A sigma+/- photon's mode is
        # f(t) exp(+/- i dw/2 t); nodes I and II send sigma+ as H, node III
        # as V; node k's H leaves by port k and its V by port k - 1.  The
        # imaginary part pins which off-diagonal term carries xi.
        n, start, step = 801, -1.0, 0.01
        t = start + step * np.arange(n)
        raw = {
            "I": np.exp(-((t - 0.2) ** 2) / (4 * 0.4**2)),
            "II": ((t >= -0.5) & (t <= 1.5)).astype(float),
            "III": np.where(t >= -0.3, np.exp(-(t + 0.3) / (2 * 0.5)), 0.0),
        }
        envs = {nid: optics.Envelope(start, step, f) for nid, f in raw.items()}
        dw = 2 * np.pi / 5.28

        def mode(nid, sign):
            f = raw[nid] / np.sqrt(np.trapezoid(np.abs(raw[nid]) ** 2, t))
            return f * np.exp(sign * 0.5j * dw * t)

        all_h = [mode("I", +1), mode("II", +1), mode("III", -1)]  # ports 0, 1, 2
        all_v = [mode("II", -1), mode("III", +1), mode("I", -1)]
        xi = np.prod([np.trapezoid(np.conj(v) * h, t) for h, v in zip(all_h, all_v)])
        assert abs(xi.imag) > 0.05

        pairs = [p.matrix.reshape(2, 2, 2, 2) for p in mapped_pairs()]
        success, terms = optics.station_branches(
            pairs, envelopes=envs, delta_omega_rad_per_us=dw
        )
        weights = {(term.row, term.col): term.weight for term in terms}
        assert weights[0, 1] * success == pytest.approx(xi, abs=1e-12)
        assert weights[1, 0] == np.conj(weights[0, 1])

    def test_wrong_pair_count(self):
        with pytest.raises(ValueError, match="three pairs"):
            optics.connect_three(mapped_pairs()[:2])

    def test_impossible_post_selection(self):
        pairs = []
        for nid, pol in zip(optics.NODE_IDS, (q.KET_H, q.KET_V, q.KET_H)):
            amps = np.kron(pol, q.KET_DOWN)
            pairs.append(
                q.DensityMatrix((q.photon(nid), q.spin(nid)), np.outer(amps, amps.conj()))
            )
        with pytest.raises(ValueError, match="zero probability"):
            optics.connect_three(pairs)


class TestProjectAndFeedforward:
    def test_pattern_probabilities_uniform_on_ideal_input(self):
        rho6, _ = optics.connect_three(mapped_pairs())
        probs = q.measurement_probabilities(rho6, q.BASIS_DA, list(optics.STATION_PORTS))
        np.testing.assert_allclose(probs, np.full(8, 0.125), atol=1e-12)

    @pytest.mark.parametrize("pattern", list(itertools.product((0, 1), repeat=3)))
    def test_every_pattern_yields_ghz3_plus(self, pattern):
        rho6, _ = optics.connect_three(mapped_pairs())
        memories = herald_memories(rho6, pattern)
        assert fidelity(GHZ3_TARGET, memories) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_odd_patterns_precorrection_minus_branch(self):
        rho6, _ = optics.connect_three(mapped_pairs())
        minus = ghz_ket((0, 0, 1), (1, 1, 0), phase=-1)
        memories = herald_memories(rho6, (1, 1, 1))
        undone = q.apply_unitary(memories, q.PAULI_Z, [q.spin("I")])
        assert fidelity(minus, undone) == pytest.approx(1.0, abs=1e-12)


class TestEnvelope:
    def test_compares_and_hashes_by_identity(self):
        a, b = optics.Envelope.gaussian(0.0, 0.1), optics.Envelope.gaussian(0.0, 0.1)
        assert a == a
        assert (a == b) is False
        assert a != b
        assert len({a, b}) == 2
        assert {a: 1}[a] == 1

    def test_normalization(self):
        for env in (
            optics.Envelope.gaussian(1.0, 0.3),
            optics.Envelope.square(0.0, 2.0),
            optics.Envelope.exponential_decay(0.5, 0.8),
        ):
            density = np.abs(env.values) ** 2
            assert np.trapezoid(density, env.times_us) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_gaussian_self_overlap_characteristic_function(self):
        sigma = 0.25
        env = wide_gaussian(0.0, sigma, 4096, 8.0)
        for dw in (0.0, 0.7, 2.1):
            got = env.overlap(env, dw)
            assert got == pytest.approx(
                math.exp(-(dw * sigma) ** 2 / 2), abs=1e-6
            )

    def test_displaced_gaussian_overlap(self):
        sigma, shift = 0.3, 0.4
        e1 = wide_gaussian(0.0, sigma, 4096, 8.0)
        e2 = wide_gaussian(shift, sigma, 4096, 8.0)
        got = e1.overlap(e2)
        assert got == pytest.approx(math.exp(-(shift**2) / (8 * sigma**2)), abs=1e-6)

    def test_values_outside_grid_are_zero(self):
        env = optics.Envelope.square(0.0, 1.0)
        assert env.values_at(-5.0) == 0.0
        assert env.values_at(7.0) == 0.0

    def test_csv_round_trip(self, tmp_path):
        env = optics.Envelope.gaussian(0.3, 0.2, n=64)
        path = tmp_path / "env.csv"
        rows = np.column_stack([env.times_us, env.values.real, env.values.imag])
        np.savetxt(path, rows, delimiter=",", header="time_us,re,im", comments="")
        back = optics.Envelope.from_csv(path)
        assert back.start_us == pytest.approx(env.start_us)
        assert back.step_us == pytest.approx(env.step_us)
        np.testing.assert_allclose(back.values, env.values, atol=1e-9)
        assert path.read_text().splitlines()[0] == "time_us,re,im"

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y\n0,1,0\n1,1,0\n")
        with pytest.raises(ValueError, match="header"):
            optics.Envelope.from_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "t,x,y\n0,1,0\n1,1,0\n",  # header
            "time_us,re,im\n0,1,0\n1,1,0\n3,1,0\n",  # non-uniform times
            "time_us,re,im\n0,1,0\n1,inf,0\n",  # the constructor's amplitude rule
            "time_us,re,im\n0,1,0\n\n1,1,0,\n",  # a fourth field, on file line 4
        ],
    )
    def test_csv_errors_are_one_line_naming_the_file(self, text, tmp_path):
        path = tmp_path / "env.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            optics.Envelope.from_csv(path)
        message = str(info.value)
        assert f"envelope CSV {path}" in message and "\n" not in message

    def test_csv_skips_blank_lines_and_comments(self, tmp_path):
        path = tmp_path / "env.csv"
        path.write_text("time_us,re,im\n# two samples\n0.0,1.0,0.0\n\n0.5,1.0,0.0  # last\n")
        env = optics.Envelope.from_csv(path)
        assert (env.start_us, env.step_us, env.values.size) == (0.0, 0.5, 2)

    @pytest.mark.parametrize("values", [np.full(4, 1e200), np.full(4, 1e160j), [1e308, 1e308]])
    def test_overflowing_amplitudes_rejected(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared norm overflows: amplitudes up to 1e"):
                optics.Envelope(0.0, 0.1, values)

    def test_zero_envelope_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            optics.Envelope(0.0, 0.1, np.zeros(8))

    @pytest.mark.parametrize(
        "start, step", [(1e308, 1e308 / 511), (-math.inf, 0.1), (0.0, math.inf)]
    )
    def test_grid_times_must_be_finite(self, start, step):
        with pytest.raises(ValueError, match="finite"):
            optics.Envelope(start, step, np.ones(512))

    def test_grid_times_must_increase(self):
        with pytest.raises(ValueError, match="grid times must be finite and increasing"):
            optics.Envelope(1e20, 1.0, np.ones(8))

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros(8), "envelope has zero norm"),
            (np.array([1.0, math.nan] * 4), "envelope amplitudes must be finite"),
            (np.array([1e200, math.inf] * 4), "envelope amplitudes must be finite"),
        ],
    )
    def test_amplitudes_then_norm_then_grid_checked(self, values, message):
        # 1e20 + 1.0 rounds to 1e20, so this grid never increases (as
        # test_grid_times_must_increase pins): amplitudes and norm are
        # refused before it is
        with pytest.raises(ValueError, match=f"^{message}"):
            optics.Envelope(1e20, 1.0, values)

    @pytest.mark.parametrize("center", [0.0, 0.3, 1000.0])
    def test_self_overlap_is_one_up_to_rounding(self, center):
        # the norm integrates on the step, the overlap on the rounded times,
        # so at 1000 us a self-overlap can exceed one by about 1e-13
        for width in np.geomspace(0.01, 1.0, 25):
            for env in (
                optics.Envelope.gaussian(center, width),
                optics.Envelope.exponential_decay(center, width),
            ):
                assert abs(abs(env.overlap(env)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("width", [1e300, 1e154])
    def test_huge_gaussian_width_rejected(self, width):
        with pytest.raises(ValueError, match="width_us .* too large"):
            optics.Envelope.gaussian(0.0, width)

    @pytest.mark.parametrize(
        "build, args",
        [
            (optics.Envelope.gaussian, (0.0, 1e38)),
            (optics.Envelope.square, (-1e38, 1e38)),
            (optics.Envelope.exponential_decay, (1e38, 1e37)),
        ],
        ids=["gaussian", "square", "exponential_decay"],
    )
    def test_float32_arguments_build_the_float64_envelope(self, build, args):
        # checked in float64, the grid must be built in it too: in float32
        # the Gaussian's offsets and squares overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            narrow = build(*map(np.float32, args))
            wide = build(*(float(np.float32(a)) for a in args))
        assert (narrow.start_us, narrow.step_us) == (wide.start_us, wide.step_us)
        assert type(narrow.start_us) is float and type(narrow.step_us) is float
        np.testing.assert_array_equal(narrow.values, wide.values)

    def test_grid_and_weights_built_once_and_read_only(self):
        env = optics.Envelope.gaussian(0.3, 0.2, n=64)
        t, w = env.times_us, env.trapezoid_weights
        norm, weighted = env.squared_norm, env.weighted_conjugate
        assert env.times_us is t and env.trapezoid_weights is w
        assert env.squared_norm is norm and env.weighted_conjugate is weighted
        y = np.cos(t)
        assert np.sum(w * y) == pytest.approx(np.trapezoid(y, t), rel=1e-14)
        assert norm == np.sum(w * np.abs(env.values) ** 2)
        assert type(norm) is float
        assert weighted.tobytes() == (w * np.conj(env.values)).tobytes()
        for cached in (t, w, env.values, weighted):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0

    def test_shares_grid(self):
        rng = np.random.default_rng(5)
        f = random_envelope(rng, 16)
        same = random_envelope(rng, 16, grid=(f.start_us, f.step_us))
        assert f.shares_grid(same) and same.shares_grid(f)
        for other in (
            random_envelope(rng, 17, grid=(f.start_us, f.step_us)),
            random_envelope(rng, 16, grid=(f.start_us + f.step_us, f.step_us)),
            random_envelope(rng, 16, grid=(f.start_us, 2.0 * f.step_us)),
        ):
            assert not f.shares_grid(other)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: optics.Envelope.gaussian(0.0, 0.1, n=n),
            lambda n: optics.Envelope.square(0.0, 0.1, n=n),
            lambda n: optics.Envelope.exponential_decay(0.0, 0.1, n=n),
        ],
    )
    @pytest.mark.parametrize("n", [1, 0])
    def test_constructors_refuse_fewer_than_two_samples(self, make, n):
        with pytest.raises(ValueError, match="at least two samples"):
            make(n)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: optics.Envelope.gaussian(0.0, 0.1, n=n),
            lambda n: optics.Envelope.square(0.0, 0.1, n=n),
            lambda n: optics.Envelope.exponential_decay(0.0, 0.1, n=n),
        ],
    )
    @pytest.mark.parametrize(
        "n, message",
        [(2.5, "n must be an integer"), (True, "n must be an integer"), (2**20 + 1, "n exceeds")],
    )
    def test_constructors_refuse_a_sample_count_the_loader_refuses(self, make, n, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            make(n)

    def test_nan_csv_envelope_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("time_us,re,im\n0.0,1.0,0.0\n0.01,nan,0.0\n0.02,0.5,0.0\n")
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            optics.Envelope.from_csv(path)


class TestAveragedSwapFidelity:
    def test_flip_is_unity_and_detuning_invariant(self):
        f = optics.Envelope.gaussian(0.0, 0.05)
        g = optics.Envelope.gaussian(0.0, 0.05)
        vals = [
            optics.averaged_swap_fidelity(True, f, g, dw)
            for dw in (0.0, 0.5, 2 * math.pi / 5.28, 3.0)
        ]
        np.testing.assert_allclose(vals, 1.0, atol=1e-9)

    def test_no_flip_gaussian_closed_form(self):
        sigma = 0.05
        f = wide_gaussian(0.0, sigma, 2048, 6.0)
        for dw in (0.6, 2 * math.pi / 5.28, 2.5):
            got = optics.averaged_swap_fidelity(False, f, f, dw)
            want = 0.5 * (1 + math.exp(-((dw * sigma) ** 2)))
            assert got == pytest.approx(want, abs=1e-6)

    def test_published_operating_point(self):
        # 50 ns wide photons with the Zeeman splitting of the memory
        f = wide_gaussian(0.0, 0.05, 2048, 6.0)
        dw = 2 * math.pi / 5.28
        flip = optics.averaged_swap_fidelity(True, f, f, dw)
        no_flip = optics.averaged_swap_fidelity(False, f, f, dw)
        assert flip == pytest.approx(1.0, abs=1e-9)
        assert no_flip == pytest.approx(0.99823, abs=1e-4)
        assert no_flip < flip

    def test_flip_never_below_no_flip(self):
        for sigma in (0.02, 0.1, 0.4):
            for dw in (0.0, 0.8, 2.4):
                f = optics.Envelope.gaussian(0.0, sigma)
                diff = optics.averaged_swap_fidelity(
                    True, f, f, dw
                ) - optics.averaged_swap_fidelity(False, f, f, dw)
                assert diff >= -1e-12

    def test_zero_detuning_equal_envelopes_unity(self):
        # rounding alone takes the uncapped no-flip ratio to 1.0000000000000002 on both
        for env in (
            optics.Envelope.exponential_decay(0.0, 0.3),
            optics.Envelope.gaussian(0.0, 0.05),
        ):
            for flip in (True, False):
                assert optics.averaged_swap_fidelity(flip, env, env, 0.0) == 1.0

    @pytest.mark.parametrize("flip", [True, False])
    def test_overflowing_beat_phase_refused(self, flip):
        # the flip setting builds no beat, yet refuses the detuning too:
        # 1e308 rad/us times the grid's end at 4 us overflows
        env = optics.Envelope.gaussian(0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows the beat phase"):
                optics.averaged_swap_fidelity(flip, env, env, 1e308)

    def test_flip_call_is_only_the_beat_check(self, monkeypatch):
        rng = np.random.default_rng(3)
        f, g = random_envelope(rng, 7), random_envelope(rng, 16)
        assert not f.shares_grid(g)
        # the refusal names the union grid's span, as a mode overlap's does
        with pytest.raises(ValueError, match="overflows the beat phase") as refused:
            f.overlap(g, 1e308)

        def unused(*_):
            raise AssertionError("a flip call builds no grid and no sum")

        monkeypatch.setattr(optics, "_swap_terms", unused)
        monkeypatch.setattr(optics, "_common_grid", unused)
        assert optics.averaged_swap_fidelity(True, f, g, 2.0) == 1.0
        with pytest.raises(ValueError) as flip_refused:
            optics.averaged_swap_fidelity(True, f, g, 1e308)
        assert str(flip_refused.value) == str(refused.value)

    def test_matches_nested_trapezoid_oracle(self):
        # different starts, steps and lengths make the union grid non-uniform
        rng = np.random.default_rng(2024)
        sizes = (2, 3, 7, 16, 33)
        for k in range(40):
            f = random_envelope(rng, sizes[k % len(sizes)])
            g = random_envelope(rng, sizes[(k // len(sizes)) % len(sizes)])
            dw = rng.uniform(0.0, 10.0)
            for flip in (True, False):
                got = optics.averaged_swap_fidelity(flip, f, g, dw)
                # the target's sign cancels: both signs give the one value
                for branch in (1, -1):
                    want = nested_trapezoid_swap_fidelity(flip, f, g, dw, branch)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_matches_oracle_on_default_gaussians(self):
        f = optics.Envelope.gaussian(0.0, 0.05)
        g = optics.Envelope.gaussian(0.01, 0.07)
        for flip in (True, False):
            for dw in (0.0, 2 * math.pi / 5.28, 7.5):
                want = nested_trapezoid_swap_fidelity(flip, f, g, dw)
                got = optics.averaged_swap_fidelity(flip, f, g, dw)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_default_grid_equals_union_formula_bit_for_bit(self):
        # the 50 grid points of two_node_swap, as its runner passes them
        dws = 2 * math.pi / 5.28 * np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        for width in (0.02, 0.05, 0.1, 0.2, 0.4):
            f = optics.Envelope.gaussian(0.0, width)
            g = optics.Envelope.gaussian(0.0, width)
            for dw in dws:
                for flip in (True, False):
                    want = union_grid_swap_fidelity(flip, f, f, float(dw))
                    assert optics.averaged_swap_fidelity(flip, f, f, float(dw)) == want
                    assert optics.averaged_swap_fidelity(flip, f, g, float(dw)) == want

    def test_same_grid_pairs_equal_union_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 7, 16, 33, 512):
            f = random_envelope(rng, n)
            g = random_envelope(rng, n, grid=(f.start_us, f.step_us))
            assert f.shares_grid(g)
            dw = rng.uniform(0.0, 10.0)
            for flip in (True, False):
                want = union_grid_swap_fidelity(flip, f, g, dw)
                assert optics.averaged_swap_fidelity(flip, f, g, dw) == want
                swapped = union_grid_swap_fidelity(flip, g, f, dw)
                assert optics.averaged_swap_fidelity(flip, g, f, dw) == swapped

    def test_both_grid_paths_match_nested_trapezoid_oracle(self):
        rng = np.random.default_rng(13)
        for n in (2, 5, 16, 33):
            f = random_envelope(rng, n)
            pairs = [
                random_envelope(rng, n, grid=(f.start_us, f.step_us)),
                random_envelope(rng, n, grid=(f.start_us + 0.3 * f.step_us, f.step_us)),
                random_envelope(rng, n + 3, grid=(f.start_us, 0.7 * f.step_us)),
            ]
            assert [f.shares_grid(g) for g in pairs] == [True, False, False]
            for g in pairs:
                dw = rng.uniform(0.0, 10.0)
                for flip in (True, False):
                    want = nested_trapezoid_swap_fidelity(flip, f, g, dw)
                    got = optics.averaged_swap_fidelity(flip, f, g, dw)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
