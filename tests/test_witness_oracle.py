"""The array witness estimator against a per-pattern dict reference.

The reference below is the plain per-pattern formula: it estimates from
``{pattern string: count}`` tables of the nonzero cells, one Python sum per
ratio.  Unweighted results must agree bit for bit; weighted ones to 1e-15
relative.
"""

from typing import Mapping

import numpy as np
import pytest

from memnet_sim import witness as w


def ref_ratio_estimate(
    counts: Mapping[str, float],
    coefficient: dict[str, float],
    weights: Mapping[str, float] | None,
) -> tuple[float, float]:
    """Estimate R = sum a_x w_x n_x / sum w_x n_x with Poisson first-order sigma."""
    w = {pat: (weights or {}).get(pat, 1.0) for pat in counts}
    wn = {pat: w[pat] * n for pat, n in counts.items()}
    total = sum(wn.values())
    if total <= 0:
        raise ValueError("setting has zero total counts")
    r = sum(coefficient.get(pat, 0.0) * x for pat, x in wn.items()) / total
    var = sum(
        (w[pat] ** 2) * n * (coefficient.get(pat, 0.0) - r) ** 2
        for pat, n in counts.items()
    ) / total**2
    return r, var


def ref_key(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def ref_fidelity_from_counts(spec, settings, weights=None):
    key0, key1 = ref_key(spec.pattern0), ref_key(spec.pattern1)
    r_pop, var_pop = ref_ratio_estimate(
        settings[w.POPULATION_SETTING], {key0: 0.5, key1: 0.5}, weights
    )
    fidelity = r_pop
    variance = var_pop
    n = spec.n_qubits
    for k in range(n):
        table = settings[w.coherence_setting_id(k)]
        signs = {pat: float((-1) ** sum(int(c) for c in pat)) for pat in table}
        r_k, var_k = ref_ratio_estimate(table, signs, weights)
        fidelity += spec.phase * (-1) ** k * r_k / (2 * n)
        variance += var_k / (2 * n) ** 2
    return float(fidelity), float(np.sqrt(variance))


def ref_populations_from_counts(spec, table, weights=None):
    p0, _ = ref_ratio_estimate(table, {ref_key(spec.pattern0): 1.0}, weights)
    p1, _ = ref_ratio_estimate(table, {ref_key(spec.pattern1): 1.0}, weights)
    return p0, p1


def random_case(rng, n_qubits):
    """A random spec and integer count arrays with zero cells; in about one
    case in five, one setting is left empty."""
    pattern0 = tuple(int(b) for b in rng.integers(0, 2, n_qubits))
    spec = w.GhzSpec(
        n_qubits, pattern0, tuple(1 - b for b in pattern0), int(rng.choice([1, -1]))
    )
    scale = 10 ** rng.integers(0, 6)
    counts = {}
    for sid in spec.setting_ids():
        arr = rng.integers(0, scale + 1, 2**n_qubits)
        arr[rng.random(2**n_qubits) < 0.4] = 0
        arr[rng.integers(0, 2**n_qubits)] += 1
        counts[sid] = arr
    if rng.random() < 0.2:
        counts[spec.setting_ids()[rng.integers(0, n_qubits + 1)]][:] = 0
    return spec, counts


def as_dicts(counts, n_qubits):
    """The nonzero cells of each array, as float counts keyed by pattern."""
    return {
        sid: {np.binary_repr(i, n_qubits): float(c) for i, c in enumerate(arr) if c}
        for sid, arr in counts.items()
    }


def random_weights(rng, n_qubits):
    patterns = rng.choice(2**n_qubits, size=rng.integers(1, 2**n_qubits), replace=False)
    return {np.binary_repr(int(i), n_qubits): float(rng.uniform(0.2, 5.0)) for i in patterns}


def outcome(fn, *args):
    """A function's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("n_qubits", [3, 6])
def test_unweighted_estimates_equal_the_reference(n_qubits):
    rng = np.random.default_rng(20 + n_qubits)
    empty_cases = 0
    for _ in range(150):
        spec, counts = random_case(rng, n_qubits)
        dicts = as_dicts(counts, n_qubits)
        empty_cases += any(not d for d in dicts.values())
        assert outcome(w.fidelity_from_counts, spec, counts) == outcome(
            ref_fidelity_from_counts, spec, dicts
        )
        pop = w.POPULATION_SETTING
        assert outcome(w.populations_from_counts, spec, counts[pop]) == outcome(
            ref_populations_from_counts, spec, dicts[pop]
        )
    assert empty_cases > 10


@pytest.mark.parametrize("n_qubits", [3, 6])
def test_weighted_estimates_match_the_reference(n_qubits):
    rng = np.random.default_rng(40 + n_qubits)
    for _ in range(150):
        spec, counts = random_case(rng, n_qubits)
        dicts = as_dicts(counts, n_qubits)
        weights = random_weights(rng, n_qubits)
        array = w.weight_array(spec, weights)
        pop = w.POPULATION_SETTING
        for got, want in (
            (
                outcome(w.fidelity_from_counts, spec, counts, array),
                outcome(ref_fidelity_from_counts, spec, dicts, weights),
            ),
            (
                outcome(w.populations_from_counts, spec, counts[pop], array),
                outcome(ref_populations_from_counts, spec, dicts[pop], weights),
            ),
        ):
            if isinstance(want, str):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-15, abs=0)
