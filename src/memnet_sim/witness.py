"""Entanglement-witness fidelity estimation for two-branch (GHZ-type) states.

The projector onto (|p0> + phase*|p1>)/sqrt2, where p1 is the bitwise
complement of p0, decomposes into locally measurable settings:

    P = 1/2 (|p0><p0| + |p1><p1|)
      + phase/(2N) * sum_{n=0}^{N-1} (-1)^n  prod_i  M_n^(i)

with M_n = cos(n pi/N) sigma_x + sin(n pi/N) sigma_y on qubits where
p0_i = 0 and the sigma_x-conjugate (angle negated) where p0_i = 1.  The
identity behind the coherence sum is
sum_n (-1)^n M_n^{(x)N} = N (|0..0><1..1| + h.c.), so the fidelity of any
state against the target is 1/2 (P_p0 + P_p1) + phase/(2N) sum (-1)^n <M_n>.

Count tables are arrays indexed big-endian by outcome pattern, one per
setting id; each estimate dots a coefficient vector (1/2 on the two branch
patterns, or (-1)**popcount) with a setting's weighted counts.  Pattern
strings exist only at the edge: calibration-weight keys, `pattern_table`
for the report body, and counts CSVs.

Count tables are normalized per setting by their own sum (the populations of
interest are coincidence probabilities that sum to 1 within a setting), so
the estimators take a setting's exact outcome distribution as they take its
counts: the harness reads each estimate's limit off them, and
``fidelity.exact``, the unweighted fidelity of the detected state.  The
statistical sigma treats every raw count as an independent Poisson variable
and propagates first order through the ratio estimators, including the
covariance between numerator and denominator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .detection import csv_numbers
from .quantum import PAULI_Z, bits_to_index, equatorial_basis

_BIT0 = {"0", "H", "h", "d", "↓"}  # down arrow
_BIT1 = {"1", "V", "v", "u", "↑"}  # up arrow

POPULATION_SETTING = "population"
_CSV_HEADER = ["setting_id", "outcome_pattern", "count"]


def _parse_pattern(pattern: Sequence[int] | str) -> tuple[int, ...]:
    if isinstance(pattern, str):
        bits = []
        for ch in pattern:
            if ch in _BIT0:
                bits.append(0)
            elif ch in _BIT1:
                bits.append(1)
            else:
                raise ValueError(f"cannot read pattern symbol {ch!r}")
        return tuple(bits)
    return tuple(int(b) for b in pattern)


def coherence_setting_id(n: int) -> str:
    return f"m{n}"


@dataclass(frozen=True)
class GhzSpec:
    """Target two-branch state: qubit count, branch patterns, relative phase."""

    n_qubits: int
    pattern0: tuple[int, ...]
    pattern1: tuple[int, ...]
    phase: int = +1

    def __post_init__(self) -> None:
        p0 = _parse_pattern(self.pattern0)
        p1 = _parse_pattern(self.pattern1)
        if len(p0) != self.n_qubits or len(p1) != self.n_qubits:
            raise ValueError("branch patterns must have n_qubits entries")
        if any(a == b for a, b in zip(p0, p1)):
            raise ValueError("branch patterns must be bitwise complements")
        if self.phase not in (+1, -1):
            raise ValueError("relative phase must be +1 or -1")
        object.__setattr__(self, "pattern0", p0)
        object.__setattr__(self, "pattern1", p1)

    @classmethod
    def parse(cls, pattern0: str, pattern1: str, phase: int = +1) -> "GhzSpec":
        p0 = _parse_pattern(pattern0)
        return cls(len(p0), p0, _parse_pattern(pattern1), phase)

    def setting_ids(self) -> list[str]:
        return [POPULATION_SETTING] + [coherence_setting_id(n) for n in range(self.n_qubits)]


@dataclass(frozen=True)
class DecompositionTerm:
    """One locally measurable term: coefficient times a product of 2x2 factors."""

    setting_id: str
    coefficient: float
    factors: tuple[np.ndarray, ...]

    def embed(self) -> np.ndarray:
        op = np.array([[1.0 + 0j]])
        for f in self.factors:
            op = np.kron(op, f)
        return op


def decompose(spec: GhzSpec) -> list[DecompositionTerm]:
    """Projector as 2 population terms (coeff 1/2) and N coherence terms (+-1/(2N)).

    Each factor is read off the basis ``B`` its setting measures in
    (``setting_bases``): a population factor is the projector onto the
    branch pattern's outcome ket, a coherence factor ``B Z B^dagger``, the
    observable that is +1 on outcome 0 and -1 on outcome 1.
    """
    n = spec.n_qubits
    bases = setting_bases(spec)
    projectors = [
        tuple(np.outer(b[:, x], b[:, x].conj()) for b, x in zip(bases[POPULATION_SETTING], p))
        for p in (spec.pattern0, spec.pattern1)
    ]
    terms = [DecompositionTerm(POPULATION_SETTING, 0.5, factors) for factors in projectors]
    for k in range(n):
        sid = coherence_setting_id(k)
        factors = tuple(b @ PAULI_Z @ b.conj().T for b in bases[sid])
        terms.append(DecompositionTerm(sid, spec.phase * (-1) ** k / (2 * n), factors))
    return terms


def setting_bases(spec: GhzSpec) -> dict[str, list[np.ndarray]]:
    """Per-setting, per-qubit measurement bases (columns = kets, +1 outcome first).

    Within a coherence setting, an outcome pattern's eigenvalue product is
    (-1)**popcount(pattern), the sign vector fidelity_from_counts applies.
    """
    n = spec.n_qubits
    bases: dict[str, list[np.ndarray]] = {
        POPULATION_SETTING: [np.eye(2, dtype=complex)] * n
    }
    for k in range(n):
        theta = k * np.pi / n
        bases[coherence_setting_id(k)] = [
            equatorial_basis(-theta if b else theta) for b in spec.pattern0
        ]
    return bases


def fidelity_from_expectations(
    spec: GhzSpec, p0: float, p1: float, coherence_expectations: Sequence[float]
) -> float:
    """F = (p0 + p1)/2 + phase/(2N) sum (-1)^n m_n."""
    if len(coherence_expectations) != spec.n_qubits:
        raise ValueError(f"need {spec.n_qubits} coherence expectations")
    for name, v in (("p0", p0), ("p1", p1)):
        if not -1e-9 <= v <= 1 + 1e-9:
            raise ValueError(f"{name}={v} outside [0, 1]")
    coh = sum((-1) ** n * m for n, m in enumerate(coherence_expectations))
    return 0.5 * (p0 + p1) + spec.phase * coh / (2 * spec.n_qubits)


def weight_array(spec: GhzSpec, weights: Mapping[str, float] | None) -> np.ndarray:
    """Calibration weights, ``{0/1 pattern string: weight}``, as one array
    indexed by pattern; patterns left out weigh 1."""
    n = spec.n_qubits
    weights = weights or {}
    bad = sorted(key for key in weights if len(key) != n or set(key) - {"0", "1"})
    if bad:
        raise ValueError(f"calibration_weights keys {bad} are not {n}-bit patterns of 0 and 1")
    out = np.ones(2**n)
    for key, value in weights.items():
        out[int(key, 2)] = value
    return out


def _indicator(spec: GhzSpec, patterns, value: float) -> np.ndarray:
    coefficients = np.zeros(2**spec.n_qubits)
    coefficients[[bits_to_index(p) for p in patterns]] = value
    return coefficients


def _parity_signs(n_qubits: int) -> np.ndarray:
    """(-1)**popcount(pattern) over all patterns: a coherence setting's
    eigenvalue product (see setting_bases)."""
    index = np.arange(2**n_qubits)
    ones = sum((index >> bit) & 1 for bit in range(n_qubits))
    return np.where(ones % 2, -1.0, 1.0)


def _ratio_estimate(
    counts: np.ndarray, coefficients: np.ndarray, weights: np.ndarray | None
) -> tuple[float, float]:
    """R = sum a_x w_x n_x / sum w_x n_x over one setting's pattern-indexed
    counts, with its first-order Poisson variance.

    Sums run left to right over the patterns and squares use libm ``pow``,
    as Python's float ``**`` does, so results repeat the per-pattern dict
    formula (tests/test_witness_oracle.py) to the bit.
    """
    if weights is None:
        weights = np.ones(coefficients.shape)
    wn = weights * counts
    total = float(np.add.accumulate(wn)[-1])
    if total <= 0:
        raise ValueError("setting has zero total counts")
    r = float(np.add.accumulate(coefficients * wn)[-1]) / total
    spread = np.float_power(weights, 2) * counts * np.float_power(coefficients - r, 2)
    return r, float(np.add.accumulate(spread)[-1]) / total**2


def fidelity_from_counts(
    spec: GhzSpec,
    counts: Mapping[str, np.ndarray],
    weights: np.ndarray | None = None,
) -> tuple[float, float]:
    """(fidelity, sigma) from one population table and N coherence tables.

    ``counts`` maps each setting id to its counts indexed by pattern
    (big-endian, as ``quantum.bits_to_index``).  ``weights`` (see
    ``weight_array``) multiply the counts of every setting before
    normalization, e.g. for retrieval-efficiency unbalance.
    """
    missing = [s for s in spec.setting_ids() if s not in counts]
    if missing:
        raise ValueError(f"missing settings {missing}")
    n = spec.n_qubits
    fidelity, variance = _ratio_estimate(
        counts[POPULATION_SETTING],
        _indicator(spec, (spec.pattern0, spec.pattern1), 0.5),
        weights,
    )
    signs = _parity_signs(n)
    for k in range(n):
        r_k, var_k = _ratio_estimate(counts[coherence_setting_id(k)], signs, weights)
        fidelity += spec.phase * (-1) ** k * r_k / (2 * n)
        variance += var_k / (2 * n) ** 2
    return float(fidelity), float(np.sqrt(variance))


def populations_from_counts(
    spec: GhzSpec,
    counts: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[float, float]:
    """Normalized populations of the two branch patterns in a population table."""
    p0, _ = _ratio_estimate(counts, _indicator(spec, (spec.pattern0,), 1.0), weights)
    p1, _ = _ratio_estimate(counts, _indicator(spec, (spec.pattern1,), 1.0), weights)
    return p0, p1


def bell_fidelity_from_visibilities(v_eigen: float, v_super: float) -> float:
    """F = (1 + V_eigen + 2 V_super)/4 for a two-qubit two-branch state."""
    for name, v in (("v_eigen", v_eigen), ("v_super", v_super)):
        if not -1.0 - 1e-9 <= v <= 1.0 + 1e-9:
            raise ValueError(f"{name}={v} outside [-1, 1]")
    return (1.0 + v_eigen + 2.0 * v_super) / 4.0


@functools.cache
def _pattern_strings(n_bits: int) -> tuple[str, ...]:
    """Every ``n_bits`` outcome pattern string, in index order."""
    return tuple(format(i, f"0{n_bits}b") for i in range(2**n_bits))


def pattern_table(counts: np.ndarray, n_bits: int, zeros: bool = False) -> dict[str, float]:
    """Report form of a pattern-indexed count array, ``{pattern string:
    count}``, listing zero cells only when ``zeros``."""
    return {
        pat: float(c)
        for pat, c in zip(_pattern_strings(n_bits), counts.tolist())
        if c or zeros
    }


def write_setting_counts_csv(path, tables: Mapping[str, Mapping[str, float]]) -> None:
    """CSV with header setting_id,outcome_pattern,count: one row per pattern
    of each setting's ``{pattern string: count}`` table, patterns sorted."""
    lines = [",".join(_CSV_HEADER)]
    for sid, table in tables.items():
        patterns = sorted(table)
        counts = csv_numbers([table[pat] for pat in patterns])
        lines += [f"{sid},{pat},{count}" for pat, count in zip(patterns, counts)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")  # the csv module's line ending
