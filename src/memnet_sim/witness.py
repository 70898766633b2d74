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

Count tables are normalized per setting by their own sum (the populations of
interest are coincidence probabilities that sum to 1 within a setting).  The
statistical sigma treats every raw count as an independent Poisson variable
and propagates first order through the ratio estimators, including the
covariance between numerator and denominator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .detection import csv_number
from .quantum import PAULI_X, bits_to_index, equatorial_basis, m_observable

_BIT0 = {"0", "H", "h", "d", "↓"}  # down arrow
_BIT1 = {"1", "V", "v", "u", "↑"}  # up arrow

POPULATION_SETTING = "population"


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


def pattern_string(bits: Sequence[int]) -> str:
    return "".join(str(int(b)) for b in bits)


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
    """Projector as 2 population terms (coeff 1/2) and N coherence terms (+-1/(2N))."""
    n = spec.n_qubits
    proj0 = np.array([[1, 0], [0, 0]], dtype=complex)
    proj1 = np.array([[0, 0], [0, 1]], dtype=complex)
    terms = [
        DecompositionTerm(
            POPULATION_SETTING,
            0.5,
            tuple(proj1 if b else proj0 for b in spec.pattern0),
        ),
        DecompositionTerm(
            POPULATION_SETTING,
            0.5,
            tuple(proj1 if b else proj0 for b in spec.pattern1),
        ),
    ]
    for k in range(n):
        m = m_observable(k, n)
        factors = tuple(
            PAULI_X @ m @ PAULI_X if b else m for b in spec.pattern0
        )
        coeff = spec.phase * (-1) ** k / (2 * n)
        terms.append(DecompositionTerm(coherence_setting_id(k), coeff, factors))
    return terms


def setting_bases(spec: GhzSpec) -> dict[str, list[np.ndarray]]:
    """Per-setting, per-qubit measurement bases (columns = kets, +1 outcome first).

    Within a coherence setting, an outcome pattern's eigenvalue product is
    (-1)**popcount(pattern), matching the sign rule in fidelity_from_counts.
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


@dataclass(frozen=True)
class SettingCounts:
    """Raw coincidence counts for one measurement setting.

    ``counts`` maps outcome pattern strings ("0"/"1" chars, one per qubit) to
    non-negative counts.  ``total`` is the number of trials behind the table
    (metadata; normalization always uses the sum of counts).
    """

    setting_id: str
    counts: Mapping[str, float]
    total: float | None = None

    def __post_init__(self) -> None:
        cleaned: dict[str, float] = {}
        length = None
        for pat, c in self.counts.items():
            key = pattern_string(_parse_pattern(pat))
            if length is None:
                length = len(key)
            elif len(key) != length:
                raise ValueError("outcome patterns have inconsistent lengths")
            if c < 0:
                raise ValueError(f"negative count for {key}")
            cleaned[key] = cleaned.get(key, 0.0) + float(c)
        object.__setattr__(self, "counts", cleaned)
        if self.total is not None and sum(cleaned.values()) > self.total + 1e-9:
            raise ValueError("counts sum exceeds total trials")

    def sum(self) -> float:
        return float(sum(self.counts.values()))


def _ratio_estimate(
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


def fidelity_from_counts(
    spec: GhzSpec,
    settings: Mapping[str, SettingCounts],
    weights: Mapping[str, float] | None = None,
) -> tuple[float, float]:
    """(fidelity, sigma) from one population table and N coherence tables.

    ``weights`` are optional per-outcome multiplicative calibration weights
    (e.g. for retrieval-efficiency unbalance), applied to the counts before
    normalization in every setting.
    """
    needed = spec.setting_ids()
    missing = [s for s in needed if s not in settings]
    if missing:
        raise ValueError(f"missing settings {missing}")

    key0 = pattern_string(spec.pattern0)
    key1 = pattern_string(spec.pattern1)
    pop = settings[POPULATION_SETTING]
    r_pop, var_pop = _ratio_estimate(
        pop.counts, {key0: 0.5, key1: 0.5}, weights
    )

    fidelity = r_pop
    variance = var_pop
    n = spec.n_qubits
    for k in range(n):
        table = settings[coherence_setting_id(k)]
        signs = {
            pat: float((-1) ** sum(int(c) for c in pat)) for pat in table.counts
        }
        r_k, var_k = _ratio_estimate(table.counts, signs, weights)
        fidelity += spec.phase * (-1) ** k * r_k / (2 * n)
        variance += var_k / (2 * n) ** 2
    return float(fidelity), float(np.sqrt(variance))


def populations_from_counts(
    spec: GhzSpec,
    table: SettingCounts,
    weights: Mapping[str, float] | None = None,
) -> tuple[float, float]:
    """Normalized populations of the two branch patterns in a population table."""
    key0 = pattern_string(spec.pattern0)
    key1 = pattern_string(spec.pattern1)
    p0, _ = _ratio_estimate(table.counts, {key0: 1.0}, weights)
    p1, _ = _ratio_estimate(table.counts, {key1: 1.0}, weights)
    return p0, p1


def bell_fidelity_from_visibilities(v_eigen: float, v_super: float) -> float:
    """F = (1 + V_eigen + 2 V_super)/4 for a two-qubit two-branch state."""
    for name, v in (("v_eigen", v_eigen), ("v_super", v_super)):
        if not -1.0 - 1e-9 <= v <= 1.0 + 1e-9:
            raise ValueError(f"{name}={v} outside [-1, 1]")
    return (1.0 + v_eigen + 2.0 * v_super) / 4.0


def write_setting_counts_csv(path, tables: Iterable[SettingCounts]) -> None:
    """CSV with header setting_id,outcome_pattern,count."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["setting_id", "outcome_pattern", "count"])
        for table in tables:
            for pat in sorted(table.counts):
                w.writerow([table.setting_id, pat, csv_number(table.counts[pat])])


def read_setting_counts_csv(path) -> dict[str, SettingCounts]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != [
            "setting_id",
            "outcome_pattern",
            "count",
        ]:
            raise ValueError(f"bad counts CSV header in {path}: {header}")
        acc: dict[str, dict[str, float]] = {}
        for row in reader:
            if not row:
                continue
            sid, pat, c = row[0], row[1], float(row[2])
            acc.setdefault(sid, {})
            acc[sid][pat] = acc[sid].get(pat, 0.0) + c
    return {sid: SettingCounts(sid, counts) for sid, counts in acc.items()}
