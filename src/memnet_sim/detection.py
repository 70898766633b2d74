"""Detector layer: clicks, coincidence tables, accidental subtraction.

Two-channel polarization analysis of the write-out/read-out photon pair.
Coincidences are labeled ``n_ij`` with ``i`` the write-out and ``j`` the
read-out outcome in the circular basis; ``n_woR`` etc. are the raw singles
of each channel and ``N`` the number of trials.  Accidental coincidences
between uncorrelated singles are estimated as ``n_woI * n_roJ / N`` and
subtracted cell by cell; corrected counts stay fractional on purpose since
every downstream quantity is a count ratio.

Every analyzer in the network (the write and read arms of a pair, each
station port, each memory analyzer) uses one exact click model.  A
distribution ``hits[i, j]`` over whether photons reached channel 0
(``i``) and channel 1 (``j``) becomes the click distribution
``clicks[i, j]`` once each channel's dark count is OR-ed in; an analyzer
counts as heralding only in the exactly-one-click cells ``[1, 0]`` and
``[0, 1]``.  Retrieval failures enter as a photon that arrives with less
than unit probability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_TOL = 1e-9

CSV_HEADER = "n_RL,n_LR,n_LL,n_RR,n_woR,n_woL,n_roR,n_roL,N"
_FIELDS = CSV_HEADER.split(",")


@dataclass(frozen=True)
class DetectorConfig:
    """Per-channel dark-count probability in one detection window."""

    dark_count_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dark_count_prob <= 1.0:
            raise ValueError(f"dark_count_prob {self.dark_count_prob} outside [0, 1]")


@dataclass(frozen=True)
class CoincidenceTable:
    """Pair coincidences, channel singles and the trial count.

    Fields are reals: raw tables hold integer values, corrected tables
    fractional ones.
    """

    n_RL: float = 0.0
    n_LR: float = 0.0
    n_LL: float = 0.0
    n_RR: float = 0.0
    n_woR: float = 0.0
    n_woL: float = 0.0
    n_roR: float = 0.0
    n_roL: float = 0.0
    N: float = 0.0

    def __post_init__(self) -> None:
        for name in _FIELDS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        pairings = [
            ("n_woR", self.n_RL + self.n_RR),
            ("n_woL", self.n_LL + self.n_LR),
            ("n_roR", self.n_RR + self.n_LR),
            ("n_roL", self.n_RL + self.n_LL),
        ]
        for name, used in pairings:
            if getattr(self, name) < used - _TOL:
                raise ValueError(
                    f"{name} smaller than the coincidences it participates in"
                )

    def coincidence_sum(self) -> float:
        return self.n_RL + self.n_LR + self.n_LL + self.n_RR


# no photon reaches either channel
NO_HITS = np.array([[1.0, 0.0], [0.0, 0.0]])
NO_HITS.setflags(write=False)


def photon_hits(arrival: float, born) -> np.ndarray:
    """Hit distribution of one photon that arrives with probability ``arrival``.

    ``born`` holds the photon's outcome probabilities in the analyzer basis
    (channel 0 first).
    """
    b0, b1 = born
    return np.array([[1.0 - arrival, arrival * b1], [arrival * b0, 0.0]])


def bunched_hits(born_h, born_v) -> np.ndarray:
    """Hit distribution of an H and a V photon sharing one analyzer.

    The two photons are routed independently by their Born probabilities;
    only when both take the same channel does a single channel fire.
    """
    both0 = born_h[0] * born_v[0]
    both1 = born_h[1] * born_v[1]
    return np.array([[0.0, both1], [both0, 1.0 - both0 - both1]])


def analyzer_clicks(hits: np.ndarray, dark: float) -> np.ndarray:
    """2x2 click distribution: photon hits OR independent dark counts.

    ``T[h, c]`` is the chance that a channel with hit bit ``h`` shows click
    bit ``c``, so ``clicks = T.T @ hits @ T``.
    """
    t = np.array([[1.0 - dark, dark], [0.0, 1.0]])
    return t.T @ hits @ t


def visibility_raw(table: CoincidenceTable) -> float:
    """Polarization correlation visibility of the four coincidence counts."""
    total = table.coincidence_sum()
    if total <= 0.0:
        raise ValueError("visibility undefined: no coincidences")
    return (table.n_RL + table.n_LR - table.n_LL - table.n_RR) / total


def subtract_accidentals(table: CoincidenceTable) -> tuple[CoincidenceTable, bool]:
    """Remove the uncorrelated-singles floor from each coincidence cell.

    Each cell loses the accidental estimate ``n_wo(i) * n_ro(j) / N``.  The
    singles and trial count pass through unchanged.  Returns the corrected
    table and a flag that is True when any cell went negative and was
    clamped to zero.
    """
    if table.N <= 0.0:
        raise ValueError("subtract_accidentals needs N > 0")
    corrected = {
        "n_RL": table.n_RL - table.n_woR * table.n_roL / table.N,
        "n_LR": table.n_LR - table.n_woL * table.n_roR / table.N,
        "n_LL": table.n_LL - table.n_woL * table.n_roL / table.N,
        "n_RR": table.n_RR - table.n_woR * table.n_roR / table.N,
    }
    clamped = any(v < 0.0 for v in corrected.values())
    corrected = {k: max(v, 0.0) for k, v in corrected.items()}
    return replace(table, **corrected), clamped


def csv_number(value: float) -> str:
    """CSV text of a count or measurement: integral values without a point."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def write_coincidence_csv(path, tables) -> None:
    if isinstance(tables, CoincidenceTable):
        tables = [tables]
    lines = [CSV_HEADER]
    for t in tables:
        lines.append(",".join(csv_number(getattr(t, name)) for name in _FIELDS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coincidence_csv(path) -> list[CoincidenceTable]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"bad coincidence CSV header {header!r}")
        tables = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            values = line.split(",")
            if len(values) != len(_FIELDS):
                raise ValueError(f"bad coincidence CSV row {line!r}")
            tables.append(
                CoincidenceTable(**dict(zip(_FIELDS, map(float, values))))
            )
    return tables
