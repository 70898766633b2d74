"""Detector layer: clicks, coincidence tables, accidental subtraction.

Two-channel polarization analysis of the write-out/read-out photon pair.
Coincidences are labeled ``n_ij`` with ``i`` the write-out and ``j`` the
read-out outcome in the circular basis; ``n_woR`` etc. are the raw singles
of each channel and ``N`` the number of trials.  These nine fields, in
``CSV_HEADER`` order, are a table's coincidence CSV row and the input of
``pair_stack``, the one place the analysis is computed: accidentals between
uncorrelated singles, ``n_woI * n_roJ / N``, subtracted cell by cell (so
corrected counts are fractional), and the visibilities with their sigmas.
The scalar ``subtract_accidentals`` and ``visibility_raw`` are its one-row
calls on a ``CoincidenceTable``.

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

from dataclasses import astuple, dataclass, replace

import numpy as np

_TOL = 1e-9

CSV_HEADER = "n_RL,n_LR,n_LL,n_RR,n_woR,n_woL,n_roR,n_roL,N"
_FIELDS = CSV_HEADER.split(",")

# the pair click patterns, bits (w0, w1, r0, r1) big-endian, in each field:
# one coincidence cell each, those where w0, w1, r0 or r1 clicked, and all
_FIELD_CELLS = np.zeros((16, 9), dtype=np.int64)
_FIELD_CELLS[[0b1001, 0b0110, 0b0101, 0b1010], range(4)] = 1
_FIELD_CELLS[:, 4:8] = np.arange(16)[:, None] >> np.arange(3, -1, -1) & 1
_FIELD_CELLS[:, 8] = 1
_FIELD_CELLS.setflags(write=False)


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
            if not 0.0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and non-negative")
        pairings = [
            ("n_woR", self.n_RL + self.n_RR),
            ("n_woL", self.n_LL + self.n_LR),
            ("n_roR", self.n_RR + self.n_LR),
            ("n_roL", self.n_RL + self.n_LL),
        ]
        for name, used in pairings:
            single = getattr(self, name)
            if single < used - _TOL:
                raise ValueError(f"{name} smaller than the coincidences it participates in")
            if single > self.N + _TOL:  # a channel clicks at most once per trial
                raise ValueError(f"{name} larger than the trial count N")

    def coincidence_sum(self) -> float:
        return self.n_RL + self.n_LR + self.n_LL + self.n_RR


# no photon reaches either channel
NO_HITS = np.array([[1.0, 0.0], [0.0, 0.0]])
NO_HITS.setflags(write=False)


def photon_hits(arrival, born) -> np.ndarray:
    """Hit distribution of one photon that arrives with probability ``arrival``.

    ``born`` holds the photon's outcome probabilities in the analyzer basis
    (channel 0 first, last axis); arrays give a ``(..., 2, 2)`` stack.
    """
    arrival = np.asarray(arrival, dtype=float)
    into = arrival[..., None] * np.asarray(born, dtype=float)  # reaches channel 0, 1
    hits = np.zeros(into.shape[:-1] + (2, 2))
    hits[..., 0, 0] = 1.0 - arrival
    hits[..., 0, 1] = into[..., 1]
    hits[..., 1, 0] = into[..., 0]
    return hits


def bunched_hits(born_h, born_v) -> np.ndarray:
    """Hit distribution of an H and a V photon sharing one analyzer.

    The two photons are routed independently by their Born probabilities;
    only when both take the same channel does a single channel fire.
    Stacked Born probabilities (last axis) give a ``(..., 2, 2)`` stack.
    """
    born_h, born_v = np.asarray(born_h, dtype=float), np.asarray(born_v, dtype=float)
    both0 = born_h[..., 0] * born_v[..., 0]
    both1 = born_h[..., 1] * born_v[..., 1]
    hits = np.zeros(both0.shape + (2, 2))
    hits[..., 0, 1] = both1
    hits[..., 1, 0] = both0
    hits[..., 1, 1] = 1.0 - both0 - both1
    return hits


def analyzer_clicks(hits: np.ndarray, dark: float) -> np.ndarray:
    """2x2 click distribution: photon hits OR independent dark counts.

    ``T[h, c]`` is the chance that a channel with hit bit ``h`` shows click
    bit ``c``, so ``clicks = T.T @ hits @ T``, for one hit distribution or
    each of a ``(..., 2, 2)`` stack.
    """
    t = np.array([[1.0 - dark, dark], [0.0, 1.0]])
    return t.T @ hits @ t


@dataclass(frozen=True, eq=False)
class PairStack:
    """Coincidence analysis of ``T`` pair tables, as ``pair_stack`` builds it."""

    fields: np.ndarray  # (T, 9) in CSV_HEADER order
    corrected: np.ndarray  # (T, 4) coincidence cells less their accidentals
    clamped: np.ndarray  # (T,) whether a corrected cell was clamped at zero
    # (2, T) each, for the raw (row 0) and the corrected (row 1) tables:
    coincidences: np.ndarray
    visibility: np.ndarray  # with its binomial sigma, both 0.0 for no coincidences
    sigma: np.ndarray  # a zero sigma becomes 1 / coincidences
    efficiency: np.ndarray  # coincidences per write herald (at least one)


def pair_fields(counts) -> np.ndarray:
    """The ``(T, 9)`` field rows of a ``(T, 16)`` stack of pair click
    counts, cells indexed by the click bits ``(w0, w1, r0, r1)`` big-endian."""
    return (np.asarray(counts) @ _FIELD_CELLS).astype(float)


def pair_stack(fields) -> PairStack:
    """Analyze ``T`` pair tables given as ``(T, 9)`` field rows in
    ``CSV_HEADER`` order.  Each coincidence cell loses the accidental
    estimate ``n_wo(i) * n_ro(j) / N``; a cell that goes negative is
    clamped to zero and flags its table."""
    fields = np.asarray(fields, dtype=float)
    cells, (n_woR, n_woL, n_roR, n_roL, n) = fields.T[:4], fields.T[4:]
    if not np.all(n > 0.0):
        raise ValueError("pair analysis needs N > 0 in every table")
    accidentals = np.array([n_woR * n_roL, n_woL * n_roR, n_woL * n_roL, n_woR * n_roR]) / n
    corrected = cells - accidentals
    negative = corrected < 0.0
    corrected[negative] = 0.0
    rl, lr, ll, rr = np.stack([cells, corrected], axis=1)  # each (2, T): raw, corrected
    total = rl + lr + ll + rr
    seen = total > 0.0  # tables with coincidences
    safe = np.where(seen, total, 1.0)
    v = np.where(seen, (rl + lr - ll - rr) / safe, 0.0)
    sigma = np.sqrt(np.maximum(1.0 - v * v, 0.0) / safe)
    sigma = np.where(seen, np.where(sigma == 0.0, 1.0 / safe, sigma), 0.0)
    efficiency = total / np.maximum(n_woR + n_woL, 1.0)
    return PairStack(fields, corrected.T, negative.any(axis=0), total, v, sigma, efficiency)


def visibility_raw(table: CoincidenceTable) -> float:
    """Polarization correlation visibility of the four coincidence counts."""
    if table.coincidence_sum() <= 0.0:
        raise ValueError("visibility undefined: no coincidences")
    return float(pair_stack([astuple(table)]).visibility[0, 0])


def subtract_accidentals(table: CoincidenceTable) -> tuple[CoincidenceTable, bool]:
    """Remove the uncorrelated-singles floor from each coincidence cell, as
    ``pair_stack`` does, singles and trial count unchanged.  Returns the
    corrected table and whether a cell went negative and was clamped to zero."""
    if table.N <= 0.0:
        raise ValueError("subtract_accidentals needs N > 0")
    pairs = pair_stack([astuple(table)])
    corrected = dict(zip(_FIELDS[:4], pairs.corrected[0].tolist()))
    return replace(table, **corrected), bool(pairs.clamped[0])


def csv_numbers(values) -> list[str]:
    """CSV text of every count or measurement of an array, in row-major
    order: integral values without a point, every other value as its repr."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return [str(int(v)) if v.is_integer() else repr(v) for v in values]


def write_csv(path, header, rows) -> None:
    """Write the ``header`` names, then each row of the 2-D ``rows`` as
    ``csv_numbers`` gives it, in one piece."""
    cells, width = csv_numbers(rows), len(header)
    lines = [",".join(cells[i : i + width]) for i in range(0, len(cells), width)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def write_coincidence_csv(path, fields: np.ndarray) -> None:
    """Write a ``(T, 9)`` field stack (``PairStack.fields``)."""
    write_csv(path, _FIELDS, fields)
