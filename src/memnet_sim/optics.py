"""Connection station optics: polarization maps, PBS routing, heralding.

Station layout and conventions, pinned once here:

* Write-out photons arrive from nodes I, II, III with circular polarization
  correlated to the spin.  Before the station each photon passes a
  quarter-wave plate implementing ``polarization_map``: nodes I and II map
  ``sigma+ -> H``, node III maps ``sigma+ -> V``.
* Every polarizing beamsplitter transmits H and reflects V.  The cascade of
  beamsplitters acts as a pure mode permutation from (input node, linear
  polarization) to output port::

      node I:   H -> port 0    V -> port 2
      node II:  H -> port 1    V -> port 0
      node III: H -> port 2    V -> port 1

  Ports 0, 1, 2 are the three analysis arms (the primed modes of the
  station).  Only the all-H and all-V input patterns put one photon in each
  port, so a threefold coincidence post-selects exactly those two branches.
  Photons that collide in a port always carry opposite polarizations, so no
  two-photon bunching amplitudes arise anywhere in the cascade.
* The two surviving branches can carry different frequency tags.  A node's
  ``sigma+`` photon is detuned by +dw/2 and ``sigma-`` by -dw/2 (Zeeman
  splitting dw).  Tracing over unresolved detection times then multiplies
  the branch coherence by temporal-overlap integrals; with one envelope per
  node only port 0 mixes different frequencies and contributes a beat factor
  ``integral(conj(e_II) e_I exp(i dw t) dt)``.

``station_branches`` is the one statement of this post-selection.  It
keeps the heralded state in factored form: four ``(b, b')`` branch terms,
each a weight times the port photons' ``|b b b><b' b' b'|`` times a
product of three 2x2 spin blocks, so no six-qubit state is needed to
measure it.  ``connect_three`` assembles the six-qubit ``DensityMatrix``
from the same terms; its register order is port photons
``photon("S", 0..2)`` then memory spins of nodes I, II, III.  No scenario
calls it: it is kept as the tests' reference and as a benchmark span
target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quantum as q

_MAP_CIRCULAR_TO_H = np.array([[1, -1j], [1, 1j]], dtype=complex) / math.sqrt(2)
_MAP_CIRCULAR_TO_V = np.array([[1, 1j], [1, -1j]], dtype=complex) / math.sqrt(2)

# node id -> the waveplate before its station input, in station order
_WAVEPLATES = {"I": _MAP_CIRCULAR_TO_H, "II": _MAP_CIRCULAR_TO_H, "III": _MAP_CIRCULAR_TO_V}
NODE_IDS = tuple(_WAVEPLATES)

# (input index, linear polarization) -> station output port
ROUTE = {
    (0, "H"): 0,
    (0, "V"): 2,
    (1, "H"): 1,
    (1, "V"): 0,
    (2, "H"): 2,
    (2, "V"): 1,
}

STATION_PORTS = tuple(q.photon("S", k) for k in range(len(NODE_IDS)))
MEMORY_SPINS = tuple(q.spin(nid) for nid in NODE_IDS)


def polarization_map(node_id: str) -> np.ndarray:
    """Waveplate unitary applied to a node's write-out photon."""
    if node_id not in _WAVEPLATES:
        raise ValueError(f"unknown node_id {node_id!r}")
    return _WAVEPLATES[node_id].copy()


# largest sample count of an envelope grid: 2048 times the default 512, far
# finer than any mode here needs; a config's envelopes are built when it
# loads, so a larger count would allocate its whole grid (16 bytes a sample)
MAX_ENVELOPE_SAMPLES = 2**20

# a finite time, in the words a config file's loader has long used for it
_NOT_A_TIME = "{name} has a wrong type or value: {value!r} is not a finite number"
_TIME = ((lambda v, _: q.is_real(v) and q.is_finite(v), _NOT_A_TIME),)
_FITS = (
    lambda n, _: n <= MAX_ENVELOPE_SAMPLES,
    f"{{name}} exceeds {MAX_ENVELOPE_SAMPLES} samples: {{value}}",
)
_EIGHT_FINITE = q.must(lambda v: math.isfinite(8.0 * v), "small enough that 8 tau_us is finite")

# the keys of a config's envelope spec: a shape name or a CSV path, and the
# arguments of the named constructors, which check them by the same rules
ENVELOPE_RULES = {
    "shape": q.Rule(q.STRING),
    "csv": q.Rule(q.STRING),
    "n": q.Rule((*q.INTEGER, _FITS), (q.must(lambda n: n > 1, "a grid of at least two samples"),)),
    "center_us": q.Rule(_TIME),
    "start_us": q.Rule(_TIME),
    "width_us": q.Rule(_TIME, (q.POSITIVE,)),
    "tau_us": q.Rule(_TIME, (q.POSITIVE, _EIGHT_FINITE)),  # a decay grid spans eight lifetimes
}
# a Gaussian's grid squares offsets up to four widths and divides them by 4 w**2, so
# that 32 w**2 must be finite and 4 w**2, computed as the constructor does, nonzero
_GAUSSIAN_GRID = "{name} {value!r} is too %s for a finite Gaussian grid"
GAUSSIAN_WIDTH = q.Rule(
    _TIME,
    (
        q.POSITIVE,
        (lambda w, _: math.isfinite(32.0 * float(w) * float(w)), _GAUSSIAN_GRID % "large"),
        (lambda w, _: 4.0 * w**2 > 0.0, _GAUSSIAN_GRID % "small"),
    ),
)


def _check_arguments(**arguments) -> None:
    for name, value in arguments.items():
        q.check(name, value, ENVELOPE_RULES[name])


@dataclass(frozen=True)
class Envelope:
    """Temporal amplitude profile on a uniform grid, unit squared-norm.

    ``values[k]`` is the complex amplitude at ``start_us + k * step_us``.
    The squared modulus integrates to one (trapezoidal rule), so it is the
    detection-time probability density of the photon.  The grid times and
    their trapezoidal weights are read-only arrays built once per envelope:
    the times when it is made, refusing a grid whose times are not finite
    and increasing, and the weights on first use.
    """

    start_us: float
    step_us: float
    values: np.ndarray

    def __post_init__(self) -> None:
        try:
            vals = np.asarray(self.values, dtype=complex)
        except OverflowError:  # an int beyond the float range
            raise ValueError("envelope amplitudes must be finite") from None
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("envelope needs a 1-D grid of at least two samples")
        q.check("start_us", self.start_us, ENVELOPE_RULES["start_us"])
        q.check("step_us", self.step_us, q.Rule(q.NUMBER, (q.POSITIVE_FINITE,)))
        if not np.all(np.isfinite(vals)):
            raise ValueError("envelope amplitudes must be finite")
        with np.errstate(over="ignore"):
            norm = np.trapezoid(np.abs(vals) ** 2, dx=self.step_us)
        if not math.isfinite(norm):
            peak = np.abs(vals.view(float)).max()  # largest real or imaginary part
            raise ValueError(f"envelope squared norm overflows: amplitudes up to {peak:g}")
        if norm <= 0.0:
            raise ValueError("envelope has zero norm")
        vals = vals / math.sqrt(norm)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        self.times_us  # built now, so a bad grid fails when the envelope is made

    @functools.cached_property
    def times_us(self) -> np.ndarray:
        n = self.values.size
        last = float(self.start_us) + float(self.step_us) * (n - 1)  # t[-1], warning-free
        if math.isfinite(last):
            t = self.start_us + self.step_us * np.arange(n)
            if np.all(np.diff(t) > 0.0):
                t.setflags(write=False)
                return t
        raise ValueError(
            f"grid times must be finite and increasing: {n} samples {self.step_us!r} us "
            f"apart from {self.start_us!r} us end at {last!r} us"
        )

    @functools.cached_property
    def trapezoid_weights(self) -> np.ndarray:
        """Weights ``w`` with ``sum(w * y)`` the trapezoidal integral of ``y``
        sampled on ``times_us``."""
        w = _trapezoid_weights(self.times_us)
        w.setflags(write=False)
        return w

    def shares_grid(self, other: "Envelope") -> bool:
        """Whether both envelopes sample the same times."""
        return (
            self.start_us == other.start_us
            and self.step_us == other.step_us
            and self.values.size == other.values.size
        )

    def values_at(self, t_us) -> np.ndarray:
        """Amplitude at arbitrary times, zero outside the grid."""
        t = np.asarray(t_us, dtype=float)
        grid = self.times_us
        re = np.interp(t, grid, self.values.real, left=0.0, right=0.0)
        im = np.interp(t, grid, self.values.imag, left=0.0, right=0.0)
        return re + 1j * im

    def overlap(self, other: "Envelope", delta_omega_rad_per_us: float = 0.0) -> complex:
        """Mode overlap ``integral(conj(other) * self * exp(i dw t) dt)``.

        This is the inner product of the two temporal modes when ``self`` is
        detuned by ``+delta_omega`` relative to ``other``; its modulus never
        exceeds one.
        """
        t, _, a, b = _common_grid(self, other)
        _check_beat(t, delta_omega_rad_per_us)
        integrand = np.conj(b) * a * np.exp(1j * delta_omega_rad_per_us * t)
        return complex(np.trapezoid(integrand, t))

    @classmethod
    def gaussian(cls, center_us: float, width_us: float, n: int = 512) -> "Envelope":
        """Gaussian intensity profile with standard deviation ``width_us``,
        sampled over four widths on each side of its center."""
        _check_arguments(center_us=center_us, n=n)
        q.check("width_us", width_us, GAUSSIAN_WIDTH)
        # checked in float64, so built in it: a float32 width would overflow
        center_us, width_us = float(center_us), float(width_us)
        start = center_us - 4.0 * width_us
        step = 8.0 * width_us / (n - 1)
        t = start + step * np.arange(n)
        return cls(start, step, np.exp(-((t - center_us) ** 2) / (4.0 * width_us**2)))

    @classmethod
    def square(cls, start_us: float, width_us: float, n: int = 512) -> "Envelope":
        _check_arguments(start_us=start_us, width_us=width_us, n=n)
        return cls(float(start_us), float(width_us) / (n - 1), np.ones(n))

    @classmethod
    def exponential_decay(cls, start_us: float, tau_us: float, n: int = 512) -> "Envelope":
        """One-sided decay with intensity lifetime ``tau_us``, sampled over
        eight lifetimes."""
        _check_arguments(start_us=start_us, tau_us=tau_us, n=n)
        start_us, tau_us = float(start_us), float(tau_us)
        step = 8.0 * tau_us / (n - 1)
        t = step * np.arange(n)
        return cls(start_us, step, np.exp(-t / (2.0 * tau_us)))

    def to_csv(self, path) -> None:
        rows = np.column_stack([self.times_us, self.values.real, self.values.imag])
        np.savetxt(path, rows, delimiter=",", header="time_us,re,im", comments="")

    @classmethod
    def from_csv(cls, path) -> "Envelope":
        """Read what ``to_csv`` writes, skipping blank lines and ``#``
        comments; every error is one line that names ``path``."""
        where = f"envelope CSV {path}"
        rows = []
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "time_us,re,im":
                raise ValueError(f"{where} has header {header!r}, not 'time_us,re,im'")
            for line_no, line in enumerate(fh, 2):
                text = line.split("#", 1)[0]
                if not text.strip():
                    continue
                try:
                    t, re, im = map(float, text.split(","))
                except ValueError:  # not three fields, or one that is no number
                    message = f"{where} line {line_no} is not three numbers: {line.strip()!r}"
                    raise ValueError(message) from None
                rows.append((t, re, im))
        if len(rows) < 2:
            raise ValueError(f"{where} needs at least two rows, has {len(rows)}")
        t, re, im = np.array(rows).T
        steps = np.diff(t)
        if steps.min() <= 0 or not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
            raise ValueError(f"{where} times must be uniformly increasing")
        try:
            return cls(float(t[0]), float(steps.mean()), re + 1j * im)
        except ValueError as exc:
            raise ValueError(f"{exc} ({where})") from None


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    half_steps = 0.5 * np.diff(t)
    w = np.zeros(t.size)
    w[:-1] += half_steps
    w[1:] += half_steps
    return w


def _common_grid(f: Envelope, g: Envelope):
    """Grid times, trapezoidal weights and the amplitudes of ``f`` and ``g``
    on one grid: their own, with its cached weights, when they share it;
    else the union of both grids, with both interpolated onto it."""
    if f.shares_grid(g):
        return f.times_us, f.trapezoid_weights, f.values, g.values
    t = np.union1d(f.times_us, g.times_us)
    # trapezoidal weights also hold on a non-uniform union grid
    return t, _trapezoid_weights(t), f.values_at(t), g.values_at(t)


def _check_beat(t: np.ndarray, dw: float) -> None:
    """Refuse a detuning ``dw`` whose beat phase ``dw t`` overflows on the grid ``t``."""
    if not all(math.isfinite(float(dw) * float(x)) for x in (t[0], t[-1])):
        span = f"[{float(t[0])!r}, {float(t[-1])!r}]"
        raise ValueError(f"detuning {dw!r} rad/us overflows the beat phase over {span} us")


def _branch_coherence(envelopes, delta_omega_rad_per_us: float) -> complex:
    """Temporal-mode overlap factor between the all-H and all-V branches.

    Port 0 receives node I's sigma+ photon in one branch and node II's
    sigma- photon in the other, hence the beat at ``delta_omega``; ports 1
    and 2 mix equal frequencies.
    """
    if envelopes is None:
        return 1.0
    env = [envelopes[nid] for nid in NODE_IDS]
    kappa0 = env[0].overlap(env[1], delta_omega_rad_per_us)
    kappa1 = env[1].overlap(env[2])
    kappa2 = env[2].overlap(env[0])
    return kappa0 * kappa1 * kappa2


class BranchTerm(NamedTuple):
    """``weight`` times the ports' ``|b b b><b' b' b'|`` (0 all-H, 1 all-V)
    times the spin blocks ``pair[b, :, b', :]`` of nodes I, II, III."""

    row: int  # b
    col: int  # b'
    weight: complex
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray]


def routing_acceptance(pairs) -> float:
    """Chance that the photons of three ``(2, 2, 2, 2)`` pairs (H/V frame)
    leave one per station port: all H or all V."""
    born = [[np.real(np.trace(p[b, :, b, :])) for b in (0, 1)] for p in pairs]
    return math.prod(h for h, _ in born) + math.prod(v for _, v in born)


def station_branches(
    pairs,
    *,
    envelopes=None,
    delta_omega_rad_per_us: float = 0.0,
    extra_coherence: float = 1.0,
) -> tuple[float, tuple[BranchTerm, ...]]:
    """Herald station in factored form: success probability and branch terms.

    ``pairs`` are the ``(2, 2, 2, 2)`` photon-spin pairs (photon, spin,
    photon, spin) of nodes I, II, III, photons in the H/V frame, spins
    already aged at the nodes: storage acts on the spins alone, so it
    commutes with this post-selection.  One photon per output port keeps
    exactly the all-H and all-V routing branches, so the heralded state is
    the sum of four terms: weight 1 on the diagonal and the branch
    coherence ``xi`` or ``conj(xi)`` off it, divided by the success
    probability.  ``envelopes`` (optional, node id -> Envelope) and
    ``delta_omega_rad_per_us`` set the temporal-mode overlap in ``xi``;
    ``extra_coherence`` multiplies it, as a catch-all for interference
    imperfections.
    """
    if not 0.0 <= extra_coherence <= 1.0:
        raise ValueError("extra_coherence must lie in [0, 1]")
    success = float(routing_acceptance(pairs))
    if success < 1e-15:
        raise ValueError("post-selection has zero probability for these pairs")
    xi = extra_coherence * _branch_coherence(envelopes, delta_omega_rad_per_us)
    weights = {(0, 0): 1.0, (1, 1): 1.0, (0, 1): xi, (1, 0): np.conj(xi)}
    return success, tuple(
        BranchTerm(b, b2, weight / success, tuple(p[b, :, b2, :] for p in pairs))
        for (b, b2), weight in weights.items()
    )


def connect_three(
    pairs,
    *,
    envelopes=None,
    delta_omega_rad_per_us: float = 0.0,
    extra_coherence: float = 1.0,
) -> tuple[q.DensityMatrix, float]:
    """``station_branches`` on three two-qubit states, assembled into the
    heralded state over ``(port photons 0..2, spins I..III)``; returns it
    with the success probability, whose complement is discarded."""
    pairs = tuple(pairs)
    if len(pairs) != 3:
        raise ValueError(f"connect_three needs exactly three pairs, got {len(pairs)}")
    for nid, pair in zip(NODE_IDS, pairs):
        expected = (q.photon(nid), q.spin(nid))
        if pair.register != expected:
            raise ValueError(
                f"pair for node {nid} must have register {expected}, "
                f"got {pair.register}"
            )
    success, terms = station_branches(
        [p.matrix.reshape(2, 2, 2, 2) for p in pairs],
        envelopes=envelopes,
        delta_omega_rad_per_us=delta_omega_rad_per_us,
        extra_coherence=extra_coherence,
    )
    out = np.zeros((8, 8, 8, 8), dtype=complex)
    for t in terms:  # all-H ports sit at index 0, all-V at 7
        spins = np.kron(np.kron(t.blocks[0], t.blocks[1]), t.blocks[2])
        out[7 * t.row, :, 7 * t.col, :] = t.weight * spins
    register = STATION_PORTS + MEMORY_SPINS
    return q.DensityMatrix(register, out.reshape(64, 64)), success


def averaged_swap_fidelity(
    flip: bool, f: Envelope, g: Envelope, delta_omega_rad_per_us: float
) -> float:
    """Bell fidelity after averaging the herald over detection times.

    Integrates the conditional state against the joint detection-time
    density on a grid ``t`` (trapezoidal rule in both times) and evaluates
    the result against the ideal Bell state of the respective setting.  In
    the flip setting the conditional amplitude is ``fa(t1) ga(t2)`` on
    both ``|01>`` and ``|10>``: time independent, so the average stays at
    fidelity one.  Without the flip it is ``fa(t1) fa(t2)`` on ``|00>`` and
    ``ga(t1) ga(t2)`` on ``|11>``, where ``ga`` carries the beat
    ``exp(-i dw t)``: the detection time pair dephases the herald and the
    average drops.

    On a tensor grid the 2-D trapezoidal rule of an integrand sampled as
    the matrix ``M`` is ``w^T M w``, with ``w`` the 1-D trapezoidal weights
    of ``t``, and every integrand here is a sum of products of one function
    of ``t1`` and one of ``t2``.  So the double
    integrals reduce to the O(N) weighted inner products ``A = sum w|fa|^2``,
    ``G = sum w|ga|^2`` and ``C = sum w conj(fa) ga``: the no-flip fidelity
    is ``(A^2 + G^2 + 2 Re C^2) / (2 (A^2 + G^2))`` and the flip fidelity
    ``A G / (A G)``.

    Envelopes that share a grid are taken as stored, with the grid's cached
    weights, so a call computes only the beat and the three sums; otherwise
    both are interpolated onto the union of their grids.

    The target Bell state is taken with a + sign.  The other sign cancels:
    the target and the conditional amplitude both carry it, so every term
    holds ``sign * conj(sign) = 1``.
    """
    t, w, fa, ga = _common_grid(f, g)
    _check_beat(t, delta_omega_rad_per_us)
    ga = ga * np.exp(-1j * delta_omega_rad_per_us * t)

    norm_f = float(np.sum(w * np.abs(fa) ** 2))  # A
    norm_g = float(np.sum(w * np.abs(ga) ** 2))  # G
    if flip:
        # numerator |1 + 1|^2 / 2 * A G, density 2 A G
        numerator = density = 2.0 * norm_f * norm_g
    else:
        cross = complex(np.sum(w * np.conj(fa) * ga))  # C
        density = norm_f * norm_f + norm_g * norm_g
        numerator = 0.5 * (density + 2.0 * (cross * cross).real)
    return numerator / density
