"""Bounded disturbance signals d(t) and their supremum norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clf import vecdot

KINDS = ("zero", "constant", "sinusoid", "piecewise_constant_random", "phase_error_driven")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # counter-based mixer on uint64 arrays, whose arithmetic wraps mod 2^64:
    # identical output for identical (seed, counter) on any platform
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _unit01(seed: int, blocks: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """Uniform [0, 1) draws for every (block, lane) pair, shape (blocks, lanes)."""
    blocks = np.asarray(blocks, dtype=np.uint64)[:, None]
    lanes = np.asarray(lanes, dtype=np.uint64)[None, :]
    x = _splitmix64(np.uint64(seed % (1 << 64)) ^ _splitmix64(blocks + np.uint64(1))
                    ^ _splitmix64((lanes + np.uint64(1)) << np.uint64(20)))
    return (x >> np.uint64(11)) / float(1 << 53)


@dataclass(frozen=True)
class DisturbanceSignal:
    """One of the disturbance kinds, with an exactly known sup norm where analytic.

    For "piecewise_constant_random" each dwell block holds a fixed vector of
    Euclidean norm exactly `amplitude`, with direction derived from a
    counter-based PRNG so sampling is pure in t and bit-reproducible.  A
    "phase_error_driven" signal is the mech closed loop's exogenous input, the
    phase-estimate error e(t) = amplitude * sin(2 pi frequency t) in entry 0,
    sampled and tabled as the sinusoid is; the input disturbance it induces
    depends on the state, so the mech closed loop derives it.
    """

    kind: str
    dim: int
    amplitude: float = 0.0
    frequency: float = 1.0
    dwell: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("signal dimension must be at least 1")
        if self.kind == "piecewise_constant_random" and self.dwell <= 0.0:
            raise ValueError("dwell time must be positive")

    def _direction(self) -> np.ndarray:
        v = np.zeros(self.dim)
        v[0] = 1.0
        return v

    def block_vectors(self, blocks: np.ndarray) -> np.ndarray:
        """The piecewise-random vectors of the given blocks, shape (len(blocks), dim)."""
        raw = 2.0 * _unit01(self.seed, blocks, np.arange(self.dim)) - 1.0
        nrm = np.sqrt(vecdot(raw, raw))
        tiny = nrm < 1e-12
        return np.where(tiny[:, None], self.amplitude * self._direction(),
                        (self.amplitude / np.where(tiny, 1.0, nrm))[:, None] * raw)

    def closed_form(self, t: float | np.ndarray) -> np.ndarray:
        """A constant, sinusoid or phase_error_driven signal at one time or times, (..., dim).

        The amplitude, or amplitude * sin(2 pi frequency t), times the unit
        direction: entry 0 holds that value's bits.
        """
        value = (self.amplitude if self.kind == "constant"
                 else self.amplitude * np.sin(2.0 * np.pi * self.frequency * t))
        return np.multiply.outer(value, self._direction())


def sample(signal: DisturbanceSignal, t: float) -> np.ndarray:
    """Evaluate the signal at t; pure and deterministic given the signal's seed."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if signal.kind == "zero":
        return np.zeros(signal.dim)
    if signal.kind == "piecewise_constant_random":
        return signal.block_vectors([int(t / signal.dwell)])[0]
    return signal.closed_form(t)


class DisturbanceTable:
    """The input of a batch of runs on [0, horizon], one row per run: a Hopf
    run's d(t), a mech run's phase error e(t) in entry 0.

    Each piecewise-random run's block vectors are computed once for the
    whole horizon and looked up with the same int(t / dwell) as ``sample``;
    the other nonzero kinds come from their closed forms.  Each row
    equals ``sample(signal, t)`` bit for bit; a run without a signal, or
    with the zero kind, reads zero.  Call it with one time t for an array
    (B, dim), or with an array of times (S,) for (S, B, dim); times must lie
    in [0, horizon] plus round-off, as the integrator's stage times do.
    """

    def __init__(self, signals, dim: int, horizon: float):
        for s in signals:
            if s is not None and s.dim != dim:
                raise ValueError(f"signal dimension {s.dim} differs from {dim}")
        self.shape = (len(signals), dim)
        # (row, signal, its block vectors or None) of each nonzero run; the
        # stage times of the last step reach horizon plus round-off
        self._runs = [(row, s, s.block_vectors(np.arange(int(horizon / s.dwell) + 2))
                       if s.kind == "piecewise_constant_random" else None)
                      for row, s in enumerate(signals) if s is not None and s.kind != "zero"]

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        d = np.zeros(t.shape + self.shape)
        for row, s, blocks in self._runs:
            d[..., row, :] = (s.closed_form(t) if blocks is None
                              else blocks[(t / s.dwell).astype(np.intp)])
        return d


def sup_norm(signal: DisturbanceSignal, horizon: float) -> float:
    """Essential sup of ||d(t)|| on [0, horizon], exact for the four analytic kinds.

    The input disturbance that a phase_error_driven signal induces depends on
    the state and has no sup norm here (ValueError).
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if signal.kind == "zero":
        return 0.0
    if signal.kind in ("constant", "piecewise_constant_random"):
        return abs(signal.amplitude)
    if signal.kind == "sinusoid":
        # the sup over t >= 0 is the amplitude; attained on any horizon covering a
        # quarter period of |f| (d at -f is -d at f), approached otherwise
        if horizon * abs(signal.frequency) >= 0.25:
            return abs(signal.amplitude)
        return abs(signal.amplitude * np.sin(2.0 * np.pi * abs(signal.frequency) * horizon))
    raise ValueError("a phase_error_driven disturbance depends on the state; it has no sup norm")
