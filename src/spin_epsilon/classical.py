"""Two-state epsilon-machine over the chain's conditional spin statistics.

The machine's causal states are the two classes of pasts distinguished only
by the last observed symbol: state 0 after a +1, state 1 after a -1.  The
dynamics are unifilar by construction (emitting symbol j forces a transition
into state j), so exact conditional future tables are plain products of
transition-matrix entries.

Both samplers, this machine's and the quantum circuit's, draw a whole run of
states with one prefix scan, :func:`scan_states`, each from its own thresholds.

The table/entropy/fidelity operations are stateless and thread-safe; an
:class:`EpsilonMachine` instance owns its RNG and is single-owner.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .distribution import FutureDistribution, binary_entropy_bits
from .ising import TransitionMatrix

__all__ = [
    "MERGE_TOL",
    "MAX_TABLE_LENGTH",
    "EpsilonMachine",
    "statistical_complexity",
    "future_distribution",
    "classical_fidelity",
    "sample_trajectory",
]

# Rows of t closer than this are treated as a single causal state (the two
# conditional futures coincide and the machine needs no memory at all).
MERGE_TOL = 1e-12

MAX_TABLE_LENGTH = 20  # 2**20-entry table guard

BIT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))  # np.ndindex(2, 2) without its 3 us per loop


def merged_rows(t: np.ndarray) -> np.ndarray:
    """Whether the rows of each ``t`` (shape ``(..., 2, 2)``) coincide within
    ``MERGE_TOL``: the causal states then merge, which is how the
    infinite-temperature discontinuity shows up."""
    return np.abs(t[..., 0, :] - t[..., 1, :]).max(axis=-1) <= MERGE_TOL


def statistical_complexity(tm: TransitionMatrix) -> float:
    """Shannon entropy (bits) of the stationary causal-state distribution.

    Returns 0 when the causal states merge (see :func:`merged_rows`).
    """
    return 0.0 if merged_rows(tm.t) else float(binary_entropy_bits(tm.p.min()))


def future_tables(tm: TransitionMatrix, start: int, length: int) -> Iterator[np.ndarray]:
    """Yield the exact P(x_1 .. x_L | causal state ``start``) for L = 1 .. ``length``.

    No sampling: each table is the previous one doubled by unifilar
    expansion, a product of t entries, with the first emitted symbol in the
    most significant index bit.  Leading axes of ``tm`` (stacked draws) carry
    through: each table has shape ``tm.t.shape[:-2] + (2**L,)``.  Arguments
    are checked when iteration starts.
    """
    if start not in (0, 1):
        raise ValueError(f"start must be 0 or 1, got {start}")
    if not 1 <= length <= MAX_TABLE_LENGTH:
        raise ValueError(
            f"length must be in [1, {MAX_TABLE_LENGTH}], got {length}"
        )
    t = tm.t
    lead = t.shape[:-2]
    probs = t[..., start, :].copy()
    yield probs
    for _ in range(length - 1):
        # Entry 2k + s ends in symbol s, so it continues with row t[s]: a
        # broadcast product, one strided multiply per (s, j) so that the
        # inner loops run over k rather than over the two entries of a row.
        pairs = probs.reshape(*lead, -1, 2)
        probs = np.empty(pairs.shape + (2,))
        for s, j in BIT_PAIRS:
            np.multiply(pairs[..., s], t[..., None, s, j], out=probs[..., s, j])
        probs = probs.reshape(*lead, -1)
        yield probs


def future_distribution(
    tm: TransitionMatrix, start: int, length: int
) -> FutureDistribution:
    """The exact length-``length`` table of :func:`future_tables`."""
    for probs in future_tables(tm, start, length):
        pass
    return FutureDistribution(length, probs)


def classical_fidelity(tm: TransitionMatrix, length: int) -> float | np.ndarray:
    """Bhattacharyya fidelity between the two conditional future tables: a
    float, or an array over the leading axes of a stacked ``tm``.

    sum over length-L strings of sqrt(P(x|s0) * P(x|s1)).  Telescoping of the
    unifilar chain makes this independent of L, equal to
    sqrt(t00*t10) + sqrt(t01*t11); this function computes the sum from the
    exact tables so that identity stays checkable.
    """
    d0 = future_distribution(tm, 0, length)
    d1 = future_distribution(tm, 1, length)
    fidelity = np.sum(np.sqrt(d0.probs * d1.probs), axis=-1)
    return float(fidelity) if fidelity.ndim == 0 else fidelity


def scan_states(q0: float, q1: float, start: int, draws: np.ndarray) -> np.ndarray:
    """The int8 states after each draw of the chain that moves from ``start``
    to state ``draws[k] >= q[state]``, without a per-step loop.

    A draw below ``min(q)`` or at least ``max(q)`` resets the state; one in
    between copies it when ``q1 < q0`` and flips it when ``q0 < q1``.  The
    state XOR the flip parity so far is then a forward fill of its value at
    the last reset: a prefix scan over composed maps (Blelloch 1990).
    """
    lo, hi = min(q0, q1), max(q0, q1)
    high = draws >= hi
    reset = high | (draws < lo)
    n = draws.size
    # 1 + index of the last reset at or before each step; 0 before the first.
    last = np.arange(1, n + 1, dtype=np.int32 if n < 2**31 else np.intp)
    last *= reset
    np.maximum.accumulate(last, out=last)
    fill = np.empty(n + 1, dtype=np.int8)
    fill[0] = start
    if q0 < q1:
        parity = np.bitwise_xor.accumulate(~reset).view(np.int8)
        np.bitwise_xor(high, parity, out=fill[1:])
        return fill[last] ^ parity
    fill[1:] = high
    return fill[last]


class EpsilonMachine:
    """Stateful simulator for the two-state unifilar machine.

    Holds the transition matrix, the current causal state and an owned RNG;
    use one instance per worker.  Entropies are reported in bits throughout.
    """

    def __init__(self, tm: TransitionMatrix, state: int = 0, seed: int | None = None):
        self.tm = tm
        self.reset(state, seed)

    def reset(self, state: int, seed: int | None = None) -> None:
        if state not in (0, 1):
            raise ValueError(f"state must be 0 or 1, got {state}")
        self.state = state
        self.rng = np.random.default_rng(seed)

    def run(self, steps: int) -> np.ndarray:
        """Emit ``steps`` symbols; returns an int8 array of +1/-1 values."""
        if steps < 0:
            raise ValueError(f"steps must be >= 0, got {steps}")
        t = self.tm.t
        states = scan_states(t[0, 0], t[1, 0], self.state, self.rng.random(steps))
        if steps:
            self.state = int(states[-1])
        return 1 - 2 * states


def sample_trajectory(
    machine: EpsilonMachine, start: int, steps: int, seed: int | np.random.Generator
) -> tuple[np.ndarray, int]:
    """Seeded trajectory of +1/-1 symbols; returns (symbols, final state).
    A Generator as ``seed`` is used as is, continuing its stream."""
    machine.reset(start, seed)
    symbols = machine.run(steps)
    return symbols, machine.state
