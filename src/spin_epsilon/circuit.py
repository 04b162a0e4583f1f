"""Exact simulation of the one-qubit-memory sampling circuit.

Each step tensors a fresh ancilla qubit prepared in |s0> (rotation V applied
to |0>), applies U to the ancilla controlled on the memory qubit in the
computational basis (|k>|phi> -> |k> U^k |phi>), emits the old memory qubit
and measures it in the Z basis; the collapsed ancilla becomes the new memory.
Measuring each emitted qubit immediately keeps the live state two-dimensional,
and is equivalent to building the full entangled chain and measuring at the
end.

The enumeration walks every measurement branch with exact amplitudes, one
``(run, 2**depth)`` grid per depth indexed by the emitted record, like the
unifilar future tables: branch h's children are records 2h and 2h + 1, so
each layer is one reshape of the last, and the full depth ``MAX_DEPTH`` = 20
is one 2**20 table per run.  Unitaries with leading axes stack independent
draws; one walk then covers every draw's run from one start, one draw per
grid row, and the enumeration results come back per draw.  The memory is
always the collapsed ancilla amplitude, renormalized, never set to the
expected state directly: synchronization with the encoding is what
``assert_synchronization`` checks.  Each run's squared weights must sum to
one within 1e-12 at every depth, as ``math.fsum`` decides: one two-level
array sum per depth, whose error bound clears every healthy run, sends only
the runs it cannot clear (and NaN) to fsum.  The sampler walks a single
seeded branch in one scan shared with the classical sampler.  All state
vectors are real: the canonical amplitude gauge never produces a complex
phase.  Branch enumeration is read-only over shared inputs; the sampler owns
its RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .classical import MAX_TABLE_LENGTH, _double, scan_states
from .distribution import FutureDistribution, check_integer, symbol_string
from .quantum import QuantumModel

__all__ = [
    "StepUnitaries",
    "build_step_unitaries",
    "BranchLayer",
    "branch_layers",
    "exact_output_distribution",
    "SyncReport",
    "assert_synchronization",
    "sample_quantum_trajectory",
]

MAX_DEPTH = MAX_TABLE_LENGTH  # a depth-L layer is one 2**L record table per run
_BLOCK = 1024  # first-level block of the normalization sums: slack <= 4.6e-13 at MAX_DEPTH
SYNC_TOL = 1e-12  # largest | |<memory|s_j>| - 1 | assert_synchronization passes

_KET0 = np.array([1.0, 0.0])


@dataclass(frozen=True, eq=False)
class StepUnitaries:
    """The two rotations driving one circuit step.

    ``v`` maps |0> to the first memory state, ``u`` maps the first memory
    state to the second.  Leading axes stack independent draws: ``v`` and
    ``u`` are ``(..., 2, 2)`` arrays of one shape.
    """

    v: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if self.v.shape[-2:] != (2, 2) or self.u.shape != self.v.shape:
            raise ValueError(f"expected v and u of shape (..., 2, 2), got v {self.v.shape} "
                             f"and u {self.u.shape}")

    def causal_state(self, index: int) -> np.ndarray:
        """Memory state vector |s_index>, shape ``(..., 2)``."""
        check_integer(index, 0, 1, "index must be 0 or 1, got {value}")
        state = self.v @ _KET0
        return state if index == 0 else (self.u @ state[..., None])[..., 0]


def _rotations(x0: float, y0: float, x1: float, y1: float) -> tuple[float, ...]:
    """v and u row-major: rotations by the state angles theta0 and theta1 - theta0."""
    theta0, theta1 = math.atan2(y0, x0), math.atan2(y1, x1)
    c0, s0 = math.cos(theta0), math.sin(theta0)
    c1, s1 = math.cos(theta1 - theta0), math.sin(theta1 - theta0)
    return c0, -s0, s0, c0, c1, -s1, s1, c1


def build_step_unitaries(model: QuantumModel) -> StepUnitaries:
    """Planar rotations realizing the model's two memory states
    |s_i> = (cos theta_i, sin theta_i), stacked like the model's leading axes.

    Only the action of U on |s0> is ever used, so the rotation by
    (theta1 - theta0) is a sufficient completion.
    """
    batch = model.amp.shape[:-2]
    # math's functions per draw: np.arctan2 can differ from math.atan2 by an
    # ulp, and the rotations of stacked draws must equal those of single draws.
    table = np.array([_rotations(*draw) for draw in model.amp.reshape(-1, 4).tolist()])
    table = table.reshape(-1, 8)  # (0, 8) for an empty stack
    v, u = (table[:, i : i + 4].reshape(*batch, 2, 2) for i in (0, 4))
    return StepUnitaries(v=v, u=u)


@dataclass(frozen=True, eq=False)
class BranchLayer:
    """Every measurement branch at one depth, on the record-index grid.

    ``weight[r, h]**2`` is the probability that run ``r`` emits the record
    ``h`` (first symbol in the most significant bit), and ``memory[r, h]`` is
    the memory vector after it.  A record that some step on its path gave
    probability zero stays in the grid as a dead branch: weight 0 and memory
    0.  A live branch's memory is a unit vector even where its weight has
    underflowed to 0.  The memory register is one qubit by construction; the
    shape check keeps that structural.
    """

    weight: np.ndarray
    memory: np.ndarray

    def __post_init__(self):
        if self.memory.shape != self.weight.shape + (2,):
            raise ValueError("memory register must stay a single qubit")

    def __len__(self) -> int:
        return self.weight.size


def branch_layers(su: StepUnitaries, start: int, length: int) -> Iterator[BranchLayer]:
    """Yield the layer of all branches after each of ``length`` measured steps.

    One circuit pass per depth acts on the whole layer: row k of a branch's
    joint amplitudes over (emitted qubit, ancilla) is the ancilla vector
    paired with emitted outcome k, and the outcome probabilities are the
    squared row norms.  Branch h's outcome k becomes record 2h + k of the
    next layer.  With leading axes on ``su``, each draw is one run from
    ``start``, one grid row in C order.  Every run's squared branch weights
    sum to one at every depth: a run whose ``math.fsum`` total is not within
    1e-12 of one raises ``RuntimeError`` (see ``_check_normalization``).
    """
    check_integer(length, 1, MAX_DEPTH, "length must be in [1, {hi}], got {value}")
    # pair[r, k, j]: amplitude j of run r's ancilla paired with emitted outcome k.
    pair = np.stack([su.causal_state(0), su.causal_state(1)], axis=-2).reshape(-1, 2, 2)
    runs = len(pair)
    layer = BranchLayer(np.ones((runs, 1)), su.causal_state(start).reshape(runs, 1, 2))
    for depth in range(1, length + 1):
        joint = _double(layer.memory, pair)  # joint[r, h, k, j] = memory[r, h, k] * pair[r, k, j]
        squares = joint * joint
        root = np.sqrt(squares[..., 0] + squares[..., 1])
        weight = (layer.weight[..., None] * root).reshape(runs, 2**depth)
        root, joint = root.reshape(runs, 2**depth), joint.reshape(runs, 2**depth, 2)
        memory = squares.reshape(joint.shape)  # squares' buffer, no longer read: no fresh array
        memory.fill(0.0)  # dead branches keep memory 0
        for j in (0, 1):
            np.divide(joint[..., j], root, out=memory[..., j], where=root != 0)
        layer = BranchLayer(weight, memory)
        _check_normalization(weight * weight, depth)
        yield layer


def _check_normalization(squares: np.ndarray, depth: int) -> None:
    """Raise unless every row of ``squares`` has a ``math.fsum`` total within
    1e-12 of one, naming the first failing row's total.

    Any order of adding n non-negative doubles lands within about
    (n - 1) u S of their exact sum S, u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 4.2).  Blocks of b, then
    the block sums, stay within about (b + n/b - 2) u S, and ``slack`` is
    over twice that: a row whose two-level sum clears 1e-12 by ``slack`` has
    a correctly rounded total inside the bound too.  Only the rows it does
    not clear, NaN among them, are summed by fsum, which decides them.
    """
    runs, width = squares.shape
    block = min(width, _BLOCK)
    sums = squares.reshape(runs, width // block, block).sum(axis=2).sum(axis=1)
    slack = (block + width // block) * 2.0**-52 * sums
    # fsum reads a memoryview as Python floats, twice as fast as an array.
    rows = memoryview(squares.ravel())
    for run in np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-12 - slack)).tolist():
        total = math.fsum(rows[run * width : (run + 1) * width])
        if not abs(total - 1.0) <= 1e-12:
            raise RuntimeError(
                f"branch weights lost normalization at depth {depth}: "
                f"sum of squares = {total!r}"
            )


def exact_output_distribution(
    su: StepUnitaries, start: int, length: int
) -> FutureDistribution:
    """Exact Born-rule distribution over the 2**length measurement records,
    one table per draw when ``su`` has leading axes."""
    for layer in branch_layers(su, start, length):
        pass  # only the deepest layer carries the full records
    return FutureDistribution(length, (layer.weight**2).reshape(*su.v.shape[:-2], 2**length))


@dataclass(frozen=True)
class SyncReport:
    """Outcome of checking post-measurement memories against the encoding."""

    passed: bool
    max_deviation: float
    first_failure: tuple[int, str] | None

    def __str__(self):
        if self.passed:
            return f"PASS: max synchronization deviation {self.max_deviation:.3g}"
        depth, prefix = self.first_failure
        return (
            f"FAIL: memory desynchronized at depth {depth} after '{prefix}' "
            f"(deviation {self.max_deviation:.3g})"
        )


def assert_synchronization(
    su: StepUnitaries, model: QuantumModel, length: int
) -> SyncReport | list[SyncReport]:
    """Check every branch's memory equals the emitted symbol's memory state.

    Comparison is up to global sign via | |<memory|s_j>| - 1 | <= ``SYNC_TOL``, for
    every branch at every depth up to ``length``.  Returns one
    :class:`SyncReport`; with leading draw axes on ``su`` and ``model``, a
    list of them, one per draw in C order.
    """
    if su.v.shape != model.amp.shape:
        raise ValueError(f"su and model must stack the same draws, got v of shape "
                         f"{su.v.shape} and amp of shape {model.amp.shape}")
    amp = model.amp.reshape(-1, 2, 2)
    worst = np.zeros(len(amp))
    first = [None] * len(amp)
    for start in (0, 1):
        for depth, layer in enumerate(branch_layers(su, start, length), start=1):
            # Record h ends in symbol h & 1: pair each memory with amp[r, h & 1].
            memory = layer.memory.reshape(len(amp), 2 ** (depth - 1), 2, 2)
            overlap = np.sum(memory * amp[:, None], axis=-1).reshape(len(amp), 2**depth)
            live = (layer.memory != 0).any(axis=-1)  # not weight > 0: weights underflow
            deviation = np.where(live, np.abs(np.abs(overlap) - 1.0), 0.0)
            worst = np.maximum(worst, deviation.max(axis=1))
            failing = ~(deviation <= SYNC_TOL)  # NaN fails
            # The first failing branch of each run that has one.
            for run in np.flatnonzero(failing.any(axis=1)).tolist():
                if first[run] is None:
                    first[run] = (depth, symbol_string(int(failing[run].argmax()), depth))
    reports = [
        SyncReport(passed=f is None, max_deviation=w, first_failure=f)
        for w, f in zip(worst.tolist(), first)
    ]
    return reports if model.amp.ndim > 2 else reports[0]


def sample_quantum_trajectory(
    su: StepUnitaries, start: int, steps: int, seed: int | np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Walk one seeded branch; returns (+1/-1 symbols, final memory vector).

    Each measurement outcome is drawn from its exact branch probability (the
    squared first amplitude ``m0 * m0`` of the current memory vector, one
    ``scan_states`` threshold per ``su.causal_state``), and the ancilla
    collapses to the emitted symbol's memory state.  A Generator as ``seed``
    is used as is, continuing its stream.
    """
    if su.v.ndim != 2:
        raise ValueError(f"sample_quantum_trajectory takes one model, got v of shape {su.v.shape}")
    check_integer(steps, 0, None, "steps must be >= 0, got {value}")
    check_integer(start, 0, 1, "start must be 0 or 1, got {value}")
    states = (su.causal_state(0), su.causal_state(1))
    m00, m10 = float(states[0][0]), float(states[1][0])
    draws = np.random.default_rng(seed).random(steps)
    outcomes = scan_states(m00 * m00, m10 * m10, start, draws)
    memory = states[int(outcomes[-1]) if steps else start]
    return 1 - 2 * outcomes, memory
