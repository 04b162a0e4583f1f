"""Exact simulation of the one-qubit-memory sampling circuit.

Each step tensors a fresh ancilla qubit prepared in |s0> (rotation V applied
to |0>), applies U to the ancilla controlled on the memory qubit in the
computational basis (|k>|phi> -> |k> U^k |phi>), emits the old memory qubit
and measures it in the Z basis; the collapsed ancilla becomes the new memory.
Measuring each emitted qubit immediately keeps the live state two-dimensional,
and is equivalent to building the full entangled chain and measuring at the
end.

The enumeration walks every measurement branch with exact amplitudes, one
array layer per depth (weights, memory vectors and packed histories of all
branches), which keeps the full depth ``MAX_DEPTH`` = 20 (about a million
branches) practical.  The memory is always the collapsed ancilla
amplitude, renormalized, never set to the expected state directly:
synchronization with the encoding is what ``assert_synchronization`` checks.
The sampler walks a single seeded branch in one scan shared with the
classical sampler.  All state vectors are real: the
canonical amplitude gauge never produces a complex phase.  Branch enumeration
is read-only over shared inputs; the sampler owns its RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .classical import scan_states
from .distribution import FutureDistribution, symbol_string
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

MAX_DEPTH = 20

_KET0 = np.array([1.0, 0.0])


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True, eq=False)
class StepUnitaries:
    """The two rotations driving one circuit step.

    ``v`` maps |0> to the first memory state, ``u`` maps the first memory
    state to the second; ``theta0``/``theta1`` are the state angles with
    |s_i> = (cos theta_i, sin theta_i).
    """

    v: np.ndarray
    u: np.ndarray
    theta0: float
    theta1: float

    def causal_state(self, index: int) -> np.ndarray:
        """Memory state vector |s_index>."""
        if index not in (0, 1):
            raise ValueError(f"index must be 0 or 1, got {index}")
        state = self.v @ _KET0
        return state if index == 0 else self.u @ state


def build_step_unitaries(model: QuantumModel) -> StepUnitaries:
    """Planar rotations realizing the model's two memory states.

    Only the action of U on |s0> is ever used, so the rotation by
    (theta1 - theta0) is a sufficient completion.
    """
    theta0 = math.atan2(model.amp[0, 1], model.amp[0, 0])
    theta1 = math.atan2(model.amp[1, 1], model.amp[1, 0])
    return StepUnitaries(
        v=_rotation(theta0), u=_rotation(theta1 - theta0), theta0=theta0, theta1=theta1
    )


@dataclass(frozen=True, eq=False)
class BranchLayer:
    """Every measurement branch at one depth, as parallel arrays.

    Row i is one branch: ``weight[i]**2`` is the probability of the emitted
    prefix ``history[i]`` (first symbol in the most significant bit) and
    ``memory[i]`` is its memory vector.  The memory register is one qubit by
    construction; the shape check keeps that structural.
    """

    weight: np.ndarray
    memory: np.ndarray
    history: np.ndarray

    def __post_init__(self):
        if self.memory.shape != (len(self.weight), 2):
            raise ValueError("memory register must stay a single qubit")

    def __len__(self) -> int:
        return len(self.weight)


def branch_layers(su: StepUnitaries, start: int, length: int) -> Iterator[BranchLayer]:
    """Yield the layer of all branches after each of ``length`` measured steps.

    One circuit pass per depth acts on the whole layer: row k of a branch's
    joint amplitudes over (emitted qubit, ancilla) is the ancilla vector
    paired with emitted outcome k, and the outcome probabilities are the
    squared row norms.  Zero-probability outcomes are dropped; the survivors
    keep branch-major, outcome-minor order.  Squared branch weights sum to one
    at every depth (checked).
    """
    ancilla = su.v @ _KET0
    turned = su.u @ ancilla
    layer = BranchLayer(
        np.ones(1), su.causal_state(start)[None, :], np.zeros(1, dtype=np.int64)
    )
    for depth in range(length):
        joint = np.empty((len(layer), 2, 2))
        joint[:, 0] = layer.memory[:, :1] * ancilla
        joint[:, 1] = layer.memory[:, 1:] * turned
        probs = np.sum(joint * joint, axis=2).ravel()
        kept = np.flatnonzero(probs)
        parent, outcome = kept >> 1, kept & 1
        root = np.sqrt(probs[kept])
        layer = BranchLayer(
            weight=layer.weight[parent] * root,
            memory=joint.reshape(-1, 2)[kept] / root[:, None],
            history=(layer.history[parent] << 1) | outcome,
        )
        total = math.fsum(layer.weight * layer.weight)
        if abs(total - 1.0) > 1e-12:
            raise RuntimeError(
                f"branch weights lost normalization at depth {depth + 1}: "
                f"sum of squares = {total!r}"
            )
        yield layer


def exact_output_distribution(
    su: StepUnitaries, start: int, length: int
) -> FutureDistribution:
    """Exact Born-rule distribution over the 2**length measurement records."""
    if not 1 <= length <= MAX_DEPTH:
        raise ValueError(f"length must be in [1, {MAX_DEPTH}], got {length}")
    for layer in branch_layers(su, start, length):
        pass  # only the deepest layer carries the full records
    probs = np.zeros(2**length)
    probs[layer.history] = layer.weight**2
    return FutureDistribution(length, probs)


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
    su: StepUnitaries, model: QuantumModel, length: int, tol: float = 1e-12
) -> SyncReport:
    """Check every branch's memory equals the emitted symbol's memory state.

    Comparison is up to global sign via | |<memory|s_j>| - 1 | <= tol, for
    every branch at every depth up to ``length``.
    """
    if not 1 <= length <= MAX_DEPTH:
        raise ValueError(f"length must be in [1, {MAX_DEPTH}], got {length}")
    worst = 0.0
    first = None
    for start in (0, 1):
        for depth, layer in enumerate(branch_layers(su, start, length), start=1):
            expected = model.amp[layer.history & 1]
            deviation = np.abs(np.abs(np.sum(layer.memory * expected, axis=1)) - 1.0)
            worst = max(worst, float(deviation.max()))
            failing = np.flatnonzero(deviation > tol)
            if failing.size and first is None:
                first = (depth, symbol_string(int(layer.history[failing[0]]), depth))
    return SyncReport(passed=first is None, max_deviation=worst, first_failure=first)


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
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if start not in (0, 1):
        raise ValueError(f"start must be 0 or 1, got {start}")
    states = (su.causal_state(0), su.causal_state(1))
    m00, m10 = float(states[0][0]), float(states[1][0])
    draws = np.random.default_rng(seed).random(steps)
    outcomes = scan_states(m00 * m00, m10 * m10, start, draws)
    memory = states[int(outcomes[-1]) if steps else start]
    return 1 - 2 * outcomes, memory
