"""Aggregated self-verification: every cross-route consistency check.

Four check families, each pitting an independent computation route against
the primary one:

* oracle convergence -- brute-force ring conditionals against transfer-matrix
  tables, plus the ring's Markov-gap decay;
* fidelity saturation -- memory-state overlaps against exact classical
  fidelities over random parameter draws;
* circuit agreement -- exact circuit output distributions and memory
  synchronization against the unifilar tables;
* entropy monotonicity -- closed-form mixture eigenvalues against a direct
  eigensolve, and entropy strictly decreasing in overlap, judged on
  ``binary_entropy_bits`` of the smaller eigenvalue, as C_q is computed.

Each check builds every reference once: one enumeration per ring size, one
unifilar expansion per start, one stacked eigensolve over the entropy grid.
The random-draw checks draw their parameter points as rows (J, B, T) in
blocks, in a fixed RNG order, and build each block's transition matrices,
models and unitaries in one broadcast call each, so a block is one array pass
through the tables, the circuit walk and the fidelity bound; a failure names
the first failing draw in draw order.  A block's record tables of the
check's depth hold at most ``_BLOCK_ENTRIES`` entries, so a block is
``max(1, _BLOCK_ENTRIES >> depth)`` draws: 32 for fidelity's depth-12
tables, and every draw of a circuit check at the ``_BUDGETS``.  Checks run
sequentially so reports are deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import assert_synchronization, build_step_unitaries, exact_output_distribution
from .classical import future_distribution
from .distribution import binary_entropy_bits, check_integer
from .ising import IsingParams, TransitionMatrix, transition_arrays, transition_matrix
from .quantum import (QuantumModel, build_quantum_model, fidelity_saturation_check,
                      mixture_eigenvalues, stationary_density)
from .ring import _window, enumerate_ring, markov_gap

__all__ = ["CheckResult", "run_verification", "VERIFY_LEVELS"]

# Per level: oracle (ring sizes n_half, tight bounds), fidelity (draws,
# max_length), circuit (draws, length, sync_draws, sync_depth) and entropy grid points.
_BUDGETS = {"quick": (((3, 4, 5, 6), False), (50, 8), (50, 6, 50, 4), 20),
            "full": (((4, 6, 8, 10), True), (500, 12), (100, 10, 200, 6), 50)}
VERIFY_LEVELS = tuple(_BUDGETS)

# Parameter box for random draws, as (J, B, log T) bounds: couplings and
# fields in [-3, 3], temperatures log-uniform over [0.05, 100].
_LOW = (-3.0, -3.0, np.log(0.05))
_HIGH = (3.0, 3.0, np.log(100.0))

# Convergence reference points: short correlation length (tight quantitative
# bounds apply) and long correlation length (decay is checked qualitatively).
_SHORT_CORR = (1.0, 0.3, 2.0)
_LONG_CORR = (1.0, 0.0, 1.0)

# Record-table entries per stacked call.  At depth 12 this is 32 draws a
# block: between passes of the oracle workload, fidelity blocks of 16 or 64
# draws measured 1.15x and 1.08-1.11x slower.  Shallower checks gain from
# fewer, larger calls.
_BLOCK_ENTRIES = 2**17


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self):
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _draw(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` box points as rows (J, B, T), in the RNG order of ``n`` one-point draws."""
    points = rng.uniform(_LOW, _HIGH, size=(n, 3))
    points[:, 2] = np.exp(points[:, 2])
    return points


def _draw_blocks(rng: np.random.Generator, draws: int, depth: int):
    """Yield ``draws`` points, ``max(1, _BLOCK_ENTRIES >> depth)`` at a time, as (rows
    as floats, their TransitionMatrix): a block's 2**depth-entry tables fill at most
    ``_BLOCK_ENTRIES`` entries."""
    block = max(1, _BLOCK_ENTRIES >> depth)
    for lo in range(0, draws, block):
        points = _draw(rng, min(block, draws - lo))
        yield points.tolist(), TransitionMatrix(*transition_arrays(*points.T))


def _counterexample(name: str, point: list, detail: str) -> CheckResult:
    """A failed check named by its first failing draw ``point`` = (J, B, T)."""
    J, B, T = point
    return CheckResult(name, False, f"first counterexample at (J={J}, B={B}, T={T}){detail}")


def check_oracle_convergence(n_halves: tuple[int, ...], tight: bool) -> CheckResult:
    """Ring-enumeration tables must converge on the transfer-matrix route.

    One pass measures every ring of ``n_halves``; the first bound the numbers
    break is the report.  The ``tight`` bounds (table error and Markov gap)
    suit the full level only: quick rings are too short for a length-3 Markov gap.
    """
    length = 3
    points = {"short-corr": _SHORT_CORR, "long-corr": _LONG_CORR}
    errors, gaps = {label: [] for label in points}, []
    for label, point in points.items():
        params = IsingParams(*point)
        tm = transition_matrix(params)
        exact = np.stack([future_distribution(tm, start, length).probs for start in (0, 1)])
        for n_half in n_halves:
            ens = enumerate_ring(params, n_half)
            window = _window(ens, length)  # rows: conditions +1, -1
            error = np.max(np.abs(window / window.sum(axis=1, keepdims=True) - exact))
            errors[label].append(float(error))
            if tight and label == "short-corr":
                gaps.append(markov_gap(ens, length))

    not_decreasing = lambda values: not all(b < a for a, b in zip(values, values[1:]))
    bounds = [
        (not_decreasing(errors[label]), f"{label} (J={J}, B={B}, T={T}): table error not strictly "
         f"decreasing across n_half={n_halves}: {errors[label]}")
        for label, (J, B, T) in points.items()
    ]
    series = [(f"{label} table errors", values) for label, values in errors.items()]
    if tight:
        final, last = errors["short-corr"][-1], n_halves[-1]
        bounds += [
            (final >= 1e-6, f"short-corr table error at n_half={last} is {final:.3g}, "
             "expected < 1e-6"),
            (not_decreasing(gaps), f"markov gap not strictly decreasing: {gaps}"),
            (gaps[-1] >= 1e-5, f"markov gap at n_half={last} is {gaps[-1]:.3g}, expected < 1e-5"),
        ]
        series.append(("short-corr markov gaps", gaps))
    failures = [message for failed, message in bounds if failed]
    detail = "; ".join(f"{name} {['%.3g' % v for v in values]}" for name, values in series)
    return CheckResult("oracle-convergence", not failures, failures[0] if failures else detail)


def check_fidelity_saturation(seed: int, draws: int, max_length: int) -> CheckResult:
    """Overlap must equal the classical fidelity bound on every random draw."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for points, tm in _draw_blocks(rng, draws, max_length):
        reports = fidelity_saturation_check(tm, build_quantum_model(tm), max_length)
        for point, report in zip(points, reports):
            worst = max(worst, report.max_gap)
            if not report.passed:
                return _counterexample("fidelity-saturation", point, f": {report}")
    return CheckResult(
        "fidelity-saturation",
        True,
        f"{draws} draws, max |overlap - fidelity| = {worst:.3g}",
    )


def check_circuit_agreement(
    seed: int, draws: int, length: int, sync_draws: int, sync_depth: int
) -> CheckResult:
    """Circuit output must match the unifilar tables; memories must resync."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for points, tm in _draw_blocks(rng, draws, length):
        su = build_step_unitaries(build_quantum_model(tm))
        # gaps[i, start]: the worst table entry of draw i from that start.
        gaps = np.stack(
            [
                np.abs(
                    exact_output_distribution(su, start, length).probs
                    - future_distribution(tm, start, length).probs
                ).max(axis=-1)
                for start in (0, 1)
            ],
            axis=-1,
        )
        bad = np.flatnonzero(~(gaps <= 1e-12))  # NaN fails
        if bad.size:
            i, start = divmod(int(bad[0]), 2)
            detail = f", start={start}: max entry gap {gaps[i, start]:.3g}"
            return _counterexample("circuit-agreement", points[i], detail)
        worst = max(worst, float(gaps.max()))
    for points, tm in _draw_blocks(rng, sync_draws, sync_depth):
        model = build_quantum_model(tm)
        reports = assert_synchronization(build_step_unitaries(model), model, sync_depth)
        for point, report in zip(points, reports):
            if not report.passed:
                return _counterexample("circuit-agreement", point, f": {report}")
    return CheckResult(
        "circuit-agreement",
        True,
        f"{draws} distribution draws at L={length} (max gap {worst:.3g}), "
        f"{sync_draws} synchronization draws at depth {sync_depth}",
    )


def check_entropy_monotonicity(grid_points: int) -> CheckResult:
    """Mixture entropy must fall strictly with overlap; eigenroutes must agree.

    Reports the first failing cell in row-major (weight, overlap) order.
    """
    weights = overlaps = np.linspace(0.0, 1.0, grid_points + 2)[1:-1]
    lo, hi = mixture_eigenvalues(weights[:, None], overlaps)
    # One model per cell: memory states |0> and (overlap, sqrt(1 - overlap**2)).
    w = weights[:, None].repeat(grid_points, axis=1)
    amp = np.zeros(w.shape + (2, 2))
    amp[..., 0, 0], amp[..., 1, 0], amp[..., 1, 1] = 1.0, overlaps, np.sqrt(1.0 - overlaps**2)
    direct = np.linalg.eigvalsh(stationary_density(QuantumModel(amp, np.stack([w, 1 - w], -1))))
    eig_gaps = np.abs(np.sort(np.stack([lo, hi], axis=-1)) - direct).max(axis=-1)
    entropy = binary_entropy_bits(lo)
    rising = np.pad(~(np.diff(entropy, axis=1) < 0.0), ((0, 0), (1, 0)))
    bad = np.flatnonzero(~(eig_gaps <= 1e-12) | rising)  # NaN fails
    if bad.size:
        i, j = divmod(int(bad[0]), grid_points)
        where = f"first counterexample at (weight={weights[i]}, overlap={overlaps[j]}): "
        if not eig_gaps[i, j] <= 1e-12:
            reason = f"closed-form vs eigensolve gap {eig_gaps[i, j]:.3g}"
        else:
            row = entropy[i].tolist()
            reason = f"entropy {row[j]!r} did not decrease from {row[j - 1]!r}"
        return CheckResult("entropy-monotonicity", False, where + reason)
    return CheckResult(
        "entropy-monotonicity",
        True,
        f"{grid_points}x{grid_points} grid, max eigenvalue gap {eig_gaps.max():.3g}",
    )


def run_verification(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Run every check family at the budgets of ``level``: quick or full."""
    if level not in VERIFY_LEVELS:
        raise ValueError(f"level must be one of {VERIFY_LEVELS}, got {level!r}")
    oracle, fidelity, circuit, grid_points = _BUDGETS[level]
    check_integer(seed, 0, None, "seed must be >= 0, got {value}")
    return [
        check_oracle_convergence(*oracle),
        check_fidelity_saturation(seed, *fidelity),
        check_circuit_agreement(seed, *circuit),
        check_entropy_monotonicity(grid_points),
    ]
