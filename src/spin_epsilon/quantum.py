"""Optimal quantum memory for the chain and its von Neumann complexity.

The quantum model keeps one qubit whose two memory states carry the square
roots of the transition probabilities,

    |s_i> = sqrt(t[i,0]) |0> + sqrt(t[i,1]) |1>,

so their overlap <s0|s1> = sqrt(t00*t10) + sqrt(t01*t11) equals the fidelity
between the two classical conditional futures -- the largest overlap any
valid model can afford.  The stationary memory state is the p-weighted
mixture of the two, and its entropy in bits is the quantum statistical
complexity: a closed form of the weight and the overlap
(:func:`mixture_eigenvalues`), so :func:`complexity` needs no eigensolver.

Amplitudes are fixed real non-negative: the optimal models form a unitary
family and entropy is gauge-invariant, so one canonical representative
suffices.  All operations are pure value computations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .classical import future_tables, merged_rows
from .distribution import binary_entropy_bits, check_real
from .ising import TransitionMatrix, transition_arrays

__all__ = [
    "QuantumModel",
    "build_quantum_model",
    "stationary_density",
    "quantum_statistical_complexity",
    "mixture_eigenvalues",
    "ChainStatistics",
    "complexity",
    "SaturationReport",
    "fidelity_saturation_check",
    "TmaxResult",
    "find_tmax",
]

SATURATION_TOL = 1e-10  # fidelity_saturation_check's bound on |overlap - fidelity(L)|


@dataclass(frozen=True, eq=False)
class QuantumModel:
    """Two unit-norm real amplitude vectors plus their stationary weights.

    ``amp[i]`` holds the memory state assigned to causal state i.  Leading
    axes stack independent models: ``amp`` is ``(..., 2, 2)`` and
    ``weights`` ``(..., 2)``.
    """

    amp: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.amp.shape[-2:] != (2, 2) or self.weights.shape != self.amp.shape[:-1]:
            raise ValueError(
                f"expected amp of shape (..., 2, 2) and weights of shape (..., 2), "
                f"got {self.amp.shape} and {self.weights.shape}"
            )

    def overlap(self):
        """<s0|s1> of the memory states, as :func:`complexity` sums it: a float, or an array."""
        overlap = _overlap(self.amp)
        return float(overlap) if overlap.ndim == 0 else overlap


def build_quantum_model(tm: TransitionMatrix) -> QuantumModel:
    """Memory states with amplitudes sqrt(t[i, j]), weighted by ``tm.p``."""
    return QuantumModel(amp=np.sqrt(tm.t), weights=tm.p.copy())


def stationary_density(model: QuantumModel) -> np.ndarray:
    """Stationary memory state: weighted sum of the two pure projectors.

    Returns a real symmetric 2x2 matrix with unit trace and eigenvalues in
    [0, 1]; a stacked ``model`` gives one per draw, shape ``(..., 2, 2)``.
    """
    amp = model.amp
    return (model.weights[..., None, None] * (amp[..., :, None] * amp[..., None, :])).sum(axis=-3)


def quantum_statistical_complexity(model: QuantumModel) -> float | np.ndarray:
    """Von Neumann entropy (bits) of the stationary memory state, 0 where the causal
    states merge (:func:`classical.merged_rows` of the squared amplitudes): a float,
    or an array over the leading axes, equal to :func:`complexity`'s ``c_q`` bit for bit."""
    _, c_q = _memory_entropy(model.amp, model.weights.min(axis=-1), merged_rows(model.amp**2))
    return float(c_q) if c_q.ndim == 0 else c_q


def _overlap(amp):
    """<s0|s1> of memory states ``amp``; clipped, as rounding can pass 1 where rows merge."""
    return np.minimum((amp[..., 0, :] * amp[..., 1, :]).sum(axis=-1), 1.0)


def _memory_entropy(amp, weight, merged):
    """``amp``'s overlap and mixture entropy (bits) at smaller weight ``weight``; 0 if merged."""
    overlap = _overlap(amp)
    smaller, _ = mixture_eigenvalues(weight, overlap)
    return overlap, np.where(merged, 0.0, binary_entropy_bits(smaller))


def mixture_eigenvalues(weight, overlap):
    """Closed-form eigenvalues of w|a><a| + (1-w)|b><b| with <a|b> = overlap.

    Returns (smaller, larger) = (1 -+ root) / 2 with root**2 = 1 - 2*m and
    m = 2*w*(1-w)*(1-overlap**2); the smaller is computed as m / (1 + root),
    without cancellation.  Broadcasts over array inputs.
    """
    mixing = 2.0 * weight * (1.0 - weight) * (1.0 - overlap * overlap)
    root = np.sqrt(np.maximum(1.0 - 2.0 * mixing, 0.0))
    return mixing / (1.0 + root), 0.5 * (1.0 + root)


@dataclass(frozen=True, eq=False)
class ChainStatistics:
    """Chain statistics over the broadcast shape of (J, B, T): ``overlap``, ``c_mu``
    and ``c_q`` (bits) have that shape; ``t`` and ``p`` add trailing (2, 2) and (2,)."""

    t: np.ndarray
    p: np.ndarray
    overlap: np.ndarray
    c_mu: np.ndarray
    c_q: np.ndarray


def complexity(J, B, T) -> ChainStatistics:
    """t, p, memory overlap, C_mu and C_q; J, B and T broadcast together.

    Where the two rows of t merge, both complexities are exactly 0.
    """
    t, p = transition_arrays(J, B, T)
    # Both spectra are symmetric under w <-> 1-w; the smaller weight keeps
    # its full relative precision, which 1 - p0 would lose.
    weight = p.min(axis=-1)
    merged = merged_rows(t)
    overlap, c_q = _memory_entropy(np.sqrt(t), weight, merged)
    c_mu = np.where(merged, 0.0, binary_entropy_bits(weight))
    return ChainStatistics(t=t, p=p, overlap=overlap, c_mu=c_mu, c_q=c_q)


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of checking the overlap against the classical fidelity bound."""

    overlap: float
    fidelities: tuple[float, ...]
    max_gap: float
    passed: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: overlap={self.overlap:.15g}, "
            f"max |overlap - fidelity(L)| = {self.max_gap:.3g} "
            f"over L=1..{len(self.fidelities)}"
        )


def fidelity_saturation_check(
    tm: TransitionMatrix, model: QuantumModel, max_length: int = 12
) -> SaturationReport | list[SaturationReport]:
    """Verify the memory-state overlap sits exactly on the classical bound.

    The overlap of any valid pair of memory states can never exceed the
    fidelity of the conditional futures they stand for; the optimal model
    meets it with equality.  PASS requires, for every L = 1..max_length, that
    overlap - fidelity(L) lie within +-``SATURATION_TOL``.
    A FAIL signals a construction bug, not a physics surprise.

    Returns one :class:`SaturationReport`; with leading draw axes on ``tm``
    and ``model``, a list of them, one per draw in C order.
    """
    if tm.t.shape != model.amp.shape:
        raise ValueError(f"tm and model must stack the same draws, got t of shape "
                         f"{tm.t.shape} and amp of shape {model.amp.shape}")
    overlap = np.asarray(model.overlap())[..., None]
    # classical_fidelity(tm, L) for every L, from one expansion per start.
    tables = zip(future_tables(tm, 0, max_length), future_tables(tm, 1, max_length))
    fidelities = np.stack([np.sum(np.sqrt(d0 * d1), axis=-1) for d0, d1 in tables], axis=-1)
    max_gap = np.abs(overlap - fidelities).max(axis=-1)
    passed = max_gap <= SATURATION_TOL  # NaN fails
    reports = [
        SaturationReport(overlap=o, fidelities=tuple(f), max_gap=g, passed=p)
        for o, f, g, p in zip(
            overlap.ravel().tolist(),
            fidelities.reshape(-1, max_length).tolist(),
            max_gap.ravel().tolist(),
            passed.ravel().tolist(),
        )
    ]
    return reports if tm.t.ndim > 2 else reports[0]


@dataclass(frozen=True)
class TmaxResult:
    """Location and value of the quantum-complexity maximum over T."""

    temperature: float
    cq: float
    c_mu: float  # classical complexity at the same sample
    boundary: bool  # argmax sat on a range endpoint; nothing interior found
    unimodal: bool  # coarse grid showed a single rise-then-fall profile


def find_tmax(
    J: float,
    B: float,
    t_range: tuple[float, float] = (0.05, 100.0),
    tol: float = 1e-4,
) -> TmaxResult:
    """Temperature maximizing the quantum statistical complexity.

    A 101-point log scan finds the grid argmax.  Only an interior maximum of a
    unimodal coarse profile is refined: k-section rounds of 33 evenly spaced T
    (one array call each) keep the neighbours of each round's argmax until the
    bracket is at most ``tol`` (or four ulps of T) wide; the best sample wins.
    Otherwise the grid argmax is returned, with a warning unless it is a range
    endpoint (a boundary result).
    """
    check_real(J, "J")
    check_real(B, "B")
    check_real(tol, "tol")
    try:
        lo, hi = t_range
        check_real(lo, "lo")
        check_real(hi, "hi")
    except (TypeError, ValueError):
        raise ValueError(f"t_range must be a pair of real numbers, got {t_range!r}") from None
    if not 0.0 < lo < hi < np.inf:  # also rejects NaN
        raise ValueError(f"t_range must satisfy 0 < lo < hi < inf, got {t_range}")
    if not 0.0 < tol < np.inf:  # also rejects NaN
        raise ValueError(f"tol must be positive and finite, got {tol}")
    with np.errstate(over="ignore"):  # the ends are pinned; other overflow is named below
        grid = np.logspace(np.log10(lo), np.log10(hi), 101)
    grid[0], grid[-1] = lo, hi  # logspace may land an endpoint one ulp outside, or at inf
    if not np.isfinite(grid).all():
        raise ValueError(f"log grid over t_range {t_range} overflows the double range")
    stats = complexity(J, B, grid)
    k = int(np.argmax(stats.c_q))
    # Unimodal: the nonzero steps of the profile never turn from falling to rising.
    diffs = np.diff(stats.c_q)
    unimodal = not np.any(np.diff(np.sign(diffs[np.abs(diffs) > 0.0])) > 0)
    boundary = k in (0, len(grid) - 1)
    refine = unimodal and not boundary
    if not refine and not boundary:
        warnings.warn(
            "quantum complexity profile is not unimodal on the coarse grid; "
            "returning the grid argmax without refinement",
            stacklevel=2,
        )

    # Without refinement the bracket is the argmax alone, so no round runs.
    a, b = (grid[k - 1], grid[k + 1]) if refine else (grid[k], grid[k])
    # The rounds' linear samples miss grid[k], so keep the best seen so far.
    best = grid[k], stats.c_q[k], stats.c_mu[k]
    while b - a > max(tol, 4 * math.ulp(b)):
        ts = np.linspace(a, b, 33)
        stats = complexity(J, B, ts)
        i = int(np.argmax(stats.c_q))
        if stats.c_q[i] >= best[1]:
            best = ts[i], stats.c_q[i], stats.c_mu[i]
        a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    return TmaxResult(*map(float, best), boundary, unimodal)
