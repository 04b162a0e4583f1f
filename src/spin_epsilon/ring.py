"""Brute-force Boltzmann enumeration of finite Ising rings.

Independent ground truth for the transfer-matrix route: every quantity here
comes from summing exp(-H/T) over all 2**(2*n_half + 1) spin configurations
of a periodic ring, with no transfer-matrix machinery involved.  Weights are
handled in the log domain with a max-shift normalization so low temperatures
do not underflow.

Configurations are encoded as integers: bit k of a configuration is the
symbol index of site k (bit 0 <-> spin +1, bit 1 <-> spin -1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import FutureDistribution
from .ising import IsingParams

__all__ = [
    "RingEnsemble",
    "enumerate_ring",
    "site_marginals",
    "magnetization",
    "conditional_from_ring",
    "extrapolated_conditional",
    "markov_gap",
]

MAX_N_HALF = 10  # ring <= 21 spins, <= 2,097,152 configurations


@dataclass(frozen=True, eq=False)
class RingEnsemble:
    """Exact Boltzmann distribution over all configurations of one ring."""

    n_half: int
    params: IsingParams
    probs: np.ndarray

    @property
    def size(self) -> int:
        """Number of spins on the ring (2*n_half + 1)."""
        return 2 * self.n_half + 1


def enumerate_ring(params: IsingParams, n_half: int) -> RingEnsemble:
    """Boltzmann-weighted table over all configurations of a (2*n_half+1)-ring.

    H(c) = sum_k (-J * x_k * x_{k+1} - B * x_k) with indices mod the ring size.
    The energy depends only on two popcounts, the broken bonds and the down
    spins, so each configuration looks its weight up in an (m+1)x(m+1)
    table over those classes; the max shift runs over the classes that occur.
    """
    if not (isinstance(n_half, (int, np.integer)) and 1 <= n_half <= MAX_N_HALF):
        raise ValueError(f"n_half must be an integer in [1, {MAX_N_HALF}], got {n_half!r}")
    m = 2 * int(n_half) + 1
    configs = np.arange(2**m, dtype=np.uint32)
    rotated = (configs >> 1) | ((configs & 1) << (m - 1))
    # x_k * x_{k+1} = 1 - 2 * (bit_k XOR bit_{k+1}); sum over k via popcount.
    broken = np.bitwise_count(configs ^ rotated)
    downs = np.bitwise_count(configs)
    k, d = np.ogrid[: m + 1, : m + 1]  # k broken bonds, d down spins
    bond_sum = m - 2.0 * k
    spin_sum = m - 2.0 * d
    log_w = params.beta * (params.J * bond_sum + params.B * spin_sum)
    # A ring breaks an even number k of bonds.  With k > 0 it splits into k/2
    # runs of down spins and k/2 runs of up spins, each at least one spin
    # long; with k = 0 all spins agree.
    occurs = (k % 2 == 0) & (np.minimum(d, m - d) >= k // 2) & ((k > 0) | (d % m == 0))
    probs = np.exp(log_w - log_w[occurs].max())[broken, downs]
    probs /= probs.sum()
    return RingEnsemble(n_half=int(n_half), params=params, probs=probs)


def site_marginals(ens: RingEnsemble) -> np.ndarray:
    """P(spin = +1) at every site (identical across sites by symmetry)."""
    # The top index bit is the last site left: its spin +1 half is the lower
    # half of the table, and adding the halves folds that site away.
    marginals, table = np.empty(ens.size), ens.probs
    for k in range(ens.size - 1, -1, -1):
        half = len(table) // 2
        marginals[k], table = table[:half].sum(), table[:half] + table[half:]
    return marginals


def magnetization(ens: RingEnsemble) -> float:
    """Mean spin value at site 0."""
    up = float(ens.probs[::2].sum())
    return 2.0 * up - 1.0


def conditional_from_ring(
    ens: RingEnsemble, condition: int, length: int
) -> FutureDistribution:
    """Exact P(x_1 .. x_L | x_0 = condition) by marginalizing the ring table.

    ``condition`` is the spin value at site 0 (+1 or -1).  ``length`` must
    stay at or below n_half so the window keeps clear of the periodic wrap.
    """
    if condition not in (1, -1):
        raise ValueError(f"condition must be +1 or -1, got {condition}")
    if not 1 <= length <= ens.n_half:
        raise ValueError(f"length must be in [1, n_half={ens.n_half}], got {length}")
    # Sites 0..L are the low index bits: summing the high ones leaves the window,
    # and reversing its bit axes puts site 0 first (most significant).
    window = ens.probs.reshape(-1, 2 ** (length + 1)).sum(axis=0)
    joint = window.reshape((2,) * (length + 1)).transpose().ravel()
    cond_index = 0 if condition == 1 else 1
    block = joint[cond_index * 2**length : (cond_index + 1) * 2**length]
    return FutureDistribution(length, block / block.sum())


def _aitken(e1: np.ndarray, e2: np.ndarray, e3: np.ndarray) -> np.ndarray:
    """Elementwise Aitken delta-squared limit of a near-geometric sequence."""
    num = (e3 - e2) ** 2
    den = e3 - 2.0 * e2 + e1
    out = np.array(e3, dtype=float, copy=True)
    safe = np.abs(den) > 1e-300
    out[safe] = e3[safe] - num[safe] / den[safe]
    return out


def extrapolated_conditional(
    params: IsingParams,
    condition: int,
    length: int,
    n_halves: tuple[int, int, int] = (8, 9, 10),
) -> FutureDistribution:
    """Ring-size limit of the conditional table, Aitken-accelerated.

    The leading finite-ring deviation is geometric in the ring size, so the
    delta-squared limit of three successive ring sizes removes it.  The
    extrapolated table is renormalized.
    """
    tables = [
        conditional_from_ring(enumerate_ring(params, n), condition, length).probs
        for n in n_halves
    ]
    limit = _aitken(*tables)
    limit = np.clip(limit, 0.0, None)
    return FutureDistribution(length, limit / limit.sum())


def markov_gap(ens: RingEnsemble, length: int) -> float:
    """Worst-case extra predictive power of history beyond the last symbol.

    Returns max over histories of |P(x_1 | x_0, x_{-1} .. x_{-L}) - P(x_1 | x_0)|,
    which is exactly zero for the infinite chain and quantifies the finite
    ring's wrap-around deviation from the Markov property.
    """
    if not 1 <= length <= ens.n_half - 1:
        raise ValueError(
            f"length must be in [1, n_half-1={ens.n_half - 1}], got {length}"
        )
    # Index bits, high to low: history sites m-L..m-1, the summed-out middle,
    # then x_1 and x_0.  History rows come out in reversed bit order, which
    # the maximum over histories does not see.
    blocks = ens.probs.reshape(2**length, -1, 2, 2).sum(axis=1)
    joint = blocks.transpose(0, 2, 1).reshape(-1, 2)  # rows = (history, x_0), cols = x_1
    cond_full = joint / joint.sum(axis=1, keepdims=True)

    pair = ens.probs.reshape(-1, 2, 2).sum(axis=0).T  # rows = x_0, cols = x_1
    cond_pair = pair / pair.sum(axis=1, keepdims=True)

    x0 = np.arange(joint.shape[0]) & 1
    return float(np.max(np.abs(cond_full - cond_pair[x0])))
