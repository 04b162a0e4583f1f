"""Brute-force Boltzmann enumeration of finite Ising rings.

Independent ground truth for the transfer-matrix route: every quantity here
comes from summing exp(-H/T) over all 2**(2*n_half + 1) spin configurations
of a periodic ring, with no transfer-matrix machinery involved.  Weights are
handled in the log domain with a max-shift normalization so low temperatures
do not underflow.

Configurations are encoded as integers: bit k of a configuration is the
symbol index of site k (bit 0 <-> spin +1, bit 1 <-> spin -1).  The table is
one row of weights per class of high index half.  Sums of table rows go
through :func:`_colsum`; sums of 1-D runs (a row, every other entry) are
numpy's pairwise sum.
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


def _half_classes(bits: int):
    """Bonds broken inside, down spins, bottom bit and top bit of every ``bits``-bit half."""
    x = np.arange(2**bits)
    inside = np.bitwise_count((x ^ (x >> 1)) & (2 ** (bits - 1) - 1))
    return inside.astype(int), np.bitwise_count(x), x & 1, x >> (bits - 1)


def enumerate_ring(params: IsingParams, n_half: int) -> RingEnsemble:
    """Boltzmann-weighted table over all configurations of a (2*n_half+1)-ring.

    H(c) = sum_k (-J * x_k * x_{k+1} - B * x_k) with indices mod the ring size.
    The energy depends only on two counts, the broken bonds and the down
    spins, so each configuration takes its weight from an (m+1)x(m+1) table
    over those classes; the max shift runs over the classes that occur.  Both
    counts add up over the low n_half + 1 index bits and the high n_half, with
    the two bonds joining their end bits: each class of high half gathers one
    row of weights over all low halves, and the table is one row per high half.
    """
    if not (isinstance(n_half, (int, np.integer)) and 1 <= n_half <= MAX_N_HALF):
        raise ValueError(f"n_half must be an integer in [1, {MAX_N_HALF}], got {n_half!r}")
    m = 2 * int(n_half) + 1
    k, d = np.ogrid[: m + 1, : m + 1]  # k broken bonds, d down spins
    log_w = params.beta * (params.J * (m - 2.0 * k) + params.B * (m - 2.0 * d))
    # A ring breaks an even number k of bonds.  With k > 0 it splits into k/2
    # runs of down spins and k/2 runs of up spins, each at least one spin
    # long; with k = 0 all spins agree.
    occurs = (k % 2 == 0) & (np.minimum(d, m - d) >= k // 2) & ((k > 0) | (d % m == 0))
    weights = np.exp(log_w - log_w[occurs].max())
    k_lo, d_lo, lo_bottom, lo_top = _half_classes(int(n_half) + 1)
    k_hi, d_hi, hi_bottom, hi_top = _half_classes(int(n_half))
    key = ((k_hi * (m + 1) + d_hi) * 2 + hi_bottom) * 2 + hi_top
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    k_c, d_c, bottom, top = (a[first, None] for a in (k_hi, d_hi, hi_bottom, hi_top))
    rows = weights[k_c + k_lo + (lo_top ^ bottom) + (top ^ lo_bottom), d_c + d_lo]
    probs = rows.take(inv, axis=0).ravel()
    probs /= probs.sum()
    return RingEnsemble(n_half=int(n_half), params=params, probs=probs)


def site_marginals(ens: RingEnsemble) -> np.ndarray:
    """P(spin = +1) at every site (identical across sites by symmetry)."""
    # Sites 0..n_half are the low index bits, the others the high ones; a
    # site's marginal sums its half's joint law over the entries with its bit
    # 0.  The high law adds each contiguous row pairwise.
    table = ens.probs.reshape(2**ens.n_half, -1)
    return np.array(
        [law.reshape(-1, 2, 2**k)[:, 0].sum()
         for law in (_colsum(table), table.sum(axis=1)) for k in range(len(law).bit_length() - 1)]
    )


def magnetization(ens: RingEnsemble) -> float:
    """Mean spin value at site 0."""
    up = float(ens.probs[::2].sum())
    return 2.0 * up - 1.0


def _colsum(a: np.ndarray) -> np.ndarray:
    """Sum the 2**r rows of a 2-D array in two ones-vector products.

    The first adds 2**(r // 2) equal slices of the rows, the second the rows
    of their sum: one product over all rows drifts by thousands of ulps on the
    repeated class weights.  The second lays rows side by side up to 8
    columns: OpenBLAS splits a 4-output product over its threads and adds the
    parts, tying the bits to the count.
    """
    rows, cols = a.shape
    split = 2 ** ((rows.bit_length() - 1) // 2)
    blocks = (np.ones(split) @ a.reshape(split, -1)).reshape(-1, cols)
    k = min(len(blocks), max(1, 8 // cols))
    wide = blocks.reshape(-1, k * cols)
    return (np.ones(len(wide)) @ wide).reshape(k, cols).sum(axis=0)


def _window(ens: RingEnsemble, length: int) -> np.ndarray:
    """Joint law of sites 0..length, shape ``(2, 2**length)``: row = site 0's symbol."""
    if not 1 <= length <= ens.n_half:
        raise ValueError(f"length must be in [1, n_half={ens.n_half}], got {length}")
    # Sites 0..L are the low index bits: summing the high ones leaves the window,
    # and reversing its bit axes puts site 0 first (most significant).
    window = _colsum(ens.probs.reshape(-1, 2 ** (length + 1)))
    return window.reshape((2,) * (length + 1)).transpose().reshape(2, -1)


def conditional_from_ring(
    ens: RingEnsemble, condition: int, length: int
) -> FutureDistribution:
    """Exact P(x_1 .. x_L | x_0 = condition) by marginalizing the ring table.

    ``condition`` is the spin value at site 0 (+1 or -1); ``length`` <= n_half
    keeps the window clear of the periodic wrap.
    """
    if condition not in (1, -1):
        raise ValueError(f"condition must be +1 or -1, got {condition}")
    block = _window(ens, length)[0 if condition == 1 else 1]
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
    taken over the histories of positive probability, which is exactly zero
    for the infinite chain and quantifies the finite ring's wrap-around
    deviation from the Markov property.
    """
    if not 1 <= length <= ens.n_half - 1:
        raise ValueError(
            f"length must be in [1, n_half-1={ens.n_half - 1}], got {length}"
        )
    # Each weight is looked up by its rotation-invariant class, so sites
    # 0..L+1 hold the exact law of L history sites, then x_0, then x_1.
    joint = _window(ens, length + 1).reshape(-1, 2)  # rows = (history, x_0), cols = x_1
    totals = joint.sum(axis=1)
    # A history whose weight underflowed to 0 (deep in an ordered phase)
    # cannot occur and has no conditional law: the maximum skips it.
    occurs = np.flatnonzero(totals > 0)
    cond_full = joint[occurs] / totals[occurs, None]

    pair = _colsum(joint.reshape(-1, 4)).reshape(2, 2)  # rows = x_0, cols = x_1
    cond_pair = pair / pair.sum(axis=1, keepdims=True)

    return float(np.max(np.abs(cond_full - cond_pair[occurs & 1])))
