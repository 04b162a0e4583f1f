"""Brute-force Boltzmann enumeration of finite Ising rings.

Independent ground truth for the transfer-matrix route: every quantity here
comes from summing exp(-H/T) over all 2**(2*n_half + 1) spin configurations
of a periodic ring, with no transfer-matrix machinery involved.  Weights are
handled in the log domain with a max-shift normalization so low temperatures
do not underflow.

Configurations are encoded as integers: bit k of a configuration is the
symbol index of site k (bit 0 <-> spin +1, bit 1 <-> spin -1).  The table is
one row of weights per class of high index half.  Which energy class each
entry of those rows takes depends on the ring size alone, so that layout is a
per-size constant, built on first use (:func:`_class_layout`).  Sums of table
rows go through :func:`_colsum`; other sums are numpy's pairwise sum, and so
is the normalizing total of the whole table, found without writing the table
(:func:`enumerate_ring`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .distribution import FutureDistribution, check_integer
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
_N_HALF_RULE = "n_half must be an integer in [1, {hi}], got {value!r}"
_PAIRWISE_BLOCK = 128  # numpy's pairwise sum adds runs of up to this many entries in 8 lanes


@dataclass(frozen=True, eq=False)
class RingEnsemble:
    """Exact Boltzmann distribution over all configurations of one ring."""

    n_half: int
    params: IsingParams
    probs: np.ndarray


def _half_classes(bits: int):
    """Classes of the ``bits``-bit halves, by bonds broken inside, down spins,
    bottom bit and top bit: those four of each class, then every half's class."""
    x = np.arange(2**bits)
    inside = np.bitwise_count((x ^ (x >> 1)) & (2 ** (bits - 1) - 1)).astype(int)
    down, bottom, top = np.bitwise_count(x), x & 1, x >> (bits - 1)
    key = ((inside * (bits + 1) + down) * 2 + bottom) * 2 + top
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    return inside[first], down[first], bottom[first], top[first], inv


@functools.cache
def _class_layout(n_half: int) -> tuple[np.ndarray, ...]:
    """Energy classes of a (2*n_half+1)-ring and where its table takes them.

    Returns, read-only: the bond and spin sums of each class some
    configuration takes; the class of each pair (class of high half, class of
    low half); and the class of every high half and of every low half.  Both
    counts add up over the low n_half + 1 index bits and the high n_half, with
    the two bonds joining their end bits, so the halves' counts and end bits
    fix the class.  Classes no ring holds are never weighed: at cold
    antiferromagnetic points their exponential would overflow.
    """
    m = 2 * n_half + 1
    k_lo, d_lo, lo_bottom, lo_top, lo_inv = _half_classes(n_half + 1)
    *hi, inv = _half_classes(n_half)
    k_hi, d_hi, hi_bottom, hi_top = (a[:, None] for a in hi)
    flat = (k_hi + k_lo + (lo_top ^ hi_bottom) + (hi_top ^ lo_bottom)) * (m + 1) + d_hi + d_lo
    classes, index = np.unique(flat, return_inverse=True)
    k, d = np.divmod(classes, m + 1)  # k broken bonds, d down spins
    index = index.reshape(flat.shape).astype(np.min_scalar_type(len(classes)))
    layout = (m - 2.0 * k, m - 2.0 * d, index, inv, lo_inv)
    for a in layout:
        a.flags.writeable = False
    return layout


def enumerate_ring(params: IsingParams, n_half: int) -> RingEnsemble:
    """Boltzmann-weighted table over all configurations of a (2*n_half+1)-ring.

    H(c) = sum_k (-J * x_k * x_{k+1} - B * x_k) with indices mod the ring size.
    The energy depends only on two counts, the broken bonds and the down
    spins, so each configuration takes its weight from the classes of those
    counts that occur, max-shifted over them.  Its class depends only on the
    classes of its high and low index halves: the table is one row per class
    of high half, gathered over the classes of low half.  Which class each
    entry takes is a per-size constant, built on first use
    (:func:`_class_layout`), so a call only weighs the classes and writes the
    class rows and the table.

    The class rows are divided by the table's total before the gather, so the
    2**m table is written once.  The total is bit for bit the pairwise
    ``table.sum()``: with rows of at least numpy's 128-entry block (n_half >= 6)
    that is the binary tree, in index order, of the gathered row sums; smaller
    rings, whose blocks span several rows, sum the gathered table.
    """
    check_integer(n_half, 1, MAX_N_HALF, _N_HALF_RULE)
    bonds, spins, index, inv, lo_inv = _class_layout(int(n_half))
    log_w = params.beta * (params.J * bonds + params.B * spins)
    rows = np.exp(log_w - log_w.max()).take(index).take(lo_inv, axis=1)
    if rows.shape[1] >= _PAIRWISE_BLOCK:
        total = rows.sum(axis=1)[inv]
        while len(total) > 1:
            total = total[0::2] + total[1::2]
    else:
        total = rows.take(inv, axis=0).sum()
    rows /= total
    probs = rows.take(inv, axis=0).ravel()
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
    """Mean spin value at site 0, from its :func:`site_marginals` entry."""
    return 2.0 * float(site_marginals(ens)[0]) - 1.0


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
    check_integer(length, 1, ens.n_half, "length must be in [1, n_half={hi}], got {value}")
    # Sites 0..L are the low index bits: summing the high ones leaves the window,
    # and reversing its bit axes puts site 0 first (most significant).
    window = _colsum(ens.probs.reshape(-1, 2 ** (length + 1)))
    return window.reshape((2,) * (length + 1)).transpose().reshape(2, -1)


def conditional_from_ring(
    ens: RingEnsemble, condition: int, length: int
) -> FutureDistribution:
    """Exact P(x_1 .. x_L | x_0 = condition) by marginalizing the ring table.

    ``condition`` is the spin value at site 0 (+1 or -1); ``length`` <= n_half
    keeps the window clear of the periodic wrap.  A condition whose weight
    underflowed to 0 on this ring has no table: ``ValueError``.
    """
    check_integer(condition, -1, 1, "condition must be +1 or -1, got {value}")
    if condition == 0:
        raise ValueError("condition must be +1 or -1, got 0")
    block = _window(ens, length)[0 if condition == 1 else 1]
    total = block.sum()
    if not total > 0:
        raise ValueError(f"condition {condition:+d} has probability 0 on the n_half={ens.n_half} "
                         f"ring of {ens.params}")
    return FutureDistribution(length, block / total)


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
    delta-squared limit of three distinct, equally spaced ring sizes removes
    it.  The extrapolated table is renormalized.
    """
    if np.ndim(n_halves) != 1 or len(n_halves) != 3:
        raise ValueError(f"n_halves must be three ring sizes, got {n_halves!r}")
    for n in n_halves:  # integers before their spacing is taken
        check_integer(n, 1, MAX_N_HALF, _N_HALF_RULE)
    a, b, c = n_halves
    if a == b or b - a != c - b:
        raise ValueError(f"n_halves must be distinct, equally spaced ring sizes, got {n_halves!r}")
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
    check_integer(length, 1, ens.n_half - 1, "length must be in [1, n_half-1={hi}], got {value}")
    # Each weight is looked up by its rotation-invariant class, so sites
    # 0..L+1 hold the exact law of L history sites, then x_0, then x_1.
    joint = _window(ens, length + 1).reshape(-1, 2)  # rows = (history, x_0), cols = x_1
    totals = joint.sum(axis=1)
    # A history whose weight underflowed to 0 (deep in an ordered phase)
    # cannot occur and has no conditional law: the maximum skips it.
    occurs = np.flatnonzero(totals > 0)
    cond_full = joint[occurs] / totals[occurs, None]

    pair = _colsum(joint.reshape(-1, 4)).reshape(2, 2)  # rows = x_0, cols = x_1
    pair_totals = pair.sum(axis=1, keepdims=True)
    cond_pair = np.divide(pair, pair_totals, out=np.zeros_like(pair), where=pair_totals > 0)

    return float(np.max(np.abs(cond_full - cond_pair[occurs & 1])))
