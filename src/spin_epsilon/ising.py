"""Exact single-step spin statistics of the infinite 1D Ising chain.

Nearest-neighbour couplings J, external field B, temperature T with k_B = 1,
spins +1/-1.  Everything follows from the symmetric 2x2 transfer matrix

    V[x, x'] = exp(beta * (J*s(x)*s(x') + B*(s(x) + s(x'))/2)),

where s(0) = +1 and s(1) = -1 (the field split evenly between the two sites
of a bond keeps V symmetric).  With leading eigenvalue lam and strictly
positive Perron eigenvector v, the probability that a spin following a spin
in state s(i) is in state s(j) is

    t[i, j] = V[i, j] * v[j] / (lam * v[i]),

and the stationary weight of either spin state is p[i] = v[i]**2 / sum(v**2).

:func:`transition_arrays` evaluates this over the broadcast shape of scalar
or array J, B and T.  All functions here are pure functions of value inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["IsingParams", "TransitionMatrix", "transition_matrix", "transition_arrays"]


def _validate(J, B, T) -> None:
    """Name the first bad point in C order: a non-finite J or B before any bad T."""
    # Above max(|J| + |B|, 1) / (M/4), M the largest double, 1/T and every
    # Boltzmann exponent stay below M/4.  Halving both sides keeps that floor
    # bit for bit without overflow (half > M/2 means |J| + |B| > M), and NaN
    # or infinite J or B fail it too; the message waits for a failure.
    M, half = sys.float_info.max, 0.5 * abs(J) + 0.5 * abs(B)
    ok = (T > half / (M / 8)) & (T > 1.0 / (M / 4)) & (half <= M / 2)
    if ok.all() if ok.ndim else ok:  # a 0-d verdict skips numpy's reduction machinery
        return
    J, B, T, ok = np.broadcast_arrays(J, B, T, ok)
    finite = np.isfinite(J) & np.isfinite(B)
    i = np.argmin(finite if not finite.all() else ok)  # flat index of the first False
    J, B, first = float(J.flat[i]), float(B.flat[i]), float(T.flat[i])
    if not finite.flat[i]:
        raise ValueError(f"J and B must be finite, got J={J}, B={B}")
    if math.isnan(first):
        raise ValueError("T must not be NaN")
    if first <= 0:
        raise ValueError(f"T must be strictly positive, got T={first}")
    raise ValueError(
        "Boltzmann exponent overflows double precision for these parameters "
        f"(J={J}, B={B}, T={first})"
    )


@dataclass(frozen=True)
class IsingParams:
    """Physical parameters (J, B, T) of one spin-chain instance.

    ``T`` must be strictly positive.  ``T = math.inf`` is accepted as an
    explicit infinite-temperature limit flag (``beta == 0``, all couplings
    washed out); T <= 0 is rejected, and so is a T at which J/T, B/T or 1/T
    would overflow a double.
    """

    J: float
    B: float
    T: float

    def __post_init__(self):
        for name in ("J", "B", "T"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _validate(self.J, self.B, np.float64(self.T))  # numpy verdicts have .ndim

    @property
    def beta(self) -> float:
        """Inverse temperature 1/T (exactly 0.0 for the T = inf flag)."""
        return 1.0 / self.T


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic single-step spin statistics plus stationary weights.

    ``t[i, j]`` is the probability that the spin following a spin in state
    (-1)**i is in state (-1)**j; ``p`` is the left fixed point of ``t``
    (p @ t == p, p.sum() == 1).  Entries are strictly inside (0, 1) for any
    finite positive temperature.  Leading axes stack independent matrices:
    ``t`` has shape ``(..., 2, 2)`` and ``p`` shape ``(..., 2)``.
    """

    t: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if self.t.shape[-2:] != (2, 2) or self.p.shape != self.t.shape[:-1]:
            raise ValueError(
                f"expected t of shape (..., 2, 2) and p of shape (..., 2), "
                f"got {self.t.shape} and {self.p.shape}"
            )


def transition_matrix(params: IsingParams) -> TransitionMatrix:
    """Conditional spin probabilities and stationary weights from (J, B, T)."""
    return TransitionMatrix(*transition_arrays(params.J, params.B, params.T))


def transition_arrays(J, B, T) -> tuple[np.ndarray, np.ndarray]:
    """``t`` (shape ``S + (2, 2)``) and ``p`` (``S + (2,)``), where ``S`` is
    the broadcast shape of J, B and T.

    The 2x2 symmetric transfer matrix is diagonalized by the closed quadratic
    formula, with the Perron eigenvector written in a cancellation-free form
    so the construction stays exact in the deterministic and
    infinite-temperature limits.  Rejects the first bad point as :class:`IsingParams` would.
    """
    # [()] turns a 0-d array into a numpy scalar, which is cheaper to compute with.
    J, B, T = (np.asarray(x, dtype=float)[()] for x in (J, B, T))
    _validate(J, B, T)
    beta = 1.0 / T  # exactly 0.0 for the T = inf flag
    e00 = beta * (J + B)
    e11 = beta * (J - B)
    e01 = -beta * J
    shift = np.maximum(np.maximum(e00, e11), e01)  # scale cancels in t and p
    a = np.exp(e00 - shift)
    d = np.exp(e11 - shift)
    c = np.exp(e01 - shift)
    underflow = c == 0.0
    if underflow.any() if underflow.ndim else underflow:
        J, B, T = (float(x.flat[np.argmax(underflow)]) for x in np.broadcast_arrays(J, B, T))
        raise ValueError(
            "transfer matrix underflows double precision for these parameters "
            f"(J={J}, B={B}, T={T})"
        )

    half_gap = 0.5 * (a - d)
    h = np.hypot(half_gap, c)
    lam = 0.5 * (a + d) + h
    # Perron eigenvector, largest component normalized to 1.  The small
    # component is lam - a (or lam - d) rewritten as c**2 / (h + |half_gap|)
    # to avoid catastrophic cancellation at low temperature.
    small = c / (h + np.abs(half_gap))
    up = half_gap >= 0.0
    v0 = np.where(up, 1.0, small)
    v1 = np.where(up, small, 1.0)

    # t[i, j] = V[i, j] * v[j] / (lam * v[i]), moved behind the broadcast axes.
    lv0, lv1 = lam * v0, lam * v1
    t = np.array([[a * v0 / lv0, c * v1 / lv0], [c * v0 / lv1, d * v1 / lv1]])
    w0, w1 = v0 * v0, v1 * v1
    p = np.array([w0 / (w0 + w1), w1 / (w0 + w1)])
    return t.transpose(*range(2, t.ndim), 0, 1), p.transpose(*range(1, p.ndim), 0)
