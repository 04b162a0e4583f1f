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

:func:`transition_arrays` evaluates this for a scalar or an array of T.  All
functions here are pure functions of value inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = ["IsingParams", "TransitionMatrix", "transition_matrix", "transition_arrays"]


def _validate(J: float, B: float, T: np.ndarray) -> None:
    if not (math.isfinite(J) and math.isfinite(B)):
        raise ValueError(f"J and B must be finite, got J={J}, B={B}")
    # Above this T, 1/T and every Boltzmann exponent stay below a quarter of
    # the largest double, so no overflow (or inf - inf) reaches the exponents.
    t_floor = max(abs(J) + abs(B), 1.0) / (sys.float_info.max / 4)
    if not (T > t_floor).all():
        first = float(T[~(T > t_floor)][0])
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
        object.__setattr__(self, "J", float(self.J))
        object.__setattr__(self, "B", float(self.B))
        object.__setattr__(self, "T", float(self.T))
        _validate(self.J, self.B, np.asarray(self.T))

    @property
    def beta(self) -> float:
        """Inverse temperature 1/T (exactly 0.0 for the T = inf flag)."""
        return 0.0 if math.isinf(self.T) else 1.0 / self.T

    @property
    def infinite_temperature(self) -> bool:
        return math.isinf(self.T)


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
    t, p = transition_arrays(params.J, params.B, params.T)
    return TransitionMatrix(t=t, p=p)


def transition_arrays(J: float, B: float, T) -> tuple[np.ndarray, np.ndarray]:
    """``t`` (shape ``T.shape + (2, 2)``) and ``p`` (``T.shape + (2,)``).

    The 2x2 symmetric transfer matrix is diagonalized by the closed quadratic
    formula, with the Perron eigenvector written in a cancellation-free form
    so the construction stays exact in the deterministic and
    infinite-temperature limits.
    """
    J, B, T = float(J), float(B), np.asarray(T, dtype=float)
    _validate(J, B, T)
    beta = 1.0 / T  # exactly 0.0 for the T = inf flag
    e00 = beta * (J + B)
    e11 = beta * (J - B)
    e01 = -beta * J
    shift = np.maximum(np.maximum(e00, e11), e01)  # scale cancels in t and p
    a = np.exp(e00 - shift)
    d = np.exp(e11 - shift)
    c = np.exp(e01 - shift)
    if (c == 0.0).any():
        raise ValueError(
            "transfer matrix underflows double precision for these parameters "
            f"(J={J}, B={B}, T={float(T[c == 0.0][0])})"
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

    # t[i, j] = V[i, j] * v[j] / (lam * v[i]), moved behind the T axes.
    lv0, lv1 = lam * v0, lam * v1
    t = np.array([[a * v0 / lv0, c * v1 / lv0], [c * v0 / lv1, d * v1 / lv1]])
    w0, w1 = v0 * v0, v1 * v1
    p = np.array([w0 / (w0 + w1), w1 / (w0 + w1)])
    return t.transpose(*range(2, t.ndim), 0, 1), p.transpose(*range(1, p.ndim), 0)
