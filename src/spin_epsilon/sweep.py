"""Parameter sweeps over temperature with CSV/JSON serialization.

A whole sweep is one closed-form array evaluation (:func:`quantum.complexity`)
over the temperature grid, split into rows in grid order.  Each row is a pure
function of (J, B, T) alone, so sweeps are reproducible byte-for-byte and a
single point equals the same point inside any sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import format_float
from .quantum import complexity

__all__ = [
    "CSV_HEADER",
    "RATIO_FLOOR",
    "SweepRow",
    "compute_row",
    "temperature_grid",
    "run_sweep",
    "rows_to_csv",
    "rows_to_json",
]

CSV_HEADER = "T,J,B,p0,p1,T00,T01,T10,T11,fidelity,C_mu_bits,C_q_bits,ratio"

# Below this quantum complexity the efficiency ratio is left blank.
RATIO_FLOOR = 1e-12


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: parameters, single-step statistics, complexities."""

    T: float
    J: float
    B: float
    p0: float
    p1: float
    t00: float
    t01: float
    t10: float
    t11: float
    fidelity: float
    c_mu_bits: float
    c_q_bits: float
    ratio: float | None

    # Fields are declared in CSV column order, and vars() keeps that order.
    def csv_line(self) -> str:
        *values, ratio = vars(self).values()
        cells = [format_float(x) for x in values]
        cells.append("" if ratio is None else format_float(ratio))
        return ",".join(cells)

    def as_dict(self) -> dict:
        return dict(zip(CSV_HEADER.split(","), vars(self).values()))


def compute_row(J: float, B: float, T: float) -> SweepRow:
    """Evaluate one sweep point from scratch (no hidden state)."""
    return run_sweep(J, B, T)[0]


def temperature_grid(
    t_min: float, t_max: float, points: int, spacing: str = "log"
) -> np.ndarray:
    """Deterministic temperature grid, linear or log spaced."""
    if t_min <= 0 or t_max <= t_min:
        raise ValueError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if spacing == "log":
        return np.logspace(np.log10(t_min), np.log10(t_max), points)
    if spacing == "linear":
        return np.linspace(t_min, t_max, points)
    raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")


def run_sweep(J: float, B: float, grid) -> list[SweepRow]:
    """Compute every grid point (a scalar is one point); rows follow the grid.

    Aborts with a diagnostic naming the first temperature where the quantum
    complexity exceeds the classical one beyond round-off: that would mean a
    construction bug.
    """
    temperatures = np.asarray(grid, dtype=float)
    stats = complexity(J, B, temperatures)
    columns = (
        temperatures.reshape(-1).tolist(),
        *stats.p.reshape(-1, 2).T.tolist(),
        *stats.t.reshape(-1, 4).T.tolist(),
        *(x.reshape(-1).tolist() for x in (stats.overlap, stats.c_mu, stats.c_q)),
    )
    rows = []
    for T, p0, p1, t00, t01, t10, t11, overlap, c_mu, c_q in zip(*columns):
        if c_q > c_mu + 1e-10:
            raise RuntimeError(
                f"invariant violated at (J={J}, B={B}, T={T}): "
                f"C_q={c_q!r} exceeds C_mu={c_mu!r}"
            )
        ratio = c_mu / c_q if c_q >= RATIO_FLOOR else None
        rows.append(
            SweepRow(T, J, B, p0, p1, t00, t01, t10, t11, overlap, c_mu, c_q, ratio)
        )
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.csv_line() for row in rows]) + "\n"


def rows_to_json(rows: list[SweepRow]) -> list[dict]:
    return [row.as_dict() for row in rows]
