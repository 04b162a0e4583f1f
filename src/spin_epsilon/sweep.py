"""Parameter sweeps over temperature with CSV/JSON serialization.

A whole sweep is one closed-form array evaluation (:func:`quantum.complexity`)
over the temperature grid: one float64 table of all 13 CSV columns, written
as CSV (through the array formatter :func:`distribution.csv_rows`) or JSON in
chunks of rows.  Its ratio cell is NaN where C_q < ``RATIO_FLOOR``: blank in
CSV, null in JSON, None in a :class:`SweepRow`.  Each row depends on (J, B, T)
alone, so sweeps are reproducible byte-for-byte and a single point equals the
same point alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import check_integer, check_real, csv_rows
from .quantum import complexity

__all__ = [
    "CSV_HEADER",
    "RATIO_FLOOR",
    "SweepRow",
    "compute_row",
    "temperature_grid",
    "sweep_table",
    "run_sweep",
    "write_sweep",
]

CSV_HEADER = "T,J,B,p0,p1,T00,T01,T10,T11,fidelity,C_mu_bits,C_q_bits,ratio"
_KEYS = CSV_HEADER.split(",")

# Below this quantum complexity the efficiency ratio is left blank.
RATIO_FLOOR = 1e-12
CHUNK = 1024  # rows rendered per write: no whole-file string, little scratch memory
# One JSON object per row, laid out exactly as json.dump(..., indent=2): %r is
# json's float repr, but for T = inf (Infinity).  The ratio comes last (never inf); NaN is null.
_JSON_ROW = "  {\n" + ",\n".join(f'    "{key}": %r' for key in _KEYS) + "\n  }"


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
    def as_dict(self) -> dict:
        return dict(zip(_KEYS, vars(self).values()))


def compute_row(J: float, B: float, T: float) -> SweepRow:
    """Evaluate one sweep point from scratch (no hidden state)."""
    check_real(T, "T")
    return run_sweep(J, B, T)[0]


def temperature_grid(
    t_min: float, t_max: float, points: int, spacing: str = "log"
) -> np.ndarray:
    """Deterministic temperature grid, linear or log spaced (``np.logspace``'s
    points; a range whose log grid overflows to inf is rejected)."""
    check_real(t_min, "t_min")
    check_real(t_max, "t_max")
    if not 0 < t_min < t_max < np.inf:  # also rejects NaN
        raise ValueError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")
    check_integer(points, 2, None, "points must be >= 2, got {value}")
    if spacing not in ("linear", "log"):
        raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    # linspace may overflow on the last point before setting it to t_max; a log
    # grid that overflows is named below.
    with np.errstate(over="ignore"):
        if spacing == "log":
            grid = np.logspace(np.log10(t_min), np.log10(t_max), points)
        else:
            grid = np.linspace(t_min, t_max, points)
    if not np.isfinite(grid).all():
        raise ValueError(f"log grid over [{t_min}, {t_max}] overflows the double range")
    return grid


def sweep_table(J: float, B: float, grid) -> np.ndarray:
    """Every grid point (a scalar is one point) as a float64 row of the 13 CSV columns;
    the ratio C_mu / C_q is NaN where C_q < RATIO_FLOOR.  Aborts naming the first T
    where C_q > C_mu beyond round-off: a construction bug."""
    check_real(J, "J")
    check_real(B, "B")
    temperatures = np.asarray(grid, dtype=float)
    stats = complexity(J, B, temperatures)  # the grid's own shape: 0-d is cheapest
    T, c_mu, c_q = (x.reshape(-1) for x in (temperatures, stats.c_mu, stats.c_q))
    bad = c_q > c_mu + 1e-10
    if bad.any():
        T, c_mu, c_q = (x[bad.argmax()].item() for x in (T, c_mu, c_q))
        raise RuntimeError(
            f"invariant violated at (J={J}, B={B}, T={T}): "
            f"C_q={c_q!r} exceeds C_mu={c_mu!r}"
        )
    n = T.size
    table = np.empty((n, 13))  # filled in place: cheaper than stacking for one point
    table[:, 0], table[:, 1], table[:, 2] = T, J, B
    table[:, 3:5], table[:, 5:9] = stats.p.reshape(n, 2), stats.t.reshape(n, 4)
    table[:, 9], table[:, 10], table[:, 11] = stats.overlap.reshape(n), c_mu, c_q
    table[:, 12] = np.nan  # kept where the division is skipped
    np.divide(c_mu, c_q, out=table[:, 12], where=c_q >= RATIO_FLOOR)
    return table


def run_sweep(J: float, B: float, grid) -> list[SweepRow]:
    """:func:`sweep_table` as one :class:`SweepRow` per grid point."""
    return [SweepRow(*row[:12], None if math.isnan(row[12]) else row[12])
            for row in sweep_table(J, B, grid).tolist()]


def write_sweep(handle, table: np.ndarray, fmt: str) -> None:
    """Write a :func:`sweep_table` as CSV or JSON, ``CHUNK`` rows per write."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")
    chunks = (table[start:start + CHUNK] for start in range(0, len(table), CHUNK))
    if fmt == "csv":
        handle.write(CSV_HEADER + "\n")
        for chunk in chunks:
            handle.write(csv_rows(chunk, np.isnan(chunk)))
        return
    separator = "[\n"
    for chunk in chunks:
        text = ",\n".join(_JSON_ROW % tuple(row) for row in chunk.tolist())
        text = text.replace("inf,\n", "Infinity,\n").replace('"ratio": nan\n', '"ratio": null\n')
        handle.write(separator + text)
        separator = ",\n"
    handle.write("[]\n" if separator == "[\n" else "\n]\n")  # json.dump's empty list
