"""Parameter sweeps over temperature with CSV/JSON serialization.

A whole sweep is one closed-form array evaluation (:func:`quantum.complexity`)
over the temperature grid, kept as lists in CSV column order and streamed to
the file in chunks of rows.  Each row depends on (J, B, T) alone, so sweeps are
reproducible byte-for-byte and a single point equals the same point in a sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .quantum import complexity

__all__ = [
    "CSV_HEADER",
    "RATIO_FLOOR",
    "SweepRow",
    "compute_row",
    "temperature_grid",
    "sweep_columns",
    "run_sweep",
    "write_sweep",
]

CSV_HEADER = "T,J,B,p0,p1,T00,T01,T10,T11,fidelity,C_mu_bits,C_q_bits,ratio"
_KEYS = CSV_HEADER.split(",")

# Below this quantum complexity the efficiency ratio is left blank.
RATIO_FLOOR = 1e-12
CSV_CHUNK = 4096  # rows formatted per write: no whole-file string
_CELLS = ",".join(["%.17g"] * 12) + ","  # 17 digits round-trip float64


def _csv_line(row) -> str:
    *cells, ratio = row
    return _CELLS % tuple(cells) + ("" if ratio is None else "%.17g" % ratio)


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
        return _csv_line(vars(self).values())

    def as_dict(self) -> dict:
        return dict(zip(_KEYS, vars(self).values()))


def compute_row(J: float, B: float, T: float) -> SweepRow:
    """Evaluate one sweep point from scratch (no hidden state)."""
    return run_sweep(J, B, T)[0]


def temperature_grid(
    t_min: float, t_max: float, points: int, spacing: str = "log"
) -> np.ndarray:
    """Deterministic temperature grid, linear or log spaced."""
    if not 0 < t_min < t_max < np.inf:  # also rejects NaN
        raise ValueError(f"need 0 < t_min < t_max < inf, got [{t_min}, {t_max}]")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if spacing == "log":
        return np.logspace(np.log10(t_min), np.log10(t_max), points)
    if spacing == "linear":
        return np.linspace(t_min, t_max, points)
    raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")


def sweep_columns(J: float, B: float, grid) -> dict[str, list]:
    """Every grid point (a scalar is one point): one list per CSV column, in order.

    Aborts naming the first T where C_q > C_mu beyond round-off: a construction bug.
    """
    temperatures = np.asarray(grid, dtype=float)
    stats = complexity(J, B, temperatures)
    T, c_mu, c_q = (x.reshape(-1) for x in (temperatures, stats.c_mu, stats.c_q))
    bad = c_q > c_mu + 1e-10
    if bad.any():
        T, c_mu, c_q = (x[bad.argmax()].item() for x in (T, c_mu, c_q))
        raise RuntimeError(
            f"invariant violated at (J={J}, B={B}, T={T}): "
            f"C_q={c_q!r} exceeds C_mu={c_mu!r}"
        )
    columns = [
        T.tolist(), [J] * T.size, [B] * T.size,
        *stats.p.reshape(-1, 2).T.tolist(), *stats.t.reshape(-1, 4).T.tolist(),
        stats.overlap.reshape(-1).tolist(), c_mu.tolist(), c_q.tolist(),
    ]
    ratio = [m / q if q >= RATIO_FLOOR else None for m, q in zip(*columns[-2:])]
    return dict(zip(_KEYS, columns + [ratio]))


def run_sweep(J: float, B: float, grid) -> list[SweepRow]:
    """:func:`sweep_columns` as one :class:`SweepRow` per grid point."""
    return [SweepRow(*row) for row in zip(*sweep_columns(J, B, grid).values())]


def write_sweep(handle, columns: dict[str, list], fmt: str) -> None:
    """Write sweep columns as CSV, ``CSV_CHUNK`` rows per write, or as JSON."""
    rows = zip(*columns.values())
    if fmt == "json":
        json.dump([dict(zip(_KEYS, row)) for row in rows], handle, indent=2)
        handle.write("\n")
        return
    handle.write(CSV_HEADER + "\n")
    while chunk := [_csv_line(row) for row in islice(rows, CSV_CHUNK)]:
        handle.write("\n".join(chunk) + "\n")
