import dataclasses
import json
import math

import numpy as np
import pytest

import spin_epsilon.sweep as sweep_mod
from spin_epsilon.sweep import (
    CSV_HEADER,
    compute_row,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    temperature_grid,
)

# Frozen from the first verified run at (J=1, B=0.3, T=2).
ROW_GOLDEN = {
    "p0": 0.68938861350787362,
    "p1": 0.31061138649212638,
    "T00": 0.82471595878144976,
    "T01": 0.17528404121855015,
    "T10": 0.38903539084770933,
    "T11": 0.61096460915229067,
    "fidelity": 0.89368033125555213,
    "C_mu_bits": 0.89387793890425482,
    "C_q_bits": 0.26543003592138781,
    "ratio": 3.3676593374270345,
}


def test_csv_header_exact():
    assert CSV_HEADER == "T,J,B,p0,p1,T00,T01,T10,T11,fidelity,C_mu_bits,C_q_bits,ratio"


def test_row_golden_values():
    row = compute_row(1.0, 0.3, 2.0)
    data = row.as_dict()
    for key, expected in ROW_GOLDEN.items():
        assert data[key] == pytest.approx(expected, rel=1e-12), key


def test_row_csv_line_formatting():
    row = compute_row(1.0, 0.3, 2.0)
    line = row.csv_line()
    cells = line.split(",")
    assert len(cells) == 13
    assert cells[0] == "2"
    assert float(cells[3]) == row.p0  # 17 significant digits round-trip
    # Recomputation is bit-identical.
    assert compute_row(1.0, 0.3, 2.0).csv_line() == line


def test_ratio_blank_below_floor():
    # (0, 1, 1): uncoupled spins in a field, so the rows of t merge.
    for J, B, T in ((0.0, 0.0, 1.0), (0.0, 1.0, 1.0)):
        row = compute_row(J, B, T)
        assert row.c_mu_bits == 0.0 and row.c_q_bits == 0.0
        assert row.ratio is None
        assert row.csv_line().endswith(",")
        assert rows_to_json([row])[0]["ratio"] is None


def test_row_invariant_abort(monkeypatch):
    closed_form = sweep_mod.complexity

    def broken(J, B, T):
        stats = closed_form(J, B, T)
        c_q = np.where(np.asarray(T) >= 2.0, 5.0, stats.c_q)
        return dataclasses.replace(stats, c_q=c_q)

    monkeypatch.setattr(sweep_mod, "complexity", broken)
    with pytest.raises(RuntimeError, match="C_q"):
        compute_row(1.0, 0.3, 2.0)
    with pytest.raises(RuntimeError, match=r"T=2\.0\)"):
        run_sweep(1.0, 0.3, [1.0, 2.0, 3.0])


def test_temperature_grid_spacings():
    log_grid = temperature_grid(0.1, 10.0, 3, "log")
    np.testing.assert_allclose(log_grid, [0.1, 1.0, 10.0], rtol=1e-12)
    lin_grid = temperature_grid(1.0, 3.0, 3, "linear")
    np.testing.assert_allclose(lin_grid, [1.0, 2.0, 3.0], rtol=1e-15)


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 10.0, 5, "log"),
        (2.0, 1.0, 5, "log"),
        (1.0, 2.0, 1, "log"),
        (1.0, 2.0, 5, "cubic"),
    ],
)
def test_temperature_grid_guards(args):
    with pytest.raises(ValueError):
        temperature_grid(*args)


def test_sweep_order_and_rerun_identical():
    grid = temperature_grid(0.05, 100.0, 40, "log")
    rows = run_sweep(1.0, 0.3, grid)
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(1.0, 0.3, grid))
    assert [r.T for r in rows] == [float(t) for t in grid]
    # A point inside a sweep is byte-identical to the same point alone.
    for row in rows:
        assert row.csv_line() == compute_row(1.0, 0.3, row.T).csv_line()


def test_sweep_rows_respect_memory_ordering():
    grid = temperature_grid(0.05, 100.0, 60, "log")
    for row in run_sweep(1.0, 0.3, grid):
        assert row.c_q_bits <= row.c_mu_bits + 1e-10


def test_json_rows_serializable():
    rows = run_sweep(1.0, 0.3, temperature_grid(0.5, 5.0, 4, "log"))
    payload = json.dumps(rows_to_json(rows))
    decoded = json.loads(payload)
    assert len(decoded) == 4
    assert decoded[0]["T"] == pytest.approx(0.5)
    assert math.isfinite(decoded[-1]["C_q_bits"])
