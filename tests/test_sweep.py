import dataclasses
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_epsilon.cli as cli
import spin_epsilon.distribution as distribution
import spin_epsilon.sweep as sweep_mod
from spin_epsilon.distribution import csv_rows, format_float
from spin_epsilon.quantum import complexity
from spin_epsilon.sweep import (
    CHUNK,
    CSV_HEADER,
    RATIO_FLOOR,
    compute_row,
    run_sweep,
    sweep_table,
    temperature_grid,
    write_sweep,
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


def written(J, B, grid, fmt="csv"):
    handle = io.StringIO()
    write_sweep(handle, sweep_table(J, B, grid), fmt)
    return handle.getvalue()


def reference_rows(J, B, grid):
    """The former per-row loop: one tuple per grid point in CSV column order."""
    stats = complexity(J, B, np.asarray(grid, dtype=float))
    columns = (
        np.asarray(grid, dtype=float).tolist(),
        *stats.p.T.tolist(),
        *stats.t.reshape(-1, 4).T.tolist(),
        stats.overlap.tolist(), stats.c_mu.tolist(), stats.c_q.tolist(),
    )
    rows = []
    for T, p0, p1, t00, t01, t10, t11, overlap, c_mu, c_q in zip(*columns):
        ratio = c_mu / c_q if c_q >= RATIO_FLOOR else None
        rows.append((T, J, B, p0, p1, t00, t01, t10, t11, overlap, c_mu, c_q, ratio))
    return rows


def reference_csv(rows):
    """The former row join: one format_float call per cell, whole-file string."""
    lines = [CSV_HEADER]
    for *values, ratio in rows:
        cells = [format_float(x) for x in values]
        cells.append("" if ratio is None else format_float(ratio))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_json(rows):
    keys = CSV_HEADER.split(",")
    return json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"


def test_csv_header_exact():
    assert CSV_HEADER == "T,J,B,p0,p1,T00,T01,T10,T11,fidelity,C_mu_bits,C_q_bits,ratio"


def test_row_golden_values():
    row = compute_row(1.0, 0.3, 2.0)
    data = row.as_dict()
    for key, expected in ROW_GOLDEN.items():
        assert data[key] == pytest.approx(expected, rel=1e-12), key


def csv_line(J, B, T):
    """The CSV line of a point alone: write_sweep on a 0-d grid."""
    header, line = written(J, B, T).splitlines()
    return line


def test_row_csv_line_formatting():
    row = compute_row(1.0, 0.3, 2.0)
    line = csv_line(1.0, 0.3, 2.0)
    cells = line.split(",")
    assert len(cells) == 13
    assert cells[0] == "2"
    assert float(cells[3]) == row.p0  # 17 significant digits round-trip
    # Recomputation is bit-identical.
    assert csv_line(1.0, 0.3, 2.0) == line


def test_ratio_blank_below_floor():
    # (0, 1, 1): uncoupled spins in a field, so the rows of t merge.
    for J, B, T in ((0.0, 0.0, 1.0), (0.0, 1.0, 1.0)):
        row = compute_row(J, B, T)
        assert row.c_mu_bits == 0.0 and row.c_q_bits == 0.0
        assert row.ratio is None
        assert csv_line(J, B, T).endswith(",")
        assert json.loads(written(J, B, T, "json"))[0]["ratio"] is None


def test_infinite_temperature_line_blanks_only_the_ratio():
    # The T cell is inf, not blank: only a NaN ratio is left empty.
    assert csv_line(1.0, 0.3, math.inf) == (
        "inf,1,0.29999999999999999,0.5,0.5,0.5,0.5,0.5,0.5,1,0,0,"
    )


@pytest.fixture
def broken_closed_form(monkeypatch):
    """Make C_q exceed C_mu from T = 2 on."""
    closed_form = sweep_mod.complexity

    def broken(J, B, T):
        stats = closed_form(J, B, T)
        c_q = np.where(np.asarray(T) >= 2.0, 5.0, stats.c_q)
        return dataclasses.replace(stats, c_q=c_q)

    monkeypatch.setattr(sweep_mod, "complexity", broken)


def test_row_invariant_abort(broken_closed_form):
    with pytest.raises(RuntimeError, match="C_q"):
        compute_row(1.0, 0.3, 2.0)
    with pytest.raises(RuntimeError, match=r"T=2\.0\)"):
        run_sweep(1.0, 0.3, [1.0, 2.0, 3.0])


def test_invariant_abort_writes_no_file(broken_closed_form, tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "--J", "1", "--B", "0.3", "--t-min", "1", "--t-max", "3",
        "--points", "3", "--spacing", "linear", "--out", str(out_path),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "T=2.0)" in captured.err and captured.out == ""
    assert not out_path.exists()


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
        (0.05, math.inf, 5, "log"),
        (0.05, math.inf, 5, "linear"),
        (math.nan, 2.0, 5, "log"),
        (1.0, math.nan, 5, "linear"),
    ],
)
def test_temperature_grid_guards(args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            temperature_grid(*args)
    assert caught == []


def test_sweep_order_and_rerun_identical():
    grid = temperature_grid(0.05, 100.0, 40, "log")
    rows = run_sweep(1.0, 0.3, grid)
    assert written(1.0, 0.3, grid) == written(1.0, 0.3, grid)
    assert [r.T for r in rows] == [float(t) for t in grid]
    # A point inside a sweep is byte-identical to the same point alone.
    lines = written(1.0, 0.3, grid).splitlines()[1:]
    assert lines == [csv_line(1.0, 0.3, T) for T in grid]


# J and B are one real scalar each, and so are compute_row's T (inf included)
# and temperature_grid's ends; a 0-d array is not a scalar.
@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: compute_row(1, 0.3, [1.0, 2.0]), "T", id="compute_row.T=list"),
        pytest.param(lambda: compute_row(1, 0.3, []), "T", id="compute_row.T=empty"),
        pytest.param(lambda: compute_row(1, 0.3, np.array(2.0)), "T", id="compute_row.T=0d"),
        pytest.param(lambda: compute_row(np.ones(2), 0.3, 2), "J", id="compute_row.J=array"),
        pytest.param(lambda: compute_row(1, "0.3", 2), "B", id="compute_row.B=str"),
        pytest.param(lambda: sweep_table(np.ones(2), 0.3, [1.0, 2.0]), "J",
                     id="sweep_table.J=array"),
        pytest.param(lambda: sweep_table(1.0, True, [1.0, 2.0]), "B", id="sweep_table.B=True"),
        pytest.param(lambda: run_sweep(1.0, np.array([0.3]), [1.0]), "B", id="run_sweep.B=array"),
        pytest.param(lambda: temperature_grid(True, 100, 5), "t_min",
                     id="temperature_grid.t_min=True"),
        pytest.param(lambda: temperature_grid("0.05", 100, 5), "t_min",
                     id="temperature_grid.t_min=str"),
        pytest.param(lambda: temperature_grid(np.array([0.05]), 100, 5), "t_min",
                     id="temperature_grid.t_min=array"),
        pytest.param(lambda: temperature_grid(0.05, np.array([100.0, 200.0]), 5), "t_max",
                     id="temperature_grid.t_max=array"),
    ],
)
def test_sweep_entry_points_take_real_scalars(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
        call()


def test_sweep_entry_points_take_numpy_scalars_and_infinite_t():
    row = compute_row(np.float64(1.0), np.int64(0), math.inf)
    assert row == compute_row(1.0, 0.0, math.inf) and row.c_q_bits == 0.0
    assert run_sweep(np.float32(1.0), 0, [2.0]) == run_sweep(1.0, 0.0, [2.0])


def test_sweep_rows_respect_memory_ordering():
    grid = temperature_grid(0.05, 100.0, 60, "log")
    for row in run_sweep(1.0, 0.3, grid):
        assert row.c_q_bits <= row.c_mu_bits + 1e-10


def test_json_rows_serializable():
    decoded = json.loads(written(1.0, 0.3, temperature_grid(0.5, 5.0, 4, "log"), "json"))
    assert len(decoded) == 4
    assert decoded[0]["T"] == pytest.approx(0.5)
    assert math.isfinite(decoded[-1]["C_q_bits"])


def test_json_infinite_temperature_reads_back():
    # T = inf is written as json.dumps writes it, Infinity, not as the bare repr inf.
    decoded = json.loads(written(1.0, 0.3, math.inf, "json"))
    assert decoded == [json.loads(json.dumps(compute_row(1.0, 0.3, math.inf).as_dict()))]


def test_write_sweep_rejects_unknown_format():
    handle = io.StringIO()
    with pytest.raises(ValueError, match=r"^fmt must be 'csv' or 'json', got 'xml'$"):
        write_sweep(handle, sweep_table(1.0, 0.3, 2.0), "xml")
    assert handle.getvalue() == ""


# Which ratio cells are blank from T = 0.05: the exactly-zero low-T C_q plateau
# of (1, 3), and C_q below RATIO_FLOOR at the lowest T of (1, 0.3), mix blank
# and numeric cells in one file.
MIXED, NUMERIC, BLANK = {True, False}, {False}, {True}


@pytest.mark.parametrize(
    "J, B, blank",
    [(1.0, 0.3, MIXED), (-1.0, 0.5, NUMERIC), (0.0, 0.0, BLANK), (0.0, 1.0, BLANK),
     (1.0, 3.0, MIXED)],
)
# Several whole chunks, and one row either side of a chunk boundary.
@pytest.mark.parametrize("points", [4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1])
def test_columnar_output_matches_per_row_reference(tmp_path, capsys, J, B, blank, points):
    grid = temperature_grid(0.05, 100.0, points, "log")
    rows = reference_rows(J, B, grid)
    assert {row[-1] is None for row in rows} == blank
    expected = {"csv": reference_csv(rows), "json": reference_json(rows)}
    for fmt, text in expected.items():
        out_path = tmp_path / f"sweep.{fmt}"
        assert cli.main([
            "sweep", "--J", str(J), "--B", str(B), "--t-min", "0.05", "--t-max", "100",
            "--points", str(points), "--format", fmt, "--out", str(out_path),
        ]) == 0
        assert out_path.read_bytes() == text.encode()
    capsys.readouterr()
    assert written(J, B, grid) == expected["csv"]
    assert written(J, B, grid[:0], "json") == reference_json([])  # "[]\n", as json.dump writes it
    assert [tuple(vars(row).values()) for row in run_sweep(J, B, grid)] == rows


def scalar_formats(values):
    return np.array([format_float(x) for x in np.asarray(values, dtype=float).ravel().tolist()])


def assert_formats_match(values):
    values = np.asarray(values, dtype=float)
    got = np.array(csv_rows(values.reshape(-1, 1)).split("\n")[:-1])
    expected = scalar_formats(values)
    bad = np.flatnonzero(got != expected)
    assert bad.size == 0, [(values.ravel()[i], got[i], expected[i]) for i in bad[:5]]


@settings(max_examples=300, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_format_floats_property(values):
    # Every double, subnormals, +-0, +-inf and NaN, mixed in one array pass;
    # each list reaches the kernel as it is and repeated to 256 values.
    assert_formats_match(values)
    assert_formats_match(np.resize(values, 256))


def test_format_floats_random_bit_patterns():
    bits = np.random.default_rng(2017).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_formats_match(bits.view(np.float64))


def test_format_floats_powers_and_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    # 10**k +- 1 ulp straddle the decade that log10 guesses; 1e+-270 +- 1 ulp
    # straddle the edges of the fast path.
    x = np.concatenate([twos, tens, [1e-270, 1e270]])
    for y in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)):
        assert_formats_match(np.concatenate([y, -y]))


def near_ties():
    """Doubles x with x * 10**k at 2**-s or 3 * 2**-s from a half-integer in
    [1e16, 1e17), for k = 23..25, where 10**k is not a double."""
    out = []
    for k in (23, 24, 25):
        for s in range(44, 54):
            inverse = pow(5**k, -1, 2**s)
            for offset in (-3, -1, 1, 3):
                residue = (2 ** (s - 1) + offset) * inverse % 2**s
                for m in range(residue, 2**53, 2**s):
                    if 1e16 <= m * 5**k / 2**s < 1e17:
                        out.append(m * 2.0 ** (-s - k))
    return np.array(out)


def test_format_floats_ties_and_near_ties():
    # 1 + j * 2**-17 has 18 significant digits: odd j are exact ties at 17.
    ties = 1.0 + np.arange(2**17) * 2.0**-17
    assert csv_rows([[1 + 2.0**-17]]) == "1.0000076293945312\n"
    assert csv_rows([[1 + 3 * 2.0**-17]]) == "1.0000228881835938\n"
    assert_formats_match(ties)
    assert_formats_match(np.ldexp(ties, 60))  # the same ties in e-notation
    near = near_ties()
    assert len(near) > 200
    assert_formats_match(np.concatenate([near, -near]))


def test_format_floats_shapes():
    assert csv_rows([[1.0, -0.0], [np.nan, 1e22]]) == "1,-0\nnan,1e+22\n"
    text = csv_rows([[1.0, 0.5], [10.0, 2e-5]], [[False, True], [False, False]])
    assert text == "1,\n10,2.0000000000000002e-05\n"


@pytest.mark.parametrize("table", [[1.0, 2.0], 1.0, np.zeros((1, 2, 2))])
def test_csv_rows_names_a_table_that_is_not_2d(table):
    with pytest.raises(ValueError) as excinfo:
        csv_rows(table)
    assert str(excinfo.value) == f"csv_rows needs a 2-D table, got shape {np.shape(table)}"


@pytest.mark.parametrize("table, blank, message", [
    (np.empty((3, 0)), None, "csv_rows needs at least one column, got shape (3, 0)"),
    (np.ones((2, 2)), np.zeros(3, bool),
     "csv_rows needs a blank mask of the table's shape (2, 2), got shape (3,)"),
], ids=["no-columns", "blank-shape"])
def test_csv_rows_names_a_table_without_columns_and_a_blank_of_another_shape(
    table, blank, message
):
    with pytest.raises(ValueError) as excinfo:
        csv_rows(table, blank)
    assert str(excinfo.value) == message


def test_csv_rows_frees_its_temporaries_stage_by_stage():
    # A CHUNK-row call's traced peak: the words, their bytes and the text,
    # with few whole-chunk temporaries on top.
    table = sweep_table(1.0, 0.3, temperature_grid(0.05, 100.0, CHUNK, "log"))
    blank = np.isnan(table)
    csv_rows(table, blank)  # builds the lookup tables
    tracemalloc.start()
    try:
        csv_rows(table, blank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_blank_cells_skip_the_exact_route(monkeypatch):
    # A blank NaN ratio is cleared, never formatted: the exact scalar route
    # sees no NaN from a sweep whose low-T ratio plateau is blank, while an
    # unmasked NaN still goes there and prints "nan".
    sent = []
    exact = distribution._exact

    def recording(x):
        sent.extend(x.tolist())
        return exact(x)

    monkeypatch.setattr(distribution, "_exact", recording)
    grid = temperature_grid(0.05, 100.0, 2 * CHUNK, "log")
    rows = reference_rows(1.0, 3.0, grid)
    assert sum(row[-1] is None for row in rows) > 100
    assert written(1.0, 3.0, grid) == reference_csv(rows)
    assert not any(math.isnan(x) for x in sent)
    assert csv_rows([[np.nan]]) == "nan\n"
    assert math.isnan(sent[-1])


# Sweeps whose CSV cells take every layout: e-notation down to ~1e-261
# (J=3, B=0 from T=0.01), a merged-row plateau of exact zeros with blank
# ratios (J=0.5, B=2.9), integer-valued J and B, negative B.
@pytest.mark.parametrize(
    "J, B, t_min, feature",
    [(3.0, 0.0, 0.01, "e-261"), (0.5, 2.9, 0.05, ",0,0,"), (10.0, -2.0, 0.05, ",10,-2,"),
     (-1.0, -0.5, 0.05, ",-1,-0.5,")],
)
@pytest.mark.parametrize("points", [1, 15, CHUNK - 1, CHUNK, CHUNK + 1])
def test_write_sweep_csv_matches_scalar_reference(J, B, t_min, feature, points):
    grid = temperature_grid(t_min, 100.0, points, "log") if points > 1 else np.array([t_min])
    text = written(J, B, grid)
    assert text == reference_csv(reference_rows(J, B, grid))
    if points > 1:
        assert feature in text
