"""The whole CLI input domain as one property test.

Every finite ``J``, ``B`` and ``T > 0``, plus ``T = inf``, must give either a
finite result that keeps the model's invariants (exit 0) or one named usage
error (exit 2), never a traceback.  Values are drawn from the double range's
extremes or log-uniformly; the examples are fixed (``derandomize``), so a
failure reproduces run to run.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import spin_epsilon.cli as cli

DBL_MAX = sys.float_info.max
EXTREMES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e300, -1e300, DBL_MAX, -DBL_MAX, math.inf, -math.inf, math.nan,
    1e154, -1e154, 1e-154, -1e-154, 710.0, -710.0, 745.0, -745.0,
]


def log_uniform(low: int, high: int, signs=(1.0,)):
    """``sign * 10**x`` with ``x`` uniform in [low, high]."""
    return st.builds(lambda sign, x: sign * 10.0**x, st.sampled_from(signs), st.floats(low, high))


couplings = st.one_of(st.sampled_from(EXTREMES), log_uniform(-3, 1, (1.0, -1.0)))
temperatures = st.one_of(st.sampled_from(EXTREMES), log_uniform(-2, 3))
# Half the ranges are ordered ordinary temperatures, so sweeps and tmax scans run often.
ranges = st.one_of(st.tuples(temperatures, temperatures),
                   st.tuples(log_uniform(-2, 3), log_uniform(-2, 3)).map(sorted))


def flags(**options) -> list[str]:
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in options.items()]


def option(argv: list[str], flag: str) -> str | None:
    """The value ``argv`` gives ``flag`` (always passed as ``--flag=value``)."""
    return next((a.split("=", 1)[1] for a in argv if a.startswith(f"--{flag}=")), None)


formats = st.sampled_from(["csv", "json"])
complexity_argv = st.builds(
    lambda fmt, J, B, T: ["complexity", f"--format={fmt}", *flags(J=J, B=B, T=T)],
    formats, couplings, couplings, temperatures,
)
tmax_argv = st.builds(
    lambda fmt, J, B, t: ["tmax", f"--format={fmt}", *flags(J=J, B=B, t_min=t[0], t_max=t[1])],
    formats, couplings, couplings, ranges,
)
sweep_argv = st.builds(
    lambda fmt, spacing, points, J, B, t: [
        "sweep", f"--format={fmt}", f"--spacing={spacing}", f"--points={points}",
        *flags(J=J, B=B, t_min=t[0], t_max=t[1])],
    formats, st.sampled_from(["log", "linear"]), st.integers(2, 50), couplings, couplings, ranges,
)
simulate_argv = st.builds(
    lambda backend, steps, seed, start, J, B, T: [
        "simulate", f"--backend={backend}", f"--steps={steps}", f"--seed={seed}",
        f"--start={start}", *flags(J=J, B=B, T=T)],
    st.sampled_from(["classical", "quantum"]), st.integers(0, 1000), st.integers(0, 2**32),
    st.sampled_from(["+1", "-1"]), couplings, couplings, temperatures,
)

DBL_MAX_RANGE = ["--J=0.3", "--B=0.3", "--t-min=0.3", f"--t-max={DBL_MAX!r}"]


def run(argv: list[str]) -> tuple[int, str, str, str | None]:
    """One in-process run: exit code, stdout, stderr and the ``--out`` file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "out")
        if argv[0] == "sweep":
            argv = [*argv, f"--out={path}"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        written = path.read_text() if path.exists() else None
    return code, out.getvalue(), err.getvalue(), written


def check_row(row: dict) -> None:
    """The model's invariants on one output row (keys as in the CSV header)."""
    t = [[row["T00"], row["T01"]], [row["T10"], row["T11"]]]
    for cells in t:
        assert all(0.0 <= x <= 1.0 for x in cells), row
        assert abs(sum(cells) - 1.0) <= 1e-12, row
    assert abs(row["p0"] + row["p1"] - 1.0) <= 1e-12, row
    check_complexities(row)


def check_complexities(row: dict) -> None:
    c_mu, c_q = row["C_mu_bits"], row["C_q_bits"]
    assert 0.0 <= c_q <= c_mu + 1e-10, row
    assert c_mu <= 1.0, row
    assert c_q == 0.0 or c_mu > 0.0, row


def check_output(argv: list[str], stdout: str, written: str | None) -> None:
    command = argv[0]
    if command == "complexity":
        check_row(json.loads(stdout.splitlines()[-1]))
    elif command == "tmax":
        result = json.loads(stdout.splitlines()[-1])
        t_min, t_max = (float(option(argv, f)) for f in ("t-min", "t-max"))
        assert t_min <= result["T_max"] <= t_max, result
        check_complexities(result)
    elif command == "sweep":
        summary = json.loads(stdout)
        if option(argv, "format") == "json":
            rows = json.loads(written)
        else:
            rows = [{k: float(v or "nan") for k, v in r.items()}
                    for r in csv.DictReader(io.StringIO(written))]
        assert len(rows) == summary["points"]
        for row in rows:
            assert math.isfinite(row["T"]) and row["T"] > 0.0, row
            check_row(row)
    else:
        steps = int(option(argv, "steps"))
        symbols = stdout.split()
        assert len(symbols) == steps and set(symbols) <= {"+1", "-1"}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(complexity_argv, tmax_argv, sweep_argv, simulate_argv))
@example(["sweep", "--points=3", *DBL_MAX_RANGE])
@example(["tmax", *DBL_MAX_RANGE])
def test_every_input_gives_a_valid_result_or_one_named_usage_error(argv):
    code, stdout, stderr, written = run(argv)
    assert code in (0, 2), (argv, code, stderr)
    if code == 2:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, stderr)
        assert written is None, argv  # a usage error leaves no output file
        return
    check_output(argv, stdout, written)
