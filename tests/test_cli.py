import importlib.util
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency

import spin_epsilon.cli as cli
from spin_epsilon import (
    EpsilonMachine,
    IsingParams,
    build_quantum_model,
    build_step_unitaries,
    sample_quantum_trajectory,
    sample_trajectory,
    symbols_to_line,
    transition_matrix,
)
from spin_epsilon.verify import CheckResult

CQ_SYMMETRIC = 0.6711874461252245


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_main(capsys, argv):
    """(exit code, stdout, stderr) of one cli.main call, argparse exits included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_symbols(text):
    # loadtxt raises on any token that is not an integer.
    return np.loadtxt([text], dtype=np.int64, ndmin=1)


def test_complexity_prints_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "complexity", "--J", "1", "--B", "0.3", "--T", "2")
    assert code == 0
    assert "C_mu" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["C_mu_bits"] == pytest.approx(0.8938779389042548, rel=1e-12)
    assert payload["C_q_bits"] == pytest.approx(0.2654300359213878, rel=1e-12)


def test_complexity_json_only(capsys):
    code, out, _ = run_cli(
        capsys, "complexity", "--J", "1", "--B", "0", "--T", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["C_mu_bits"] == 1.0
    assert payload["C_q_bits"] == pytest.approx(CQ_SYMMETRIC, rel=1e-12)


def test_complexity_very_hot_point(capsys):
    # At T = 1e6 the two causal states are still distinct, so one full bit of
    # classical memory remains while the quantum cost is already negligible.
    code, out, _ = run_cli(
        capsys, "complexity", "--J", "1", "--B", "0", "--T", "1e6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["C_mu_bits"] == 1.0
    assert payload["C_q_bits"] < 1e-9


def test_complexity_infinite_temperature_flag(capsys):
    code, out, _ = run_cli(
        capsys, "complexity", "--J", "1", "--B", "0", "--T", "inf", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["C_mu_bits"] == 0.0
    assert payload["C_q_bits"] == 0.0


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    args = (
        "sweep", "--J", "1", "--B", "0.3", "--t-min", "0.5", "--t-max", "5",
        "--points", "16", "--out", str(out_path),
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    first = out_path.read_bytes()
    summary = json.loads(out.strip())
    assert summary["points"] == 16

    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert out_path.read_bytes() == first

    lines = first.decode().splitlines()
    assert lines[0] == "T,J,B,p0,p1,T00,T01,T10,T11,fidelity,C_mu_bits,C_q_bits,ratio"
    assert len(lines) == 17


def test_sweep_json_output(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        capsys, "sweep", "--J", "1", "--B", "0.3", "--t-min", "1", "--t-max", "4",
        "--points", "4", "--out", str(out_path), "--format", "json",
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 4
    assert rows[0]["C_q_bits"] <= rows[0]["C_mu_bits"] + 1e-10


def test_sweep_degenerate_chain_zeroes(tmp_path, capsys):
    out_path = tmp_path / "flat.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--J", "0", "--B", "0", "--t-min", "0.1", "--t-max", "10",
        "--points", "8", "--out", str(out_path),
    )
    assert code == 0
    for line in out_path.read_text().splitlines()[1:]:
        cells = line.split(",")
        assert float(cells[10]) == 0.0 and float(cells[11]) == 0.0
        assert cells[12] == ""


def test_sweep_requires_out(capsys):
    code, _, err = run_cli(capsys, "sweep", "--J", "1", "--B", "0.3")
    assert code == 2
    assert err == "error: sweep requires --out PATH\n"


def test_sweep_unwritable_path(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--J", "1", "--B", "0.3", "--points", "2",
        "--t-min", "1", "--t-max", "2", "--out", str(tmp_path / "no" / "dir.csv"),
    )
    assert code == 2
    assert "cannot write" in err


def test_simulate_zero_steps_prints_nothing(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--backend", "classical", "--J", "1", "--B", "0.3",
        "--T", "2", "--steps", "0", "--seed", "1",
    )
    assert code == 0
    assert out == "" and err == ""


def test_simulate_forced_start_matches_first_row(capsys):
    tm = transition_matrix(IsingParams(1.0, 0.3, 2.0))
    code, out, _ = run_cli(
        capsys, "simulate", "--backend", "classical", "--J", "1", "--B", "0.3",
        "--T", "2", "--steps", "200000", "--seed", "5", "--start", "-1",
    )
    assert code == 0
    symbols = parse_symbols(out)
    assert symbols.size == 200000
    assert set(np.unique(symbols)) <= {-1, 1}
    states = (1 - symbols) // 2
    # Transitions out of the forced start state follow row 1 of t.
    mask = states[:-1] == 1
    freq = float(np.mean(states[1:][mask] == 0))
    stderr = math.sqrt(tm.t[1, 0] * (1 - tm.t[1, 0]) / mask.sum())
    assert abs(freq - tm.t[1, 0]) < 3 * stderr
    # The very first emission is drawn from the forced start row too.
    assert symbols[0] in (-1, 1)


@pytest.mark.parametrize("backend", ["classical", "quantum"])
def test_each_start_spelling_gives_its_canonical_stream(tmp_path, capsys, backend):
    # The option table declares every spelling, so --help lists them, and a
    # flag or a config value picks the stream of its canonical spelling.
    code, out, _ = run_main(capsys, ["simulate", "--help"])
    assert code == 0 and "--start {+1,1,+,-1,-}" in out
    tm = transition_matrix(IsingParams(-1.0, 0.5, 0.3))
    if backend == "classical":
        streams = [sample_trajectory(EpsilonMachine(tm), s, 300, 4)[0] for s in (0, 1)]
    else:
        su = build_step_unitaries(build_quantum_model(tm))
        streams = [sample_quantum_trajectory(su, s, 300, 4)[0] for s in (0, 1)]
    lines = [symbols_to_line(symbols) + "\n" for symbols in streams]
    assert lines[0] != lines[1]
    argv = ["simulate", f"--backend={backend}", "--J=-1", "--B=0.5", "--T=0.3",
            "--steps=300", "--seed=4"]
    config = tmp_path / "start.cfg"
    for spelling, start in (("+1", 0), ("1", 0), ("+", 0), ("-1", 1), ("-", 1)):
        config.write_text(f"start = {spelling}\n")
        for extra in ([f"--start={spelling}"], ["--config", str(config)]):
            assert run_cli(capsys, *argv, *extra) == (0, lines[start], "")


def test_config_start_outside_its_choices_names_the_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("start = 2\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == (f"error: {config}: config key 'start' must be one of "
                   "('+1', '1', '+', '-1', '-'), got '2'\n")


CHUNK = cli.SIMULATE_CHUNK


def boundary_seed(tm, kind):
    """First seed whose draw at the first chunk boundary (step CHUNK + 1) is
    a reset, or a middle draw that copies or flips the state."""
    lo, hi = sorted(tm.t[:, 0])
    for seed in range(1000):
        u = np.random.default_rng(seed).random(CHUNK + 1)[CHUNK]
        if (lo <= u < hi) == (kind != "reset"):
            return seed
    raise AssertionError(f"no seed puts a {kind} on the boundary")


@pytest.mark.parametrize("backend", ["classical", "quantum"])
@pytest.mark.parametrize("steps", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize(
    "point, kind",
    [((1.0, 0.3, 2.0), "copy"), ((-1.0, 0.5, 0.3), "flip"), ((-1.0, 0.5, 0.3), "reset")],
)
def test_simulate_chunks_match_one_sampler_call(capsys, backend, steps, point, kind):
    tm = transition_matrix(IsingParams(*point))
    su = build_step_unitaries(build_quantum_model(tm))
    seed = boundary_seed(tm, kind)
    J, B, T = point
    # One start differs from the state the first chunk ends in, so a chunk
    # that forgot the carried state shows at one of them.
    for start, flag in ((0, "--start=+1"), (1, "--start=-1")):
        code, out, err = run_cli(
            capsys, "simulate", "--backend", backend, f"--J={J}", f"--B={B}", f"--T={T}",
            "--steps", str(steps), "--seed", str(seed), flag,
        )
        if backend == "classical":
            symbols, _ = sample_trajectory(EpsilonMachine(tm), start, steps, seed)
        else:
            symbols, _ = sample_quantum_trajectory(su, start, steps, seed)
        assert (code, err) == (0, "")
        assert out == symbols_to_line(symbols) + "\n"


def test_simulate_backends_statistically_equivalent(capsys):
    # Two-sample chi-square on 2-grams; strided to decorrelate neighbouring
    # bigrams so the chi-square null calibration applies.
    streams = {}
    for backend, seed in (("classical", "7"), ("quantum", "1011")):
        code, out, _ = run_cli(
            capsys, "simulate", "--backend", backend, "--J", "1", "--B", "0.3",
            "--T", "2", "--steps", "1000000", "--seed", seed,
        )
        assert code == 0
        streams[backend] = parse_symbols(out)

    def bigram_counts(symbols):
        s = (1 - symbols) // 2
        grams = (s[:-1] * 2 + s[1:])[::8]
        return np.bincount(grams, minlength=4)

    table = np.vstack(
        [bigram_counts(streams["classical"]), bigram_counts(streams["quantum"])]
    )
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 0.001


def test_tmax_interior_report(capsys):
    code, out, _ = run_cli(
        capsys, "tmax", "--J", "1", "--B", "0.3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert not payload["boundary"]
    assert payload["T_max"] == pytest.approx(1.6321218657964023, abs=1e-6)
    assert payload["C_q_bits"] == pytest.approx(0.2888601868557145, abs=1e-9)
    assert payload["C_mu_bits"] > payload["C_q_bits"]


def test_tmax_degenerate_boundary_flagged(capsys):
    code, out, _ = run_cli(capsys, "tmax", "--J", "0", "--B", "0")
    assert code == 0
    assert "boundary result" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["boundary"] is True
    assert payload["C_q_bits"] == 0.0


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "42")
    assert code == 0
    lines = out.strip().splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 4
    assert lines[-1].endswith("all 4 checks passed")


# `verify` stdout per level; the seed sets only the two random-draw numbers.
VERIFY_LINES = {
    "quick": (
        "PASS oracle-convergence: short-corr table errors ['0.0166', '0.00317', '0.000603', "
        "'0.000114']; long-corr table errors ['0.112', '0.0685', '0.0411', '0.0243']",
        "PASS fidelity-saturation: 50 draws, max |overlap - fidelity| = {}",
        "PASS circuit-agreement: 50 distribution draws at L=6 (max gap {}), "
        "50 synchronization draws at depth 4",
        "PASS entropy-monotonicity: 20x20 grid, max eigenvalue gap 4.44e-16",
        "verify quick: all 4 checks passed",
    ),
    "full": (
        "PASS oracle-convergence: short-corr table errors ['0.00317', '0.000114', '4.12e-06', "
        "'1.49e-07']; long-corr table errors ['0.0685', '0.0243', '0.00834', '0.00283']; "
        "short-corr markov gaps ['0.0108', '0.000397', '1.43e-05', '5.15e-07']",
        "PASS fidelity-saturation: 500 draws, max |overlap - fidelity| = {}",
        "PASS circuit-agreement: 100 distribution draws at L=10 (max gap {}), "
        "200 synchronization draws at depth 6",
        "PASS entropy-monotonicity: 50x50 grid, max eigenvalue gap 1.55e-15",
        "verify full: all 4 checks passed",
    ),
}
VERIFY_SEEDED = {
    ("quick", 0): ("1.55e-15", "1.55e-15"),
    ("quick", 7): ("9.99e-16", "1.78e-15"),
    ("quick", 42): ("1.22e-15", "2.89e-15"),
    ("quick", 123): ("1.11e-15", "1.44e-15"),
    ("full", 42): ("2.89e-15", "4.88e-15"),
}


@pytest.mark.parametrize("level, seed", list(VERIFY_SEEDED))
def test_verify_stdout_golden(capsys, level, seed):
    code, out, _ = run_cli(capsys, "verify", "--level", level, "--seed", str(seed))
    assert code == 0
    assert out == "\n".join(VERIFY_LINES[level]).format(*VERIFY_SEEDED[level, seed]) + "\n"


def test_verify_reports_failure(monkeypatch, capsys):
    monkeypatch.setattr(
        cli,
        "run_verification",
        lambda level, seed: [
            CheckResult("fidelity-saturation", False, "first counterexample at (J=1, B=2, T=3)")
        ],
    )
    code, out, err = run_cli(capsys, "verify", "--level", "quick")
    assert code == 1
    assert "FAIL fidelity-saturation" in out
    assert "counterexample" in out
    assert "FAILED" in err


@pytest.mark.parametrize(
    "args",
    [
        ("complexity", "--J", "1", "--B", "0", "--T", "-4"),
        ("complexity", "--J", "nan", "--B", "0", "--T", "1"),
        ("simulate", "--backend", "classical", "--steps", "-3"),
        ("simulate", "--backend", "classical", "--start", "2"),
        ("tmax", "--J", "1", "--B", "0.3", "--tol", "-1"),
        ("tmax", "--J", "1", "--B", "0.3", "--tol", "nan"),
        ("tmax", "--J", "1", "--B", "0.3", "--tol", "inf"),
        ("tmax", "--t-max", "inf"),
        ("tmax", "--t-min", "nan"),
        ("sweep", "--t-max", "inf", "--out", os.devnull),
        ("sweep", "--t-min", "nan", "--out", os.devnull),
        # Flags a command does not read are not declared for it.
        ("verify", "--J", "1"),
        ("verify", "--B", "1"),
        ("verify", "--format", "json"),
        ("simulate", "--format", "json"),
    ],
)
def test_usage_errors_exit_two(capsys, args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_main(capsys, list(args))
    assert (code, out) == (2, "")
    assert [str(w.message) for w in caught] == []


# Every command's flags, and one valid value for each flag.
COMMAND_FLAGS = {
    "complexity": ["--J", "--B", "--config", "--format", "--T"],
    "sweep": ["--J", "--B", "--config", "--format", "--t-min", "--t-max", "--points",
              "--spacing", "--out"],
    "simulate": ["--J", "--B", "--config", "--backend", "--T", "--steps", "--seed", "--start"],
    "tmax": ["--J", "--B", "--config", "--format", "--t-min", "--t-max", "--tol"],
    "verify": ["--config", "--level", "--seed"],
}
FLAG_VALUES = {
    "--J": "1", "--B": "0.3", "--T": "inf", "--config": "chain.cfg", "--format": "json",
    "--t-min": "0.1", "--t-max": "9", "--points": "7", "--spacing": "linear",
    "--out": "o.csv", "--backend": "quantum", "--steps": "5", "--seed": "3",
    "--start": "-1", "--tol": "1e-6", "--level": "full",
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_declares_exactly_its_flags(capsys, command):
    parser = cli.build_parser()
    for flag, value in FLAG_VALUES.items():
        argv = [command, flag, value]
        if flag in COMMAND_FLAGS[command]:
            assert getattr(parser.parse_args(argv), flag[2:].replace("-", "_")) is not None
        else:
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args(argv)
            assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def readme_commands():
    """argv of every ``spin-epsilon ...`` line in README's ``sh`` blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in lines.splitlines()
        if line.startswith("spin-epsilon ")
    ]


def test_readme_command_examples_parse():
    commands = readme_commands()
    assert sorted({argv[0] for argv in commands}) == sorted(COMMAND_FLAGS)
    for argv in commands:
        cli.build_parser().parse_args(argv)  # argparse exits on a flag it does not know


@pytest.mark.parametrize("command", [("simulate",), ("verify", "--level", "quick")])
def test_negative_seed_names_the_option(capsys, command):
    code, out, err = run_cli(capsys, *command, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (("complexity", "--J=-1e300", "--B=0", "--T=1e-10", "--format", "json"),
         "Boltzmann exponent overflows double precision for these parameters "
         "(J=-1e+300, B=0.0, T=1e-10)"),
        (("simulate", "--J=-1e300", "--B=0", "--T=1e-10"),
         "Boltzmann exponent overflows double precision for these parameters "
         "(J=-1e+300, B=0.0, T=1e-10)"),
        (("complexity", "--J=1", "--B=0", "--T=5e-324"),
         "Boltzmann exponent overflows double precision for these parameters "
         "(J=1.0, B=0.0, T=5e-324)"),
        (("complexity", "--J=1e300", "--B=0", "--T=1"),
         "transfer matrix underflows double precision for these parameters "
         "(J=1e+300, B=0.0, T=1.0)"),
        (("tmax", "--t-min=1.7976931348623e308", "--t-max=1.7976931348623157e+308"),
         "log grid over t_range (1.7976931348623e+308, 1.7976931348623157e+308) "
         "overflows the double range"),
    ],
)
def test_out_of_range_exponents_exit_two_with_one_error_line(capsys, args, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert [str(w.message) for w in caught] == []


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["complexity", "--bogus", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("sequence", ["sweep", "complexity", "simulate", "usage-error"])
def test_shared_parser_carries_no_state_between_calls(tmp_path, capsys, sequence):
    config = tmp_path / "five.cfg"
    config.write_text("points = 5\n")
    out = tmp_path / "sweep.csv"
    calls = {
        "sweep": [
            ["sweep", "--points", "3", "--out", str(out)],
            ["sweep", "--config", str(config), "--out", str(out)],
        ],
        "complexity": [["complexity", "--format", "json"], ["complexity"]],
        "simulate": [["simulate", "--steps", "20", "--seed", "7"], ["simulate", "--steps", "20"]],
        "usage-error": [
            ["sweep", "--points", "5", "--spacing", "cubic", "--out", str(out)],
            ["sweep", "--out", str(out)],
        ],
    }[sequence]

    def run(argv):
        out.unlink(missing_ok=True)
        return run_main(capsys, argv), out.read_bytes() if out.exists() else None

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert cli.build_parser() is cli.build_parser()
    if sequence == "usage-error":
        assert [result[0][0] for result in alone] == [2, 0]


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "chain.cfg"
    config.write_text("# chain\n\nJ = 2.0\nB = 0.0  # field\nT = 1.0\n")
    # Config value used when the flag is absent.
    code, out, _ = run_cli(
        capsys, "complexity", "--config", str(config), "--format", "json"
    )
    assert code == 0
    assert json.loads(out.strip())["J"] == 2.0
    # Flag wins over config.
    code, out, _ = run_cli(
        capsys, "complexity", "--config", str(config), "--J", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out.strip())
    assert payload["J"] == 1.0
    assert payload["C_mu_bits"] == 1.0  # B = 0, T = 1 still from config
    # Defaults fill whatever neither source sets.
    code, out, _ = run_cli(capsys, "complexity", "--J", "1", "--format", "json")
    assert code == 0
    assert json.loads(out.strip())["B"] == 0.0
    # format comes from the config file too, for every command that prints it.
    config.write_text("J = 1.0\nB = 0.3\nformat = json\n")
    for command in ("complexity", "tmax"):
        code, out, _ = run_cli(capsys, command, "--config", str(config))
        assert code == 0
        json.loads(out)  # a single JSON line, no text report
    out_path = tmp_path / "sweep.out"
    code, _, _ = run_cli(
        capsys, "sweep", "--config", str(config), "--points", "3", "--out", str(out_path)
    )
    assert code == 0
    assert len(json.loads(out_path.read_text())) == 3
    # A flag still beats the config file's format.
    code, out, _ = run_cli(capsys, "complexity", "--config", str(config), "--format", "csv")
    assert code == 0 and "C_mu" in out


def test_config_rejects_malformed_lines(tmp_path, capsys):
    config = tmp_path / "broken.cfg"
    config.write_text("J 2.0\n")
    code, _, err = run_cli(capsys, "complexity", "--config", str(config))
    assert code == 2
    assert "KEY=VALUE" in err
    # Unknown keys (a flag spelled with a dash, a typo) are named, not dropped.
    for key in ("t-max", "TT"):
        config.write_text(f"J = 1.0\n{key} = 3\n")
        code, _, err = run_cli(capsys, "tmax", "--config", str(config))
        assert code == 2
        assert repr(key) in err


def test_config_value_that_fails_its_cast_names_the_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("points = abc\n")
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--out", str(tmp_path / "o.csv"))
    assert code == 2
    assert "'points'" in err and "'abc'" in err
    # Config files are shared: a key for an option this command does not
    # take is neither cast nor rejected.
    code, out, err = run_cli(capsys, "complexity", "--config", str(config), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["C_mu_bits"] == 1.0


def test_unreadable_config_exits_two_naming_the_path(tmp_path, capsys):
    # A directory cannot be read as a config file: a usage error, not a traceback.
    code, out, err = run_cli(capsys, "complexity", "--config", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli(capsys, "complexity", "--config", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    undecodable = tmp_path / "utf16.cfg"
    undecodable.write_bytes(b"\xff\xfeJ\x00=\x001\x00\n\x00")
    with pytest.raises(UnicodeDecodeError) as decode_error:
        undecodable.read_text()
    code, out, err = run_cli(capsys, "complexity", "--config", str(undecodable))
    assert (code, out) == (2, "")
    assert err == f"error: {undecodable}: {decode_error.value}\n"


@pytest.mark.parametrize(
    "command, key",
    [("complexity", "format"), ("sweep", "spacing"), ("simulate", "backend"), ("verify", "level")],
)
def test_config_choice_outside_flag_choices_exits_two(tmp_path, capsys, command, key):
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key} = xml\n")
    extra = ["--out", str(tmp_path / "o.csv")] if command == "sweep" else []
    code, _, err = run_cli(capsys, command, "--config", str(config), *extra)
    assert code == 2
    assert repr(key) in err and "'xml'" in err


# A child interpreter imports the package under test, not whatever the
# environment would find (pytest's ``pythonpath`` reaches this process only).
PACKAGE_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)}


def test_module_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "spin_epsilon.cli", "complexity", "--J", "1",
         "--B", "0", "--T", "1", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=PACKAGE_ENV,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.strip())["C_mu_bits"] == 1.0


def test_import_loads_no_heavy_modules():
    # Start-up cost: the CSV formatter's tables are built on first use, and
    # nothing on the import path pulls in exact-arithmetic or string modules.
    code = (
        "import sys, spin_epsilon.cli, spin_epsilon.distribution as d; "
        "print([m for m in ('fractions', 'decimal', 'numpy.strings') if m in sys.modules], "
        "d._tables.cache_info().currsize)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120, env=PACKAGE_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "0"]


def test_every_layer_export_resolves():
    # The benchmark tracer wraps each name in a layer module's __all__ (plus
    # its listed extras) by getattr: a stale entry would crash traced runs.
    import spin_epsilon

    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {layer: getattr(spin_epsilon, layer) for layer in tracing.LAYERS}
    missing = [
        f"{layer}.{name}"
        for layer, module in modules.items()
        for name in getattr(module, "__all__", []) + tracing.EXTRA.get(layer, [])
        if not hasattr(module, name)
    ]
    missing += [name for name in spin_epsilon.__all__ if not hasattr(spin_epsilon, name)]
    assert missing == []
    tracing.Tracer(spin_epsilon)  # builds its wrappers without installing them


def test_closed_stdout_pipe_exits_quietly():
    # A reader that takes a few bytes and closes the pipe (``| head -c 20``)
    # must end the command with exit 0 and nothing on stderr.
    proc = subprocess.Popen(
        [sys.executable, "-m", "spin_epsilon.cli", "simulate", "--steps", "1000000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=PACKAGE_ENV,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_unallocatable_grid_is_a_usage_error(tmp_path):
    # A 10^11-point grid (745 GiB) cannot be allocated: a named usage error
    # before --out is opened, not a traceback.  The child's address space is
    # capped, so the result does not depend on the host's overcommit policy;
    # one BLAS thread keeps numpy's own start-up well inside the cap.
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    out = tmp_path / "x.csv"
    result = subprocess.run(
        [sys.executable, "-m", "spin_epsilon.cli", "sweep", "--points", "100000000000",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**PACKAGE_ENV, "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=cap_address_space,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: Unable to allocate")
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["complexity", "tmax", "simulate", "verify"])
def test_full_stdout_exits_two_naming_stdout(command):
    # A write to stdout that fails (``> /dev/full``) is a named error, not a
    # traceback, and the exit-time flush adds nothing to stderr.
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "spin_epsilon.cli", command],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120, env=PACKAGE_ENV,
        )
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: cannot write stdout: {OSError(28, os.strerror(28))}"
    ]
    assert "Traceback" not in result.stderr
