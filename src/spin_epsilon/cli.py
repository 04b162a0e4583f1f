"""Command-line front end.

Subcommands: ``complexity``, ``sweep``, ``simulate``, ``tmax``, ``verify``.
Exit codes: 0 success (also when the reader closes stdout early), 1
verification failure (or a violated internal invariant), 2 usage error.

Option values resolve as flags > config file > built-in defaults.  The config
file is flat ``KEY=VALUE`` lines (keys named like the long flags, underscores
for dashes, ``#`` comments allowed).  An unknown key, a value that does not
parse, or a value outside the matching flag's choices is a usage error that
names the key.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .classical import EpsilonMachine, sample_trajectory
from .circuit import build_step_unitaries, sample_quantum_trajectory
from .distribution import format_float, symbols_to_line
from .ising import IsingParams, transition_matrix
from .quantum import build_quantum_model, complexity, find_tmax
from .sweep import compute_row, sweep_columns, temperature_grid, write_sweep
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

SIMULATE_CHUNK = 2**16  # simulate writes each chunk as drawn: memory flat in --steps

_DEFAULTS = {
    "J": 1.0,
    "B": 0.0,
    "T": 1.0,
    "t_min": 0.05,
    "t_max": 100.0,
    "points": 200,
    "spacing": "log",
    "seed": 0,
    "steps": 1000,
    "start": "+1",
    "backend": "classical",
    "level": "quick",
    "tol": 1e-4,
    "format": None,
    "out": None,
}

# Allowed values of the options that argparse restricts to a fixed set; a
# config file is held to the same choices.
_CHOICES = {
    "format": ("csv", "json"),
    "spacing": ("linear", "log"),
    "backend": ("classical", "quantum"),
    "level": ("quick", "full"),
}


def load_config(path: str) -> dict[str, str]:
    """Parse a flat KEY=VALUE config file."""
    values: dict[str, str] = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class _Options:
    """Flags > config > defaults resolution for one parsed command."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config(args.config) if args.config else {}
        for key in self.config:
            if key not in _DEFAULTS:
                raise ValueError(f"{args.config}: unknown config key {key!r}")

    def get(self, name: str, cast=float):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name not in self.config:
            return _DEFAULTS[name]
        raw = self.config[name]
        where = f"{self.args.config}: config key {name!r}"
        try:
            value = cast(raw)
        except ValueError:
            raise ValueError(f"{where}: invalid value {raw!r}") from None
        if name in _CHOICES and value not in _CHOICES[name]:
            raise ValueError(f"{where} must be one of {_CHOICES[name]}, got {raw!r}")
        return value


def _parse_start(token: str) -> int:
    if token in ("+1", "1", "+"):
        return 0
    if token in ("-1", "-"):
        return 1
    raise ValueError(f"start must be +1 or -1, got {token!r}")


def _row_text(row) -> str:
    lines = [
        f"J = {row.J:g}, B = {row.B:g}, T = {row.T:g}",
        f"  stationary p      = ({format_float(row.p0)}, {format_float(row.p1)})",
        f"  transitions t     = [[{format_float(row.t00)}, {format_float(row.t01)}],"
        f" [{format_float(row.t10)}, {format_float(row.t11)}]]",
        f"  memory overlap    = {format_float(row.fidelity)}",
        f"  C_mu              = {format_float(row.c_mu_bits)} bits",
        f"  C_q               = {format_float(row.c_q_bits)} bits",
        f"  C_mu / C_q        = "
        + ("n/a (C_q below floor)" if row.ratio is None else format_float(row.ratio)),
    ]
    return "\n".join(lines)


def cmd_complexity(args: argparse.Namespace) -> int:
    opt = _Options(args)
    row = compute_row(opt.get("J"), opt.get("B"), opt.get("T"))
    if opt.get("format", cast=str) != "json":
        print(_row_text(row))
    print(json.dumps(row.as_dict()))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    opt = _Options(args)
    out = opt.get("out", cast=str)
    if out is None:
        print("error: sweep requires --out PATH", file=sys.stderr)
        return EXIT_USAGE
    grid = temperature_grid(
        opt.get("t_min"), opt.get("t_max"), opt.get("points", cast=int),
        opt.get("spacing", cast=str),
    )
    columns = sweep_columns(opt.get("J"), opt.get("B"), grid)
    fmt = opt.get("format", cast=str) or "csv"
    try:
        with open(out, "w", newline="") as handle:
            write_sweep(handle, columns, fmt)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    T, c_q = columns["T"], columns["C_q_bits"]
    best = c_q.index(max(c_q))  # first maximum
    summary = {
        "points": len(c_q),
        "out": out,
        "cq_argmax_T": T[best],
        "cq_max_bits": c_q[best],
    }
    print(json.dumps(summary))
    return EXIT_OK


def _seed(opt: _Options) -> int:
    seed = opt.get("seed", cast=int)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def cmd_simulate(args: argparse.Namespace) -> int:
    opt = _Options(args)
    backend = opt.get("backend", cast=str)
    params = IsingParams(opt.get("J"), opt.get("B"), opt.get("T"))
    tm = transition_matrix(params)
    start = _parse_start(opt.get("start", cast=str))
    steps = opt.get("steps", cast=int)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    rng = np.random.default_rng(_seed(opt))
    if steps == 0:
        return EXIT_OK
    # Chunks share one Generator and carry the state: one call's stream.
    if backend == "classical":
        machine = EpsilonMachine(tm)
        sample = lambda state, n: sample_trajectory(machine, state, n, rng)[0]
    else:
        su = build_step_unitaries(build_quantum_model(tm))
        sample = lambda state, n: sample_quantum_trajectory(su, state, n, rng)[0]
    state, separator = start, ""
    for done in range(0, steps, SIMULATE_CHUNK):
        symbols = sample(state, min(SIMULATE_CHUNK, steps - done))
        sys.stdout.write(separator + symbols_to_line(symbols))
        state, separator = int(symbols[-1] < 0), " "
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_tmax(args: argparse.Namespace) -> int:
    opt = _Options(args)
    J, B = opt.get("J"), opt.get("B")
    result = find_tmax(J, B, (opt.get("t_min"), opt.get("t_max")), opt.get("tol"))
    c_mu = float(complexity(J, B, result.temperature).c_mu)
    payload = {
        "T_max": result.temperature,
        "C_q_bits": result.cq,
        "C_mu_bits": c_mu,
        "boundary": result.boundary,
        "unimodal": result.unimodal,
    }
    if opt.get("format", cast=str) != "json":
        kind = "boundary result (no interior maximum)" if result.boundary else "interior maximum"
        print(f"{kind} for J = {J:g}, B = {B:g}")
        print(f"  T_max  = {format_float(result.temperature)}")
        print(f"  C_q    = {format_float(result.cq)} bits")
        print(f"  C_mu   = {format_float(c_mu)} bits")
    print(json.dumps(payload))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    opt = _Options(args)
    level = opt.get("level", cast=str)
    results = run_verification(level, _seed(opt))
    for result in results:
        print(result)
    if all(r.passed for r in results):
        print(f"verify {level}: all {len(results)} checks passed")
        return EXIT_OK
    print(f"verify {level}: FAILED", file=sys.stderr)
    return EXIT_VERIFY_FAIL


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--J", type=float, default=None, help="coupling strength")
    parser.add_argument("--B", type=float, default=None, help="external field")
    parser.add_argument("--config", default=None, help="flat KEY=VALUE config file")
    parser.add_argument(
        "--format", choices=_CHOICES["format"], default=None, help="output format"
    )


@functools.cache  # built on first use; holds no per-call state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin-epsilon",
        description=(
            "Classical and quantum minimal predictive models of the 1D Ising "
            "spin chain: complexities, sweeps, simulators, verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", help="one-point complexity report")
    _add_common(p)
    p.add_argument("--T", type=float, default=None, help="temperature (inf allowed)")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("sweep", help="temperature sweep to CSV/JSON")
    _add_common(p)
    p.add_argument("--t-min", dest="t_min", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--spacing", choices=_CHOICES["spacing"], default=None)
    p.add_argument("--out", default=None, help="output file path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="stream a sampled symbol trajectory")
    _add_common(p)
    p.add_argument("--backend", choices=_CHOICES["backend"], default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--start", default=None, help="starting symbol, +1 or -1")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tmax", help="locate the quantum-complexity maximum")
    _add_common(p)
    p.add_argument("--t-min", dest="t_min", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_tmax)

    p = sub.add_parser("verify", help="run the self-verification suite")
    _add_common(p)
    p.add_argument("--level", choices=_CHOICES["level"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Reader gone (``| head``): devnull keeps the exit-time flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
