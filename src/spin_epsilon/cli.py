"""Command-line front end.

Subcommands: ``complexity``, ``sweep``, ``simulate``, ``tmax``, ``verify``.
Exit codes: 0 success (also when the reader closes stdout early), 1
verification failure (or a violated internal invariant), 2 usage error (also
a failed write to stdout or ``--out``, an array too large to allocate, or a
``--t-min``/``--t-max`` range whose log grid overflows to inf near the double
maximum).

Each option is declared once, in :data:`OPTIONS`: its type, default, allowed
values and help.  :data:`COMMANDS` names the options each subcommand takes;
the parser, the config file and the defaults all read these two tables.

Option values resolve as flags > config file > built-in defaults.  The config
file is flat ``KEY=VALUE`` lines (keys named like the long flags, underscores
for dashes, ``#`` comments allowed).  Config files are shared across
commands: any option's key is valid in any command's file, and a key for an
option the command does not take is ignored.  An unknown key, or a value that
does not parse or lies outside the option's choices, is a usage error that
names the key.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .classical import EpsilonMachine, sample_trajectory
from .circuit import build_step_unitaries, sample_quantum_trajectory
from .distribution import check_integer, format_float, symbols_to_line
from .ising import IsingParams, transition_matrix
from .quantum import build_quantum_model, find_tmax
from .sweep import CSV_HEADER, compute_row, sweep_table, temperature_grid, write_sweep
from .verify import VERIFY_LEVELS, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

SIMULATE_CHUNK = 2**16  # simulate writes each chunk as drawn: memory flat in --steps
START = {"+1": 0, "1": 0, "+": 0, "-1": 1, "-": 1}  # --start spelling -> symbol index


class Option(NamedTuple):
    """One option: flag ``--name`` (dashes for underscores), config key ``name``."""

    type: Callable
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


OPTIONS = {
    "J": Option(float, 1.0, help="coupling strength"),
    "B": Option(float, 0.0, help="external field"),
    "T": Option(float, 1.0, help="temperature (inf allowed)"),
    "t_min": Option(float, 0.05),
    "t_max": Option(float, 100.0),
    "points": Option(int, 200),
    "spacing": Option(str, "log", ("linear", "log")),
    "seed": Option(int, 0),
    "steps": Option(int, 1000),
    "start": Option(str, "+1", tuple(START), "starting symbol, +1 or -1"),
    "backend": Option(str, "classical", ("classical", "quantum")),
    "level": Option(str, "quick", VERIFY_LEVELS),
    "tol": Option(float, 1e-4),
    "format": Option(str, "csv", ("csv", "json"), "output format"),
    "out": Option(str, help="output file path"),
    "config": Option(str, help="flat KEY=VALUE config file"),
}
CONFIG_KEYS = OPTIONS.keys() - {"config"}  # --config names the file, not a key in it


def load_config(path: str) -> dict[str, str]:
    """Parse a flat KEY=VALUE config file."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:  # missing, a directory, unreadable: its message names the file
        raise ValueError(str(exc)) from None
    except UnicodeDecodeError as exc:  # not text: its message does not name the file
        raise ValueError(f"{path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_options(args: argparse.Namespace) -> None:
    """Give each option of ``args.command`` that no flag set its config value or default."""
    config = load_config(args.config) if args.config else {}
    for key in config:
        if key not in CONFIG_KEYS:
            raise ValueError(f"{args.config}: unknown config key {key!r}")
    for name in COMMANDS[args.command].options.split():
        option = OPTIONS[name]
        if getattr(args, name) is not None:
            continue
        if name not in config:
            setattr(args, name, option.default)
            continue
        raw = config[name]
        where = f"{args.config}: config key {name!r}"
        try:
            value = option.type(raw)
        except ValueError:
            raise ValueError(f"{where}: invalid value {raw!r}") from None
        if option.choices and value not in option.choices:
            raise ValueError(f"{where} must be one of {option.choices}, got {raw!r}")
        setattr(args, name, value)


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
    row = compute_row(args.J, args.B, args.T)
    if args.format != "json":
        print(_row_text(row))
    print(json.dumps(row.as_dict()))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    out = args.out
    if out is None:
        raise ValueError("sweep requires --out PATH")
    grid = temperature_grid(args.t_min, args.t_max, args.points, args.spacing)
    table = sweep_table(args.J, args.B, grid)
    try:
        with open(out, "w", newline="") as handle:
            write_sweep(handle, table, args.format)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from None
    col = CSV_HEADER.split(",").index("C_q_bits")
    T, c_q = table[np.argmax(table[:, col]), [0, col]].tolist()  # C_q's first maximum
    print(json.dumps({"points": len(table), "out": out, "cq_argmax_T": T, "cq_max_bits": c_q}))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    tm = transition_matrix(IsingParams(args.J, args.B, args.T))
    steps = args.steps
    check_integer(steps, 0, None, "steps must be >= 0, got {value}")
    check_integer(args.seed, 0, None, "seed must be >= 0, got {value}")
    rng = np.random.default_rng(args.seed)
    if steps == 0:
        return EXIT_OK
    # Chunks share one Generator and carry the state: one call's stream.
    if args.backend == "classical":
        sample, model = sample_trajectory, EpsilonMachine(tm)
    else:
        sample, model = sample_quantum_trajectory, build_step_unitaries(build_quantum_model(tm))
    state, separator = START[args.start], ""
    for done in range(0, steps, SIMULATE_CHUNK):
        symbols = sample(model, state, min(SIMULATE_CHUNK, steps - done), rng)[0]
        sys.stdout.write(separator + symbols_to_line(symbols))
        state, separator = int(symbols[-1] < 0), " "
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_tmax(args: argparse.Namespace) -> int:
    J, B = args.J, args.B
    result = find_tmax(J, B, (args.t_min, args.t_max), args.tol)
    payload = {
        "T_max": result.temperature,
        "C_q_bits": result.cq,
        "C_mu_bits": result.c_mu,
        "boundary": result.boundary,
        "unimodal": result.unimodal,
    }
    if args.format != "json":
        kind = "boundary result (no interior maximum)" if result.boundary else "interior maximum"
        print(f"{kind} for J = {J:g}, B = {B:g}")
        print(f"  T_max  = {format_float(result.temperature)}")
        print(f"  C_q    = {format_float(result.cq)} bits")
        print(f"  C_mu   = {format_float(result.c_mu)} bits")
    print(json.dumps(payload))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    level = args.level
    results = run_verification(level, args.seed)
    for result in results:
        print(result)
    if all(r.passed for r in results):
        print(f"verify {level}: all {len(results)} checks passed")
        return EXIT_OK
    print(f"verify {level}: FAILED", file=sys.stderr)
    return EXIT_VERIFY_FAIL


class Command(NamedTuple):
    func: Callable[[argparse.Namespace], int]
    help: str
    options: str  # keys of OPTIONS, space-separated, in flag order


COMMANDS = {
    "complexity": Command(cmd_complexity, "one-point complexity report", "J B config format T"),
    "sweep": Command(cmd_sweep, "temperature sweep to CSV/JSON",
                     "J B config format t_min t_max points spacing out"),
    "simulate": Command(cmd_simulate, "stream a sampled symbol trajectory",
                        "J B config backend T steps seed start"),
    "tmax": Command(cmd_tmax, "locate the quantum-complexity maximum",
                    "J B config format t_min t_max tol"),
    "verify": Command(cmd_verify, "run the self-verification suite", "config level seed"),
}


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
    for command, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in options.split():
            option = OPTIONS[name]
            p.add_argument(
                "--" + name.replace("_", "-"),
                type=option.type, choices=option.choices, help=option.help,
            )
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_options(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Every file the commands open turns its OSError into a ValueError, so
        # this one came from stdout.  Devnull keeps the exit-time flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # reader gone (``| head``)
            return EXIT_OK
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)  # ``> /dev/full``
        return EXIT_USAGE
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
