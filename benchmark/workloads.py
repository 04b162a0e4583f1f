"""The two workloads: operation lists generated from the workload seed.

A pass is one run of a workload's operation list; a run repeats the same
pass.  CLI operations go through ``spin_epsilon.cli.main(argv)``; library
operations call the public functions directly.  The program receives only
the generated (J, B, T), ``--seed`` and ``--start`` values.  Library
functions are looked up on their modules at call time, so the traced run's
wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks
from spin_epsilon import circuit, ising, quantum, ring

# The package's verification box: J and B uniform in [-3, 3], T log-uniform
# over [0.05, 100].  No transfer matrix underflows inside it.
BOX_T = (0.05, 100.0)
# The short calls draw complexity temperatures down to here, so the underflow
# below T ~ (2|J| + |B|)/745 shows as failed operations.
LOW_T = 1e-3
# Short-correlation region: the 21-spin ring's length-3 tables stay within
# 1e-6 of the infinite chain's everywhere in it (worst corner J=1, |B|=0.3,
# T=2 measures 1.5e-7).
RING_J, RING_B, RING_T = (0.5, 1.0), (0.3, 0.6), (2.0, 3.0)

CALLS_PER_KIND = 110  # one pass leaves 11 samples above each p90
SWEEP_POINTS = 20_000
STEPS = 1_000_000
CIRCUIT_DEPTH = 16
RING_N_HALF = 10
TABLE_LENGTH = 3


@dataclass
class Op:
    kind: str
    argv: list[str] | None = None  # a cli.main call
    call: Callable | None = None  # a library call: call(state) -> value
    writes_csv: bool = False  # the CLI call gets --out PATH
    inputs: dict = field(default_factory=dict)
    check: Callable | None = None  # check(result, op) -> problem or None


@dataclass
class Workload:
    name: str
    why: str
    ops: list[Op]
    warmup: list[Op]
    # (metric, operation kinds, items those operations make per pass)
    throughput: list[tuple[str, tuple[str, ...], int]] = field(default_factory=list)
    latency: tuple[str, ...] = ()  # operation kinds with a p50/p90 metric each


def _log_uniform(rng, lo, hi) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _box(rng, t_low=BOX_T[0]):
    return float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), _log_uniform(rng, t_low, BOX_T[1])


def _flags(**values) -> list[str]:
    # --J=-1e-05 form: argparse would read a bare "-1e-05" as an option.
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


def _sweep(J, B, points, kind="sweep") -> Op:
    inputs = {"J": J, "B": B, "points": points, "t_min": BOX_T[0], "t_max": BOX_T[1]}
    argv = ["sweep", *_flags(J=J, B=B, t_min=BOX_T[0], t_max=BOX_T[1]),
            "--points", str(points), "--spacing", "log"]
    return Op(kind, argv=argv, writes_csv=True, inputs=inputs,
              check=lambda r, op: checks.check_sweep(r.csv, r.stdout, op.inputs))


def _complexity(J, B, T) -> Op:
    return Op("complexity", argv=["complexity", *_flags(J=J, B=B, T=T)],
              inputs={"J": J, "B": B, "T": T},
              check=lambda r, op: checks.check_complexity(r.stdout, op.inputs))


def _tmax(J, B) -> Op:
    return Op("tmax", argv=["tmax", *_flags(J=J, B=B)],
              inputs={"J": J, "B": B, "t_min": BOX_T[0], "t_max": BOX_T[1]},
              check=lambda r, op: checks.check_tmax(r.stdout, op.inputs))


def _simulate(backend, J, B, T, steps, seed, start) -> Op:
    argv = ["simulate", "--backend", backend, *_flags(J=J, B=B, T=T),
            "--steps", str(steps), "--seed", str(seed), f"--start={'+1' if start == 0 else '-1'}"]
    inputs = {"J": J, "B": B, "T": T, "steps": steps, "seed": seed, "start": start}
    return Op(f"simulate_{backend}", argv=argv, inputs=inputs,
              check=lambda r, op: checks.check_simulate(r.stdout, op.inputs))


def _verify(level, seed) -> Op:
    return Op(f"verify_{level}", argv=["verify", "--level", level, "--seed", str(seed)],
              check=(lambda r, op: checks.check_verify(r.stdout)) if level == "full" else None)


def _value_check(fn):
    return lambda r, op: fn(r.value, op.inputs)


def _circuit(J, B, T, start, length) -> Op:
    def call(state):
        tm = ising.transition_matrix(ising.IsingParams(J, B, T))
        su = circuit.build_step_unitaries(quantum.build_quantum_model(tm))
        return circuit.exact_output_distribution(su, start, length)

    inputs = {"J": J, "B": B, "T": T, "start": start, "length": length}
    return Op("exact_output_distribution", call=call, inputs=inputs,
              check=_value_check(checks.check_circuit_table))


def _ring_ops(J, B, T, n_half, length) -> list[Op]:
    def enumerate_(state):
        state["ring"] = ring.enumerate_ring(ising.IsingParams(J, B, T), n_half)
        return state["ring"]

    def conditional(condition):
        return lambda state: ring.conditional_from_ring(state["ring"], condition, length)

    inputs = {"J": J, "B": B, "T": T, "length": length}
    short_corr = n_half == RING_N_HALF
    return [
        Op("enumerate_ring", call=enumerate_, inputs=inputs),
        *[Op("conditional_from_ring", call=conditional(c), inputs={**inputs, "condition": c},
             check=_value_check(checks.check_ring_table) if short_corr else None)
          for c in (1, -1)],
        Op("markov_gap", call=lambda state: ring.markov_gap(state["ring"], length), inputs=inputs,
           check=_value_check(checks.check_markov_gap) if short_corr else None),
        Op("site_marginals", call=lambda state: ring.site_marginals(state["ring"]), inputs=inputs,
           check=_value_check(checks.check_marginals) if short_corr else None),
    ]


def _bulk_sweep(rng) -> tuple[list[Op], list[Op]]:
    """One 20 000-point log sweep to CSV at a seeded (J, B) from the verify
    box.  Per-row work in ising/quantum/sweep and CSV rendering dominate, so
    the array-first core (ROADMAP item 2) shows here."""
    J, B, _ = _box(rng)
    return [_sweep(J, B, SWEEP_POINTS)], [_sweep(J, B, 200)]


def _interactive(rng) -> tuple[list[Op], list[Op]]:
    """Many short complexity, tmax and 200-point sweep calls, each its own
    cli.main call: per-call overhead dominates, so a vectorised path that
    slows scalar calls shows here even if it helps the bulk sweep."""
    ops = []
    for kind in rng.permutation(np.repeat(["complexity", "tmax", "sweep200"], CALLS_PER_KIND)):
        J, B, T = _box(rng, t_low=LOW_T)
        if kind == "complexity":
            ops.append(_complexity(J, B, T))
        elif kind == "tmax":
            ops.append(_tmax(J, B))
        else:
            ops.append(_sweep(J, B, 200, kind="sweep200"))
    J, B, T = _box(rng)
    return ops, [_complexity(J, B, T), _tmax(J, B)]


def _stream(rng) -> tuple[list[Op], list[Op]]:
    """Two 10^6-step simulate streams: the samplers, symbol rendering and
    the write dominate (ROADMAP item 4)."""
    ops = []
    for backend in ("classical", "quantum"):
        J, B, T = _box(rng)
        ops.append(_simulate(backend, J, B, T, STEPS, int(rng.integers(2**31)), int(rng.integers(2))))
    return ops, [_simulate(b, J, B, T, 1000, 0, 0) for b in ("classical", "quantum")]


def cli(rng) -> Workload:
    ops, warmup = [], []
    for part in (_bulk_sweep, _interactive, _stream):
        part_ops, part_warmup = part(rng)
        ops += part_ops
        warmup += part_warmup
    return Workload(
        "cli",
        "the CLI commands users run: a 20 000-point sweep, 330 short calls, two 10^6-step streams",
        ops=ops, warmup=warmup,
        throughput=[("rows_per_s", ("sweep",), SWEEP_POINTS),
                    ("steps_per_s", ("simulate_classical", "simulate_quantum"), 2 * STEPS)],
        latency=("complexity", "tmax", "sweep200"),
    )


def oracle(rng) -> Workload:
    ops = [_verify("full", int(rng.integers(2**31)))]
    J, B, T = _box(rng)
    ops += [_circuit(J, B, T, start, CIRCUIT_DEPTH) for start in (0, 1)]
    ring_params = (float(rng.uniform(*RING_J)), float(rng.choice([-1, 1]) * rng.uniform(*RING_B)),
                   float(rng.uniform(*RING_T)))
    ops += _ring_ops(*ring_params, RING_N_HALF, TABLE_LENGTH)
    warmup = [_verify("quick", 0), _circuit(J, B, T, 0, 8), *_ring_ops(*ring_params, 5, TABLE_LENGTH)]
    return Workload(
        "oracle",
        "verify --level full, the L=16 circuit tables and the 21-spin ring oracle",
        ops=ops, warmup=warmup,
    )


BUILDERS = {"cli": cli, "oracle": oracle}


def build(name: str, seed: int) -> Workload:
    """The named workload's inputs, the same for the same seed."""
    return BUILDERS[name](np.random.default_rng([list(BUILDERS).index(name), seed]))
