"""Untimed correctness checks on the outputs of one benchmark pass.

Each check returns None when the output is right and a one-line reason when
it is not.  The references here are independent of the code they check: the
sweep grid comes from numpy, the quantum complexity from an eigensolve of the
stationary memory state, and the sampled streams from a plain loop over the
same seeded draws.
"""

from __future__ import annotations

import json
import math

import numpy as np

from spin_epsilon import classical, ising, quantum

TOL = 1e-12
CSV_HEADER = "T,J,B,p0,p1,T00,T01,T10,T11,fidelity,C_mu_bits,C_q_bits,ratio"
RATIO_FLOOR = 1e-12


def eigensolve_cq(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """C_q of each row from ``stationary_density`` and ``numpy.linalg.eigvalsh``."""
    rho = np.array([
        quantum.stationary_density(quantum.QuantumModel(np.sqrt(ti), pi))
        for pi, ti in zip(p, t)
    ])
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    logs = np.log2(np.where(lam > 0.0, lam, 1.0))
    return -(lam * logs).sum(axis=1)


def row_problem(p, t, c_mu, c_q) -> str | None:
    """First row breaking an invariant: t row-stochastic, p @ t == p,
    0 <= C_q <= C_mu <= 1, C_q equal to the eigensolve."""
    p, t = np.asarray(p, float).reshape(-1, 2), np.asarray(t, float).reshape(-1, 2, 2)
    c_mu, c_q = np.atleast_1d(c_mu), np.atleast_1d(c_q)
    problems = {
        "t is not row-stochastic": (np.abs(t.sum(axis=2) - 1.0).max(axis=1) > TOL)
        | (t < 0.0).any(axis=(1, 2)),
        "p @ t != p": np.abs(np.einsum("ni,nij->nj", p, t) - p).max(axis=1) > TOL,
        "not 0 <= C_q <= C_mu <= 1": (c_q < -TOL) | (c_q > c_mu + TOL) | (c_mu > 1.0 + TOL),
        "C_q differs from the eigensolve": np.abs(c_q - eigensolve_cq(p, t)) > TOL,
    }
    for reason, bad in problems.items():
        if bad.any():
            k = int(np.argmax(bad))
            return f"row {k}: {reason} (p={p[k].tolist()}, t={t[k].tolist()}, C_mu={c_mu[k]!r}, C_q={c_q[k]!r})"
    return None


def check_sweep(csv_path: str, stdout_path: str, inputs: dict) -> str | None:
    """Header, 17-digit cells, the log grid, row invariants and the summary line."""
    with open(csv_path) as handle:
        lines = handle.read().split("\n")
    if lines[0] != CSV_HEADER:
        return f"CSV header is {lines[0]!r}"
    if lines[-1] != "" or len(lines) != inputs["points"] + 2:
        return f"CSV has {len(lines) - 2} rows and a missing final newline, expected {inputs['points']}"
    grid = np.logspace(np.log10(inputs["t_min"]), np.log10(inputs["t_max"]), inputs["points"])
    fixed = (f"{inputs['J']:.17g}", f"{inputs['B']:.17g}")
    values = np.empty((inputs["points"], 12))
    for k, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        if len(cells) != 13:
            return f"row {k}: {len(cells)} cells"
        if any(cell != f"{float(cell):.17g}" for cell in cells[:12]):
            return f"row {k}: a cell is not a 17-significant-digit float: {line!r}"
        if cells[0] != f"{grid[k]:.17g}" or tuple(cells[1:3]) != fixed:
            return f"row {k}: (T, J, B) = {cells[:3]}, expected ({grid[k]:.17g}, {fixed[0]}, {fixed[1]})"
        values[k] = [float(cell) for cell in cells[:12]]
        c_mu, c_q = values[k, 10], values[k, 11]
        ratio = "" if c_q < RATIO_FLOOR else f"{c_mu / c_q:.17g}"
        if cells[12] != ratio:
            return f"row {k}: ratio cell {cells[12]!r}, expected {ratio!r}"
    problem = row_problem(values[:, 3:5], values[:, 5:9], values[:, 10], values[:, 11])
    if problem:
        return problem
    with open(stdout_path) as handle:
        summary = json.loads(handle.read().splitlines()[-1])
    best = int(np.argmax(values[:, 11]))
    if summary["points"] != inputs["points"] or summary["cq_max_bits"] != values[best, 11]:
        return f"summary line {summary} does not match the CSV"
    return None


def _last_json(stdout_path: str) -> dict:
    with open(stdout_path) as handle:
        return json.loads(handle.read().splitlines()[-1])


def check_complexity(stdout_path: str, inputs: dict) -> str | None:
    row = _last_json(stdout_path)
    if (row["J"], row["B"], row["T"]) != (inputs["J"], inputs["B"], inputs["T"]):
        return f"row is for {(row['J'], row['B'], row['T'])}"
    t = [[row["T00"], row["T01"]], [row["T10"], row["T11"]]]
    return row_problem([row["p0"], row["p1"]], t, row["C_mu_bits"], row["C_q_bits"])


def check_tmax(stdout_path: str, inputs: dict) -> str | None:
    result = _last_json(stdout_path)
    t_max = result["T_max"]
    # A boundary result is a log-grid endpoint, which np.logspace may place
    # one ulp outside the range (0.05 comes back as 0.049999999999999996).
    lo, hi = inputs["t_min"] * (1 - TOL), inputs["t_max"] * (1 + TOL)
    if not lo <= t_max <= hi:
        return f"T_max={t_max!r} outside [{inputs['t_min']}, {inputs['t_max']}]"
    tm = ising.transition_matrix(ising.IsingParams(inputs["J"], inputs["B"], t_max))
    return row_problem(tm.p, tm.t, result["C_mu_bits"], result["C_q_bits"])


def tmax_refined(stdout_path: str) -> bool:
    """Whether ``tmax`` refined an interior maximum (not boundary, unimodal)."""
    result = _last_json(stdout_path)
    return not result["boundary"] and result["unimodal"]


def reference_states(t: np.ndarray, start: int, steps: int, seed: int) -> list[int]:
    """Plain sampling loop: state s goes to 0 when the draw is below t[s, 0]."""
    threshold = (float(t[0, 0]), float(t[1, 0]))
    state, states = start, []
    for u in np.random.default_rng(seed).random(steps).tolist():
        state = 0 if u < threshold[state] else 1
        states.append(state)
    return states


def check_simulate(stdout_path: str, inputs: dict) -> str | None:
    """Byte-identical to the reference loop; transition counts within 6 sigma
    (plus one count) of t."""
    tm = ising.transition_matrix(ising.IsingParams(inputs["J"], inputs["B"], inputs["T"]))
    states = reference_states(tm.t, inputs["start"], inputs["steps"], inputs["seed"])
    expected = " ".join("+1" if s == 0 else "-1" for s in states) + "\n"
    with open(stdout_path) as handle:
        text = handle.read()
    if text != expected:
        k = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), min(len(text), len(expected)))
        return f"output differs from the reference loop at character {k}"
    path = np.array([inputs["start"]] + states)
    counts = np.zeros((2, 2))
    np.add.at(counts, (path[:-1], path[1:]), 1)
    for i in (0, 1):
        n = counts[i].sum()
        for j in (0, 1):
            sigma = math.sqrt(n * tm.t[i, j] * (1.0 - tm.t[i, j]))
            if abs(counts[i, j] - n * tm.t[i, j]) > 6.0 * sigma + 1.0:
                return f"transition {i}->{j}: {counts[i, j]:g} of {n:g}, t={tm.t[i, j]!r}"
    return None


def check_verify(stdout_path: str) -> str | None:
    with open(stdout_path) as handle:
        lines = handle.read().splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    if len(passed) != 4 or lines[-1] != "verify full: all 4 checks passed":
        return f"verify printed {lines}"
    return None


def check_circuit_table(dist, inputs: dict) -> str | None:
    tm = ising.transition_matrix(ising.IsingParams(inputs["J"], inputs["B"], inputs["T"]))
    exact = classical.future_distribution(tm, inputs["start"], inputs["length"]).probs
    gap = float(np.max(np.abs(dist.probs - exact)))
    return None if gap <= TOL else f"circuit table differs from future_distribution by {gap:.3g}"


def check_ring_table(dist, inputs: dict) -> str | None:
    tm = ising.transition_matrix(ising.IsingParams(inputs["J"], inputs["B"], inputs["T"]))
    start = 0 if inputs["condition"] == 1 else 1
    exact = classical.future_distribution(tm, start, inputs["length"]).probs
    error = float(np.max(np.abs(dist.probs - exact)))
    return None if error < 1e-6 else f"ring table error {error:.3g} at n_half=10, expected < 1e-6"


def check_markov_gap(gap, inputs: dict) -> str | None:
    return None if 0.0 <= gap < 1e-5 else f"markov gap {gap!r}, expected in [0, 1e-5)"


def check_marginals(marginals, inputs: dict) -> str | None:
    spread = float(np.ptp(marginals))
    if len(marginals) != 21 or spread > TOL or not 0.0 < marginals[0] < 1.0:
        return f"site marginals spread {spread:.3g} over {len(marginals)} sites"
    return None
