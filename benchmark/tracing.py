"""Spans around the package's public functions, for the traced run only.

The tracer replaces each public function of the layer modules, under every
name a package module binds it to (``sweep.transition_matrix``,
``quantum.build_quantum_model``, ``cli.run_sweep``, ...), with a timing
wrapper, and puts the originals back afterwards.  Each call records one span:
name, start, end, parent span, thread, operation index and pass index.
Parents are tracked per thread; a span opened on a thread with no open span
of its own (a ``run_sweep`` pool worker) hangs under the innermost open span
of the thread that runs the workload.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import csv
import functools
import inspect
import threading
import time
from collections import defaultdict

LAYERS = (
    "cli", "sweep", "ising", "quantum", "classical",
    "circuit", "ring", "distribution", "verify",
)

# Layer functions outside a module's ``__all__`` that the benchmark times.
EXTRA = {
    "cli": ["main"],
    "verify": ["check_oracle_convergence", "check_fidelity_saturation",
               "check_circuit_agreement", "check_entropy_monotonicity"],
}

# Per-cell and per-row helpers: a wrapper would cost more than their work.
SKIP = {"format_float", "entropy_bits", "mixture_eigenvalues", "stationary_density"}

# Units of work one call did, from its positional arguments and its result.
WORK = {
    "ring.enumerate_ring": lambda args, result: len(result.probs),
    "classical.sample_trajectory": lambda args, result: args[2],
    "circuit.sample_quantum_trajectory": lambda args, result: args[2],
    "distribution.symbols_to_line": lambda args, result: len(args[0]),
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = [
    ("ising.transition_matrix.calls", "count", "lower"),
    ("ising.transition_matrix.us", "us", "lower"),
    ("quantum.build_quantum_model.us", "us", "lower"),
    ("quantum.quantum_statistical_complexity.us", "us", "lower"),
    ("classical.statistical_complexity.us", "us", "lower"),
    ("sweep.compute_row.calls", "count", "lower"),
    ("sweep.compute_row.us", "us", "lower"),
    ("sweep.run_sweep.s", "s", "lower"),
    ("sweep.pool_busy_share", "share", "higher"),
    ("sweep.rows_to_csv.s", "s", "lower"),
    ("quantum.find_tmax.ms", "ms", "lower"),
    ("quantum.find_tmax.evaluations", "count", "lower"),
    ("quantum.find_tmax.refined_ratio", "share", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("classical.sample_trajectory.ns_per_step", "ns", "lower"),
    ("circuit.sample_quantum_trajectory.ns_per_step", "ns", "lower"),
    ("distribution.symbols_to_line.ns_per_symbol", "ns", "lower"),
    ("circuit.exact_output_distribution.s", "s", "lower"),
    ("circuit.branches", "count", "lower"),
    ("circuit.ns_per_branch", "ns", "lower"),
    ("circuit.assert_synchronization.s", "s", "lower"),
    ("verify.check_circuit_agreement.s", "s", "lower"),
    ("ring.enumerate_ring.s", "s", "lower"),
    ("ring.configs", "count", "lower"),
    ("ring.conditional_from_ring.s", "s", "lower"),
    ("ring.markov_gap.s", "s", "lower"),
    ("ring.site_marginals.s", "s", "lower"),
    ("verify.check_oracle_convergence.s", "s", "lower"),
    ("classical.future_distribution.s", "s", "lower"),
    ("verify.check_fidelity_saturation.s", "s", "lower"),
    ("verify.check_entropy_monotonicity.s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "op", "run", "work")

    def __init__(self, name, parent, op, run):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.op = op
        self.run = run
        self.work = 0


class Tracer:
    """Installs and removes the timing wrappers and keeps the spans."""

    def __init__(self, package):
        self.spans: list[Span] = []
        self.op = 0
        self.run = 0
        self._local = threading.local()
        self._caller: list[Span] = []
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name in getattr(module, "__all__", []) + EXTRA.get(layer, []):
                fn = getattr(module, name)
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and name not in SKIP):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        self._patches = [
            (module, attr, value, wrappers[value])
            for module in modules
            for attr, value in vars(module).items()
            if inspect.isfunction(value) and value in wrappers
        ]

    def install(self) -> None:
        self._caller = self._stack()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._caller[-1] if self._caller else None)
        span = Span(name, parent, self.op, self.run)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            # One span per yielded item (one branch layer per depth), so the
            # span covers the generator's own work and not its consumer's.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    span.work = len(item)
                    yield item

            return traced_generator

        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["span", "name", "start_ns", "end_ns", "parent", "thread",
                          "run", "op", "work"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, s.start, s.end, index.get(id(s.parent), ""), s.thread,
                              s.run, s.op, s.work])


def _covered(start: int, end: int, children: list[Span]) -> int:
    """Length of [start, end] covered by the union of the children's spans."""
    total, reach = 0, start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans: list[Span], passes: int, refined_ratio: float,
                  overhead: float) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as name -> (value, unit, sample count).

    Totals are per traced pass; ``.us``/``.ms`` are the mean inclusive time
    per call, ``.s`` the inclusive time per pass, and ``<layer>.self_s`` the
    self time per pass of every span of that module.  A function the
    workload never calls reads 0.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    calls = defaultdict(int)
    total = defaultdict(int)
    work = defaultdict(int)
    self_total = defaultdict(int)
    main_self = 0
    busy = capacity = 0
    evaluations = []  # quantum_statistical_complexity calls per find_tmax
    for span in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        work[span.name] += span.work
        kids = children.get(id(span), [])
        own = duration - _covered(span.start, span.end, kids)
        self_total[span.name.split(".", 1)[0]] += own
        if span.name == "cli.main":
            main_self += own
        elif span.name == "sweep.run_sweep":
            rows = [k for k in kids if k.name == "sweep.compute_row"]
            busy += sum(k.end - k.start for k in rows)
            capacity += duration * max(1, len({k.thread for k in rows}))
        elif span.name == "quantum.find_tmax":
            evaluations.append(
                sum(k.name == "quantum.quantum_statistical_complexity" for k in kids))

    def mean(name, scale):
        return total[name] * scale / calls[name] if calls[name] else 0.0

    def per_unit(name):
        return total[name] / work[name] if work[name] else 0.0

    per_pass = 1.0 / passes
    values = {
        "ising.transition_matrix.calls": (calls["ising.transition_matrix"] * per_pass, "ising.transition_matrix"),
        "ising.transition_matrix.us": (mean("ising.transition_matrix", 1e-3), "ising.transition_matrix"),
        "quantum.build_quantum_model.us": (mean("quantum.build_quantum_model", 1e-3), "quantum.build_quantum_model"),
        "quantum.quantum_statistical_complexity.us": (
            mean("quantum.quantum_statistical_complexity", 1e-3), "quantum.quantum_statistical_complexity"),
        "classical.statistical_complexity.us": (
            mean("classical.statistical_complexity", 1e-3), "classical.statistical_complexity"),
        "sweep.compute_row.calls": (calls["sweep.compute_row"] * per_pass, "sweep.compute_row"),
        "sweep.compute_row.us": (mean("sweep.compute_row", 1e-3), "sweep.compute_row"),
        "sweep.pool_busy_share": (busy / capacity if capacity else 0.0, "sweep.run_sweep"),
        "quantum.find_tmax.ms": (mean("quantum.find_tmax", 1e-6), "quantum.find_tmax"),
        "quantum.find_tmax.evaluations": (
            sum(evaluations) / len(evaluations) if evaluations else 0.0, "quantum.find_tmax"),
        "quantum.find_tmax.refined_ratio": (refined_ratio, "quantum.find_tmax"),
        "cli.main.calls": (calls["cli.main"] * per_pass, "cli.main"),
        "cli.main.self_ms": (main_self * 1e-6 / calls["cli.main"] if calls["cli.main"] else 0.0, "cli.main"),
        "classical.sample_trajectory.ns_per_step": (
            per_unit("classical.sample_trajectory"), "classical.sample_trajectory"),
        "circuit.sample_quantum_trajectory.ns_per_step": (
            per_unit("circuit.sample_quantum_trajectory"), "circuit.sample_quantum_trajectory"),
        "distribution.symbols_to_line.ns_per_symbol": (
            per_unit("distribution.symbols_to_line"), "distribution.symbols_to_line"),
        "circuit.branches": (work["circuit.branch_layers"] * per_pass, "circuit.branch_layers"),
        "circuit.ns_per_branch": (per_unit("circuit.branch_layers"), "circuit.branch_layers"),
        "ring.configs": (work["ring.enumerate_ring"] * per_pass, "ring.enumerate_ring"),
        "trace.spans": (len(spans) * per_pass, None),
        "trace.overhead_share": (overhead, None),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_total[layer] * 1e-9 * per_pass, None)
    out = {}
    for name, unit, _ in METRICS:
        if name in values:
            value, counted = values[name]
        else:  # "<layer>.<function>.s": inclusive seconds per pass
            counted = name[: -len(".s")]
            value = total[counted] * 1e-9 * per_pass
        samples = calls[counted] if counted else passes
        out[name] = (float(value), unit, samples)
    return out
