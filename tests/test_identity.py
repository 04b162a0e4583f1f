"""Byte identity of the CLI and the library: each output hashes as recorded.

Each corpus entry is one in-process ``cli.main`` run.  Its exit code, stdout,
stderr, warnings and ``--out`` file hash to one sha256, compared with
``identity_manifest.json``.  The manifest's library section hashes the bits
of library calls no CLI command makes: stacked and per-draw complexities,
``find_tmax`` on a (J, B) grid, ring tables and stacked circuit tables.
Float results depend on the Python and numpy builds and on the CPU kernels
numpy dispatches to, so the manifest names the versions and the float64
dispatch targets it was captured with, and on any other build the test fails
and names both.  To capture the manifest again, for example after a deliberate
change of output, and print each entry added, dropped or changed::

    PYTHONPATH=src python tests/test_identity.py
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

from spin_epsilon import (
    IsingParams,
    TransitionMatrix,
    build_quantum_model,
    build_step_unitaries,
    cli,
    complexity,
    enumerate_ring,
    exact_output_distribution,
    find_tmax,
    quantum_statistical_complexity,
    statistical_complexity,
    stationary_density,
    transition_matrix,
)
from spin_epsilon.ising import transition_arrays
from spin_epsilon.verify import _draw

MANIFEST = Path(__file__).with_name("identity_manifest.json")
POINTS = [("1", "0.3"), ("-1", "2.5"), ("0.7", "-0.4")]  # (J, B)
SECTIONS = ("entries", "library")
# The float64 ufuncs the package calls whose kernel numpy picks by CPU, and
# whose results may differ in the last bit between kernels.
DISPATCHED = ("exp", "log", "log1p", "log2", "log10", "power")


def _corpus() -> dict[str, list[str]]:
    corpus = {}
    for level in ("quick", "full"):
        for seed in ("0", "7", "42", "123"):
            corpus[f"verify {level} seed {seed}"] = ["verify", "--level", level, "--seed", seed]
    for J, B in POINTS:
        at = ["--J", J, "--B", B]
        for fmt in ("csv", "json"):
            corpus[f"sweep {fmt} J={J} B={B}"] = ["sweep", *at, "--format", fmt, "--out", "out"]
        for T in ("2", "0.05", "inf"):
            for fmt in ("csv", "json"):  # csv: the text report
                corpus[f"complexity {fmt} J={J} B={B} T={T}"] = [
                    "complexity", *at, "--T", T, "--format", fmt,
                ]
        corpus[f"tmax J={J} B={B}"] = ["tmax", *at]
    for backend in ("classical", "quantum"):
        for seed in ("0", "42"):
            corpus[f"simulate {backend} seed {seed}"] = [
                "simulate", "--J", "1", "--B", "0.3", "--T", "2",
                "--backend", backend, "--steps", "10000", "--seed", seed,
            ]
    corpus["complexity T=-4 (usage error)"] = ["complexity", "--T", "-4"]
    corpus["tmax tol=inf (usage error)"] = ["tmax", "--tol", "inf"]
    return corpus


def digest(argv: list[str]) -> str:
    """sha256 of one run: exit code, stdout, stderr, warnings, ``out`` file."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            written = Path("out").read_bytes() if Path("out").exists() else None
        finally:
            os.chdir(cwd)
    record = (code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught], written)
    return hashlib.sha256(repr(record).encode()).hexdigest()


def _box_points() -> np.ndarray:
    """2 000 verify box draws (seed 1) as rows (J, B, T), then the first 32 at T = inf."""
    draws = _draw(np.random.default_rng(1), 2000)
    return np.concatenate([draws, draws[:32] * [1.0, 1.0, np.inf]])


@functools.cache
def _single_models() -> list:
    """(transition matrix, quantum model) of each box point, one point at a time."""
    tms = [transition_matrix(IsingParams(*point)) for point in _box_points().tolist()]
    return [(tm, build_quantum_model(tm)) for tm in tms]


def _tmax_grid() -> list:
    """``find_tmax`` fields and warning texts on a 7x7 (J, B) grid over [-3, 3]^2."""
    fields, texts = [], []
    for J in np.linspace(-3.0, 3.0, 7).tolist():
        for B in np.linspace(-3.0, 3.0, 7).tolist():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fields.append(list(vars(find_tmax(J, B)).values()))
            texts.append("; ".join(str(w.message) for w in caught))
    return [fields, texts]


def _circuit_tables() -> list:
    """Exact depth-10 circuit tables from both starts for 32 stacked box draws."""
    tm = TransitionMatrix(*transition_arrays(*_box_points()[:32].T))
    su = build_step_unitaries(build_quantum_model(tm))
    return [exact_output_distribution(su, start, 10).probs for start in (0, 1)]


def _library() -> dict:
    """Name -> call returning the values whose bits the library section hashes."""
    library = {
        "complexity stacked, box draws": lambda: list(vars(complexity(*_box_points().T)).values()),
        "statistical_complexity per draw":
            lambda: [[statistical_complexity(tm) for tm, _ in _single_models()]],
        "quantum_statistical_complexity per draw":
            lambda: [[quantum_statistical_complexity(model) for _, model in _single_models()]],
        "stationary_density per draw":
            lambda: [[stationary_density(model) for _, model in _single_models()]],
        "find_tmax 7x7 (J, B) grid": _tmax_grid,
        "exact_output_distribution depth 10, 32 stacked draws": _circuit_tables,
    }
    # (-1, 0.3, 0.01) is a cold antiferromagnet: classes that never occur
    # there carry log-weights far above those of the classes that do.
    rings = [(point, n_half) for point in ((1.0, 0.3, 2.0), (1.0, 0.0, 1.0))
             for n_half in range(1, 11)]
    for point, n_half in rings + [((-1.0, 0.3, 0.01), 10)]:
        library[f"enumerate_ring n_half={n_half} at {point}"] = (
            lambda point=point, n_half=n_half: [enumerate_ring(IsingParams(*point), n_half).probs]
        )
    return library


def bits(values: list) -> str:
    """sha256 over the dtype, shape and bytes of each value as a numpy array."""
    h = hashlib.sha256()
    for value in map(np.asarray, values):
        h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
    return h.hexdigest()


def _versions() -> dict[str, str]:
    info = opt_func_info(func_name=f"^({'|'.join(DISPATCHED)})$", signature="float64")
    targets = [f"{name} {next(iter(info[name].values()))['current']}" for name in DISPATCHED]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "float64 dispatch": ", ".join(targets)}


def _compute(section: str) -> dict[str, str]:
    if section == "entries":
        return {name: digest(argv) for name, argv in _corpus().items()}
    return {name: bits(call()) for name, call in _library().items()}


def capture() -> dict:
    return {**_versions(), **{section: _compute(section) for section in SECTIONS}}


def differences(old: dict, new: dict) -> list[str]:
    """One line per version, entry or library entry that differs between two manifests."""
    lines = [f"{key}: {old.get(key)} -> {new[key]}" for key in _versions() if old.get(key) != new[key]]
    for section in SECTIONS:
        before, after = old.get(section, {}), new[section]
        lines += [f"added {section}: {name}" for name in after if name not in before]
        lines += [f"dropped {section}: {name}" for name in before if name not in after]
        lines += [f"changed {section}: {name}" for name in after
                  if name in before and before[name] != after[name]]
    return lines


def _assert_same_build(manifest: dict) -> None:
    recorded = {key: manifest.get(key) for key in _versions()}
    assert recorded == _versions(), (
        f"manifest captured with {recorded}, this build is {_versions()}: "
        "float output may differ in the last digits; capture the manifest again"
    )


def _assert_section_matches(section: str) -> None:
    manifest = json.loads(MANIFEST.read_text())
    _assert_same_build(manifest)
    computed = _compute(section)
    assert list(manifest[section]) == list(computed)
    changed = [name for name, value in computed.items() if value != manifest[section][name]]
    assert not changed, f"output changed: {changed}"


def test_cli_output_matches_manifest():
    _assert_section_matches("entries")


def test_library_output_matches_manifest():
    _assert_section_matches("library")


def test_differences_name_every_added_dropped_and_changed_entry():
    old = {**_versions(), "entries": {"a": "1", "b": "2"}, "library": {"c": "3"}}
    new = {**_versions(), "entries": {"a": "1", "d": "4"}, "library": {"c": "5"}}
    assert differences(old, new) == [
        "added entries: d", "dropped entries: b", "changed library: c"]
    assert differences(new, new) == []
    assert differences({}, new)[:len(_versions())] == [
        f"{key}: None -> {value}" for key, value in _versions().items()]


def test_manifest_from_another_dispatch_target_fails_naming_both_keys():
    build = _versions()
    other = {**build, "float64 dispatch": "exp baseline(X86_V2), log baseline(X86_V2)"}
    with pytest.raises(AssertionError) as failure:
        _assert_same_build(other)
    assert str(other) in str(failure.value) and str(build) in str(failure.value)
    _assert_same_build(build)


if __name__ == "__main__":
    committed = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    manifest = capture()
    for line in differences(committed, manifest):
        print(line)
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
