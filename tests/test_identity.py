"""Byte identity of the CLI: each command's output hashes as recorded.

Each corpus entry is one in-process ``cli.main`` run.  Its exit code, stdout,
stderr, warnings and ``--out`` file hash to one sha256, compared with
``identity_manifest.json``.  Float results depend on the Python and numpy
builds, so the manifest names the versions it was captured with, and on any
other build the test fails and names both.  To capture the manifest again,
for example after a deliberate change of output::

    PYTHONPATH=src python tests/test_identity.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
import warnings
from pathlib import Path

import numpy as np

from spin_epsilon import cli

MANIFEST = Path(__file__).with_name("identity_manifest.json")
POINTS = [("1", "0.3"), ("-1", "2.5"), ("0.7", "-0.4")]  # (J, B)


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


def _versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def capture() -> dict:
    return {**_versions(), "entries": {name: digest(argv) for name, argv in _corpus().items()}}


def test_cli_output_matches_manifest():
    manifest = json.loads(MANIFEST.read_text())
    recorded = {key: manifest[key] for key in _versions()}
    assert recorded == _versions(), (
        f"manifest captured with {recorded}, this build is {_versions()}: "
        "float output may differ in the last digits; capture the manifest again"
    )
    corpus = _corpus()
    assert list(manifest["entries"]) == list(corpus)
    changed = [name for name, argv in corpus.items() if digest(argv) != manifest["entries"][name]]
    assert not changed, f"output changed: {changed}"


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(capture(), indent=1) + "\n")
