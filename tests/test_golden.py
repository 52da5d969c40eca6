"""Pinned sha256 of every artifact of a matrix of settings, at SMALL size.

The matrix runs ``pipeline`` in process on:

- every partition scheme against every noise setting (clean, and
  globalized and localized, each symmetric and asymmetric);
- on SMALL's own setting (label-dir, localized symmetric, ce): the other
  five methods, the ``relu`` and ``linear-softmax`` layouts, and
  ``repeats: 2`` with an ``lr_grid``;
- the real-world scene on a CSV dataset written to ``tmp_path``;
- co-teaching trained by forked workers (``FORK_MIN_BATCHES = 0`` and two
  usable CPUs), which must give the bytes of its serial run.

``golden.json`` maps each run to its ``run.json`` ``artifacts`` and keeps,
beside them, the floats of each ``telemetry.csv`` and
``final_checkpoint.bin``.  It also records the numpy version and the
OpenBLAS core it was written with.  On that (numpy, core) pair every hash
must match.  Another BLAS core can move the last bits of training: there
the files that only the RNG streams decide (``RNG_ONLY``) must still match
exactly, and the telemetry and checkpoint floats must agree with the
recorded ones to a relative 1e-9.  One setting runs in a child process
with ``OPENBLAS_CORETYPE=Sandybridge``, so that this second branch runs
wherever the file was written on another core.

A change that moves a hash on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py --write`` and says which runs
moved and why.
"""

import csv
import ctypes
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from noisyfl import federation
from noisyfl.cli import main
from noisyfl.datasets import make_synthetic_blobs
from noisyfl.localtrain import METHODS
from noisyfl.models import load_checkpoint
from test_cli import GLOBALIZED, SRC, write_config

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
RNG_ONLY = ("test_dataset.npy", "plan.json", "client_histograms.csv", "noisy_dataset.npy")
TELEMETRY_FLOATS = ("test_accuracy", "grad_norm", "mean_client_loss")

SCHEMES = {
    "iid": {"scheme": "iid"},
    "label-dir": {"scheme": "label-dir", "alpha": 0.5},
    "quantity-skew": {"scheme": "quantity-skew", "alpha": 2.0},
    "label-quantity": {"scheme": "label-quantity", "c": 2},
}
# SMALL's noise is localized symmetric
NOISE = {
    "clean": {"noise": {"scene": "clean"}},
    "globalized-symmetric": {"noise": {**GLOBALIZED["noise"], "mode": "symmetric"}},
    "globalized-asymmetric": GLOBALIZED,
    "localized-symmetric": {},
    "localized-asymmetric": {"noise.mode": "asymmetric"},
}
# SMALL changes of each run; SMALL itself, which trains with ce, is label-dir/localized-symmetric
RUNS = {
    f"{scheme}/{noise}": {"partition": SCHEMES[scheme], **NOISE[noise]}
    for scheme, noise in itertools.product(SCHEMES, NOISE)
}
RUNS.update({f"method/{method}": {"federation.trainer.method": method} for method in METHODS if method != "ce"})
RUNS.update({
    "layout/relu": {"federation.model.activation": "relu"},
    "layout/linear-softmax": {"federation.model": {"kind": "linear-softmax"}},
    "grid": {"repeats": 2, "federation.lr_grid": [0.05, 0.1]},
    "realworld-csv": {"noise": {"scene": "realworld"}},  # on the CSVs of write_csv_dataset
    "coteaching/forked": {"federation.trainer.method": "coteaching"},  # trained by forked workers
})  # fmt: skip
SUBPROCESS_RUN = "label-dir/localized-symmetric"


def write_csv_dataset(tmp_path) -> dict:
    """A CSV training set with every fifth label flipped and its true labels, and a clean CSV test set.

    Returns the ``dataset`` section that reads them.
    """
    paths = {}
    for field, per_class, seed in [("path", 40, 1), ("test_path", 10, 2)]:
        ds = make_synthetic_blobs(3, per_class, 4, 3.0, seed=seed)
        labels = ds.labels.copy()
        if field == "path":
            labels[::5] = (labels[::5] + 1) % 3
        paths[field] = str(tmp_path / f"{field}.csv")
        with open(paths[field], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([f"x{i}" for i in range(ds.dim)] + ["label", "true_label"])
            for row, label, true in zip(ds.features, labels, ds.true_labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label), int(true)])
    return {"csv": {**paths, "label_column": "label"}}


def file_floats(path: str) -> list[float]:
    """The floats a run writes to ``path``: a checkpoint's values, or telemetry's float cells row by row."""
    if path.endswith(".bin"):
        return load_checkpoint(path)[0].values.tolist()
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh) for column in TELEMETRY_FLOATS if row[column]]


def run(name: str, tmp_path) -> dict:
    """Run setting ``name``'s pipeline under ``tmp_path``: its run.json artifacts and each telemetry's and checkpoint's floats."""
    changes = dict(RUNS[name])
    if name == "realworld-csv":
        changes["dataset"] = write_csv_dataset(tmp_path)
    config, out = write_config(tmp_path, changes=changes)
    patched = {"FORK_MIN_BATCHES": 0, "_usable_cpus": lambda: 2} if name == "coteaching/forked" else {}
    saved = {attr: getattr(federation, attr) for attr in patched}
    try:
        for attr, value in patched.items():
            setattr(federation, attr, value)
        assert main(["pipeline", "-c", config]) == 0
    finally:
        for attr, value in saved.items():
            setattr(federation, attr, value)
    with open(os.path.join(out, "run.json"), encoding="utf-8") as fh:
        artifacts = json.load(fh)["artifacts"]
    floats = {
        rel: file_floats(os.path.join(out, rel))
        for rel in artifacts
        if rel.endswith(("/telemetry.csv", "/final_checkpoint.bin"))
    }
    return {"artifacts": artifacts, "floats": floats}


def blas_core() -> str:
    """The core the loaded OpenBLAS computes with, as its ``*_get_corename*`` reports it, or ``"unknown"``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line.lower()})
    except (OSError, IndexError):
        return "unknown"
    for library in libraries:
        lib = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode("ascii")
    return "unknown"


def host() -> dict:
    return {"numpy": np.__version__, "blas_core": blas_core()}


def check(want: dict, got: dict, got_host: dict, golden_host: dict) -> None:
    """``got``, a run on ``got_host``, keeps the bytes of ``want``, recorded on ``golden_host``: all of them, or on another host those that BLAS does not touch."""
    assert sorted(got["artifacts"]) == sorted(want["artifacts"])
    if got_host == golden_host:
        assert got["artifacts"] == want["artifacts"]
        return
    assert {rel: got["artifacts"][rel] for rel in RNG_ONLY} == {rel: want["artifacts"][rel] for rel in RNG_ONLY}
    assert sorted(got["floats"]) == sorted(want["floats"])
    for rel, values in want["floats"].items():
        np.testing.assert_allclose(got["floats"][rel], values, rtol=1e-9, atol=0, err_msg=rel)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_holds_every_run(golden):
    assert sorted(golden["runs"]) == sorted(RUNS)
    assert set(golden["host"]) == {"numpy", "blas_core"}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_keeps_its_bytes(tmp_path, golden, name):
    check(golden["runs"][name], run(name, tmp_path), host(), golden["host"])


def test_another_blas_core_keeps_the_rng_files_and_the_floats(tmp_path, golden):
    """A run under OPENBLAS_CORETYPE=Sandybridge, in a child process, passes the check of its own host."""
    env = {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--record", SUBPROCESS_RUN, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )  # fmt: skip
    got = json.loads(child.stdout)
    check(golden["runs"][SUBPROCESS_RUN], got["run"], got["host"], golden["host"])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:  # one run, as JSON on stdout: {"host": ..., "run": ...}
        name, directory = sys.argv[2:4]
        json.dump({"host": host(), "run": run(name, Path(directory))}, sys.stdout)
    elif sys.argv[1:] == ["--write"]:
        runs = {}
        for name in sorted(RUNS):
            with tempfile.TemporaryDirectory() as tmp:
                runs[name] = run(name, Path(tmp))
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump({"host": host(), "runs": runs}, fh, sort_keys=True, indent=1)
            fh.write("\n")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | --record NAME DIR")
