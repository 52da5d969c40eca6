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
exactly, and each file's floats must agree with the recorded ones to
``OTHER_CORE_BOUND`` of that file's largest recorded magnitude.  One
setting runs in a child process with ``OPENBLAS_CORETYPE=Sandybridge``, so
that this second branch runs wherever the file was written on another core.

The bound.  Training runs in float32, whose unit roundoff is u = 2^-24,
about 6e-8.  Another core's kernels may sum a dot product in another order
or with fused multiply-adds; two such sums of n terms differ by at most
~2n*u of the sum of their terms' magnitudes, and the difference is carried
and reshaped by every later step.  So the drift is judged against each
vector's largest magnitude, not elementwise: a relative bound fails on a
parameter that training left near zero.  Measured between the Sandybridge
and the default (SkylakeX) kernels on a float32 prototype of this code:
the ``smoke`` benchmark config drifted 2.6e-7 relative; the ``reference``
config's telemetry at most 2.0e-7 relative, and its checkpoint |d| <=
2.8e-6 against a largest magnitude of 1.53, i.e. 1.8e-6 of it; the test
accuracies were identical.  On the 30 runs here the drift is at most
1.9e-7 of a file's largest magnitude.  ``OTHER_CORE_BOUND`` = 2^-24 * 2^8 =
2^-16, about 1.5e-5, leaves a margin of 8x over the largest of these.  The
bound is for these small settings: co-teaching's small-loss ranking can
turn a last-bit difference into another kept set, and at the benchmark's
size into another trajectory.

Each run's last-k test accuracy is also held within ``FLOAT64_TOLERANCE``
of its float64 value in ``FLOAT64_LAST_K``, recorded before training moved
to float32.

A change that moves a hash on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py --write`` and says which runs
moved and why.  The write refuses to replace a file whose ``RNG_ONLY``
hashes differ from the new runs': those files no training change may move.
"""

import csv
import ctypes
import glob
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
OTHER_CORE_BOUND = 2.0**-16  # of a file's largest recorded magnitude; derived in the module docstring

# Each run's seed stages' last-k test accuracies (train/**/seed_manifest.json, in path order), as the float64
# training of version 0.8.0 gave them, to 4 decimals; a float32 run stays within FLOAT64_TOLERANCE of each.
FLOAT64_TOLERANCE = 0.01
FLOAT64_LAST_K = {
    "coteaching/forked": (0.7208,),
    "grid": (0.7167, 0.775, 0.75, 0.7458),
    "iid/clean": (0.7083,),
    "iid/globalized-asymmetric": (0.5833,),
    "iid/globalized-symmetric": (0.6042,),
    "iid/localized-asymmetric": (0.5875,),
    "iid/localized-symmetric": (0.5792,),
    "label-dir/clean": (0.7833,),
    "label-dir/globalized-asymmetric": (0.6042,),
    "label-dir/globalized-symmetric": (0.6958,),
    "label-dir/localized-asymmetric": (0.6042,),
    "label-dir/localized-symmetric": (0.7167,),
    "label-quantity/clean": (0.75,),
    "label-quantity/globalized-asymmetric": (0.5667,),
    "label-quantity/globalized-symmetric": (0.5625,),
    "label-quantity/localized-asymmetric": (0.6167,),
    "label-quantity/localized-symmetric": (0.6167,),
    "layout/linear-softmax": (0.7542,),
    "layout/relu": (0.675,),
    "method/coteaching": (0.7208,),
    "method/gce": (0.6042,),
    "method/mae": (0.6583,),
    "method/mixup": (0.7042,),
    "method/sce": (0.7208,),
    "quantity-skew/clean": (0.7458,),
    "quantity-skew/globalized-asymmetric": (0.6,),
    "quantity-skew/globalized-symmetric": (0.6708,),
    "quantity-skew/localized-asymmetric": (0.5625,),
    "quantity-skew/localized-symmetric": (0.625,),
    "realworld-csv": (0.6417,),
}

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
        bound = OTHER_CORE_BOUND * np.abs(values).max()
        np.testing.assert_allclose(got["floats"][rel], values, rtol=0, atol=bound, err_msg=rel)


def moved_rng_files(old: dict, new: dict) -> list[str]:
    """The runs and ``RNG_ONLY`` files whose hashes differ between two golden files' runs, as "run: file"."""
    return [
        f"{name}: {rel}"
        for name in sorted(set(old) & set(new))
        for rel in RNG_ONLY
        if old[name]["artifacts"][rel] != new[name]["artifacts"][rel]
    ]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """``ran(name)``: setting ``name``'s :func:`run` and its output directory, run once for every test of the module."""
    done = {}

    def get(name: str) -> tuple[dict, Path]:
        if name not in done:
            tmp = tmp_path_factory.mktemp("run")
            done[name] = run(name, tmp), tmp / "out"
        return done[name]

    return get


def test_golden_file_holds_every_run(golden):
    assert sorted(golden["runs"]) == sorted(RUNS)
    assert set(golden["host"]) == {"numpy", "blas_core"}
    assert sorted(FLOAT64_LAST_K) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_keeps_its_bytes(ran, golden, name):
    check(golden["runs"][name], ran(name)[0], host(), golden["host"])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_stays_within_its_float64_accuracy(ran, name):
    """Each seed stage's last-k accuracy lies within FLOAT64_TOLERANCE of float64 training's."""
    seeds = sorted(glob.glob(os.path.join(ran(name)[1], "train", "**", "seed_manifest.json"), recursive=True))
    accuracies = []
    for path in seeds:
        with open(path, encoding="utf-8") as fh:
            accuracies.append(json.load(fh)["last_k_accuracy"])
    assert len(accuracies) == len(FLOAT64_LAST_K[name])
    for got, want in zip(accuracies, FLOAT64_LAST_K[name]):
        assert abs(got - want) <= FLOAT64_TOLERANCE, (name, accuracies)


def test_write_refuses_to_move_an_rng_only_file(golden):
    """The ``--write`` guard names each run and RNG-only file whose hash would move, and passes the rest."""
    runs = golden["runs"]
    assert moved_rng_files(runs, runs) == []
    name = sorted(runs)[0]
    edited = json.loads(json.dumps(runs))
    edited[name]["artifacts"]["plan.json"] = "0" * 64
    edited[name]["artifacts"]["train/seed_0/telemetry.csv"] = "0" * 64  # BLAS-touched: free to move
    assert moved_rng_files(runs, edited) == [f"{name}: plan.json"]


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
        if os.path.exists(GOLDEN_PATH):
            with open(GOLDEN_PATH, encoding="utf-8") as fh:
                moved = moved_rng_files(json.load(fh)["runs"], runs)
            if moved:
                sys.exit("refusing to write: these RNG-only files would move:\n" + "\n".join(moved))
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            json.dump({"host": host(), "runs": runs}, fh, sort_keys=True, indent=1)
            fh.write("\n")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write | --record NAME DIR")
