"""End-to-end checks of the command line, each through ``main()`` on a seconds-long config.

Every behaviour of the command line is checked here: exit codes and their messages, the
files each stage writes, the skip rule, determinism and ``analyze``.  CI adds only a run
of the installed ``noisyfl`` entry point; a check of the command belongs here, not there.
"""

import ast
import copy
import csv
import dataclasses
import functools
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, suppress

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisyfl import cli, federation
from noisyfl import config as config_module
from noisyfl import noise as noise_module
from noisyfl.analysis import drop_ratio_series, sensitivity_series
from noisyfl.cli import load_plan, main, sha256_file
from noisyfl.config import load_config, set_by_path
from noisyfl.datasets import load_csv, load_npy, make_synthetic_blobs, save_csv
from noisyfl.federation import run_federation
from noisyfl.localtrain import METHODS
from noisyfl.models import layout_from_dict, load_checkpoint
from noisyfl.noise import run_scene
from noisyfl.rng import derive_seed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SMALL = {
    "seed": 3,
    "repeats": 1,
    "dataset": {
        "synthetic": {"num_classes": 3, "per_class": 60, "dim": 8, "separation": 3.0, "test_per_class": 20, "seed": 5}
    },
    "partition": {"scheme": "label-dir", "alpha": 0.5},
    "noise": {"scene": "localized", "mode": "symmetric", "eps_min": 0.2, "eps_max": 0.4},
    "federation": {
        "num_clients": 3,
        "rounds": 4,
        "eval_every": 1,
        "model": {"kind": "mlp", "hidden": 8, "activation": "tanh"},
        "trainer": {"method": "ce", "lr": 0.05, "batch_size": 32, "epochs": 2},
    },
}

GLOBALIZED = {"noise": {"scene": "globalized", "mode": "asymmetric", "eps_global": 0.3}}

CSV_ROWS = "x0,x1,label\n0.5,1.0,0\n1.5,2.0,1\n2.5,3.0,2\n"  # three classes of two features
CSV_FIVE_CLASSES = "x0,x1,label\n" + "".join(f"0.5,1.0,{c}\n" for c in range(5))


def write_config(tmp_path, out="out", changes=None) -> tuple[str, str]:
    """Config file for SMALL with dotted-path ``changes``; returns (config path, output dir)."""
    doc = copy.deepcopy(SMALL)
    doc["output_dir"] = str(tmp_path / out)
    for dotted, value in (changes or {}).items():
        set_by_path(doc, dotted, value)
    path = tmp_path / f"{out}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), doc["output_dir"]


def tree(root: str) -> dict[str, bytes]:
    files = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def checked_index(root: str, unindexed=()) -> dict[str, str]:
    """run.json's artifacts, after checking them against the tree with an independent hasher.

    run.json lists every file but itself and the ``unindexed`` leftovers that no manifest
    lists, each with the sha256 of its bytes.
    """
    files = {rel.replace(os.sep, "/"): data for rel, data in tree(root).items()}
    indexed = json.loads(files.pop("run.json"))["artifacts"]
    expected = {rel: data for rel, data in files.items() if rel not in unindexed}
    assert indexed == {rel: "sha256:" + hashlib.sha256(data).hexdigest() for rel, data in expected.items()}
    return indexed


def manifests(root: str) -> list[str]:
    return sorted(rel for rel in tree(root) if rel.endswith("manifest.json"))


NOISE_FILES = ["noise_manifest.json", "plan.json", "client_histograms.csv", "noisy_dataset.npy", "test_dataset.npy"]
# with NOISE_FILES and run.json, every file a one-seed run writes: no dataset.npy, no analysis/
TRAIN_FILES = [
    "train/run_manifest.json", "train/summary.csv",
    "train/seed_0/seed_manifest.json", "train/seed_0/telemetry.csv", "train/seed_0/final_checkpoint.bin",
]  # fmt: skip
GRID = {"repeats": 2, "federation.lr_grid": [0.05, 0.1]}
# the train files of a GRID run: one summary of every lr, and each lr's seeds
GRID_TRAIN_FILES = ["train/run_manifest.json", "train/summary.csv"] + [
    f"train/lr_{lr}/seed_{i}/{name}"
    for lr in ("0.05", "0.1")
    for i in (0, 1)
    for name in ("seed_manifest.json", "telemetry.csv", "final_checkpoint.bin")
]


def stamps(root: str, names) -> dict:
    """Each file's inode, mtime and bytes: a rewrite moves a new file into place, even one of the same bytes."""
    result = {}
    for name in names:
        path = os.path.join(root, name)
        info = os.stat(path)
        with open(path, "rb") as fh:
            result[name] = (info.st_ino, info.st_mtime_ns, fh.read())
    return result


def refuse(*args, **kwargs):
    raise AssertionError("a finished stage ran again")


DELETE = object()


def _holder(doc, path: str):
    """(container, key) of the dotted ``path`` in a JSON document; digits index lists."""
    *parents, last = path.split(".")
    for part in parents:
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc, int(last) if isinstance(doc, list) else last


def sealed(manifest: dict) -> dict:
    """``manifest`` with the manifest_sha256 of the rest of it: the sha256 of its canonical JSON."""
    body = {key: value for key, value in manifest.items() if key != "manifest_sha256"}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
    return {**body, "manifest_sha256": "sha256:" + digest}


def edit_json(run_dir: str, rel: str, path: str, value=DELETE, seal=True) -> None:
    """Set, or delete, the value at the dotted ``path`` of a manifest, and reseal it unless ``seal`` is false.

    A resealed edit reaches the checks of what a manifest records; an unsealed one stops at its seal.
    """
    file = os.path.join(run_dir, rel)
    with open(file, encoding="utf-8") as fh:
        doc = json.load(fh)
    node, last = _holder(doc, path)
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    with open(file, "w", encoding="utf-8") as fh:
        json.dump(sealed(doc) if seal else doc, fh, sort_keys=True, indent=2)


def read_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def selected_accuracy(run_dir: str) -> float:
    """The mean accuracy of the selected lr, as the run's train manifest records it."""
    with open(os.path.join(run_dir, "train", "run_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    (accuracy,) = [row["mean_accuracy"] for row in manifest["summary"] if row["lr"] == manifest["selected_lr"]]
    return accuracy


def analyze(run_dirs: list[str], out: str) -> tuple[int, str]:
    """Exit code and stderr of ``noisyfl analyze`` over ``run_dirs``."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["analyze", "--runs", *run_dirs, "--out", out])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def finished_small(tmp_path_factory):
    """One finished SMALL pipeline; tests that change it work on a copy."""
    config, out = write_config(tmp_path_factory.mktemp("finished"))
    assert main(["pipeline", "-c", config]) == 0
    return out


@contextmanager
def deadline(seconds: int):
    """Fail the test if the block still runs after ``seconds`` of wall time."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestDeterminism:
    @pytest.mark.parametrize(
        "changes, train_files",
        [
            *[({"federation.trainer.method": method}, TRAIN_FILES) for method in METHODS],
            ({"noise.mode": "asymmetric"}, TRAIN_FILES),  # flips each client's labels among the classes it holds
            ({"federation.model": {"kind": "linear-softmax"}}, TRAIN_FILES),
            ({"federation.model.activation": "relu"}, TRAIN_FILES),
            (GRID, GRID_TRAIN_FILES),
        ],
        ids=[*METHODS, "localized-asymmetric", "linear-softmax", "relu", "grid"],
    )
    def test_two_directories_give_identical_run_json(self, tmp_path, changes, train_files):
        cfg_a, out_a = write_config(tmp_path, "a", changes)
        cfg_b, out_b = write_config(tmp_path, "b", changes)
        assert main(["pipeline", "-c", cfg_a]) == 0
        assert main(["pipeline", "-c", cfg_b]) == 0
        assert tree(out_a) == tree(out_b)
        with open(os.path.join(out_a, "run.json"), "rb") as fh:
            run = json.loads(fh.read())
        assert sorted(run["artifacts"]) == sorted(NOISE_FILES + train_files)
        assert sorted(rel.replace(os.sep, "/") for rel in tree(out_a)) == sorted([*run["artifacts"], "run.json"])
        assert set(run) == {"version", "config_digest", "seed", "artifacts"}

    def test_summary_last_k_counts_evaluated_rounds(self, tmp_path):
        config, out = write_config(
            tmp_path, changes={"federation.rounds": 20, "federation.eval_every": 5, "federation.trainer.epochs": 1}
        )
        assert main(["pipeline", "-c", config]) == 0
        with open(os.path.join(out, "train", "seed_0", "seed_manifest.json"), encoding="utf-8") as fh:
            assert json.load(fh)["last_k"] == 4
        with open(os.path.join(out, "train", "summary.csv"), encoding="utf-8", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["last_k"] == "4"


class Crash(Exception):
    """Stands in for the process dying at the point where it is raised."""


class CrashingOs:
    """The ``os`` module as ``noisyfl.cli`` sees it, except that the ``crash_at``-th ``replace`` raises."""

    def __init__(self, crash_at: int):
        self.crash_at = crash_at
        self.replaces = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        self.replaces += 1
        if self.replaces == self.crash_at:
            raise Crash(dst)
        os.replace(src, dst)


class TestResume:
    @pytest.mark.parametrize("changes", [None, GLOBALIZED], ids=["localized", "globalized"])
    def test_rerun_computes_nothing(self, tmp_path, monkeypatch, changes):
        config, out = write_config(tmp_path, changes=changes)
        assert main(["pipeline", "-c", config]) == 0
        before = tree(out)
        for module, name in [
            (cli, "run_federation"),
            (cli, "make_partition"),
            (noise_module, "make_partition"),
            (cli, "run_scene"),
            (cli, "save_csv"),
            (cli, "load_csv"),
            (cli, "save_npy"),
            (cli, "load_npy"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        assert main(["pipeline", "-c", config]) == 0
        assert tree(out) == before

    def test_truncated_manifest_is_redone(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        expected = tree(out)
        assert len(manifests(out)) == 3
        for rel in manifests(out):
            path = os.path.join(out, rel)
            with open(path, "r+b") as fh:
                fh.truncate(len(expected[rel]) // 2)
            assert main(["pipeline", "-c", config]) == 0, rel
            assert tree(out) == expected, rel

    def test_unsealed_manifest_edit_is_redone(self, tmp_path):
        """A number edited in any manifest without resealing it makes that stage run again."""
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        expected = tree(out)
        for rel, path in [
            ("noise_manifest.json", "noise.eps_min"),
            ("train/seed_0/seed_manifest.json", "last_k_accuracy"),
            ("train/run_manifest.json", "summary.0.mean_accuracy"),
        ]:
            edit_json(out, rel, path, 0.123, seal=False)
            assert main(["pipeline", "-c", config]) == 0, rel
            assert tree(out) == expected, rel

    def test_interrupted_stage_is_redone(self, tmp_path):
        """A crash mid-stage leaves <name>.tmp files and no manifest for that stage."""
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        expected = tree(out)
        for rel in manifests(out):
            path = os.path.join(out, rel)
            first_output = sorted(json.loads(expected[rel])["outputs"])[0]
            with open(os.path.join(os.path.dirname(path), first_output + ".tmp"), "wb") as fh:
                fh.write(b"half-written")
            with open(path + ".tmp", "wb") as fh:
                fh.write(b"{")
            os.remove(path)
            assert main(["pipeline", "-c", config]) == 0, rel
            assert tree(out) == expected, rel

    def test_crash_at_every_replace_is_resumed(self, tmp_path, monkeypatch):
        """A crash at any file move, then a plain rerun, gives the tree of an uninterrupted run."""
        sweep = {"repeats": 2, "federation.lr_grid": [0.05, 0.1]}
        config, out = write_config(tmp_path, "whole", changes=sweep)
        counted = CrashingOs(crash_at=0)
        monkeypatch.setattr(cli, "os", counted)
        assert main(["pipeline", "-c", config]) == 0
        expected = tree(out)
        # every output file and manifest, plus run.json, is moved into place once
        assert counted.replaces == len(expected)
        for k in range(1, counted.replaces + 1):
            config, out = write_config(tmp_path, f"crash_{k}", changes=sweep)
            monkeypatch.setattr(cli, "os", CrashingOs(crash_at=k))
            with pytest.raises(Crash):
                main(["pipeline", "-c", config])
            monkeypatch.setattr(cli, "os", os)
            assert main(["pipeline", "-c", config]) == 0, k
            assert tree(out) == expected, k

    def test_per_lr_summary_of_an_older_grid_tree_goes_once_the_train_stage_is_redone(self, tmp_path):
        """A train manifest that lists a per-lr summary.csv, as earlier versions wrote, keeps it until the stage runs again."""
        config, out = write_config(tmp_path, changes=GRID)
        assert main(["pipeline", "-c", config]) == 0
        expected = tree(out)
        per_lr = "lr_0.05/summary.csv"
        with open(os.path.join(out, "train", "summary.csv"), encoding="utf-8") as fh:
            header, row, _ = fh.readlines()
        with open(os.path.join(out, "train", per_lr), "w", encoding="utf-8") as fh:
            fh.write(header + row)
        manifest = os.path.join(out, "train", "run_manifest.json")
        with open(manifest, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["outputs"][per_lr] = sha256_file(os.path.join(out, "train", per_lr))
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(sealed(doc), fh, sort_keys=True, indent=2)

        assert main(["pipeline", "-c", config]) == 0
        assert f"train/{per_lr}" in checked_index(out)
        edit_json(out, "train/run_manifest.json", "summary.0.mean_accuracy", 0.123, seal=False)
        assert main(["pipeline", "-c", config]) == 0
        assert tree(out) == expected
        assert f"train/{per_lr}" not in checked_index(out)

    def test_csv_era_directory_is_redone(self, tmp_path, monkeypatch):
        """A directory the CSV-intermediate version wrote reruns into the tree of a fresh run.

        That version also ran a dataset stage, since retired: its dataset.csv and manifest
        belong to no stage, so they stay, and run.json, an index of the run, leaves them out.
        """
        config, out = write_config(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "__version__", "0.1.0")
            patch.setattr(cli, "save_npy", save_csv)
            patch.setattr(cli, "load_npy", lambda path: load_csv(path, "label"))
            assert main(["pipeline", "-c", config]) == 0
            cfg = load_config(config, {})
            train, _ = cfg.dataset.materialize()
            key = {"inputs": {}}
            writers = {"dataset.npy": functools.partial(save_csv, train)}
            cli.run_stage("dataset", out, "dataset_manifest.json", key, lambda: ({}, writers))
        for rel in tree(out):
            path = os.path.join(out, rel)
            if rel.endswith(".npy"):
                os.rename(path, path[: -len(".npy")] + ".csv")
            elif rel.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text.replace('.npy"', '.csv"'))
        assert "dataset.csv" in json.loads(tree(out)["dataset_manifest.json"])["outputs"]

        assert main(["pipeline", "-c", config]) == 0
        fresh_config, fresh = write_config(tmp_path, "fresh")
        assert main(["pipeline", "-c", fresh_config]) == 0
        redone, expected = tree(out), tree(fresh)
        leftovers = ["dataset.csv", "dataset_manifest.json"]
        assert {rel: data for rel, data in redone.items() if rel not in leftovers} == expected
        checked_index(out, leftovers)

    def test_edited_csv_source_reruns_the_noise_stage(self, tmp_path):
        """The noise stage's inputs are the hashes of the CSV files, so an edited file redoes it under the same config."""
        path = str(tmp_path / "data.csv")
        changes = {"dataset": {"csv": {"path": path, "label_column": "label"}}, "noise": {"scene": "realworld"}}
        config, out = write_config(tmp_path, changes=changes)
        runs = []
        for seed in (1, 2):
            save_csv(make_synthetic_blobs(3, 30, 4, 3.0, seed=seed), path)
            assert main(["noise", "-c", config]) == 0
            runs.append(tree(out))
        assert json.loads(runs[1]["noise_manifest.json"])["inputs"] == {"path": sha256_file(path)}
        fresh_config, fresh = write_config(tmp_path, "fresh", changes=changes)
        assert main(["noise", "-c", fresh_config]) == 0
        assert runs[1] != runs[0]
        assert runs[1] == tree(fresh)

    def test_version_0_4_directory_is_redone(self, tmp_path, monkeypatch):
        """A 0.4.0 tree, whose noise manifest records no partition, reruns every stage and then analyzes.

        The analysis/ files 0.4.0 wrote belong to no stage, so they stay, and run.json leaves them out.
        """
        config, out = write_config(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "__version__", "0.4.0")
            assert main(["pipeline", "-c", config]) == 0
        edit_json(out, "noise_manifest.json", "partition")
        os.makedirs(os.path.join(out, "analysis"))
        for name, header in [
            ("drop_ratio.csv", "partition,mode,eps,drop_ratio"),
            ("sensitivity.csv", "partition,mode,eps,sensitivity"),
            ("noise_ratio.csv", "scene,mode,eps_nominal,overall_ratio"),
        ]:
            with open(os.path.join(out, "analysis", name), "w", encoding="utf-8") as fh:
                fh.write(header + "\n")

        assert main(["pipeline", "-c", config]) == 0
        fresh_config, fresh = write_config(tmp_path, "fresh")
        assert main(["pipeline", "-c", fresh_config]) == 0
        redone, expected = tree(out), tree(fresh)
        leftovers = sorted(rel for rel in redone if rel.startswith("analysis" + os.sep))
        assert len(leftovers) == 3
        # every manifest now records this version and equals a fresh run's, so every stage ran again
        assert {rel: data for rel, data in redone.items() if rel not in leftovers} == expected
        checked_index(out, [rel.replace(os.sep, "/") for rel in leftovers])
        assert analyze([out], str(tmp_path / "grid"))[0] == 0


class TestIndex:
    @pytest.mark.parametrize(
        "changes",
        [None, GLOBALIZED, {"repeats": 2, "federation.lr_grid": [0.05, 0.1]}],
        ids=["localized", "globalized", "sweep"],
    )
    def test_each_file_is_hashed_once_per_pipeline(self, tmp_path, monkeypatch, changes):
        """A stage hashes what it writes or skips; run.json reuses those digests and hashes only the rest."""
        config, out = write_config(tmp_path, changes=changes)
        hashed = []

        def counting(path):
            hashed.append(os.path.relpath(path, out).replace(os.sep, "/"))
            return sha256_file(path)

        monkeypatch.setattr(cli, "sha256_file", counting)
        for run in ("fresh", "rerun"):
            hashed.clear()
            assert main(["pipeline", "-c", config]) == 0, run
            assert sorted(hashed) == sorted(checked_index(out)), run

    def test_index_after_a_stage_is_redone(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        expected = checked_index(out)
        os.remove(os.path.join(out, "noisy_dataset.npy"))
        assert main(["pipeline", "-c", config]) == 0
        assert checked_index(out) == expected


class TestStageKeys:
    """Each stage is keyed by the built values that decide its bytes, not by the config as written."""

    def test_a_training_only_change_keeps_the_noise_stage(self, tmp_path, monkeypatch):
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        noise = stamps(out, NOISE_FILES)
        monkeypatch.setattr(cli, "run_scene", refuse)
        manifest = [os.path.join("train", "run_manifest.json")]
        for flags in (["--lr", "0.06"], ["--method", "coteaching"], ["--epochs", "3"]):
            train = stamps(out, manifest)
            assert main(["pipeline", "-c", config, *flags]) == 0, flags
            assert stamps(out, NOISE_FILES) == noise, flags
            assert stamps(out, manifest) != train, flags  # the train stage did run
        # run on its own, train verifies the noise stage under the noise stage's key
        assert main(["train", "-c", config, "--epochs", "3"]) == 0

    @pytest.mark.parametrize(
        "changes",
        [
            {"partition.alpha": 1.0},
            {"dataset.synthetic.seed": 6},
            {"noise.eps_max": 0.5},
            {"federation.num_clients": 4},
            {"noise": {**GLOBALIZED["noise"], "asym_map": {"0": 2, "1": 0, "2": 1}}},
        ],
        ids=["alpha", "dataset-seed", "eps-max", "num-clients", "asym-map"],
    )
    def test_a_noise_setting_redoes_the_noise_stage(self, tmp_path, monkeypatch, changes):
        base = GLOBALIZED if "noise" in changes else {}  # an asym_map needs the globalized asymmetric scene
        config, out = write_config(tmp_path, changes=base)
        assert main(["noise", "-c", config]) == 0
        before = stamps(out, ["noise_manifest.json"])
        scenes = []
        monkeypatch.setattr(cli, "run_scene", lambda *args: scenes.append(args) or run_scene(*args))
        config, _ = write_config(tmp_path, changes={**base, **changes})
        assert main(["noise", "-c", config]) == 0
        assert len(scenes) == 1
        assert stamps(out, ["noise_manifest.json"])["noise_manifest.json"][2] != before["noise_manifest.json"][2]

    @pytest.mark.parametrize(
        "method, lr_grid, method_params",
        [("ce", [], {}), ("coteaching", None, {"ramp_rounds": 10})],
        ids=["ce", "coteaching"],
    )
    def test_spelled_out_defaults_give_the_same_tree(self, tmp_path, method, lr_grid, method_params):
        """A config that writes every default, and integers for floats, is the config that omits them."""
        terse = copy.deepcopy(SMALL)
        del terse["repeats"], terse["federation"]["eval_every"], terse["federation"]["model"]["activation"]
        del terse["dataset"]["synthetic"]["seed"]
        terse["federation"]["trainer"]["method"] = method
        terse["output_dir"] = str(tmp_path / "terse")
        (tmp_path / "terse.json").write_text(json.dumps(terse), encoding="utf-8")
        spelled = {
            "dataset.synthetic.separation": 3,
            "dataset.synthetic.seed": 0,
            "noise.eps_global": None,
            "noise.asym_map": None,
            "federation.rounds": 4.0,
            "federation.selection_fraction": 1,
            "federation.lr_grid": lr_grid,
            "federation.trainer.method": method,
            "federation.trainer.momentum": 0.9,
            "federation.trainer.weight_decay": 0.0005,
            "federation.trainer.method_params": method_params,
        }
        config, full = write_config(tmp_path, "full", spelled)
        for path in (str(tmp_path / "terse.json"), config):
            assert main(["pipeline", "-c", path]) == 0
        assert tree(full) == tree(terse["output_dir"])

    def test_a_key_recorded_as_an_integer_is_redone(self, tmp_path):
        """A manifest that records 10 where the built value is 10.0 holds another key, so its stage runs again."""
        config, out = write_config(tmp_path, changes={"federation.trainer.method": "coteaching"})
        assert main(["pipeline", "-c", config]) == 0
        expected = tree(out)
        for rel in ("train/seed_0/seed_manifest.json", "train/run_manifest.json"):
            edit_json(out, rel, "federation.trainer.method_params.ramp_rounds", 10)
        assert main(["pipeline", "-c", config]) == 0
        assert tree(out) == expected

    def test_rerun_with_a_class_map_and_an_lr_grid_rewrites_only_run_json(self, tmp_path, monkeypatch):
        """The keys hold a class map's integer keys and the grid's tuple, and match them as JSON stores them.

        With 11 classes the map's keys sort one way as numbers and another as text ("10" < "2").
        """
        classes = 11
        asym_map = {str(c): (c + 2) % classes for c in range(classes)}
        changes = {
            "dataset.synthetic.num_classes": classes,
            "noise": {**GLOBALIZED["noise"], "asym_map": asym_map},
            "repeats": 2,
            "federation.lr_grid": [0.05, 0.1],
        }
        config, out = write_config(tmp_path, changes=changes)
        assert main(["pipeline", "-c", config]) == 0
        expected = tree(out)
        files = [rel for rel in expected if rel != "run.json"]
        before = stamps(out, files)
        monkeypatch.setattr(cli, "run_scene", refuse)
        monkeypatch.setattr(cli, "run_federation", refuse)
        assert main(["pipeline", "-c", config]) == 0
        assert stamps(out, files) == before
        assert tree(out) == expected

    def test_an_lr_grid_keeps_every_stage_when_only_the_trainer_lr_changes(self, tmp_path, monkeypatch):
        """Under a grid every seed trains with a grid lr, so the train stage's key holds no trainer lr."""
        config, out = write_config(tmp_path, changes={"federation.lr_grid": [0.05, 0.1]})
        assert main(["pipeline", "-c", config]) == 0
        files = [rel for rel in tree(out) if rel != "run.json"]
        before = stamps(out, files)
        monkeypatch.setattr(cli, "run_scene", refuse)
        monkeypatch.setattr(cli, "run_federation", refuse)
        assert main(["pipeline", "-c", config, "--lr", "0.06"]) == 0
        assert stamps(out, files) == before
        with open(os.path.join(out, "train", "run_manifest.json"), encoding="utf-8") as fh:
            assert "lr" not in json.load(fh)["federation"]["trainer"]

    def test_a_moved_csv_keeps_the_noise_stage(self, tmp_path, monkeypatch):
        """A CSV dataset enters the noise stage's key by the sha256 of its file, not by its path."""
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        save_csv(make_synthetic_blobs(3, 30, 4, 3.0, seed=1), paths[0])
        shutil.copy(paths[0], paths[1])
        stamped = []
        for path in paths:
            changes = {"dataset": {"csv": {"path": path, "label_column": "label"}}, "noise": {"scene": "realworld"}}
            config, out = write_config(tmp_path, changes=changes)
            assert main(["noise", "-c", config]) == 0
            stamped.append(stamps(out, NOISE_FILES[:-1]))  # no test set is configured
            monkeypatch.setattr(cli, "run_scene", refuse)
        assert stamped[1] == stamped[0]
        assert str(tmp_path).encode() not in stamped[0]["noise_manifest.json"][2]


NOT_INTEGER = "plan contains an index that is not an integer"


class TestExitCodes:
    def test_tampered_noisy_dataset_exits_3(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        with open(os.path.join(out, "noisy_dataset.npy"), "ab") as fh:
            fh.write(b"\n")
        assert main(["train", "-c", config]) == 3

    def test_truncated_noisy_dataset_exits_3(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        path = os.path.join(out, "noisy_dataset.npy")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        assert main(["train", "-c", config]) == 3

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc, n: doc["clients"][0].append(n), "plan contains indices outside the dataset"),
            (lambda doc, n: doc["clients"][1].append(doc["clients"][0][0]), "plan assigns some index to more than one client"),
            (lambda doc, n: doc["clients"][0].clear(), "plan contains an empty client"),
            (lambda doc, n: doc.pop("scheme"), "no 'scheme' key"),
            (lambda doc, n: doc["clients"].pop(), "plan has 2 clients, federation.num_clients is 3"),
            (lambda doc, n: doc["clients"][0].__setitem__(0, doc["clients"][0][0] + 0.5), NOT_INTEGER),
            (lambda doc, n: doc["clients"][0].__setitem__(0, str(doc["clients"][0][0])), NOT_INTEGER),
        ],
        ids=[
            "index-at-n",
            "index-held-twice",
            "empty-client",
            "missing-key",
            "one-client-too-few",
            "fractional-index",
            "string-index",
        ],
    )
    def test_malformed_plan_exits_1(self, tmp_path, capsys, edit, message):
        """train checks the plan.json that a resealed noise manifest lists: one error line naming it, and no training."""
        config, out = write_config(tmp_path)
        assert main(["noise", "-c", config]) == 0
        path = os.path.join(out, "plan.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc, len(load_npy(os.path.join(out, "noisy_dataset.npy"))))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        outputs = _value_at(out, "noise_manifest.json", "outputs")
        edit_json(out, "noise_manifest.json", "outputs", {**outputs, "plan.json": sha256_file(path)})
        assert main(["train", "-c", config]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not os.path.exists(os.path.join(out, "train"))

    @pytest.mark.parametrize("command", ["pipeline", "train"])
    def test_noise_manifest_without_the_test_set_exits_3(self, tmp_path, capsys, command):
        """The skip rule passes a manifest whose listed outputs are intact, so the train stage checks what it reads."""
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        path = os.path.join(out, "noise_manifest.json")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["outputs"]["test_dataset.npy"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sealed(doc), fh)
        assert main([command, "-c", config]) == 3
        assert "noise_manifest.json records no test_dataset.npy" in capsys.readouterr().err

    def test_train_without_noise_stage_exits_3(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["partition", "-c", config]) == 0
        assert main(["train", "-c", config]) == 3

    def test_train_after_config_change_exits_3(self, tmp_path):
        config, _ = write_config(tmp_path)
        assert main(["noise", "-c", config]) == 0
        assert main(["train", "-c", config, "--seed", "4"]) == 3

    def test_diverging_lr_exits_4(self, tmp_path):
        config, _ = write_config(tmp_path)
        with np.errstate(all="ignore"):
            assert main(["pipeline", "-c", config, "--lr", "1e200"]) == 4

    @pytest.mark.parametrize("method", METHODS)
    def test_diverging_run_reports_one_line(self, tmp_path, capsys, method):
        config, _ = write_config(tmp_path, changes={"federation.trainer.method": method})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["pipeline", "-c", config, "--lr", "1e200"]) == 4
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == "numerical abort: non-finite parameters at round 1\n"

    @pytest.mark.parametrize(
        "changes",
        [
            {"repeats": "abc"},
            {"federation.trainer": "x"},
            {"federation.model.hidden": 0},
            {"dataset.synthetic.seed": -1},
            {
                "noise": {
                    "scene": "localized",
                    "mode": "asymmetric",
                    "eps_min": 0.2,
                    "eps_max": 0.4,
                    "asym_map": {"0": 2, "1": 0, "2": 1},
                }
            },
            {
                "noise": {
                    "scene": "globalized",
                    "mode": "symmetric",
                    "eps_global": 0.3,
                    "asym_map": {"0": 2, "1": 0, "2": 1},
                }
            },
        ],
        ids=[
            "repeats-string",
            "trainer-string",
            "hidden-zero",
            "negative-seed",
            "asym-map-localized-asymmetric",
            "asym-map-globalized-symmetric",
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, changes):
        config, _ = write_config(tmp_path, changes=changes)
        assert main(["pipeline", "-c", config]) == 2

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"federation.trainer.method": "gce", "federation.trainer.method_params": {"q": 2}}, "q"),
            ({"federation.trainer.method": "sce", "federation.trainer.method_params": {"alpha": 0}}, "alpha"),
            ({"federation.trainer.method": "mixup", "federation.trainer.method_params": {"alpha": 0}}, "alpha"),
            ({"federation.trainer.method": "mixup", "federation.trainer.method_params": {"alpha": -1}}, "alpha"),
            (
                {"federation.trainer.method": "coteaching", "federation.trainer.method_params": {"forget_rate": 1}},
                "forget_rate",
            ),
            (
                {"federation.trainer.method": "coteaching", "federation.trainer.method_params": {"ramp_rounds": 0}},
                "ramp_rounds",
            ),
            (
                {
                    "noise": {"scene": "globalized", "mode": "symmetric", "eps_global": 1.0},
                    "federation.trainer.method": "coteaching",
                },
                "forget_rate",
            ),
            (
                {"noise": {"scene": "globalized", "mode": "asymmetric", "eps_global": 0.3, "asym_map": {"0": 1, "1": 0}}},
                "noise.asym_map",
            ),
            ({"federation.trainer.epochs": 2.9}, "federation.trainer.epochs: must be a finite integer"),
            ({"seed": "4"}, "config error: seed: must be a finite integer"),
            ({"federation.trainer.lr": "0.5"}, "federation.trainer.lr: must be a finite number"),
            ({"federation.trainer.lr": True}, "federation.trainer.lr: must be a finite number"),
            (
                {
                    "noise": {
                        "scene": "globalized",
                        "mode": "asymmetric",
                        "eps_global": 0.3,
                        "asym_map": {"0": 1.5, "1": 2, "2": 0},
                    }
                },
                "noise.asym_map: must map class ids to class ids",
            ),
            (
                {"noise": {**GLOBALIZED["noise"], "asym_map": {"0": 1, "1": 2, "2": 7}}},
                "config error: noise.asym_map: target_map[2] = 7 out of range",
            ),
            (
                {"noise": {**GLOBALIZED["noise"], "asym_map": {"0": 0, "1": 2, "2": 1}}},
                "config error: noise.asym_map: target_map[0] maps a class to itself",
            ),
            # a linear softmax has no hidden layer, so a hidden width beside it is read by nothing
            ({"federation.model": {"kind": "linear-softmax", "hidden": 8}}, "config error: federation.model.hidden: "),
            ({"dataset": {}}, "config error: dataset: exactly one of 'synthetic' or 'csv' is required"),
            (
                {"dataset.csv": {"path": "train.csv", "label_column": "label"}},
                "config error: dataset: exactly one of 'synthetic' or 'csv' is required",
            ),
            ({"dataset.synthetic": {"num_classes": 3, "per_class": 60}}, "config error: dataset.synthetic.dim: missing"),
            ({"dataset.synthetic.num_classes": 1}, "config error: dataset.synthetic.num_classes: must be >= 2"),
            ({"dataset.synthetic.separation": 0}, "config error: dataset.synthetic.separation: must be > 0"),
            ({"partition": {"alpha": 0.5}}, "config error: partition.scheme: missing required field"),
            ({"partition": {"scheme": "label-quantity", "c": 0}}, "config error: partition: scheme label-quantity requires c >= 1"),
            ({"federation.num_clients": 0}, "config error: federation: num_clients must be >= 1"),
            ({"federation.rounds": 0}, "config error: federation: rounds must be >= 1"),
            ({"federation.selection_fraction": 0}, "config error: federation: selection_fraction must lie in (0, 1]"),
            ({"federation.selection_fraction": 1.5}, "config error: federation: selection_fraction must lie in (0, 1]"),
            ({"federation.trainer.method": "sgd"}, "config error: federation.trainer: unknown training method 'sgd'"),
            ({"federation.trainer.lr": 0}, "config error: federation.trainer: lr must be > 0"),
            ({"federation.trainer.momentum": 1}, "config error: federation.trainer: momentum must lie in [0, 1)"),
            ({"federation.trainer.weight_decay": -1}, "config error: federation.trainer: weight_decay must be >= 0"),
            ({"federation.trainer.batch_size": 0}, "config error: federation.trainer: batch_size must be >= 1"),
            ({"federation.trainer.epochs": 0}, "config error: federation.trainer: epochs must be >= 1"),
            (
                {"federation.trainer.method_params": {"q": 0.5}},
                "config error: federation.trainer: method_params keys ['q'] invalid for method 'ce'",
            ),
            ({"noise": {"scene": "global"}}, "config error: noise: unknown noise scene 'global'"),
            (
                {"noise": {"scene": "globalized", "eps_global": 0.3}},
                "config error: noise: globalized scene requires a symmetric or asymmetric mode",
            ),
            (
                {"noise": {"scene": "globalized", "mode": "symmetric", "eps_global": 0.3, "eps_max": 0.4}},
                "config error: noise: globalized scene takes eps_global, not eps_min/eps_max",
            ),
            ({"noise.mode": "none"}, "config error: noise: localized scene requires a symmetric or asymmetric mode"),
            ({"noise.eps_global": 0.3}, "config error: noise: localized scene takes eps_min/eps_max, not eps_global"),
            ({"noise": {"scene": "clean", "eps_global": 0.3}}, "config error: noise: clean scene takes no noise ratios"),
            ({"noise": {"scene": "realworld", "mode": "symmetric"}}, "config error: noise: realworld scene requires mode 'none'"),
        ],
        ids=[
            "gce-q-2",
            "sce-alpha-0",
            "mixup-alpha-0",
            "mixup-alpha-negative",
            "coteaching-forget-rate-1",
            "coteaching-ramp-rounds-0",
            "coteaching-forget-rate-from-noise-1",
            "asym-map-misses-a-class",
            "fractional-epochs",
            "string-seed",
            "string-lr",
            "bool-lr",
            "fractional-asym-map-target",
            "asym-map-target-out-of-range",
            "asym-map-to-itself",
            "linear-softmax-hidden",
            "no-dataset-source",
            "two-dataset-sources",
            "synthetic-without-dim",
            "one-class",
            "zero-separation",
            "partition-without-scheme",
            "label-count-zero",
            "zero-clients",
            "zero-rounds",
            "zero-selection-fraction",
            "selection-fraction-above-1",
            "unknown-method",
            "zero-lr",
            "momentum-1",
            "negative-weight-decay",
            "zero-batch-size",
            "zero-epochs",
            "unknown-method-param",
            "unknown-scene",
            "globalized-without-mode",
            "globalized-eps-max",
            "localized-mode-none",
            "localized-eps-global",
            "clean-eps-global",
            "realworld-symmetric",
        ],
    )
    def test_malformed_training_value_exits_2(self, tmp_path, capsys, changes, field):
        """One line naming the field; a value checked where the config enters stops the run before any stage writes."""
        config, out = write_config(tmp_path, changes=changes)
        assert main(["pipeline", "-c", config]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("pipeline", ["--noniid-label-count", "9"], "c = 9 classes per client exceeds the C = 5 classes"),
            ("pipeline", ["--clients", "500", "--iid"], "500 clients cannot each get one of 100 samples"),
            ("pipeline", ["--clients", "500", "--noniid-labeldir", "0.5"], "500 clients cannot each get one of 100 samples"),
            ("pipeline", ["--clients", "500", "--noniid-label-count", "1"], "500 clients cannot each get one of 100 samples"),
            ("pipeline", ["--clients", "2", "--noniid-label-count", "2"], "K*c = 4 < C = 5"),
            (
                "pipeline",
                ["--clients", "40", "--noniid-labeldir", "0.0001"],
                "label-dirichlet left a client empty after 2000 redraws",
            ),
            ("partition", ["--noniid-label-count", "9"], "c = 9 classes per client exceeds the C = 5 classes"),
            ("partition", ["--clients", "500", "--iid"], "500 clients cannot each get one of 100 samples"),
            ("partition", ["--clients", "500", "--noniid-quantity", "1.0"], "500 clients cannot each get one of 100 samples"),
            ("partition", ["--clients", "2", "--noniid-label-count", "2"], "K*c = 4 < C = 5"),
        ],
        ids=[
            "c-above-classes",
            "clients-above-samples",
            "labeldir-clients-above-samples",
            "label-quantity-clients-above-samples",
            "classes-uncovered",
            "redraws-exhausted",  # 2000 redraws take about 1.5 s, so only through one command
            "partition-c-above-classes",
            "partition-clients-above-samples",
            "partition-quantity-clients-above-samples",
            "partition-classes-uncovered",
        ],
    )
    def test_partition_that_cannot_be_built_exits_2(self, tmp_path, capsys, command, flags, message):
        # 5 classes of 20 samples: N = 100, C = 5
        config, _ = write_config(tmp_path, changes={"dataset.synthetic.num_classes": 5, "dataset.synthetic.per_class": 20})
        with deadline(20):  # each case fails within seconds, so a redraw loop that never ends fails the test
            assert main([command, "-c", config, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: partition: {message}")  # the check that fired, not only its section
        assert err.count("\n") == 1

    def test_noise_defect_is_not_a_partition_error(self, tmp_path, monkeypatch):
        """Only the partition schemes' errors become exit 2; a ValueError from the noise code propagates."""

        def broken(*args, **kwargs):
            raise ValueError("defect")

        monkeypatch.setattr(noise_module, "apply_noise", broken)
        config, _ = write_config(tmp_path)
        with pytest.raises(ValueError, match="defect"):
            main(["noise", "-c", config])

    @pytest.mark.parametrize("case", ["zero-iid-accuracy", "duplicate-row"])
    def test_unusable_accuracy_table_exits_1(self, tmp_path, case):
        """Runs whose accuracies leave a drop ratio undefined, or that give one table key twice."""
        config, first = write_config(tmp_path, "first", changes=GLOBALIZED)
        assert main(["pipeline", "-c", config]) == 0
        config, second = write_config(tmp_path, "second", changes=GLOBALIZED)
        if case == "duplicate-row":
            assert main(["pipeline", "-c", config]) == 0
            message = f"{first} and {second} both give (label-dir(alpha=0.5), globalized/asymmetric, 0.3)"
        else:
            assert main(["pipeline", "-c", config, "--iid"]) == 0
            edit_json(second, "train/run_manifest.json", "summary.0.mean_accuracy", 0.0)
            message = "drop ratio at (label-dir(alpha=0.5), globalized/asymmetric, 0.3) is undefined"
        code, err = analyze([first, second], str(tmp_path / "grid"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "rel, path, value",
        [
            ("train/run_manifest.json", "summary.0.mean_accuracy", 1.5),
            ("train/run_manifest.json", "summary.0.mean_accuracy", -0.1),
            ("train/run_manifest.json", "summary.0.mean_accuracy", math.nan),
            ("train/run_manifest.json", "summary.0.mean_accuracy", math.inf),
            ("noise_manifest.json", "noise.eps_min", math.nan),
            ("noise_manifest.json", "noise.eps_max", math.inf),
            # a bool passes every range check of a number, and label-dir takes no c
            ("train/run_manifest.json", "summary.0.mean_accuracy", True),
            ("train/run_manifest.json", "summary.0.mean_accuracy", None),
            ("noise_manifest.json", "partition.alpha", True),
            ("noise_manifest.json", "partition.c", "x"),
            ("noise_manifest.json", "noise.mode", "x"),
            ("noise_manifest.json", "partition.scheme", "x"),
            ("noise_manifest.json", "partition.alpha", 0.0),
        ],
        ids=[
            "accuracy-above-1",
            "negative-accuracy",
            "nan-accuracy",
            "inf-accuracy",
            "nan-eps",
            "inf-eps",
            "bool-accuracy",
            "null-accuracy",
            "bool-alpha",
            "string-c",
            "unknown-mode",
            "unknown-scheme",
            "zero-alpha",
        ],
    )
    def test_unusable_run_exits_3(self, tmp_path, finished_small, rel, path, value):
        run = str(tmp_path / "run")
        shutil.copytree(finished_small, run)
        edit_json(run, rel, path, value)
        code, err = analyze([run], str(tmp_path / "grid"))
        assert code == 3
        assert err.startswith(f"artifact mismatch: analyze {run}: unusable manifest field (") and err.count("\n") == 1
        if path.endswith("mean_accuracy"):
            assert "mean_accuracy" in err

    def test_unsealed_accuracy_edit_exits_3(self, tmp_path, finished_small):
        """A number rewritten in a manifest, well-typed and in range, breaks the manifest's seal."""
        run = str(tmp_path / "run")
        shutil.copytree(finished_small, run)
        edit_json(run, "train/run_manifest.json", "summary.0.mean_accuracy", 0.123, seal=False)
        code, err = analyze([run], str(tmp_path / "grid"))
        assert code == 3
        assert err == f"artifact mismatch: analyze {run}: run_manifest.json does not match its manifest_sha256\n"

    def test_run_whose_noise_stage_was_redone_exits_3(self, tmp_path):
        """The train manifest's inputs must be the noise manifest's outputs: the chain ties the two together."""
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        assert main(["noise", "-c", config, "--seed", "4"]) == 0
        code, err = analyze([out], str(tmp_path / "grid"))
        assert code == 3
        assert err == f"artifact mismatch: analyze {out}: run_manifest.json records other inputs than the noise stage wrote\n"

    def test_config_that_is_not_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": ', encoding="utf-8")
        assert main(["pipeline", "-c", str(path)]) == 2
        # the whole document is at fault, so no field path precedes the message
        assert capsys.readouterr().err.startswith(f"config error: {path} is not a JSON document: ")

    @pytest.mark.parametrize(
        "train, test, field, message",
        [
            (CSV_ROWS, "x0,label\n0.5,0\n1.5,1\n", "test_path", "1 features, but the training set has 2"),
            (CSV_ROWS, CSV_FIVE_CLASSES, "test_path", "5 classes, but the training set has 3"),
            ("x0,x1,label\n0.5,1.0,0\n1.5,abc,1\n", CSV_ROWS, "path", "(row 3, column 'x1')"),
            ("x0,x1,label\n0.5,1.0,0\n1.5,2.0,2\n2.5,3.0,0\n", CSV_ROWS, "path", "not contiguous from 0: missing [1]"),
            ("", CSV_ROWS, "path", "empty file, header row required (row 1)"),
            ("x0,x1,y\n0.5,1.0,0\n1.5,2.0,1\n", CSV_ROWS, "path", "label column 'label' not found in header (row 1)"),
            ("x0,x1,label\n0.5,1.0,0\n1.5,1\n", CSV_ROWS, "path", "expected 3 fields, found 2 (row 3)"),
            ("x0,x1,label\n0.5,1.0,0\n1.5,2.0,b\n", CSV_ROWS, "path", "label is not an integer (row 3, column 'label')"),
            (
                "x0,label,true_label\n0.5,0,0\n1.5,1,b\n",
                CSV_ROWS,
                "path",
                "true label is not an integer (row 3, column 'true_label')",
            ),
            ("x0,x1,label\n", CSV_ROWS, "path", "file contains no data rows (row 2)"),
            ("x0,x1,label\n0.5,1.0,0\n1.5,inf,1\n", CSV_ROWS, "path", "feature is not finite (row 3, column 'x1')"),
            ("x0,x1,label\n0.5,1.0,0\n1.5,2.0,-1\n", CSV_ROWS, "path", "negative label values are not allowed"),
            ("x0,x1,label\n0.5,1.0,0\n1.5,2.0,5\n", CSV_ROWS, "path", "not contiguous from 0: label 5 among 2 labels"),
            ("x0,x1,label\n0.5,1.0,0\n1.5,2.0,0\n", CSV_ROWS, "path", "at least two classes are required"),
            (CSV_ROWS, "x0,x1,label\n0.5,1.0,0\n1.5,1\n", "test_path", "expected 3 fields, found 2 (row 3)"),
        ],
        ids=[
            "narrow-test-set",
            "extra-test-class",
            "unparseable-feature",
            "non-contiguous-labels",
            "empty-file",
            "no-label-column",
            "ragged-row",
            "non-integer-label",
            "non-integer-true-label",
            "header-only",
            "non-finite-feature",
            "negative-label",
            "label-beyond-the-rows",
            "one-class",
            "ragged-test-row",
        ],
    )
    def test_malformed_dataset_exits_2_before_any_stage_writes(self, tmp_path, capsys, train, test, field, message):
        """A CSV dataset is checked where it enters: one ConfigError at its field, whatever is wrong with it."""
        paths = {"path": tmp_path / "train.csv", "test_path": tmp_path / "test.csv"}
        paths["path"].write_text(train, encoding="utf-8")
        paths["test_path"].write_text(test, encoding="utf-8")
        dataset = {"csv": {"label_column": "label", **{name: str(path) for name, path in paths.items()}}}
        config, out = write_config(tmp_path, changes={"dataset": dataset, "noise": {"scene": "realworld"}})
        assert main(["pipeline", "-c", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: dataset.csv.{field}: {paths[field]}: ") and err.count("\n") == 1
        assert message in err
        assert not os.path.exists(out)

    def test_csv_without_a_test_set_exits_2(self, tmp_path, capsys):
        path = tmp_path / "train.csv"
        path.write_text(CSV_ROWS, encoding="utf-8")
        dataset = {"csv": {"path": str(path), "label_column": "label"}}
        config, out = write_config(tmp_path, changes={"dataset": dataset, "noise": {"scene": "realworld"}})
        for command in ("pipeline", "train"):
            assert main([command, "-c", config]) == 2
            assert capsys.readouterr().err.startswith("config error: dataset.csv.test_path: missing")
        assert not os.path.exists(out)
        # the partition preview and the noise stage need no test set
        for command in ("partition", "noise"):
            assert main([command, "-c", config]) == 0

    def test_train_after_a_csv_edit_exits_3(self, tmp_path, capsys):
        """Run on its own, train checks the noise stage under the key the pipeline's skip rule compares."""
        paths = {"path": str(tmp_path / "train.csv"), "test_path": str(tmp_path / "test.csv")}
        save_csv(make_synthetic_blobs(3, 30, 4, 3.0, seed=1), paths["path"])
        save_csv(make_synthetic_blobs(3, 10, 4, 3.0, seed=2), paths["test_path"])
        dataset = {"csv": {"label_column": "label", **paths}}
        config, _ = write_config(tmp_path, changes={"dataset": dataset, "noise": {"scene": "realworld"}})
        assert main(["pipeline", "-c", config]) == 0
        save_csv(make_synthetic_blobs(3, 30, 4, 3.0, seed=3), paths["path"])
        assert main(["train", "-c", config]) == 3
        err = capsys.readouterr().err
        assert err == "artifact mismatch: train: noise_manifest.json records a different inputs; run the noise stage first\n"

    def test_running_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(config_module, "make_synthetic_blobs", no_memory)
        config, _ = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 1
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_misspelled_config_key_exits_2_before_any_stage(self, tmp_path, capsys):
        config, out = write_config(tmp_path, changes={"federation.trainer.epoch": 9})
        assert main(["pipeline", "-c", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: federation.trainer.epoch: ") and err.count("\n") == 1
        assert not os.path.exists(out)


class TestArtifacts:
    def test_noise_manifest_equals_run_scene_report(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["noise", "-c", config]) == 0
        with open(os.path.join(out, "noise_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        cfg = load_config(config, {})
        ds, _ = cfg.dataset.materialize()
        _, _, report = run_scene(ds, cfg.noise, cfg.federation.num_clients, cfg.partition)
        # the key: SMALL's built values, each default filled in
        key = {
            "dataset": {"source": "synthetic", "params": SMALL["dataset"]["synthetic"]},
            "partition": {"scheme": "label-dir", "alpha": 0.5, "c": None},
            "noise": {
                "scene": "localized", "mode": "symmetric", "eps_global": None, "eps_min": 0.2, "eps_max": 0.4,
                "asym_map": None, "seed": 3,
            },
            "num_clients": 3,
            "inputs": {},
        }  # fmt: skip
        runner_keys = {"stage", "version", "outputs", "manifest_sha256"}
        assert set(manifest) == runner_keys | set(key) | set(report)
        assert {k: manifest[k] for k in key} == key
        assert {k: manifest[k] for k in report} == report
        assert manifest["stage"] == "noise"
        assert set(manifest["outputs"]) == {"plan.json", "client_histograms.csv", "noisy_dataset.npy", "test_dataset.npy"}

    def test_noise_manifest_without_ground_truth_has_the_report_keys(self, tmp_path):
        """Real-world data without true labels records every report field, empty, and no other key."""
        clean = make_synthetic_blobs(3, 30, 4, 3.0, seed=1)
        manifests = {}
        for name, ds in [("truth", clean), ("no_truth", clean.with_labels(labels=clean.labels, true_labels=None))]:
            path = str(tmp_path / f"{name}.csv")
            save_csv(ds, path)
            dataset = {"csv": {"path": path, "label_column": "label"}}
            config, out = write_config(tmp_path, name, {"dataset": dataset, "noise": {"scene": "realworld"}})
            assert main(["noise", "-c", config]) == 0
            with open(os.path.join(out, "noise_manifest.json"), encoding="utf-8") as fh:
                manifests[name] = json.load(fh)
        assert set(manifests["no_truth"]) == set(manifests["truth"])
        report = ["per_client_ratio", "overall_ratio", "flip_counts", "per_client_eps", "skipped_clients"]
        assert {name: manifests["no_truth"][name] for name in report} == {**dict.fromkeys(report), "skipped_clients": []}

    def test_checkpoint_holds_run_federation_final_params(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        params, header = load_checkpoint(os.path.join(out, "train", "seed_0", "final_checkpoint.bin"))

        cfg = load_config(config, {})
        noisy = load_npy(os.path.join(out, "noisy_dataset.npy")).as_float32()  # as the train stage casts them
        test = load_npy(os.path.join(out, "test_dataset.npy")).as_float32()
        plan = load_plan(os.path.join(out, "plan.json"), len(noisy), cfg.federation.num_clients)
        fed_seed = derive_seed(cfg.seed, "federate", 0)
        fed_cfg = dataclasses.replace(cfg.federation, seed=fed_seed)
        layout = layout_from_dict({**cfg.model, "dim": noisy.dim, "num_classes": noisy.num_classes})
        _, final = run_federation(noisy, plan, test, layout, fed_cfg)

        assert params.layout == final.layout
        assert np.array_equal(params.values, final.values)
        assert (header["round"], header["seed"]) == (cfg.federation.rounds, fed_seed)


# the manifest fields analyze reads from a SMALL run (localized noise, label-dir split); the
# seed manifests, the noise stage's dataset and the noise report are not read, and overall_ratio
# only in the real-world scene
READ_FIELDS = {
    "noise_manifest.json": [
        "stage", "version", "outputs",
        "noise", "noise.scene", "noise.mode", "noise.eps_global", "noise.eps_min", "noise.eps_max",
        "partition", "partition.scheme", "partition.alpha", "partition.c",
    ],
    "train/run_manifest.json": [
        "stage", "version", "inputs", "outputs", "selected_lr",
        "summary", "summary.0.lr", "summary.0.mean_accuracy",
    ],
}  # fmt: skip
WRONG_VALUES = ["x", [1], {"a": 1}, None, True, math.nan]


def _value_at(run_dir: str, rel: str, path: str):
    with open(os.path.join(run_dir, rel), encoding="utf-8") as fh:
        node, last = _holder(json.load(fh), path)
    return node[last]


def _number_paths(node, prefix: str = "") -> list[str]:
    """Dotted paths of the int and float leaves of a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [path for key, child in items for path in _number_paths(child, f"{prefix}{key}.")]
    return [prefix[:-1]] if type(node) in (int, float) else []


def _same_document(before: bytes, after: bytes) -> bool:
    try:
        return json.loads(after) == json.loads(before)
    except ValueError:  # not JSON, or not UTF-8
        return False


@st.composite
def run_mutations(draw):
    """One change to a finished run: (kind, file, detail)."""
    kind = draw(st.sampled_from(["delete", "set", "renumber", "truncate", "flip", "missing"]))
    if kind == "missing":
        return kind, None, None
    if kind in ("delete", "set"):
        rel = draw(st.sampled_from(sorted(READ_FIELDS)))
        return kind, rel, draw(st.sampled_from(READ_FIELDS[rel]))
    files = sorted(READ_FIELDS) + ([] if kind == "renumber" else ["train/summary.csv"])
    return kind, draw(st.sampled_from(files)), draw(st.integers(min_value=0, max_value=10**6))


class TestAnalyze:
    def test_grid_reproduces_hand_built_series(self, tmp_path):
        """analyze over IID and label-dir runs at two eps equals the series of a table typed in from their manifests."""
        splits = [(["--iid"], "iid"), (["--noniid-labeldir", "0.5"], "label-dir(alpha=0.5)")]
        runs, entries = [], {}
        for flags, partition in splits:
            for eps in (0.2, 0.4):
                config, out = write_config(tmp_path, f"run_{len(runs)}", changes=GLOBALIZED)
                assert main(["pipeline", "-c", config, *flags, "--eps-global", repr(eps)]) == 0
                runs.append(out)
                entries[(partition, "globalized/asymmetric", eps)] = selected_accuracy(out)
                assert not os.path.exists(os.path.join(out, "analysis"))
        grid = tmp_path / "grid"
        assert main(["analyze", "--runs", *runs, "--out", str(grid)]) == 0
        assert sorted(os.listdir(grid)) == ["drop_ratio.csv", "sensitivity.csv"]

        mode = "globalized/asymmetric"
        drop = [
            ["label-dir(alpha=0.5)", mode, repr(eps), repr(ratio)]
            for eps, ratio in drop_ratio_series(entries, "label-dir(alpha=0.5)", mode)
        ]
        sens = [
            [partition, mode, repr(eps), repr(s)]
            for _, partition in splits
            for eps, s in sensitivity_series(entries, partition, mode)
        ]
        assert (len(drop), len(sens)) == (2, 2)
        assert read_rows(grid / "drop_ratio.csv") == [["partition", "mode", "eps", "drop_ratio"], *drop]
        assert read_rows(grid / "sensitivity.csv") == [["partition", "mode", "eps", "sensitivity"], *sens]

    def test_runs_whose_eps_differ_by_rounding_give_one_key(self, tmp_path):
        """A localized (0.2, 0.4) run and a (0.3, 0.3) run are one grid point, not two 5.6e-17 apart."""
        runs = []
        for eps_min, eps_max in [("0.2", "0.4"), ("0.3", "0.3")]:
            config, out = write_config(tmp_path, f"eps_{eps_min}_{eps_max}")
            assert main(["pipeline", "-c", config, "--eps-min", eps_min, "--eps-max", eps_max]) == 0
            runs.append(out)
        code, err = analyze(runs, str(tmp_path / "grid"))
        assert code == 1
        key = "(label-dir(alpha=0.5), localized/symmetric, 0.3)"
        assert err == f"error: analyze: {runs[0]} and {runs[1]} both give {key}\n"

    @pytest.mark.parametrize("accuracy", [0.0, 1.0])
    def test_an_accuracy_at_either_end_of_the_range_is_usable(self, tmp_path, finished_small, accuracy):
        run = str(tmp_path / "run")
        shutil.copytree(finished_small, run)
        edit_json(run, "train/run_manifest.json", "summary.0.mean_accuracy", accuracy)
        assert analyze([run], str(tmp_path / "grid")) == (0, "")

    def test_analyze_takes_runs_and_out_only(self):
        args = cli.build_parser().parse_args(["analyze", "--runs", "a", "b", "--out", "grid"])
        assert vars(args) == {"command": "analyze", "runs": ["a", "b"], "out": "grid"}

    @settings(max_examples=100, deadline=None)
    @given(mutation=run_mutations(), value=st.sampled_from(WRONG_VALUES))
    def test_any_broken_run_exits_3_without_traceback(self, finished_small, mutation, value):
        """A deleted key, a wrong type or NaN in a field analyze reads (each resealed), a number
        rewritten without resealing, a truncated or flipped file, or a missing directory: analyze
        prints one artifact-mismatch line and exits 3.

        A flip that leaves the same JSON document (one whitespace byte for another) changes
        nothing a manifest records, so it is not drawn.
        """
        kind, rel, detail = mutation
        with tempfile.TemporaryDirectory() as tmp:
            run = os.path.join(tmp, "run")
            shutil.copytree(finished_small, run)
            if kind == "missing":
                run = os.path.join(tmp, "absent")
            elif kind == "delete":
                edit_json(run, rel, detail)
            elif kind == "set":
                current = _value_at(run, rel, detail)
                assume(type(value) is not type(current) or value != value)  # value != value: NaN
                edit_json(run, rel, detail, value)
            elif kind == "renumber":
                with open(os.path.join(run, rel), encoding="utf-8") as fh:
                    paths = _number_paths(json.load(fh))
                path = paths[detail % len(paths)]
                current = _value_at(run, rel, path)
                edit_json(run, rel, path, current + 1 if type(current) is int else current / 2 or 0.5, seal=False)
            else:
                path = os.path.join(run, rel)
                with open(path, "rb") as fh:
                    before = fh.read()
                data = bytearray(before)
                if kind == "truncate":
                    # without its closing brace (and newline) a manifest is not JSON; summary.csv loses its hash
                    data = data[: detail % (len(data) - 1)]
                else:
                    data[detail % len(data)] ^= 1 + detail % 255
                    assume(not _same_document(before, bytes(data)))
                with open(path, "wb") as fh:
                    fh.write(bytes(data))
            code, err = analyze([run], os.path.join(tmp, "grid"))
        assert code == 3, (mutation, value, err)
        assert err.startswith("artifact mismatch: analyze ") and err.count("\n") == 1
        assert "Traceback" not in err
        if kind == "renumber":
            assert err.endswith(f"{os.path.basename(rel)} does not match its manifest_sha256\n")


def client_counts(out: str) -> str:
    """client_histograms.csv text recounted from the true labels of noisy_dataset.npy over the clients of plan.json."""
    ds = load_npy(os.path.join(out, "noisy_dataset.npy"))
    with open(os.path.join(out, "plan.json"), encoding="utf-8") as fh:
        clients = json.load(fh)["clients"]
    lines = [",".join(["client"] + [f"class_{c}" for c in range(ds.num_classes)])]
    for k, idx in enumerate(clients):
        counts = np.bincount(ds.true_labels[idx], minlength=ds.num_classes)
        lines.append(",".join(str(v) for v in [k, *counts]))
    return "\n".join(lines) + "\n"


class TestSplit:
    """The noise stage is the one writer of the client split; ``partition`` only previews it."""

    def test_globalized_split_survives_partition_reruns(self, tmp_path):
        config, out = write_config(tmp_path, changes=GLOBALIZED)
        for command in ["partition", "noise", "partition", "train"]:
            assert main([command, "-c", config]) == 0, command
        with open(os.path.join(out, "client_histograms.csv"), encoding="utf-8", newline="") as fh:
            assert fh.read() == client_counts(out)

    @pytest.mark.parametrize("changes", [None, GLOBALIZED], ids=["localized", "globalized"])
    def test_partition_prints_the_histograms_noise_writes(self, tmp_path, capsysbinary, changes):
        config, out = write_config(tmp_path, changes=changes)
        assert main(["partition", "-c", config]) == 0
        printed = capsysbinary.readouterr().out
        assert not os.path.exists(out)
        assert main(["noise", "-c", config]) == 0
        with open(os.path.join(out, "client_histograms.csv"), "rb") as fh:
            assert printed == fh.read()

    def test_partition_with_uncovered_asym_map_exits_2(self, tmp_path, capsys):
        noise = {"scene": "globalized", "mode": "asymmetric", "eps_global": 0.3, "asym_map": {"0": 1, "1": 0}}
        config, _ = write_config(tmp_path, changes={"noise": noise})
        assert main(["partition", "-c", config]) == 2
        assert "noise.asym_map" in capsys.readouterr().err


EVERY_FLAG = [
    "--seed", "9",
    "--output-dir", "elsewhere",
    "--repeats", "2",
    "--rounds", "7",
    "--clients", "5",
    "--method", "gce",
    "--lr", "0.03",
    "--lr-grid", "0.01,0.1",
    "--epochs", "3",
    "--batch-size", "16",
    "--scene", "globalized",
    "--mode", "asymmetric",
    "--eps-global", "0.25",
    "--eps-min", "0.1",
    "--eps-max", "0.3",
]  # fmt: skip

EVERY_OVERRIDE = {
    "seed": 9,
    "output_dir": "elsewhere",
    "repeats": 2,
    "federation.rounds": 7,
    "federation.num_clients": 5,
    "federation.trainer.method": "gce",
    "federation.trainer.lr": 0.03,
    "federation.lr_grid": [0.01, 0.1],
    "federation.trainer.epochs": 3,
    "federation.trainer.batch_size": 16,
    "noise.scene": "globalized",
    "noise.mode": "asymmetric",
    "noise.eps_global": 0.25,
    "noise.eps_min": 0.1,
    "noise.eps_max": 0.3,
}


class TestOverrides:
    """The overrides dict each config subcommand builds from its flags, pinned literally."""

    @pytest.mark.parametrize("command", ["partition", "noise", "train", "pipeline"])
    @pytest.mark.parametrize(
        "partition_flag, partition",
        [
            ([], None),
            (["--iid"], {"scheme": "iid"}),
            (["--noniid-labeldir", "0.5"], {"scheme": "label-dir", "alpha": 0.5}),
            (["--noniid-quantity", "2"], {"scheme": "quantity-skew", "alpha": 2.0}),
            (["--noniid-label-count", "3"], {"scheme": "label-quantity", "c": 3}),
            (["--noniid-label-count", "0"], {"scheme": "label-quantity", "c": 0}),
            (["--noniid-labeldir", "0"], {"scheme": "label-dir", "alpha": 0.0}),
        ],
        ids=["none", "iid", "labeldir", "quantity", "label-count", "label-count-zero", "labeldir-zero"],
    )
    def test_every_flag(self, command, partition_flag, partition):
        args = cli.build_parser().parse_args([command, "-c", "cfg.json", *EVERY_FLAG, *partition_flag])
        expected = dict(EVERY_OVERRIDE)
        if partition is not None:
            expected["partition"] = partition
        overrides = cli._overrides_from_args(args)
        assert overrides == expected
        # the JSON text also tells 2 from 2.0, so each value keeps its type
        assert json.dumps(overrides, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_no_flag_overrides_nothing(self):
        for command in ["partition", "noise", "train", "pipeline"]:
            assert cli._overrides_from_args(cli.build_parser().parse_args([command, "-c", "cfg.json"])) == {}

    def test_partition_flags_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args(["noise", "-c", "cfg.json", "--iid", "--noniid-label-count", "3"])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


# SMALL at 300 samples per class over 4 clients and 10 rounds: about 600 local CE batches, so the federation
# forks its workers; on two processes, the caller's share and the worker's come back out of selection order
FORKING = {"dataset.synthetic.per_class": 300, "federation.num_clients": 4, "federation.rounds": 10}


def pipeline_process(config: str, *args: str, one_cpu: bool = False) -> tuple[int, str]:
    """``python -X dev -W error -m noisyfl.cli pipeline -c config *args`` in a session of its own.

    Returns its exit code and stderr, once it has ended and no process of its group (a training worker) is
    left.  ``one_cpu`` pins it to one CPU, where it trains every client in process.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "noisyfl.cli", "pipeline", "-c", config, *args]
    proc = subprocess.Popen(command, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True, preexec_fn=pin)
    try:
        _, err = proc.communicate(timeout=60)  # a worker that never answers fails the test here
        with pytest.raises(ProcessLookupError):  # the run's process group is empty
            os.killpg(proc.pid, 0)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    return proc.returncode, err


class TestForkedPipeline:
    """A pipeline whose clients train in forked workers, run as a command under every warning as an error.

    ``-X dev`` turns on ResourceWarning for unclosed files, and ``-W error`` makes every warning fail the run.
    """

    @pytest.mark.parametrize("method", ["ce", "coteaching"])
    def test_serial_and_parallel_runs_agree(self, tmp_path, method):
        config, _ = write_config(tmp_path, changes=FORKING)
        parallel, serial = tmp_path / "parallel", tmp_path / "serial"
        for out, one_cpu in ((parallel, False), (serial, True)):
            assert pipeline_process(config, "--output-dir", str(out), "--method", method, one_cpu=one_cpu) == (0, "")
        assert (parallel / "run.json").read_bytes() == (serial / "run.json").read_bytes()
        # with two usable CPUs or more the parallel run forks, as its federation is over the threshold
        trainer = SMALL["federation"]["trainer"]
        sizes = np.array([len(c) for c in json.loads((parallel / "plan.json").read_text())["clients"]])
        shard_batches = np.mean(-(-sizes // trainer["batch_size"]))
        batches = FORKING["federation.rounds"] * FORKING["federation.num_clients"] * trainer["epochs"] * shard_batches
        assert batches >= federation.FORK_MIN_BATCHES

    def test_diverging_run_reports_one_line(self, tmp_path):
        config, _ = write_config(tmp_path, changes=FORKING)
        assert pipeline_process(config, "--lr", "1e200") == (4, "numerical abort: non-finite parameters at round 1\n")


def test_tracer_targets_resolve():
    """Every name perfbench/tracer.py wraps exists where the tracer looks it up."""
    with open(os.path.join(ROOT, "perfbench", "tracer.py"), encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    (targets,) = [
        node.value
        for node in module.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    ]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs
    for module_name, dotted in pairs:
        owner = importlib.import_module(module_name)
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{module_name}.{dotted}"
