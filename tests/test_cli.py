"""End-to-end checks of the command line, each through ``main()`` on a seconds-long config."""

import ast
import copy
import csv
import dataclasses
import importlib
import io
import json
import math
import os
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisyfl import cli
from noisyfl import noise as noise_module
from noisyfl.analysis import AccuracyTable, drop_ratio_series, sensitivity_series
from noisyfl.cli import main
from noisyfl.config import load_config, set_by_path
from noisyfl.datasets import load_csv, load_npy, save_csv
from noisyfl.federation import run_federation
from noisyfl.localtrain import METHODS
from noisyfl.models import load_checkpoint
from noisyfl.noise import run_scene
from noisyfl.partition import load_plan
from noisyfl.rng import derive_seed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def manifests(root: str) -> list[str]:
    return sorted(rel for rel in tree(root) if rel.endswith("manifest.json"))


DELETE = object()


def _holder(doc, path: str):
    """(container, key) of the dotted ``path`` in a JSON document; digits index lists."""
    *parents, last = path.split(".")
    for part in parents:
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc, last


def edit_json(run_dir: str, rel: str, path: str, value=DELETE) -> None:
    """Set, or delete, the value at the dotted ``path`` of a JSON file."""
    file = os.path.join(run_dir, rel)
    with open(file, encoding="utf-8") as fh:
        doc = json.load(fh)
    node, last = _holder(doc, path)
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    with open(file, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)


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


class TestDeterminism:
    def test_two_directories_give_identical_run_json(self, tmp_path):
        cfg_a, out_a = write_config(tmp_path, "a")
        cfg_b, out_b = write_config(tmp_path, "b")
        assert main(["pipeline", "-c", cfg_a]) == 0
        assert main(["pipeline", "-c", cfg_b]) == 0
        assert tree(out_a) == tree(out_b)
        with open(os.path.join(out_a, "run.json"), "rb") as fh:
            run = json.loads(fh.read())
        assert set(run["artifacts"]) | {"run.json"} == {rel.replace(os.sep, "/") for rel in tree(out_a)}
        assert set(run) == {"version", "config_digest", "seed", "artifacts"}
        assert "partition_manifest.json" not in run["artifacts"]
        assert [rel for rel in run["artifacts"] if rel.startswith("analysis/") or rel == "noise_ratio.csv"] == []

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

        def refuse(*args, **kwargs):
            raise AssertionError("a finished stage ran again")

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
        assert len(manifests(out)) == 4
        for rel in manifests(out):
            path = os.path.join(out, rel)
            with open(path, "r+b") as fh:
                fh.truncate(len(expected[rel]) // 2)
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

    def test_csv_era_directory_is_redone(self, tmp_path, monkeypatch):
        """A directory the CSV-intermediate version wrote reruns into the tree of a fresh run."""
        config, out = write_config(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "__version__", "0.1.0")
            patch.setattr(cli, "save_npy", save_csv)
            patch.setattr(cli, "load_npy", lambda path: load_csv(path, "label"))
            assert main(["pipeline", "-c", config]) == 0
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
        assert tree(out) == tree(fresh)

    def test_version_0_4_directory_is_redone(self, tmp_path, monkeypatch):
        """A 0.4.0 tree, whose noise manifest records no partition, reruns every stage and then analyzes.

        The analysis/ files 0.4.0 wrote belong to no stage, so they stay and run.json indexes them.
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
        # every manifest now says 0.5.0 and equals a fresh run's, so every stage ran again
        kept = {rel: data for rel, data in redone.items() if rel not in leftovers and rel != "run.json"}
        assert kept == {rel: data for rel, data in expected.items() if rel != "run.json"}
        indexed = json.loads(redone["run.json"])["artifacts"]
        assert set(indexed) == set(json.loads(expected["run.json"])["artifacts"]) | {
            rel.replace(os.sep, "/") for rel in leftovers
        }
        assert analyze([out], str(tmp_path / "grid"))[0] == 0


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
        ],
    )
    def test_malformed_training_value_exits_2(self, tmp_path, capsys, changes, field):
        config, _ = write_config(tmp_path, changes=changes)
        assert main(["pipeline", "-c", config]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("pipeline", ["--noniid-label-count", "9"]),
            ("pipeline", ["--clients", "500", "--iid"]),
            ("pipeline", ["--clients", "500", "--noniid-labeldir", "0.5"]),
            ("pipeline", ["--clients", "2", "--noniid-label-count", "2"]),
            ("pipeline", ["--clients", "40", "--noniid-labeldir", "0.0001"]),
            ("partition", ["--noniid-label-count", "9"]),
            ("partition", ["--clients", "500", "--iid"]),
            ("partition", ["--clients", "500", "--noniid-quantity", "1.0"]),
            ("partition", ["--clients", "2", "--noniid-label-count", "2"]),
        ],
        ids=[
            "c-above-classes",
            "clients-above-samples",
            "labeldir-clients-above-samples",
            "classes-uncovered",
            "redraws-exhausted",  # 2000 redraws take about 1.5 s, so only through one command
            "partition-c-above-classes",
            "partition-clients-above-samples",
            "partition-quantity-clients-above-samples",
            "partition-classes-uncovered",
        ],
    )
    def test_partition_that_cannot_be_built_exits_2(self, tmp_path, capsys, command, flags):
        # 5 classes of 20 samples: N = 100, C = 5
        config, _ = write_config(tmp_path, changes={"dataset.synthetic.num_classes": 5, "dataset.synthetic.per_class": 20})
        assert main([command, "-c", config, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: partition: ")
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
            ("noise_manifest.json", "eps_min", math.nan),
            ("noise_manifest.json", "eps_max", math.inf),
            # a bool passes every range check of a number, and a stray c is not read by label-dir
            ("train/run_manifest.json", "summary.0.mean_accuracy", True),
            ("noise_manifest.json", "partition.alpha", True),
            ("noise_manifest.json", "partition.c", "x"),
        ],
        ids=[
            "accuracy-above-1",
            "negative-accuracy",
            "nan-accuracy",
            "inf-accuracy",
            "nan-eps",
            "inf-eps",
            "bool-accuracy",
            "bool-alpha",
            "string-c",
        ],
    )
    def test_unusable_run_exits_3(self, tmp_path, finished_small, rel, path, value):
        run = str(tmp_path / "run")
        shutil.copytree(finished_small, run)
        edit_json(run, rel, path, value)
        code, err = analyze([run], str(tmp_path / "grid"))
        assert code == 3
        assert err.startswith(f"artifact mismatch: analyze {run}: ") and err.count("\n") == 1

    def test_config_that_is_not_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": ', encoding="utf-8")
        assert main(["pipeline", "-c", str(path)]) == 2

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
        ds = load_npy(os.path.join(out, "dataset.npy"))
        _, _, report = run_scene(ds, cfg.noise, cfg.federation.num_clients, cfg.partition)
        spec = {
            "scene": cfg.noise.scene,
            "mode": cfg.noise.mode,
            "eps_global": cfg.noise.eps_global,
            "eps_min": cfg.noise.eps_min,
            "eps_max": cfg.noise.eps_max,
            "seed": cfg.noise.seed,
            "partition": {"scheme": "label-dir", "alpha": 0.5, "c": None},
        }
        runner_keys = {"stage", "version", "config_digest", "inputs", "outputs"}
        assert set(manifest) == runner_keys | set(spec) | set(report.to_dict())
        assert {k: manifest[k] for k in spec} == spec
        assert {k: manifest[k] for k in report.to_dict()} == report.to_dict()
        assert manifest["stage"] == "noise"
        assert set(manifest["outputs"]) == {"plan.json", "client_histograms.csv", "noisy_dataset.npy"}

    def test_checkpoint_holds_run_federation_final_params(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["pipeline", "-c", config]) == 0
        params, header = load_checkpoint(os.path.join(out, "train", "seed_0", "final_checkpoint.bin"))

        cfg = load_config(config, {})
        noisy = load_npy(os.path.join(out, "noisy_dataset.npy"))
        test = load_npy(os.path.join(out, "test_dataset.npy"))
        plan = load_plan(os.path.join(out, "plan.json"))
        fed_seed = derive_seed(cfg.seed, "federate", 0)
        fed_cfg = dataclasses.replace(cfg.federation, seed=fed_seed)
        result = run_federation(noisy, plan, test, cfg.layout_for(noisy.dim, noisy.num_classes), fed_cfg)

        assert params.layout == result.params.layout
        assert np.array_equal(params.values, result.params.values)
        assert (header["round"], header["seed"]) == (cfg.federation.rounds, fed_seed)


# the manifest fields analyze reads from a SMALL run (localized noise, label-dir split); the
# seed manifests and the noise report are not read, and overall_ratio only in the real-world scene
READ_FIELDS = {
    "dataset_manifest.json": ["version", "config_digest", "outputs"],
    "noise_manifest.json": [
        "version", "config_digest", "outputs", "scene", "mode", "eps_global", "eps_min", "eps_max",
        "partition", "partition.scheme", "partition.alpha", "partition.c",
    ],
    "train/run_manifest.json": [
        "stage", "version", "config_digest", "inputs", "outputs", "selected_lr",
        "summary", "summary.0.lr", "summary.0.mean_accuracy",
    ],
}  # fmt: skip
WRONG_VALUES = ["x", [1], {"a": 1}, None, True, math.nan]


def _value_at(run_dir: str, rel: str, path: str):
    with open(os.path.join(run_dir, rel), encoding="utf-8") as fh:
        node, last = _holder(json.load(fh), path)
    return node[last]


@st.composite
def run_mutations(draw):
    """One change to a finished run: (kind, file, detail)."""
    kind = draw(st.sampled_from(["delete", "set", "truncate", "flip", "missing"]))
    if kind == "missing":
        return kind, None, None
    if kind in ("delete", "set"):
        rel = draw(st.sampled_from(sorted(READ_FIELDS)))
        return kind, rel, draw(st.sampled_from(READ_FIELDS[rel]))
    rel = draw(st.sampled_from(sorted(READ_FIELDS) + ["train/summary.csv"]))
    return kind, rel, draw(st.integers(min_value=0, max_value=10**6))


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

        table = AccuracyTable(entries=entries)
        mode = "globalized/asymmetric"
        drop = [
            ["label-dir(alpha=0.5)", mode, repr(eps), repr(ratio)]
            for eps, ratio in drop_ratio_series(table, mode, "label-dir(alpha=0.5)")
        ]
        sens = [
            [partition, mode, repr(eps), repr(s)]
            for _, partition in splits
            for eps, s in sensitivity_series(table, partition, mode)
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

    def test_analyze_takes_runs_and_out_only(self):
        args = cli.build_parser().parse_args(["analyze", "--runs", "a", "b", "--out", "grid"])
        assert vars(args) == {"command": "analyze", "runs": ["a", "b"], "out": "grid"}

    @settings(max_examples=100, deadline=None)
    @given(mutation=run_mutations(), value=st.sampled_from(WRONG_VALUES))
    def test_any_broken_run_exits_3_without_traceback(self, finished_small, mutation, value):
        """A deleted key, a wrong type or NaN in a field analyze reads, a truncated or flipped file,
        or a missing directory: analyze prints one artifact-mismatch line and exits 3.

        A flipped manifest byte gets its high bit set, which no ASCII JSON file holds: a flip that
        leaves valid JSON with another value cannot be told apart without a hash of the manifest itself.
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
            else:
                path = os.path.join(run, rel)
                with open(path, "rb") as fh:
                    data = bytearray(fh.read())
                if kind == "truncate":
                    # without its closing brace (and newline) a manifest is not JSON; summary.csv loses its hash
                    data = data[: detail % (len(data) - 1)]
                else:
                    at = detail % len(data)
                    data[at] ^= 0x80 if rel.endswith(".json") else 1 + detail % 255
                with open(path, "wb") as fh:
                    fh.write(bytes(data))
            code, err = analyze([run], os.path.join(tmp, "grid"))
        assert code == 3, (mutation, value, err)
        assert err.startswith("artifact mismatch: analyze ") and err.count("\n") == 1
        assert "Traceback" not in err


def client_counts(out: str) -> str:
    """client_histograms.csv text recounted from dataset.npy over the clients of plan.json."""
    ds = load_npy(os.path.join(out, "dataset.npy"))
    plan = load_plan(os.path.join(out, "plan.json"))
    lines = [",".join(["client"] + [f"class_{c}" for c in range(ds.num_classes)])]
    for k, idx in enumerate(plan.clients):
        counts = np.bincount(ds.labels[idx], minlength=ds.num_classes)
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
        assert not os.path.exists(os.path.join(out, "plan.json"))
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
