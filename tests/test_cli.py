"""End-to-end checks of the command line, each through ``main()`` on a seconds-long config."""

import ast
import copy
import csv
import dataclasses
import importlib
import json
import os

import numpy as np
import pytest

from noisyfl import cli
from noisyfl import noise as noise_module
from noisyfl.cli import main
from noisyfl.config import load_config, set_by_path
from noisyfl.datasets import load_csv, load_npy, save_csv
from noisyfl.federation import run_federation
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
        assert run["stages"] == ["noise", "train", "analyze"]
        assert "partition_manifest.json" not in run["artifacts"]

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
        ],
    )
    def test_malformed_training_value_exits_2(self, tmp_path, capsys, changes, field):
        config, _ = write_config(tmp_path, changes=changes)
        assert main(["pipeline", "-c", config]) == 2
        assert field in capsys.readouterr().err

    def test_config_that_is_not_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": ', encoding="utf-8")
        assert main(["pipeline", "-c", str(path)]) == 2


class TestArtifacts:
    def test_noise_manifest_equals_run_scene_report(self, tmp_path):
        config, out = write_config(tmp_path)
        assert main(["noise", "-c", config]) == 0
        with open(os.path.join(out, "noise_manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        cfg = load_config(config)
        ds = load_npy(os.path.join(out, "dataset.npy"))
        _, _, report = run_scene(ds, cfg.noise, cfg.federation.num_clients, cfg.partition)
        spec = {
            "scene": cfg.noise.scene,
            "mode": cfg.noise.mode,
            "eps_global": cfg.noise.eps_global,
            "eps_min": cfg.noise.eps_min,
            "eps_max": cfg.noise.eps_max,
            "seed": cfg.noise.seed,
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

        cfg = load_config(config)
        noisy = load_npy(os.path.join(out, "noisy_dataset.npy"))
        test = load_npy(os.path.join(out, "test_dataset.npy"))
        plan = load_plan(os.path.join(out, "plan.json"))
        fed_seed = derive_seed(cfg.seed, "federate", 0)
        fed_cfg = dataclasses.replace(cfg.federation, seed=fed_seed)
        result = run_federation(noisy, plan, test, cfg.layout_for(noisy.dim, noisy.num_classes), fed_cfg)

        assert params.layout == result.params.layout
        assert np.array_equal(params.values, result.params.values)
        assert (header["round"], header["seed"]) == (cfg.federation.rounds, fed_seed)


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
