"""Config-driven command line: dataset -> noise -> train, then analyze over finished runs.

Every stage goes through :func:`run_stage`, the one place that decides
whether a stage runs, writes its artifacts, hashes them and writes its
manifest.

- Manifest keys: ``stage``, ``version``, ``config_digest`` (sha256 of the
  config without its output directory), ``inputs`` and ``outputs`` (file
  name -> sha256), plus the stage's own fields: the noise spec, the
  partition spec and the noise report, a train seed's ``seed``, ``lr`` and last-k accuracy, the selected lr.
  A stage's inputs are the verified outputs of the stages before it.
- Skip rule: a stage is skipped when its manifest records the same stage,
  version, config digest, input hashes (and a train seed's ``seed`` and
  ``lr``) and every recorded output still hashes as recorded.  A missing
  or unparseable manifest counts as absent, so the stage runs again.
- Atomic writes: each output is written to ``<name>.tmp`` and moved into
  place with ``os.replace``; the manifest is written last, the same way,
  so a killed run leaves only finished stages behind.

The dataset stage writes dataset.npy (and test_dataset.npy).  The noise
stage runs the configured scene once and is the one writer of the client
split: plan.json, client_histograms.csv and noisy_dataset.npy for train.
``partition`` only prints the histograms of that split.  The
intermediates use :func:`~noisyfl.datasets.save_npy`; CSV is only the
import format of user datasets.  All output bytes are a pure function of
the config and master seed: JSON is dumped with sorted keys, CSVs use
fixed formatting, and no timestamps or absolute paths are recorded.

``analyze`` is no stage: it reads finished run directories, one
accuracy-table entry each, and writes the paper's drop-ratio and
sensitivity series over them.  Its key for a run is (partition with its
parameter, scene/mode, nominal noise ratio); its accuracy is the mean
last-k accuracy of the selected lr.

Exit codes: 0 success, 2 config validation, 3 artifact mismatch,
4 numerical abort, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, rng
from .analysis import (
    AccuracyTable,
    drop_ratio_series,
    last_k_average,
    sensitivity_series,
)
from .config import RunConfig, load_config
from .datasets import class_histogram, load_npy, save_npy
from .datasets import load_csv, save_csv  # noqa: F401  unused here; perfbench/tracer.py wraps them at this name
from .partition import make_partition  # noqa: F401  unused here; perfbench/tracer.py wraps it at this name
from .errors import (
    ArtifactMismatchError,
    ConfigError,
    CoverageInfeasibleError,
    DegeneratePartitionError,
    NoisyFLError,
    NumericalAbortError,
)
from .federation import run_federation, write_telemetry
from .localtrain import COTEACHING_DEFAULT_FORGET_RATE
from .models import save_checkpoint
from .noise import SCENE_GLOBALIZED, SCENE_LOCALIZED, SCENE_REALWORLD, NoiseSpec, asymmetric_matrix, run_scene
from .partition import PartitionSpec, load_plan, save_plan

SUMMARY_LAST_K = 10
SUMMARY_HEADER = ["lr", "repeats", "last_k", "mean_accuracy", "std_accuracy", "formatted"]
TMP_SUFFIX = ".tmp"


# ---------------------------------------------------------------- artifact I/O

def sha256_file(path: str) -> str:
    """The file's sha256, read through one 1 MiB buffer that every chunk reuses."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 20)
    view = memoryview(buffer)
    with open(path, "rb") as fh:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return "sha256:" + digest.hexdigest()


def write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def print_csv(header: list[str], rows: list[list], fh=None) -> None:
    writer = csv.writer(fh or sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_csv(header: list[str], rows: list[list], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        print_csv(header, rows, fh)


def write_atomic(path: str, write) -> None:
    """Call ``write(<path>.tmp)``, then move the result into place; ``path`` is never half-written."""
    tmp = path + TMP_SUFFIX
    write(tmp)
    os.replace(tmp, path)


def config_digest(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.canonical_dict(), sort_keys=True).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------- stage runner

def _read_manifest(path: str) -> dict | None:
    try:
        doc = read_json(path)
    except (OSError, ValueError):  # missing, truncated or not UTF-8
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("outputs"), dict):
        return None
    return doc


def _finished(base_dir: str, manifest: str, key: dict) -> tuple[dict | None, str]:
    """(manifest, "") if it records ``key`` and intact outputs, else (None, why not)."""
    doc = _read_manifest(os.path.join(base_dir, manifest))
    if doc is None:
        return None, f"{manifest} is missing or unreadable"
    for field, value in key.items():
        if doc.get(field) != value:
            return None, f"{manifest} records a different {field}"
    for rel, recorded in doc["outputs"].items():
        path = os.path.join(base_dir, rel)
        if not os.path.isfile(path) or sha256_file(path) != recorded:
            return None, f"artifact {rel} does not match the hash in {manifest}"
    return doc, ""


def run_stage(stage: str, base_dir: str, manifest: str, key: dict, produce) -> dict:
    """Run one stage unless ``manifest`` shows it finished under ``key``; return the manifest.

    ``key`` holds ``config_digest`` and ``inputs`` (name -> sha256), plus
    whatever else tells runs of the stage apart.  ``produce()`` returns
    ``(fields, writers)``: extra manifest fields, and one ``writer(path)``
    per output file, named relative to ``base_dir``.  Outputs that an
    earlier run of the stage recorded and this run does not write (say,
    files of an older format) are removed once the new manifest is in place.
    """
    key = {"stage": stage, "version": __version__, **key}
    done, _ = _finished(base_dir, manifest, key)
    if done is not None:
        return done
    previous = _read_manifest(os.path.join(base_dir, manifest))
    fields, writers = produce()
    outputs = {}
    for rel, write in writers.items():
        path = os.path.join(base_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, write)
        outputs[rel] = sha256_file(path)
    doc = {**fields, **key, "outputs": outputs}
    write_atomic(os.path.join(base_dir, manifest), functools.partial(write_json, doc))
    root = os.path.abspath(base_dir)
    for rel in set((previous or {}).get("outputs", {})) - set(outputs):
        stale = os.path.abspath(os.path.join(root, rel))
        if os.path.commonpath([root, stale]) == root and os.path.isfile(stale):
            os.remove(stale)
    return doc


def require_stage(base_dir: str, manifest: str, digest: str, consumer: str, needs: tuple[str, ...]) -> dict:
    """Manifest of an upstream stage that finished under ``digest`` with intact ``needs`` outputs."""
    doc, why = _finished(base_dir, manifest, {"version": __version__, "config_digest": digest})
    if doc is None:
        raise ArtifactMismatchError(f"{consumer}: {why}; run the stage that writes it first")
    missing = [name for name in needs if name not in doc["outputs"]]
    if missing:
        raise ArtifactMismatchError(f"{consumer}: {manifest} records no {', '.join(missing)}")
    return doc


# ---------------------------------------------------------------- stages

def _dataset_stage(cfg: RunConfig) -> dict:
    """Materialize dataset.npy (+ test_dataset.npy) for the stages that build on it."""
    params = cfg.dataset.params
    sources = {}
    if cfg.dataset.source == "csv":
        sources = {field: sha256_file(params[field]) for field in ("path", "test_path") if params.get(field)}

    def produce():
        train, test = cfg.dataset.materialize()
        writers = {"dataset.npy": functools.partial(save_npy, train)}
        if test is not None:
            writers["test_dataset.npy"] = functools.partial(save_npy, test)
        return {}, writers

    key = {"config_digest": config_digest(cfg), "inputs": sources}
    return run_stage("dataset", cfg.output_dir, "dataset_manifest.json", key, produce)


def _split(cfg: RunConfig):
    """Run the configured scene on dataset.npy: (dataset, plan, noisy dataset, report).

    The one computation of the client split.  Globalized noise partitions
    the corrupted data, every other scene the data as it is.
    """
    ds = load_npy(os.path.join(cfg.output_dir, "dataset.npy"))
    spec = cfg.noise
    if spec.asym_map is not None:  # only the dataset tells which classes the map must cover
        try:
            asymmetric_matrix(ds.num_classes, 0.0, spec.asym_map)
        except ValueError as exc:
            raise ConfigError("noise.asym_map", str(exc)) from None
    try:
        plan, noisy, report = run_scene(ds, spec, cfg.federation.num_clients, cfg.partition)
    except (CoverageInfeasibleError, DegeneratePartitionError) as exc:  # only the partition schemes raise these
        raise ConfigError("partition", str(exc)) from None
    return ds, plan, noisy, report


def _histograms(ds, plan) -> tuple[list[str], list[list]]:
    """Header and rows of client_histograms.csv: per-client counts of the dataset's labels."""
    header = ["client"] + [f"class_{i}" for i in range(ds.num_classes)]
    return header, [[k] + class_histogram(ds, idx).tolist() for k, idx in enumerate(plan.clients)]


def cmd_partition(cfg: RunConfig) -> None:
    """Print client_histograms.csv of the split the noise stage writes; writes no plan."""
    _dataset_stage(cfg)
    ds, plan, _, _ = _split(cfg)
    print_csv(*_histograms(ds, plan))


def cmd_noise(cfg: RunConfig) -> None:
    """Run the configured noise scene; write the plan, its histograms and the noisy dataset."""
    data = _dataset_stage(cfg)

    def produce():
        ds, plan, noisy, report = _split(cfg)
        fields = {name: value for name, value in dataclasses.asdict(cfg.noise).items() if name != "asym_map"}
        fields["partition"] = dataclasses.asdict(cfg.partition)
        if report is None:  # real-world data without ground truth
            fields.update(dict.fromkeys(["per_client_eps", "per_client_ratio", "overall_ratio", "flip_counts"]))
            fields["skipped_clients"] = []
        else:
            fields.update(report.to_dict())
        return fields, {
            "plan.json": functools.partial(save_plan, plan),
            "client_histograms.csv": functools.partial(write_csv, *_histograms(ds, plan)),
            "noisy_dataset.npy": functools.partial(save_npy, noisy),
        }

    key = {"config_digest": config_digest(cfg), "inputs": {"dataset.npy": data["outputs"]["dataset.npy"]}}
    run_stage("noise", cfg.output_dir, "noise_manifest.json", key, produce)


def _noise_ratio_estimate(manifest: dict) -> float:
    scene = manifest["scene"]
    if scene == SCENE_GLOBALIZED:
        return float(manifest["eps_global"])
    if scene == SCENE_LOCALIZED:
        return 0.5 * (float(manifest["eps_min"]) + float(manifest["eps_max"]))
    if scene == SCENE_REALWORLD and manifest.get("overall_ratio") is not None:
        return float(manifest["overall_ratio"])
    return 0.0


def _train_inputs(out: str, digest: str, consumer: str) -> tuple[dict, dict]:
    """The noise manifest under ``digest``, and the verified input hashes of the train stage."""
    noise = require_stage(out, "noise_manifest.json", digest, consumer, ("noisy_dataset.npy", "plan.json"))
    data = require_stage(out, "dataset_manifest.json", digest, consumer, ("test_dataset.npy",))
    inputs = {name: noise["outputs"][name] for name in ("noisy_dataset.npy", "plan.json")}
    inputs["test_dataset.npy"] = data["outputs"]["test_dataset.npy"]
    return noise, inputs


def _train_seed(cfg: RunConfig, lr: float, fed_seed: int, load_inputs) -> tuple[dict, dict]:
    """One federation repeat: its last-k accuracy plus writers for telemetry and checkpoint."""
    noisy, plan, test = load_inputs()
    layout = cfg.layout_for(noisy.dim, noisy.num_classes)
    trainer = dataclasses.replace(cfg.federation.trainer, lr=lr)
    fed_cfg = dataclasses.replace(cfg.federation, trainer=trainer, seed=fed_seed)
    result = run_federation(noisy, plan, test, layout, fed_cfg)
    last_k = min(SUMMARY_LAST_K, sum(1 for r in result.records if r.test_accuracy is not None))
    fields = {"last_k": last_k, "last_k_accuracy": last_k_average(result.records, last_k)}
    return fields, {
        "telemetry.csv": functools.partial(write_telemetry, result.records),
        "final_checkpoint.bin": lambda path: save_checkpoint(result.params, path, round_t=fed_cfg.rounds, seed=fed_seed),
    }


def cmd_train(cfg: RunConfig) -> None:
    """Run `repeats` federations per learning rate; summarize last-k accuracy.

    Builds on the verified outputs of the dataset and noise stages.  Each
    repeat is a stage of its own, so an interrupted sweep resumes at the
    first repeat that did not finish.
    """
    if cfg.dataset.source == "csv" and not cfg.dataset.params.get("test_path"):
        raise ConfigError("dataset", "train stage requires a clean test set (test_per_class or test_path)")
    out = cfg.output_dir
    digest = config_digest(cfg)
    noise, inputs = _train_inputs(out, digest, "train")
    key = {"config_digest": digest, "inputs": inputs}

    @functools.cache
    def load_inputs():
        return (
            load_npy(os.path.join(out, "noisy_dataset.npy")),
            load_plan(os.path.join(out, "plan.json")),
            load_npy(os.path.join(out, "test_dataset.npy")),
        )

    trainer = cfg.federation.trainer
    if trainer.method == "coteaching" and "forget_rate" not in trainer.method_params:
        estimate = _noise_ratio_estimate(noise)
        params = dict(trainer.method_params)
        params["forget_rate"] = estimate if estimate > 0 else COTEACHING_DEFAULT_FORGET_RATE
        try:
            trainer = dataclasses.replace(trainer, method_params=params)
        except ValueError as exc:
            raise ConfigError(
                "federation.trainer.method_params.forget_rate",
                f"not set, and the noise-ratio estimate {estimate!r} is out of range ({exc})",
            ) from None
        cfg = dataclasses.replace(cfg, federation=dataclasses.replace(cfg.federation, trainer=trainer))

    train_root = os.path.join(out, "train")
    sweep = cfg.lr_grid is not None
    rows, summary, writers = [], [], {}
    for lr in cfg.lr_grid or (trainer.lr,):
        lr_dir = f"lr_{lr!r}" if sweep else ""
        seeds = []
        for i in range(cfg.repeats):
            fed_seed = rng.derive_seed(cfg.seed, "federate", i)
            seeds.append(
                run_stage(
                    "train-seed",
                    os.path.join(train_root, lr_dir, f"seed_{i}"),
                    "seed_manifest.json",
                    {**key, "seed": fed_seed, "lr": lr},
                    functools.partial(_train_seed, cfg, lr, fed_seed, load_inputs),
                )
            )
        accs = [s["last_k_accuracy"] for s in seeds]
        mean, std = float(np.mean(accs)), float(np.std(accs))
        # every repeat averages the same evaluated rounds
        row = [repr(lr), cfg.repeats, seeds[0]["last_k"], repr(mean), repr(std), f"{mean:.4f} ± {std:.4f}"]
        rows.append(row)
        summary.append({"lr": lr, "mean_accuracy": mean, "std_accuracy": std})
        if sweep:
            writers[f"{lr_dir}/summary.csv"] = functools.partial(write_csv, SUMMARY_HEADER, [row])
    writers["summary.csv"] = functools.partial(write_csv, SUMMARY_HEADER, rows)

    # grid sweeps select the lr with the best mean last-k accuracy
    best = max(summary, key=lambda r: r["mean_accuracy"])
    fields = {"selected_lr": best["lr"], "summary": summary}
    run_stage("train", train_root, "run_manifest.json", key, lambda: (fields, writers))


def _run_entry(run_dir: str) -> tuple[tuple[str, str, float], float]:
    """One finished run as an accuracy-table entry: ((partition, scene/mode, nominal eps), accuracy).

    The train manifest must be of this version, and the dataset and noise
    manifests must record its config digest and the inputs it trained on.
    The accuracy is the mean last-k accuracy of the selected lr.
    """
    where = f"analyze {run_dir}"
    train_key = {"stage": "train", "version": __version__}
    train, why = _finished(os.path.join(run_dir, "train"), "run_manifest.json", train_key)
    if train is None:
        raise ArtifactMismatchError(f"{where}: {why}")
    noise, inputs = _train_inputs(run_dir, train.get("config_digest"), where)
    if train.get("inputs") != inputs:
        raise ArtifactMismatchError(f"{where}: run_manifest.json records other inputs than the noise stage wrote")
    try:
        spec = PartitionSpec(**{f.name: noise["partition"][f.name] for f in dataclasses.fields(PartitionSpec)})
        NoiseSpec(**{name: noise[name] for name in ("scene", "mode", "eps_global", "eps_min", "eps_max")})
        (accuracy,) = [row["mean_accuracy"] for row in train["summary"] if row["lr"] == train["selected_lr"]]
        typed = [(accuracy, float), (spec.alpha, float), (spec.c, int)]
        typed += [(noise[name], float) for name in ("eps_global", "eps_min", "eps_max", "overall_ratio")]
        if any(value is not None and (type(value) is not kind or not math.isfinite(value)) for value, kind in typed):
            raise ValueError("a recorded number is not finite or not of its type")
        param = {scheme: param for _, _, _, scheme, param, _ in PARTITION_FLAGS}[spec.scheme]
        partition = spec.scheme if param is None else f"{spec.scheme}({param}={getattr(spec, param)!r})"
        # eps to 9 decimals, so that a localized (0.2, 0.4) run's midpoint 0.30000000000000004 is the grid point 0.3
        key = (partition, f"{noise['scene']}/{noise['mode']}", round(_noise_ratio_estimate(noise), 9))
        AccuracyTable(entries={key: accuracy})  # its own check: a fraction in [0, 1]
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactMismatchError(f"{where}: unusable manifest field ({exc})") from None
    return key, accuracy


def cmd_analyze(run_dirs: list[str], out_dir: str) -> None:
    """Write drop_ratio.csv and sensitivity.csv over the accuracies of finished runs."""
    entries, owners = {}, {}
    for run_dir in run_dirs:
        key, accuracy = _run_entry(run_dir)
        if key in owners:
            raise NoisyFLError(f"analyze: {owners[key]} and {run_dir} both give ({key[0]}, {key[1]}, {key[2]!r})")
        entries[key], owners[key] = accuracy, run_dir
    table = AccuracyTable(entries=entries)

    drop_rows: list[list] = []
    sens_rows: list[list] = []
    partitions = sorted({p for (p, _, _) in table.entries})
    modes = sorted({m for (_, m, _) in table.entries})
    for mode in modes:
        for part in partitions:
            if part == "iid":
                continue
            for eps, ratio in drop_ratio_series(table, mode, part):
                drop_rows.append([part, mode, repr(eps), repr(ratio)])
    for mode in modes:
        for part in partitions:
            for eps, s in sensitivity_series(table, part, mode):
                sens_rows.append([part, mode, repr(eps), repr(s)])

    os.makedirs(out_dir, exist_ok=True)
    for name, header, rows in [
        ("drop_ratio.csv", ["partition", "mode", "eps", "drop_ratio"], drop_rows),
        ("sensitivity.csv", ["partition", "mode", "eps", "sensitivity"], sens_rows),
    ]:
        write_atomic(os.path.join(out_dir, name), functools.partial(write_csv, header, rows))


def cmd_pipeline(cfg: RunConfig) -> None:
    """Run dataset, noise and train, then index the output tree in run.json."""
    cmd_noise(cfg)
    cmd_train(cfg)

    artifacts = {}
    for root, _, files in os.walk(cfg.output_dir):
        for name in sorted(files):
            path = os.path.join(root, name)
            rel = os.path.relpath(path, cfg.output_dir)
            if rel in ("run.json", "run.json" + TMP_SUFFIX):
                continue
            artifacts[rel.replace(os.sep, "/")] = sha256_file(path)
    doc = {
        "version": __version__,
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "artifacts": artifacts,
    }
    write_atomic(os.path.join(cfg.output_dir, "run.json"), functools.partial(write_json, doc))


# ---------------------------------------------------------------- argparse

def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


# (flag, type, config path it overrides, help); a type of None keeps the text as given
OVERRIDES = [
    ("--seed", int, "seed", "master seed override"),
    ("--output-dir", None, "output_dir", "output directory override"),
    ("--repeats", int, "repeats", "number of repeated seeds"),
    ("--rounds", int, "federation.rounds", "communication rounds T"),
    ("--clients", int, "federation.num_clients", "client count K"),
    ("--method", None, "federation.trainer.method", "local training method"),
    ("--lr", float, "federation.trainer.lr", "learning rate"),
    ("--lr-grid", _float_list, "federation.lr_grid", "comma-separated learning-rate sweep"),
    ("--epochs", int, "federation.trainer.epochs", "local epochs E"),
    ("--batch-size", int, "federation.trainer.batch_size", "local batch size"),
    ("--scene", None, "noise.scene", "noise scene"),
    ("--mode", None, "noise.mode", "noise mode (symmetric/asymmetric/none)"),
    ("--eps-global", float, "noise.eps_global", "globalized noise ratio"),
    ("--eps-min", float, "noise.eps_min", "localized noise ratio lower bound"),
    ("--eps-max", float, "noise.eps_max", "localized noise ratio upper bound"),
]

# (flag, type, metavar, scheme, the scheme's parameter, help); they exclude each other,
# and the one given replaces the config's whole partition section
PARTITION_FLAGS = [
    ("--iid", None, None, "iid", None, "IID partition"),
    ("--noniid-labeldir", float, "ALPHA", "label-dir", "alpha", "Dirichlet label skew"),
    ("--noniid-quantity", float, "ALPHA", "quantity-skew", "alpha", "quantity skew"),
    ("--noniid-label-count", int, "C", "label-quantity", "c", "label-quantity skew (classes per client)"),
]


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag`` under."""
    return flag[2:].replace("-", "_")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="path to the run config JSON")
    for flag, kind, _, help_text in OVERRIDES:
        parser.add_argument(flag, type=kind, help=help_text)
    group = parser.add_mutually_exclusive_group()
    for flag, kind, metavar, _, _, help_text in PARTITION_FLAGS:
        if kind is None:
            group.add_argument(flag, action="store_true", default=None, help=help_text)
        else:
            group.add_argument(flag, type=kind, metavar=metavar, help=help_text)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    for flag, _, dotted, _ in OVERRIDES:
        value = getattr(args, _dest(flag), None)
        if value is not None:
            overrides[dotted] = value
    for flag, _, _, scheme, param, _ in PARTITION_FLAGS:
        value = getattr(args, _dest(flag), None)
        if value is not None:
            overrides["partition"] = {"scheme": scheme} if param is None else {"scheme": scheme, param: value}
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyfl",
        description="Simulate federated learning with noisy labels: partition, corrupt, train, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("partition", "print per-client class histograms of the split; writes no plan"),
        ("noise", "apply the configured noise scene; write the plan and the noisy dataset"),
        ("train", "run FedAvg repeats and summarize last-10-round accuracy"),
        ("pipeline", "run dataset, noise and train in order; index the outputs in run.json"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_config_arguments(p)

    p = sub.add_parser("analyze", help="compute the drop-ratio and sensitivity series over finished runs")
    p.add_argument("--runs", nargs="+", required=True, metavar="DIR", help="output directories of finished pipelines")
    p.add_argument("--out", required=True, help="directory for drop_ratio.csv and sensitivity.csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            cmd_analyze(args.runs, args.out)
            return 0
        cfg = load_config(args.config, _overrides_from_args(args))
        if args.command == "partition":
            cmd_partition(cfg)
        elif args.command == "noise":
            cmd_noise(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "pipeline":
            cmd_pipeline(cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArtifactMismatchError as exc:
        print(f"artifact mismatch: {exc}", file=sys.stderr)
        return 3
    except NumericalAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 4
    except (NoisyFLError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
