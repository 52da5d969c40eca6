"""Config-driven command line: noise -> train, then analyze over finished runs.

Every stage goes through :func:`run_stage`, the one place that decides
whether a stage runs, writes its artifacts, hashes them and writes its
manifest.

- Manifest keys: ``stage``, ``version``, ``inputs`` and ``outputs`` (file
  name -> sha256), and the built values (``dataclasses.asdict``) that
  decide the stage's bytes.  The noise stage's are ``dataset``,
  ``partition``, ``noise`` and ``num_clients``; its inputs are the sha256
  of a CSV dataset's files, which stand in for their paths.  A train
  seed's are its own ``federation`` (its lr, derived seed and resolved
  co-teaching ``forget_rate``) and ``model``; the train stage's add
  ``repeats`` and ``lr_grid``, and under a grid its trainer has no
  ``lr``.  Both take the noise stage's verified outputs as inputs.  Then
  come the stage's results: the noise report, a seed's last-k accuracy,
  the summary and the selected lr.
  ``manifest_sha256`` seals the rest: the sha256 of its canonical JSON (sorted keys).
- Skip rule: :func:`verified`, the one reader of a manifest, passes one
  that is sealed, records the same key, each field compared as canonical
  JSON text (so 10 and 10.0 differ), and lists outputs that still hash as
  recorded.  Any other counts as absent: the stage runs again.  So a
  change that only training reads keeps the noise stage, and spelling out
  a default changes no key.
- Atomic writes: each output is written to ``<name>.tmp`` and moved into
  place with ``os.replace``; the manifest is written last, the same way,
  so a killed run leaves only finished stages behind.
- Hashing: a pipeline reads each file once to hash it, when its stage
  writes it or, for a skipped stage, when the skip rule checks it.  The
  train stage takes its inputs from the noise manifest the pipeline just
  got back from that stage.  ``run.json`` indexes the run: each output
  with the digest its manifest records, and each manifest, hashed for it.
  Files no manifest lists (leftovers of older versions) are not indexed.
  ``run.json``'s ``config_digest`` names the run: the sha256 of the built
  config without its output directory.  ``train`` run on its own verifies
  the noise manifest on disk, under the key its skip rule compares, CSV
  source digests included.

The noise stage materializes the dataset, runs the configured scene once
and is the one writer of the client split and of what train reads:
plan.npy, client_histograms.csv, noisy_dataset.npy and test_dataset.npy.
plan.npy holds only each sample's client, -1 for a sample no client
holds, as one <i8 array; the scheme, its parameter and the seed are the
noise manifest's key.  The datasets hold float32 features, the one dtype
networks train and evaluate in, from generation or CSV entry on, so no
stage casts them.  A train seed writes telemetry.csv and
final_params.npy, the final model's values as one .npy array, whose
layout, rounds and seed are the seed manifest's key.  ``partition``
prints the histograms of that split and writes nothing.  The
intermediates use :func:`~noisyfl.datasets.save_npy`; CSV is only the
import format of user datasets.  All output bytes are a pure function of
the config and master seed: every JSON artifact goes through
:func:`write_json` (sorted keys), every CSV artifact through
:func:`write_csv` (fixed formatting), and no timestamps or absolute
paths are recorded.

A co-teaching config that sets no ``forget_rate`` trains with the run's
noise ratio (the noise spec's :attr:`~noisyfl.noise.NoiseSpec.nominal_ratio`,
or the real-world ``overall_ratio``), or ``COTEACHING_FALLBACK_FORGET_RATE``
if it is 0 (:func:`~noisyfl.config.with_forget_rate`).  A nominal ratio that
gives no forget_rate exits 2 where the config enters; only a real-world
ratio, which the data gives, is checked after the noise stage, and a noise
manifest's ``overall_ratio`` that is not null or in [0, 1] exits 3.

``analyze`` is no stage: it reads finished run directories, one
accuracy-table entry each, and writes the paper's drop-ratio and
sensitivity series over them.  It verifies each run's train manifest and
then its noise manifest at this version, and checks the chain: the train
manifest's inputs are the noise manifest's outputs.  Its key for a run is
(partition with its parameter, scene/mode, nominal noise ratio); its
accuracy is the mean last-k accuracy of the selected lr.

Exit codes: 0 success, 2 config validation, 3 artifact mismatch, 4
numerical abort, 1 anything else (an unreadable or malformed file, say a
plan.npy that does not give each sample one of the config's clients, or
memory that runs out).  A CSV dataset is part of the config: a file that
does not parse, labels not contiguous from 0, a test set whose width or
classes the training set does not share, or, for ``train`` and
``pipeline``, no test set exit 2 at the CSV's config field, before any
stage writes.  Standalone ``train`` never reads the CSVs, only the noise
manifest that holds their digests: a file the noise stage refused, or
one edited since, exits 3 there, as that manifest is missing or records
other inputs.
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
from .analysis import drop_ratio_series, last_k_average, sensitivity_series
from .config import RunConfig, load_config, with_forget_rate
from .datasets import load_npy, save_npy
from .datasets import load_csv, save_csv  # noqa: F401  unused here; perfbench/tracer.py wraps them at this name
from .partition import make_partition  # noqa: F401  unused here; perfbench/tracer.py wraps it at this name
from .errors import (
    ArtifactMismatchError,
    ConfigError,
    DegeneratePartitionError,
    NoisyFLError,
    NumericalAbortError,
    ParseError,
)
from .federation import FedConfig, RoundRecord, run_federation
from .models import layout_from_dict, save_checkpoint
from .noise import RATIOS, NoiseSpec, asymmetric_matrix, run_scene
from .partition import SCHEMES, PartitionPlan, PartitionSpec

SUMMARY_LAST_K = 10
SUMMARY_HEADER = ["lr", "repeats", "last_k", "mean_accuracy", "std_accuracy", "formatted"]
TELEMETRY_COLUMNS = ["round", "test_accuracy", "grad_norm", "mean_client_loss", "selected_clients"]
TMP_SUFFIX = ".tmp"
SEAL = "manifest_sha256"  # a manifest's sha256 of its canonical JSON without this key


# ---------------------------------------------------------------- artifact I/O

def sha256_file(path: str) -> str:
    """The file's sha256, read through one 256 KiB buffer that every chunk reuses."""
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.file_digest(fh, "sha256").hexdigest()


def write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


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


def save_plan(plan: PartitionPlan, path: str) -> None:
    """Write plan.npy: each sample's client, -1 where it has none, as one <i8 array."""
    with open(path, "wb") as fh:
        np.save(fh, np.asarray(plan.owner, dtype="<i8"), allow_pickle=False)


def load_plan(path: str, n: int, num_clients: int) -> PartitionPlan:
    """Read plan.npy; raise ParseError unless it holds n <i8 owners in [-1, num_clients) and no client owns nothing."""
    with open(path, "rb") as fh:
        try:
            owner = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ParseError(f"{path}: cannot read the owner array: {exc}") from None
        if fh.read(1):
            raise ParseError(f"{path}: unexpected bytes after the owner array")
    if not isinstance(owner, np.ndarray) or owner.dtype != np.dtype("<i8"):
        raise ParseError(f"{path}: the owners are not a <i8 array")
    if owner.shape != (n,):
        raise ParseError(f"{path}: holds owners of shape {owner.shape}, not one for each of the {n} samples")
    outside = np.flatnonzero((owner < -1) | (owner >= num_clients))
    if len(outside):
        raise ParseError(f"{path}: sample {outside[0]} has owner {owner[outside[0]]}, outside [-1, {num_clients})")
    plan = PartitionPlan(owner, num_clients)
    if not plan.sizes().all():
        raise ParseError(f"{path}: client {int(np.argmin(plan.sizes()))} owns no sample")
    return plan


def write_telemetry(records: list[RoundRecord], path: str) -> None:
    """Write telemetry.csv: one row per round; floats keep full precision, client ids are ';'-joined."""
    rows = [
        [
            rec.round,
            "" if rec.test_accuracy is None else repr(rec.test_accuracy),
            repr(rec.grad_norm),
            repr(rec.mean_client_loss),
            ";".join(str(c) for c in rec.selected_clients),
        ]
        for rec in records
    ]
    write_csv(TELEMETRY_COLUMNS, rows, path)


def read_telemetry(path: str) -> list[RoundRecord]:
    """The round records of a telemetry.csv that :func:`write_telemetry` wrote."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            RoundRecord(
                round=int(row["round"]),
                test_accuracy=float(row["test_accuracy"]) if row["test_accuracy"] else None,
                grad_norm=float(row["grad_norm"]),
                selected_clients=tuple(int(c) for c in row["selected_clients"].split(";") if c),
                mean_client_loss=float(row["mean_client_loss"]),
            )
            for row in csv.DictReader(fh)
        ]


def _digest(doc) -> str:
    """sha256 of ``doc``'s canonical JSON (sorted keys, default separators)."""
    return "sha256:" + hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _as_json(value):
    """``value`` as JSON reads it back: a tuple is a list, and a mapping's keys are strings."""
    return json.loads(json.dumps(value))


# ---------------------------------------------------------------- stage runner

def verified(base_dir: str, manifest: str, key: dict) -> dict:
    """The manifest ``base_dir/manifest``, once it is sealed, records ``key`` and its outputs hash as recorded.

    The one reader of a stage manifest.  Each field of ``key`` is compared
    as canonical JSON text, as the manifest stores it, so a recorded 10
    does not match a key's 10.0.  Otherwise raises
    ArtifactMismatchError saying why not; its ``listed`` holds the outputs
    the manifest names.
    """
    try:
        with open(os.path.join(base_dir, manifest), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):  # missing, truncated or not UTF-8
        doc = None
    if not isinstance(doc, dict) or not isinstance(doc.get("outputs"), dict):
        raise ArtifactMismatchError(f"{manifest} is missing or unreadable")
    if doc.get(SEAL) != _digest({name: value for name, value in doc.items() if name != SEAL}):
        raise ArtifactMismatchError(f"{manifest} does not match its {SEAL}", doc["outputs"])
    for field, value in _as_json(key).items():
        if json.dumps(doc.get(field), sort_keys=True) != json.dumps(value, sort_keys=True):
            raise ArtifactMismatchError(f"{manifest} records a different {field}", doc["outputs"])
    for rel, recorded in doc["outputs"].items():
        path = os.path.join(base_dir, rel)
        if not os.path.isfile(path) or sha256_file(path) != recorded:
            raise ArtifactMismatchError(f"artifact {rel} does not match the hash in {manifest}", doc["outputs"])
    return doc


def run_stage(stage: str, base_dir: str, manifest: str, key: dict, produce) -> dict:
    """Run one stage unless ``manifest`` is :func:`verified` under ``key``; return the manifest.

    ``key`` holds ``inputs`` (name -> sha256) and the built values that
    decide the stage's bytes.  ``produce()`` returns
    ``(fields, writers)``: extra manifest fields, and one ``writer(path)``
    per output file, named relative to ``base_dir``.  Outputs that an
    earlier run of the stage recorded and this run does not write (say,
    files of an older format) are removed once the new manifest is in place.
    """
    key = {"stage": stage, "version": __version__, **key}
    try:
        return verified(base_dir, manifest, key)
    except ArtifactMismatchError as exc:
        previous = exc.listed
    fields, writers = produce()
    outputs = {}
    for rel, write in writers.items():
        path = os.path.join(base_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, write)
        outputs[rel] = sha256_file(path)
    doc = _as_json({**fields, **key, "outputs": outputs})  # what a reader of the file gets, sealed as such
    doc[SEAL] = _digest(doc)
    write_atomic(os.path.join(base_dir, manifest), functools.partial(write_json, doc))
    root = os.path.abspath(base_dir)
    for rel in set(previous) - set(outputs):
        stale = os.path.abspath(os.path.join(root, rel))
        if os.path.commonpath([root, stale]) == root and os.path.isfile(stale):
            os.remove(stale)
    return doc


# ---------------------------------------------------------------- stages

def _split(cfg: RunConfig):
    """Materialize the dataset and run the configured scene on it: (dataset, test set, plan, noisy dataset, report).

    The one computation of the client split.  Globalized noise partitions
    the corrupted data, every other scene the data as it is.  The report is
    the noise manifest's fields as ``run_scene`` returns them.
    """
    ds, test = cfg.dataset.materialize()
    spec = cfg.noise
    if spec.asym_map is not None:  # only the dataset tells which classes the map must cover
        try:
            asymmetric_matrix(ds.num_classes, 0.0, spec.asym_map)
        except ValueError as exc:
            raise ConfigError("noise.asym_map", str(exc)) from None
    try:
        plan, noisy, report = run_scene(ds, spec, cfg.federation.num_clients, cfg.partition)
    except DegeneratePartitionError as exc:  # only the partition schemes raise it
        raise ConfigError("partition", str(exc)) from None
    return ds, test, plan, noisy, report


def _histograms(ds, plan) -> tuple[list[str], list[list]]:
    """Header and rows of client_histograms.csv: per-client counts of the dataset's labels."""
    num_clients, num_classes = plan.num_clients, ds.num_classes
    header = ["client"] + [f"class_{i}" for i in range(num_classes)]
    assigned = plan.owner >= 0
    cells = np.bincount(plan.owner[assigned] * num_classes + ds.labels[assigned], minlength=num_clients * num_classes)
    return header, [[k] + row for k, row in enumerate(cells.reshape(num_clients, num_classes).tolist())]


def cmd_partition(cfg: RunConfig) -> None:
    """Print client_histograms.csv of the split the noise stage writes; writes nothing."""
    ds, _, plan, _, _ = _split(cfg)
    print_csv(*_histograms(ds, plan))


def _noise_key(cfg: RunConfig) -> dict:
    """The key of the noise stage's skip rule: the built dataset, partition and noise, and the client count.

    A CSV dataset's files enter by their sha256, the stage's inputs, in place of their paths.
    """
    dataset = dataclasses.asdict(cfg.dataset)
    sources = {}
    if cfg.dataset.source == "csv":
        paths = {field: dataset["params"].pop(field) for field in ("path", "test_path")}
        sources = {field: sha256_file(path) for field, path in paths.items() if path}
    specs = {"partition": dataclasses.asdict(cfg.partition), "noise": dataclasses.asdict(cfg.noise)}
    key = {"dataset": dataset, **specs, "num_clients": cfg.federation.num_clients, "inputs": sources}
    return {"stage": "noise", "version": __version__, **key}


def cmd_noise(cfg: RunConfig) -> dict:
    """Run the configured noise scene; write the plan, its histograms, the noisy dataset and the test set.

    Returns the verified noise manifest.
    """

    def produce():
        ds, test, plan, noisy, report = _split(cfg)
        writers = {
            "plan.npy": functools.partial(save_plan, plan),
            "client_histograms.csv": functools.partial(write_csv, *_histograms(ds, plan)),
            "noisy_dataset.npy": functools.partial(save_npy, noisy),
        }
        if test is not None:
            writers["test_dataset.npy"] = functools.partial(save_npy, test)
        return report, writers

    return run_stage("noise", cfg.output_dir, "noise_manifest.json", _noise_key(cfg), produce)


def _noise_ratio_estimate(spec: NoiseSpec, manifest: dict) -> float:
    """``spec``'s nominal noise ratio, or the real-world ratio of the noise ``manifest`` that records ``spec``.

    The one check of ``overall_ratio``: null (no true labels, taken as 0) or a float in [0, 1].
    """
    if spec.nominal_ratio is not None:
        return spec.nominal_ratio
    ratio = manifest.get("overall_ratio", "absent")
    if ratio is not None and (type(ratio) is not float or not 0.0 <= ratio <= 1.0):  # NaN fails the range too
        raise ArtifactMismatchError(f"noise_manifest.json: overall_ratio is {ratio!r}, not null or a float in [0, 1]")
    return ratio or 0.0


TRAIN_INPUTS = ("noisy_dataset.npy", "plan.npy", "test_dataset.npy")


def _train_inputs(noise: dict) -> dict:
    """The digests a verified noise manifest records for ``TRAIN_INPUTS``: the train stage's inputs.

    The skip rule passes a manifest that lists no test set, so a missing input is checked here.
    """
    missing = [name for name in TRAIN_INPUTS if name not in noise["outputs"]]
    if missing:
        raise ArtifactMismatchError(f"noise_manifest.json records no {', '.join(missing)}")
    return {name: noise["outputs"][name] for name in TRAIN_INPUTS}


def _train_seed(cfg: RunConfig, fed_cfg: FedConfig, load_inputs) -> tuple[dict, dict]:
    """One federation repeat: its last-k accuracy plus writers for telemetry and checkpoint."""
    noisy, plan, test = load_inputs()
    layout = layout_from_dict({**cfg.model, "dim": noisy.dim, "num_classes": noisy.num_classes})
    records, params = run_federation(noisy, plan, test, layout, fed_cfg)
    last_k = min(SUMMARY_LAST_K, sum(1 for r in records if r.test_accuracy is not None))
    fields = {"last_k": last_k, "last_k_accuracy": last_k_average(records, last_k)}
    return fields, {
        "telemetry.csv": functools.partial(write_telemetry, records),
        "final_params.npy": functools.partial(save_checkpoint, params),
    }


def _checked_seed(seed_dir: str, manifest: dict) -> dict:
    """The seed ``manifest``, once its ``last_k_accuracy`` is a float in [0, 1] and its ``last_k`` an int >= 1."""
    path = os.path.join(seed_dir, "seed_manifest.json")
    accuracy, last_k = manifest.get("last_k_accuracy", "absent"), manifest.get("last_k", "absent")
    if type(accuracy) is not float or not 0.0 <= accuracy <= 1.0:  # NaN fails the range too
        raise ArtifactMismatchError(f"{path}: last_k_accuracy is {accuracy!r}, not a float in [0, 1]")
    if type(last_k) is not int or last_k < 1:
        raise ArtifactMismatchError(f"{path}: last_k is {last_k!r}, not an int >= 1")
    return manifest


def cmd_train(cfg: RunConfig, noise: dict | None = None) -> list[tuple[str, str, dict]]:
    """Run `repeats` federations per learning rate; summarize last-k accuracy.

    Builds on the outputs of a verified noise manifest: the one
    :func:`cmd_noise` returned, or else the one on disk, verified under the
    key of the noise stage's skip rule.  Each repeat is a stage of its own,
    so an interrupted sweep resumes at the first repeat that did not finish.
    Returns (directory, manifest name, manifest) of each seed stage and of the train stage.
    """
    out = cfg.output_dir
    if noise is None:
        try:
            noise = verified(out, "noise_manifest.json", _noise_key(cfg))
        except ArtifactMismatchError as exc:
            raise ArtifactMismatchError(f"train: {exc}; run the noise stage first") from None
    inputs = _train_inputs(noise)

    @functools.cache
    def load_inputs():
        noisy = load_npy(os.path.join(out, "noisy_dataset.npy"))
        plan = load_plan(os.path.join(out, "plan.npy"), len(noisy), cfg.federation.num_clients)
        return noisy, plan, load_npy(os.path.join(out, "test_dataset.npy"))

    trainer = with_forget_rate(cfg.federation.trainer, _noise_ratio_estimate(cfg.noise, noise))
    federation = dataclasses.replace(cfg.federation, trainer=trainer)

    train_root = os.path.join(out, "train")
    sweep = cfg.lr_grid is not None
    rows, summary, stages = [], [], []
    for lr in cfg.lr_grid or (trainer.lr,):
        lr_dir = f"lr_{lr!r}" if sweep else ""
        seeds = []
        for i in range(cfg.repeats):
            fed_seed = rng.derive_seed(cfg.seed, "federate", i)
            fed_cfg = dataclasses.replace(federation, trainer=dataclasses.replace(trainer, lr=lr), seed=fed_seed)
            seed_dir = os.path.join(train_root, lr_dir, f"seed_{i}")
            key = {"federation": dataclasses.asdict(fed_cfg), "model": cfg.model, "inputs": inputs}
            train_seed = functools.partial(_train_seed, cfg, fed_cfg, load_inputs)
            seed = run_stage("train-seed", seed_dir, "seed_manifest.json", key, train_seed)
            seeds.append(_checked_seed(seed_dir, seed))
            stages.append((seed_dir, "seed_manifest.json", seeds[-1]))
        accs = [s["last_k_accuracy"] for s in seeds]
        mean, std = float(np.mean(accs)), float(np.std(accs))
        # every repeat averages the same evaluated rounds
        rows.append([repr(lr), cfg.repeats, seeds[0]["last_k"], repr(mean), repr(std), f"{mean:.4f} ± {std:.4f}"])
        summary.append({"lr": lr, "mean_accuracy": mean, "std_accuracy": std})
    writers = {"summary.csv": functools.partial(write_csv, SUMMARY_HEADER, rows)}

    # grid sweeps select the lr with the best mean last-k accuracy
    best = max(summary, key=lambda r: r["mean_accuracy"])
    fields = {"selected_lr": best["lr"], "summary": summary}
    recorded = dataclasses.asdict(federation)
    if sweep:  # every seed trains with a grid lr, so the trainer's own is read by none
        del recorded["trainer"]["lr"]
    key = {"federation": recorded, "model": cfg.model, "inputs": inputs}
    key.update(repeats=cfg.repeats, lr_grid=cfg.lr_grid)
    train = run_stage("train", train_root, "run_manifest.json", key, lambda: (fields, writers))
    return [*stages, (train_root, "run_manifest.json", train)]


def _run_entry(run_dir: str) -> tuple[tuple[str, str, float], float]:
    """One finished run as an accuracy-table entry: ((partition, scene/mode, nominal eps), accuracy).

    Both manifests must be verified at this version, and the train
    manifest's inputs must be the noise manifest's outputs: the chain.
    The accuracy is the mean last-k accuracy of the selected lr, a
    finite float in [0, 1]: the one check of an accuracy that enters from
    outside.
    """
    train = verified(os.path.join(run_dir, "train"), "run_manifest.json", {"stage": "train", "version": __version__})
    noise = verified(run_dir, "noise_manifest.json", {"stage": "noise", "version": __version__})
    if train.get("inputs") != _train_inputs(noise):
        raise ArtifactMismatchError("run_manifest.json records other inputs than the noise stage wrote")
    try:
        spec = PartitionSpec(**{f.name: noise["partition"][f.name] for f in dataclasses.fields(PartitionSpec)})
        eps = {name: noise["noise"][name] for name in RATIOS}
        noise_spec = NoiseSpec(scene=noise["noise"]["scene"], mode=noise["noise"]["mode"], **eps)
        (accuracy,) = [row["mean_accuracy"] for row in train["summary"] if row["lr"] == train["selected_lr"]]
        typed = [(spec.alpha, float), (spec.c, int)] + [(value, float) for value in eps.values()]
        if any(value is not None and (type(value) is not kind or not math.isfinite(value)) for value, kind in typed):
            raise ValueError("a recorded number is not finite or not of its type")
        partition = spec.scheme + "".join(f"({name}={value!r})" for name, value in spec.params.items())
        # eps to 9 decimals, so that a localized (0.2, 0.4) run's midpoint 0.30000000000000004 is the grid point 0.3
        key = (partition, f"{noise_spec.scene}/{noise_spec.mode}", round(_noise_ratio_estimate(noise_spec, noise), 9))
        if type(accuracy) is not float or not 0.0 <= accuracy <= 1.0:  # NaN fails the range too
            raise ValueError(f"mean_accuracy {accuracy!r} for {key} is not a float in [0, 1]")
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactMismatchError(f"unusable manifest field ({exc})") from None
    return key, accuracy


def cmd_analyze(run_dirs: list[str], out_dir: str) -> None:
    """Write drop_ratio.csv and sensitivity.csv over the accuracies of finished runs."""
    entries, owners = {}, {}
    for run_dir in run_dirs:
        try:
            key, accuracy = _run_entry(run_dir)
        except ArtifactMismatchError as exc:
            raise ArtifactMismatchError(f"analyze {run_dir}: {exc}") from None
        if key in owners:
            raise NoisyFLError(f"analyze: {owners[key]} and {run_dir} both give ({key[0]}, {key[1]}, {key[2]!r})")
        entries[key], owners[key] = accuracy, run_dir

    drop_rows: list[list] = []
    sens_rows: list[list] = []
    partitions = sorted({p for (p, _, _) in entries})
    modes = sorted({m for (_, m, _) in entries})
    for mode in modes:
        for part in partitions:
            if part != "iid":
                for eps, ratio in drop_ratio_series(entries, part, mode):
                    drop_rows.append([part, mode, repr(eps), repr(ratio)])
            for eps, s in sensitivity_series(entries, part, mode):
                sens_rows.append([part, mode, repr(eps), repr(s)])

    os.makedirs(out_dir, exist_ok=True)
    for name, header, rows in [
        ("drop_ratio.csv", ["partition", "mode", "eps", "drop_ratio"], drop_rows),
        ("sensitivity.csv", ["partition", "mode", "eps", "sensitivity"], sens_rows),
    ]:
        write_atomic(os.path.join(out_dir, name), functools.partial(write_csv, header, rows))


def cmd_pipeline(cfg: RunConfig) -> None:
    """Run noise and train, then index the run in run.json.

    Each output is indexed with the digest its stage manifest records, and
    each manifest is hashed here; a file no manifest lists is not indexed.
    """
    out = cfg.output_dir
    noise = cmd_noise(cfg)
    artifacts = {}
    for base_dir, name, manifest in [(out, "noise_manifest.json", noise), *cmd_train(cfg, noise)]:
        for rel, digest in {**manifest["outputs"], name: sha256_file(os.path.join(base_dir, name))}.items():
            artifacts[os.path.relpath(os.path.join(base_dir, rel), out).replace(os.sep, "/")] = digest
    built = {name: value for name, value in dataclasses.asdict(cfg).items() if name != "output_dir"}
    doc = {
        "version": __version__,
        "config_digest": _digest(built),
        "seed": cfg.seed,
        "artifacts": artifacts,
    }
    write_atomic(os.path.join(out, "run.json"), functools.partial(write_json, doc))


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

# (flag, type, metavar, scheme, help); they exclude each other, and the one given
# replaces the config's whole partition section with the scheme and its parameter
PARTITION_FLAGS = [
    ("--iid", None, None, "iid", "IID partition"),
    ("--noniid-labeldir", float, "ALPHA", "label-dir", "Dirichlet label skew"),
    ("--noniid-quantity", float, "ALPHA", "quantity-skew", "quantity skew"),
    ("--noniid-label-count", int, "C", "label-quantity", "label-quantity skew (classes per client)"),
]


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag`` under."""
    return flag[2:].replace("-", "_")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="path to the run config JSON")
    for flag, kind, _, help_text in OVERRIDES:
        parser.add_argument(flag, type=kind, help=help_text)
    group = parser.add_mutually_exclusive_group()
    for flag, kind, metavar, _, help_text in PARTITION_FLAGS:
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
    for flag, _, _, scheme, _ in PARTITION_FLAGS:
        value = getattr(args, _dest(flag), None)
        if value is not None:
            param = SCHEMES[scheme][0]
            overrides["partition"] = {"scheme": scheme} if param is None else {"scheme": scheme, param: value}
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyfl",
        description="Simulate federated learning with noisy labels: partition, corrupt, train, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("partition", "print per-client class histograms of the split; writes nothing"),
        ("noise", "apply the configured noise scene; write the plan, the noisy dataset and the test set"),
        ("train", "run FedAvg repeats and summarize last-10-round accuracy"),
        ("pipeline", "run noise and train in order; index the outputs in run.json"),
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
        trains = args.command in ("train", "pipeline")
        if trains and cfg.dataset.source == "csv" and not cfg.dataset.params.get("test_path"):
            raise ConfigError("dataset.csv.test_path", "missing; the train stage needs a clean test set")
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except (NoisyFLError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
