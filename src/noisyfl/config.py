"""Run configuration: one JSON document describing the whole pipeline.

Sections: dataset (synthetic or csv, exactly one), partition, noise,
federation (protocol + model + trainer), plus output directory, repeat
count, and the master seed.  Validation errors carry the offending field
path.  CLI flags override individual fields before validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import rng
from .datasets import LabeledDataset, load_csv, make_synthetic_blobs
from .errors import ConfigError
from .federation import FedConfig
from .localtrain import TrainerConfig
from .models import Layout, LinearSoftmaxLayout, MLPLayout
from .noise import MODES, SCENE_CLEAN, SCENES, NoiseSpec
from .partition import SCHEMES, PartitionSpec


_MISSING = object()


def _where(path: str, field: str) -> str:
    return f"{path}.{field}" if path else field


def _get(doc: dict, field: str, path: str, default=_MISSING):
    if field not in doc:
        if default is _MISSING:
            raise ConfigError(_where(path, field), "missing required field")
        return default
    return doc[field]


def _number(kind, value, where: str):
    """``kind(value)`` for kind int or float; a ConfigError unless it is a finite number."""
    try:
        number = kind(value)
        if not math.isfinite(number):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(where, f"must be a finite {'integer' if kind is int else 'number'}") from None
    return number


def _int(doc: dict, field: str, path: str, default=_MISSING) -> int:
    return _number(int, _get(doc, field, path, default), _where(path, field))


def _float(doc: dict, field: str, path: str, default=_MISSING) -> float:
    return _number(float, _get(doc, field, path, default), _where(path, field))


def _section(doc: dict, field: str, path: str, default=_MISSING) -> dict:
    value = _get(doc, field, path, default)
    if not isinstance(value, dict):
        raise ConfigError(_where(path, field), "must be a JSON object")
    return value


@dataclass(frozen=True)
class DatasetConfig:
    """Synthetic blob parameters or CSV paths; exactly one source."""

    source: str  # "synthetic" | "csv"
    params: dict

    def materialize(self) -> tuple[LabeledDataset, LabeledDataset | None]:
        """Build (train, test) datasets; test is None when not configured."""
        p = self.params
        if self.source == "synthetic":
            train = make_synthetic_blobs(
                num_classes=p["num_classes"],
                per_class=p["per_class"],
                dim=p["dim"],
                separation=p["separation"],
                seed=p["seed"],
            )
            test = make_synthetic_blobs(
                num_classes=p["num_classes"],
                per_class=p["test_per_class"],
                dim=p["dim"],
                separation=p["separation"],
                seed=rng.derive_seed(p["seed"], "test"),
            )
            return train, test
        train = load_csv(p["path"], p["label_column"])
        test = load_csv(p["test_path"], p["label_column"]) if p.get("test_path") else None
        return train, test


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration."""

    seed: int
    output_dir: str
    repeats: int
    dataset: DatasetConfig
    partition: PartitionSpec
    noise: NoiseSpec
    federation: FedConfig
    model: dict
    lr_grid: tuple[float, ...] | None
    raw: dict

    def layout_for(self, dim: int, num_classes: int) -> Layout:
        if self.model["kind"] == "linear-softmax":
            return LinearSoftmaxLayout(dim=dim, num_classes=num_classes)
        return MLPLayout(
            dim=dim, hidden=self.model["hidden"], num_classes=num_classes, activation=self.model["activation"]
        )

    def canonical_dict(self) -> dict:
        """Resolved config without the output directory (location-independent)."""
        doc = {k: v for k, v in self.raw.items() if k != "output_dir"}
        return doc


def _validate_dataset(doc: dict) -> DatasetConfig:
    sources = [s for s in ("synthetic", "csv") if s in doc]
    if len(sources) != 1:
        raise ConfigError("dataset", "exactly one of 'synthetic' or 'csv' is required")
    source = sources[0]
    path = f"dataset.{source}"
    section = _section(doc, source, "dataset")
    if source == "synthetic":
        params = {
            "num_classes": _int(section, "num_classes", path),
            "per_class": _int(section, "per_class", path),
            "dim": _int(section, "dim", path),
            "separation": _float(section, "separation", path),
            "seed": _int(section, "seed", path, 0),
        }
        params["test_per_class"] = _int(section, "test_per_class", path, max(params["per_class"] // 4, 1))
        if params["num_classes"] < 2:
            raise ConfigError(f"{path}.num_classes", "must be >= 2")
        for field in ("per_class", "dim", "test_per_class"):
            if params[field] < 1:
                raise ConfigError(f"{path}.{field}", "must be >= 1")
        if not params["separation"] > 0:
            raise ConfigError(f"{path}.separation", "must be > 0")
        if params["seed"] < 0:
            raise ConfigError(f"{path}.seed", "must be >= 0")
        return DatasetConfig(source=source, params=params)
    params = {
        "path": _get(section, "path", path),
        "label_column": _get(section, "label_column", path),
        "test_path": _get(section, "test_path", path, None),
    }
    for field, value in params.items():
        if not (isinstance(value, str) or (field == "test_path" and value is None)):
            raise ConfigError(f"{path}.{field}", "must be a string")
    return DatasetConfig(source=source, params=params)


def _validate_partition(doc: dict) -> PartitionSpec:
    scheme = _get(doc, "scheme", "partition")
    if scheme not in SCHEMES:
        raise ConfigError("partition.scheme", f"must be one of {list(SCHEMES)}")
    try:
        return PartitionSpec(
            scheme=scheme,
            alpha=_float(doc, "alpha", "partition") if "alpha" in doc else None,
            c=_int(doc, "c", "partition") if "c" in doc else None,
        )
    except ValueError as exc:
        raise ConfigError("partition", str(exc)) from None


def _validate_noise(doc: dict, master_seed: int) -> NoiseSpec:
    scene = _get(doc, "scene", "noise")
    if scene not in SCENES:
        raise ConfigError("noise.scene", f"must be one of {list(SCENES)}")
    mode = _get(doc, "mode", "noise", "none")
    if mode not in MODES:
        raise ConfigError("noise.mode", f"must be one of {list(MODES)}")
    asym_map = None
    if doc.get("asym_map") is not None:
        try:
            asym_map = {int(k): int(v) for k, v in doc["asym_map"].items()}
        except (TypeError, ValueError, OverflowError, AttributeError):
            raise ConfigError("noise.asym_map", "must map class ids to class ids") from None
    eps = {f: _float(doc, f, "noise") if doc.get(f) is not None else None for f in ("eps_global", "eps_min", "eps_max")}
    try:
        return NoiseSpec(scene=scene, mode=mode, asym_map=asym_map, seed=master_seed, **eps)
    except ValueError as exc:
        raise ConfigError("noise", str(exc)) from None


def _validate_trainer(doc: dict) -> TrainerConfig:
    path = "federation.trainer"
    method_params = _section(doc, "method_params", path, {})
    try:
        return TrainerConfig(
            method=_get(doc, "method", path, "ce"),
            lr=_float(doc, "lr", path, 0.01),
            momentum=_float(doc, "momentum", path, 0.9),
            weight_decay=_float(doc, "weight_decay", path, 5e-4),
            batch_size=_int(doc, "batch_size", path, 128),
            epochs=_int(doc, "epochs", path, 5),
            method_params={k: _float(method_params, k, f"{path}.method_params") for k in method_params},
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _validate_model(doc: dict) -> dict:
    path = "federation.model"
    model = {
        "kind": _get(doc, "kind", path, "mlp"),
        "hidden": _int(doc, "hidden", path, 32),
        "activation": _get(doc, "activation", path, "tanh"),
    }
    if model["kind"] not in ("mlp", "linear-softmax"):
        raise ConfigError(f"{path}.kind", "must be 'mlp' or 'linear-softmax'")
    if model["hidden"] < 1:
        raise ConfigError(f"{path}.hidden", "must be >= 1")
    if model["activation"] not in ("tanh", "relu"):
        raise ConfigError(f"{path}.activation", "must be 'tanh' or 'relu'")
    return model


def _validate_federation(doc: dict, master_seed: int) -> tuple[FedConfig, dict, tuple[float, ...] | None]:
    trainer = _validate_trainer(_section(doc, "trainer", "federation", {}))
    try:
        fed = FedConfig(
            num_clients=_int(doc, "num_clients", "federation"),
            rounds=_int(doc, "rounds", "federation"),
            trainer=trainer,
            selection_fraction=_float(doc, "selection_fraction", "federation", 1.0),
            eval_every=_int(doc, "eval_every", "federation", 1),
            seed=master_seed,
        )
    except ValueError as exc:
        raise ConfigError("federation", str(exc)) from None
    if fed.eval_every > fed.rounds:
        raise ConfigError("federation.eval_every", "must be <= rounds, or no round is evaluated")
    model = _validate_model(_section(doc, "model", "federation", {}))
    lr_grid = None
    if doc.get("lr_grid"):
        if not isinstance(doc["lr_grid"], list):
            raise ConfigError("federation.lr_grid", "must be a list of learning rates")
        lr_grid = tuple(_number(float, v, "federation.lr_grid") for v in doc["lr_grid"])
        if any(not v > 0 for v in lr_grid):
            raise ConfigError("federation.lr_grid", "learning rates must be > 0")
    return fed, model, lr_grid


def validate_config(doc: dict) -> RunConfig:
    """Validate a raw config dictionary into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a JSON object")
    seed = _int(doc, "seed", "", 0)
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")
    output_dir = _get(doc, "output_dir", "")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", "must be a non-empty string")
    repeats = _int(doc, "repeats", "", 1)
    if repeats < 1:
        raise ConfigError("repeats", "must be >= 1")
    dataset = _validate_dataset(_section(doc, "dataset", ""))
    partition = _validate_partition(_section(doc, "partition", ""))
    noise = _validate_noise(_section(doc, "noise", "", {"scene": SCENE_CLEAN}), seed)
    fed, model, lr_grid = _validate_federation(_section(doc, "federation", ""), seed)
    return RunConfig(
        seed=seed,
        output_dir=output_dir,
        repeats=repeats,
        dataset=dataset,
        partition=partition,
        noise=noise,
        federation=fed,
        model=model,
        lr_grid=lr_grid,
        raw=doc,
    )


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Read a config JSON file, apply dotted-path overrides, and validate."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError("", f"{path} is not a JSON document: {exc}") from None
    for dotted, value in (overrides or {}).items():
        set_by_path(doc, dotted, value)
    return validate_config(doc)


def set_by_path(doc: dict, dotted: str, value) -> None:
    """Set ``doc["a"]["b"] = value`` for a dotted path ``a.b``."""
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError(dotted, "cannot override a field inside a value that is not a JSON object")
    node[keys[-1]] = value
