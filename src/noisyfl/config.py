"""Run configuration: one JSON document describing the whole pipeline.

Sections: dataset (synthetic or csv, exactly one), partition, noise,
federation (protocol + model + trainer), plus output directory, repeat
count, and the master seed.  CLI flags override individual fields before
validation.

Each section is read against one table from its fields to their readers,
and a field the table lacks is an error.  The types that use the
partition, noise, federation and trainer sections build them and hold
their defaults, ranges and allowed values; only those of the root, the
dataset and the model live here.  An error names the path of its field,
or of its section when the section's type rejects a value.
"""

from __future__ import annotations

import dataclasses
import json
import math

from . import rng
from .datasets import LabeledDataset, load_csv, make_synthetic_blobs
from .errors import ConfigError
from .federation import FedConfig
from .localtrain import TrainerConfig
from .models import Layout, LinearSoftmaxLayout, MLPLayout
from .noise import SCENE_CLEAN, NoiseSpec
from .partition import PartitionSpec


def _where(path: str, field: str) -> str:
    return f"{path}.{field}" if path else field


def _int(value, where: str) -> int:
    """A JSON integer, or a number with no fraction such as ``2.0`` or ``1e3``; never a bool or a string."""
    if isinstance(value, float) and value.is_integer():  # False for inf and nan
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(where, "must be a finite integer")


def _float(value, where: str) -> float:
    """A finite JSON number; never a bool or a string."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond every float
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(where, "must be a finite number")


def _text(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(where, "must be a string")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(where, "must be a JSON object")
    return value


def _optional(read):
    """``read``, except that null reads as None, the same as an absent field."""
    return lambda value, where: None if value is None else read(value, where)


def _floats(value, where: str) -> dict:
    return {key: _float(v, _where(where, key)) for key, v in _object(value, where).items()}


def _class_map(value, where: str) -> dict[int, int]:
    """JSON object keys are strings, so a key is read with ``int``; a value must be an integer."""
    try:
        return {int(k): _int(v, where) for k, v in _object(value, where).items()}
    except (TypeError, ValueError, ConfigError):
        raise ConfigError(where, "must map class ids to class ids") from None


def _lr_grid(value, where: str) -> tuple[float, ...] | None:
    if not value:  # null or empty: no sweep
        return None
    if not isinstance(value, list):
        raise ConfigError(where, "must be a list of learning rates")
    grid = tuple(_float(v, where) for v in value)
    if any(not v > 0 for v in grid):
        raise ConfigError(where, "learning rates must be > 0")
    return grid


ROOT = {
    "seed": _int,
    "output_dir": _text,
    "repeats": _int,
    "dataset": _object,
    "partition": _object,
    "noise": _object,
    "federation": _object,
}
DATASET = {"synthetic": _object, "csv": _object}
SYNTHETIC = {"num_classes": _int, "per_class": _int, "dim": _int, "separation": _float, "seed": _int, "test_per_class": _int}
CSV = {"path": _text, "label_column": _text, "test_path": _optional(_text)}
PARTITION = {"scheme": _text, "alpha": _float, "c": _int}
NOISE = {
    "scene": _text,
    "mode": _text,
    "eps_global": _optional(_float),
    "eps_min": _optional(_float),
    "eps_max": _optional(_float),
    "asym_map": _optional(_class_map),
}
FEDERATION = {
    "num_clients": _int,
    "rounds": _int,
    "selection_fraction": _float,
    "eval_every": _int,
    "trainer": _object,
    "model": _object,
    "lr_grid": _lr_grid,
}
TRAINER = {
    "method": _text,
    "lr": _float,
    "momentum": _float,
    "weight_decay": _float,
    "batch_size": _int,
    "epochs": _int,
    "method_params": _floats,
}
MODEL = {"kind": _text, "hidden": _int, "activation": _text}


def _fields(doc: dict, path: str, table: dict, required=()) -> dict:
    """Each field of section ``doc`` through its reader in ``table``; a field the table lacks is an error."""
    fields = {}
    for key, value in doc.items():
        where = _where(path, key)
        if key not in table:
            raise ConfigError(where, f"unknown field; {path or 'the root'} takes {sorted(table)}")
        fields[key] = table[key](value, where)
    for name in required:
        if name not in fields:
            raise ConfigError(_where(path, name), "missing required field")
    return fields


def _build(kind, path: str, fields: dict, **fixed):
    """``kind(**fields, **fixed)``; absent fields take its defaults, and its ValueError is a ConfigError at ``path``."""
    missing = dataclasses.MISSING
    for f in dataclasses.fields(kind):
        if f.default is missing and f.default_factory is missing and f.name not in fields and f.name not in fixed:
            raise ConfigError(_where(path, f.name), "missing required field")
    try:
        return kind(**fields, **fixed)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


@dataclasses.dataclass(frozen=True)
class DatasetConfig:
    """Synthetic blob parameters or CSV paths; exactly one source."""

    source: str  # "synthetic" | "csv"
    params: dict

    def materialize(self) -> tuple[LabeledDataset, LabeledDataset | None]:
        """Build (train, test) datasets; test is None when not configured."""
        p = self.params
        if self.source == "synthetic":
            blobs = {field: p[field] for field in ("num_classes", "dim", "separation")}
            train = make_synthetic_blobs(per_class=p["per_class"], seed=p["seed"], **blobs)
            test = make_synthetic_blobs(per_class=p["test_per_class"], seed=rng.derive_seed(p["seed"], "test"), **blobs)
            return train, test
        train = load_csv(p["path"], p["label_column"])
        test = load_csv(p["test_path"], p["label_column"]) if p.get("test_path") else None
        return train, test


@dataclasses.dataclass(frozen=True)
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
        """The config document as written, without the output directory (location-independent).

        Defaults are not filled in, so a config that spells out a default
        gets a different ``config_digest`` from one that omits it.
        """
        return {k: v for k, v in self.raw.items() if k != "output_dir"}


def _dataset(doc: dict) -> DatasetConfig:
    sources = list(_fields(doc, "dataset", DATASET))
    if len(sources) != 1:
        raise ConfigError("dataset", "exactly one of 'synthetic' or 'csv' is required")
    source = sources[0]
    path = f"dataset.{source}"
    if source == "csv":
        params = {"test_path": None, **_fields(doc[source], path, CSV, ["path", "label_column"])}
        return DatasetConfig(source=source, params=params)
    params = {"seed": 0, **_fields(doc[source], path, SYNTHETIC, ["num_classes", "per_class", "dim", "separation"])}
    params.setdefault("test_per_class", max(params["per_class"] // 4, 1))
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


def _model(doc: dict) -> dict:
    path = "federation.model"
    model = {"kind": "mlp", "hidden": 32, "activation": "tanh", **_fields(doc, path, MODEL)}
    if model["kind"] not in ("mlp", "linear-softmax"):
        raise ConfigError(f"{path}.kind", "must be 'mlp' or 'linear-softmax'")
    if model["hidden"] < 1:
        raise ConfigError(f"{path}.hidden", "must be >= 1")
    if model["activation"] not in ("tanh", "relu"):
        raise ConfigError(f"{path}.activation", "must be 'tanh' or 'relu'")
    return model


def validate_config(doc: dict) -> RunConfig:
    """Validate a raw config dictionary into a RunConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a JSON object")
    root = _fields(doc, "", ROOT, ["output_dir", "dataset", "partition", "federation"])
    seed = root.get("seed", 0)
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")
    if not root["output_dir"]:
        raise ConfigError("output_dir", "must be a non-empty string")
    repeats = root.get("repeats", 1)
    if repeats < 1:
        raise ConfigError("repeats", "must be >= 1")
    federation = _fields(root["federation"], "federation", FEDERATION)
    trainer_doc = federation.pop("trainer", {})
    trainer = _build(TrainerConfig, "federation.trainer", _fields(trainer_doc, "federation.trainer", TRAINER))
    model = _model(federation.pop("model", {}))
    lr_grid = federation.pop("lr_grid", None)
    noise = root.get("noise", {"scene": SCENE_CLEAN})
    return RunConfig(
        seed=seed,
        output_dir=root["output_dir"],
        repeats=repeats,
        dataset=_dataset(root["dataset"]),
        partition=_build(PartitionSpec, "partition", _fields(root["partition"], "partition", PARTITION)),
        noise=_build(NoiseSpec, "noise", _fields(noise, "noise", NOISE), seed=seed),
        federation=_build(FedConfig, "federation", federation, trainer=trainer, seed=seed),
        model=model,
        lr_grid=lr_grid,
        raw=doc,
    )


def load_config(path: str, overrides: dict) -> RunConfig:
    """Read a config JSON file, apply dotted-path overrides, and validate."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError("", f"{path} is not a JSON document: {exc}") from None
    for dotted, value in overrides.items():
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
