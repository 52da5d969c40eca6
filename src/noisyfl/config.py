"""Run configuration: one JSON document describing the whole pipeline.

Sections: dataset (synthetic or csv, exactly one), partition, noise,
federation (protocol + model + trainer), plus output directory, repeat
count, and the master seed.  CLI flags override individual fields before
validation.

Each section is read against one table from its fields to their readers,
and a field the table lacks is an error.  The types that use the
partition, noise, federation and trainer sections build them and hold
their defaults, ranges and allowed values; only those of the root, the
dataset and the model live here.  Method parameters, too, take their
defaults and ranges from their type: ``TrainerConfig`` resolves
``method_params``, and this module only reads them as numbers.  An error
names the path of its field, or of its section when the section's type
rejects a value.

The document itself is not kept: the config exists once, as the built
values of :class:`RunConfig`.  Each stage's key and ``run.json``'s
``config_digest`` are made of them, so a config that spells out a default,
or writes ``2`` for ``2.0``, is the same config as one that does not.
"""

from __future__ import annotations

import dataclasses
import json
import math

from . import rng
from .datasets import LabeledDataset, load_csv, make_synthetic_blobs
from .errors import ConfigError, ParseError
from .federation import FedConfig
from .localtrain import TrainerConfig
from .models import ACTIVATIONS
from .noise import RATIOS, SCENE_CLEAN, NoiseSpec
from .partition import PartitionSpec


COTEACHING_FALLBACK_FORGET_RATE = 0.2  # when the config sets no forget_rate and the run's noise ratio is 0


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
    """JSON object keys are strings, so a key must be a class id as ``str`` writes it; a value must be an integer.

    ``int`` alone would also read ``"01"``, ``" 1"``, ``"+1"``, ``"1_0"`` and
    non-ASCII digits, and two spellings of one class would collapse into one key.
    """
    try:
        pairs = _object(value, where)
        if any(str(int(k)) != k for k in pairs):
            raise ValueError(where)
        return {int(k): _int(v, where) for k, v in pairs.items()}
    except (TypeError, ValueError, ConfigError):
        raise ConfigError(where, "must map class ids to class ids") from None


def _lr_grid(value, where: str) -> tuple[float, ...] | None:
    if not isinstance(value, list):
        raise ConfigError(where, "must be a list of learning rates")
    if not value:  # empty, as null: no sweep
        return None
    grid = tuple(_float(v, where) for v in value)
    if any(not v > 0 for v in grid):
        raise ConfigError(where, "learning rates must be > 0")
    if len(set(grid)) != len(grid):  # a repeated lr would give two summary rows and no one selected lr
        raise ConfigError(where, "learning rates must differ")
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
    **{name: _optional(_float) for name in RATIOS},
    "asym_map": _optional(_class_map),
}
FEDERATION = {
    "num_clients": _int,
    "rounds": _int,
    "selection_fraction": _float,
    "eval_every": _int,
    "trainer": _object,
    "model": _object,
    "lr_grid": _optional(_lr_grid),
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
        """Build (train, test) datasets; test is None when not configured.

        A CSV file is read here, where it enters: one that is no dataset,
        or a test set whose width or classes the training set lacks, is a
        ConfigError at its field.
        """
        p = self.params
        if self.source == "synthetic":
            blobs = {field: p[field] for field in ("num_classes", "dim", "separation")}
            train = make_synthetic_blobs(per_class=p["per_class"], seed=p["seed"], **blobs)
            test = make_synthetic_blobs(per_class=p["test_per_class"], seed=rng.derive_seed(p["seed"], "test"), **blobs)
            return train, test
        train = _read_csv(p, "path")
        if not p.get("test_path"):
            return train, None
        test = _read_csv(p, "test_path")
        if test.dim != train.dim:
            raise _csv_error(p, "test_path", f"{test.dim} features, but the training set has {train.dim}")
        if test.num_classes > train.num_classes:
            classes = f"{test.num_classes} classes, but the training set has {train.num_classes}"
            raise _csv_error(p, "test_path", classes)
        return train, test


def _csv_error(params: dict, field: str, message: str) -> ConfigError:
    return ConfigError(f"dataset.csv.{field}", f"{params[field]}: {message}")


def _read_csv(params: dict, field: str) -> LabeledDataset:
    try:
        return load_csv(params[field], params["label_column"])
    except ParseError as exc:
        raise _csv_error(params, field, str(exc)) from None


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
    model: dict  # what models.layout_from_dict takes, without the data's dim and num_classes
    lr_grid: tuple[float, ...] | None


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
    """A linear softmax is its kind alone, and its section takes no MLP field; an MLP has defaults for both."""
    path = "federation.model"
    model = {"kind": "mlp", "hidden": 32, "activation": "tanh", **_fields(doc, path, MODEL)}
    if model["kind"] not in ("mlp", "linear-softmax"):
        raise ConfigError(f"{path}.kind", "must be 'mlp' or 'linear-softmax'")
    if model["kind"] == "linear-softmax":
        for field in ("hidden", "activation"):
            if field in doc:
                raise ConfigError(f"{path}.{field}", "a linear-softmax model has no hidden layer")
        return {"kind": "linear-softmax"}
    if model["hidden"] < 1:
        raise ConfigError(f"{path}.hidden", "must be >= 1")
    if model["activation"] not in ACTIVATIONS:
        raise ConfigError(f"{path}.activation", "must be " + " or ".join(map(repr, ACTIVATIONS)))
    return model


def with_forget_rate(trainer: TrainerConfig, noise_ratio: float) -> TrainerConfig:
    """``trainer``, with the forget_rate co-teaching takes from the run's noise ratio when the config sets none.

    A ratio of 0 gives ``COTEACHING_FALLBACK_FORGET_RATE``; one out of the
    forget_rate's range is a ConfigError at that field.
    """
    if trainer.method != "coteaching" or "forget_rate" in trainer.method_params:
        return trainer
    forget_rate = noise_ratio if noise_ratio > 0 else COTEACHING_FALLBACK_FORGET_RATE
    try:
        return dataclasses.replace(trainer, method_params={**trainer.method_params, "forget_rate": forget_rate})
    except ValueError as exc:
        raise ConfigError(
            "federation.trainer.method_params.forget_rate",
            f"not set, and the noise-ratio estimate {noise_ratio!r} is out of range ({exc})",
        ) from None


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
    dataset = _dataset(root["dataset"])
    partition = _build(PartitionSpec, "partition", _fields(root["partition"], "partition", PARTITION))
    noise = _build(NoiseSpec, "noise", _fields(root.get("noise", {"scene": SCENE_CLEAN}), "noise", NOISE), seed=seed)
    federation = _build(FedConfig, "federation", federation, trainer=trainer, seed=seed)
    ratio = noise.nominal_ratio
    if ratio is not None:  # checked only: the train stage resolves the forget_rate, so the built config keeps none
        with_forget_rate(trainer, ratio)
    return RunConfig(
        seed=seed,
        output_dir=root["output_dir"],
        repeats=repeats,
        dataset=dataset,
        partition=partition,
        noise=noise,
        federation=federation,
        model=model,
        lr_grid=lr_grid,
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
