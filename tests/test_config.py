"""Config validation: every malformed document is a ConfigError, never another exception."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisyfl.config import validate_config
from noisyfl.errors import ConfigError

SYNTHETIC = {
    "seed": 7,
    "output_dir": "out",
    "repeats": 2,
    "dataset": {
        "synthetic": {"num_classes": 4, "per_class": 50, "dim": 6, "separation": 3.0, "test_per_class": 10, "seed": 1}
    },
    "partition": {"scheme": "label-dir", "alpha": 0.5},
    "noise": {"scene": "localized", "mode": "symmetric", "eps_min": 0.1, "eps_max": 0.3},
    "federation": {
        "num_clients": 4,
        "rounds": 6,
        "selection_fraction": 0.5,
        "eval_every": 2,
        "model": {"kind": "mlp", "hidden": 16, "activation": "relu"},
        "trainer": {
            "method": "sce",
            "lr": 0.05,
            "momentum": 0.9,
            "weight_decay": 0.0005,
            "batch_size": 32,
            "epochs": 2,
            "method_params": {"alpha": 0.1, "beta": 1.0},
        },
    },
}

CSV = {
    "output_dir": "out",
    "dataset": {"csv": {"path": "train.csv", "label_column": "label", "test_path": "test.csv"}},
    "partition": {"scheme": "label-quantity", "c": 2},
    "noise": {"scene": "globalized", "mode": "asymmetric", "eps_global": 0.2, "asym_map": {"0": 1, "1": 0}},
    "federation": {
        "num_clients": 3,
        "rounds": 4,
        "lr_grid": [0.01, 0.1],
        "model": {"kind": "linear-softmax"},
        "trainer": {"method": "coteaching", "method_params": {"forget_rate": 0.2, "ramp_rounds": 5}},
    },
}

DELETE = object()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def field_paths(doc: dict, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


@pytest.mark.parametrize("base", [SYNTHETIC, CSV], ids=["synthetic", "csv"])
def test_base_documents_validate(base):
    validate_config(copy.deepcopy(base))


@pytest.mark.parametrize("base", [SYNTHETIC, CSV], ids=["synthetic", "csv"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_replaced_field_validates_or_raises_config_error(base, data):
    doc = copy.deepcopy(base)
    path = data.draw(st.sampled_from(sorted(field_paths(doc))), label="field")
    inserted = data.draw(st.booleans(), label="insert an unknown sibling key")
    if inserted:  # no field name starts with "~"
        path = path[:-1] + ("~" + data.draw(st.text(max_size=6), label="key"),)
    value = data.draw(json_values | st.just(DELETE), label="value")
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value
    if inserted and value is not DELETE:
        with pytest.raises(ConfigError) as err:
            validate_config(doc)
        if path[-2:-1] not in [("method_params",), ("asym_map",)]:  # their keys are values, not fields
            assert err.value.field == ".".join(path)
        return
    try:
        validate_config(doc)
    except ConfigError:
        pass


@pytest.mark.parametrize(
    "path, value",
    [
        (("repeats",), "abc"),
        (("federation", "trainer"), "x"),
        (("federation", "model", "hidden"), 0),
        (("federation", "rounds"), float("nan")),
        (("federation", "eval_every"), 7),
        (("federation", "lr_grid"), "0.1"),
        (("dataset", "synthetic", "test_per_class"), 0),
        (("output_dir",), 3),
        (("seed",), -1),
        # a number reader takes neither a fraction for an integer, nor a string, nor a bool
        (("federation", "trainer", "epochs"), 2.9),
        (("seed",), "4"),
        (("federation", "trainer", "lr"), "0.5"),
        (("federation", "trainer", "lr"), True),
        (("federation", "trainer", "batch_size"), True),
        (("dataset", "synthetic", "separation"), 10**400),  # an integer beyond every float
    ],
)
def test_known_malformed_fields(path, value):
    doc = copy.deepcopy(SYNTHETIC)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert ".".join(path).startswith(err.value.field)  # the field, or the section whose type rejects it


@pytest.mark.parametrize("value", [2, 2.0, 2e0])
def test_a_number_without_fraction_is_an_integer(value):
    """``2.0`` reads as the integer 2: it names an integer exactly, as ``1e3`` does."""
    doc = copy.deepcopy(SYNTHETIC)
    doc["federation"]["trainer"]["epochs"] = value
    epochs = validate_config(doc).federation.trainer.epochs
    assert epochs == 2 and type(epochs) is int


def _case_id(value) -> str:
    return {id(SYNTHETIC): "synthetic", id(CSV): "csv"}.get(id(value)) or ".".join(value)


@pytest.mark.parametrize(
    "base, path",
    [
        (SYNTHETIC, ("repeat",)),
        (SYNTHETIC, ("dataset", "synthetic", "per_clas")),
        (CSV, ("dataset", "csv", "test_pth")),
        (SYNTHETIC, ("partition", "alpah")),
        (CSV, ("noise", "eps_globl")),
        (SYNTHETIC, ("federation", "selection_fracton")),
        (SYNTHETIC, ("federation", "model", "hiden")),
        (SYNTHETIC, ("federation", "trainer", "epoch")),
    ],
    ids=_case_id,
)
def test_misspelled_key_is_a_config_error_at_its_path(base, path):
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = 1
    with pytest.raises(ConfigError) as err:
        validate_config(doc)
    assert err.value.field == ".".join(path)


def _outcome(doc: dict):
    """The validated config without its raw document, or the ConfigError's text."""
    try:
        return dataclasses.replace(validate_config(doc), raw=None)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "base, path",
    [
        (base, path)
        for base in (SYNTHETIC, CSV)
        for path in [("noise", "eps_global"), ("noise", "eps_min"), ("noise", "eps_max"), ("noise", "asym_map")]
        + [("federation", "lr_grid")]
    ]
    + [(CSV, ("dataset", "csv", "test_path"))],
    ids=_case_id,
)
def test_explicit_null_is_the_same_as_an_absent_field(base, path):
    absent, null = copy.deepcopy(base), copy.deepcopy(base)
    for doc, value in [(absent, DELETE), (null, None)]:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    assert _outcome(null) == _outcome(absent)
