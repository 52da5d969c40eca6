"""The ``noise`` command alone keeps the bytes that golden.json pins for the artifacts only the RNG streams decide.

The test set, the split and the noisy dataset of a partition scheme
against every noise setting (clean, and globalized and localized, each
symmetric and asymmetric), at SMALL size, must keep the hashes that
``tests/test_golden.py`` records for the pipeline of the same setting; the
noisy dataset holds the training features, and their clean labels as its
true labels.  The noise stage writes all four files.  They are drawn from
named numpy streams and written without BLAS arithmetic, so the hashes
hold on any host.  ``test_golden.py`` checks the same four hashes of every
setting through ``pipeline``, so the schemes of ``RETIRED`` are left to it.
"""

import hashlib
import itertools
import json
import os

import pytest

from noisyfl.cli import main
from test_cli import write_config
from test_golden import GOLDEN_PATH, NOISE, RNG_ONLY, RUNS, SCHEMES

# the runs pinned before the matrix keep their names
NAMES = {
    ("label-dir", "localized-symmetric"): "small",
    ("label-dir", "globalized-asymmetric"): "globalized",
    ("iid", "localized-symmetric"): "iid",
    ("label-dir", "localized-asymmetric"): "localized-asymmetric",
}
# schemes whose settings only test_golden.py's test_run_keeps_its_bytes checks
RETIRED = {"iid", "label-quantity", "quantity-skew"}
# test id -> golden run
CASES = {
    NAMES.get(pair, "/".join(pair)): "/".join(pair)
    for pair in itertools.product(SCHEMES, NOISE)
    if pair[0] not in RETIRED
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rng_only_artifacts_keep_their_bytes(tmp_path, name):
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        pinned = json.load(fh)["runs"][CASES[name]]["artifacts"]
    config, out = write_config(tmp_path, changes=RUNS[CASES[name]])
    assert main(["noise", "-c", config]) == 0
    hashes = {}
    for rel in RNG_ONLY:
        with open(os.path.join(out, rel), "rb") as fh:
            hashes[rel] = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    assert hashes == {rel: pinned[rel] for rel in RNG_ONLY}
