"""Pinned sha256 of the artifacts that only the RNG streams decide.

The test set, the split and the noisy dataset of four small pipelines
must keep these bytes across changes that do not mean to move them; the
noisy dataset holds the training features, and their clean labels as its
true labels.  They are drawn from named numpy streams and written without
BLAS arithmetic, so the hashes hold on any host; training outputs are not
pinned here.  A change that moves them on purpose updates the table and
says why.
"""

import hashlib
import os

import pytest

from noisyfl.cli import main
from test_cli import GLOBALIZED, write_config

PINNED = {
    "small": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "0b92a2b584c3aef967826f543c926d50af157658aedb3a12fead454b6664a02a",
        "client_histograms.csv": "98e81f3d5fa2899caeeb3fc689abbb80d125ad896cc907d166dc131ef1afc1d2",
        "noisy_dataset.npy": "31e74e2224cc851dc133f867237d1431183dfac9175e16c5daf6a101f2547418",
    },
    "globalized": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "7dd74f7e628c912e23009c5b6e386d2d4121d6c078153327d62f3b2215234a2e",
        "client_histograms.csv": "152b5823e2278b75a988a1acd20377a9e15438c5002c6ba3c301ddc1a2a6be95",
        "noisy_dataset.npy": "5d75610a18a20bb6d94c183cd93fd40105a706f7f68ecdd5ae901a463eea7bdc",
    },
    "iid": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "05f072d81498d35b45bc10b9133fb8f54973c8c027f4f3ddd9fd04b6618e2f69",
        "client_histograms.csv": "0cfb1530a6ed167ac212f8ea50b780c55294cd14d7a7bb2185c9fd8b3e6b8f34",
        "noisy_dataset.npy": "afd3732e71b3596d9d0a2ab522e0f1e827b1f72d0f9bdc3b3136508344d3bba8",
    },
    "localized-asymmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "0b92a2b584c3aef967826f543c926d50af157658aedb3a12fead454b6664a02a",
        "client_histograms.csv": "98e81f3d5fa2899caeeb3fc689abbb80d125ad896cc907d166dc131ef1afc1d2",
        "noisy_dataset.npy": "34afdf2c7ff481d345c2e7d901ac87434aa00a34cf0162f8af933e5463267794",
    },
}

# (SMALL changes, CLI flags) of each pinned pipeline
RUNS = {
    "small": (None, []),
    "globalized": (GLOBALIZED, []),
    "iid": (None, ["--iid"]),
    "localized-asymmetric": ({"noise.mode": "asymmetric"}, []),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rng_only_artifacts_keep_their_bytes(tmp_path, name):
    changes, flags = RUNS[name]
    config, out = write_config(tmp_path, changes=changes)
    assert main(["pipeline", "-c", config, *flags]) == 0
    hashes = {}
    for rel in PINNED[name]:
        with open(os.path.join(out, rel), "rb") as fh:
            hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    assert hashes == PINNED[name]
