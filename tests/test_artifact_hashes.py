"""Pinned sha256 of the artifacts that only the RNG streams decide.

The test set, the split and the noisy dataset of every partition scheme
against every noise setting (clean, and globalized and localized, each
symmetric and asymmetric), at SMALL size, must keep these bytes across
changes that do not mean to move them; the noisy dataset holds the
training features, and their clean labels as its true labels.  The noise
stage writes all four files.  They are drawn from named numpy streams and
written without BLAS arithmetic, so the hashes hold on any host; training
outputs are not pinned here.  A change that moves them on purpose updates
the table and says why.
"""

import hashlib
import itertools
import os

import pytest

from noisyfl.cli import main
from test_cli import GLOBALIZED, write_config

FILES = ("test_dataset.npy", "plan.json", "client_histograms.csv", "noisy_dataset.npy")

SCHEMES = {
    "iid": {"scheme": "iid"},
    "label-dir": {"scheme": "label-dir", "alpha": 0.5},
    "quantity-skew": {"scheme": "quantity-skew", "alpha": 2.0},
    "label-quantity": {"scheme": "label-quantity", "c": 2},
}
# SMALL's noise is localized symmetric
NOISE = {
    "clean": {"noise": {"scene": "clean"}},
    "globalized-symmetric": {"noise": {**GLOBALIZED["noise"], "mode": "symmetric"}},
    "globalized-asymmetric": GLOBALIZED,
    "localized-symmetric": {},
    "localized-asymmetric": {"noise.mode": "asymmetric"},
}
# the runs pinned before the matrix keep their names
NAMES = {
    ("label-dir", "localized-symmetric"): "small",
    ("label-dir", "globalized-asymmetric"): "globalized",
    ("iid", "localized-symmetric"): "iid",
    ("label-dir", "localized-asymmetric"): "localized-asymmetric",
}
# SMALL changes of each pinned run
RUNS = {
    NAMES.get((scheme, noise), f"{scheme}/{noise}"): {"partition": SCHEMES[scheme], **NOISE[noise]}
    for scheme, noise in itertools.product(SCHEMES, NOISE)
}

PINNED = {
    "iid/clean": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "05f072d81498d35b45bc10b9133fb8f54973c8c027f4f3ddd9fd04b6618e2f69",
        "client_histograms.csv": "0cfb1530a6ed167ac212f8ea50b780c55294cd14d7a7bb2185c9fd8b3e6b8f34",
        "noisy_dataset.npy": "4ed2672feb650f1d0cc598efebbe08161311b9de6b1c410217896e23ed54acb0",
    },
    "iid/globalized-symmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "05f072d81498d35b45bc10b9133fb8f54973c8c027f4f3ddd9fd04b6618e2f69",
        "client_histograms.csv": "0cfb1530a6ed167ac212f8ea50b780c55294cd14d7a7bb2185c9fd8b3e6b8f34",
        "noisy_dataset.npy": "1c94a66c1a24c386b42b0cbab7841a504ec9340107656dab763f9fa8e082e6d5",
    },
    "iid/globalized-asymmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "05f072d81498d35b45bc10b9133fb8f54973c8c027f4f3ddd9fd04b6618e2f69",
        "client_histograms.csv": "0cfb1530a6ed167ac212f8ea50b780c55294cd14d7a7bb2185c9fd8b3e6b8f34",
        "noisy_dataset.npy": "5d75610a18a20bb6d94c183cd93fd40105a706f7f68ecdd5ae901a463eea7bdc",
    },
    "iid": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "05f072d81498d35b45bc10b9133fb8f54973c8c027f4f3ddd9fd04b6618e2f69",
        "client_histograms.csv": "0cfb1530a6ed167ac212f8ea50b780c55294cd14d7a7bb2185c9fd8b3e6b8f34",
        "noisy_dataset.npy": "afd3732e71b3596d9d0a2ab522e0f1e827b1f72d0f9bdc3b3136508344d3bba8",
    },
    "iid/localized-asymmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "05f072d81498d35b45bc10b9133fb8f54973c8c027f4f3ddd9fd04b6618e2f69",
        "client_histograms.csv": "0cfb1530a6ed167ac212f8ea50b780c55294cd14d7a7bb2185c9fd8b3e6b8f34",
        "noisy_dataset.npy": "be2966412c541c7a259cc5a8a7fde062607cf2d8367544416d888941cc495c13",
    },
    "label-dir/clean": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "0b92a2b584c3aef967826f543c926d50af157658aedb3a12fead454b6664a02a",
        "client_histograms.csv": "98e81f3d5fa2899caeeb3fc689abbb80d125ad896cc907d166dc131ef1afc1d2",
        "noisy_dataset.npy": "4ed2672feb650f1d0cc598efebbe08161311b9de6b1c410217896e23ed54acb0",
    },
    "label-dir/globalized-symmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "53c6007ce685687e56fa75cd592ec356434dfc3fa51b789ade99f29bee4c5552",
        "client_histograms.csv": "2f71e1be9c78b7b3bfe0c2395a264cc6675161943c3278f34fcfad7483e9a76a",
        "noisy_dataset.npy": "1c94a66c1a24c386b42b0cbab7841a504ec9340107656dab763f9fa8e082e6d5",
    },
    "globalized": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "7dd74f7e628c912e23009c5b6e386d2d4121d6c078153327d62f3b2215234a2e",
        "client_histograms.csv": "152b5823e2278b75a988a1acd20377a9e15438c5002c6ba3c301ddc1a2a6be95",
        "noisy_dataset.npy": "5d75610a18a20bb6d94c183cd93fd40105a706f7f68ecdd5ae901a463eea7bdc",
    },
    "small": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "0b92a2b584c3aef967826f543c926d50af157658aedb3a12fead454b6664a02a",
        "client_histograms.csv": "98e81f3d5fa2899caeeb3fc689abbb80d125ad896cc907d166dc131ef1afc1d2",
        "noisy_dataset.npy": "31e74e2224cc851dc133f867237d1431183dfac9175e16c5daf6a101f2547418",
    },
    "localized-asymmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "0b92a2b584c3aef967826f543c926d50af157658aedb3a12fead454b6664a02a",
        "client_histograms.csv": "98e81f3d5fa2899caeeb3fc689abbb80d125ad896cc907d166dc131ef1afc1d2",
        "noisy_dataset.npy": "34afdf2c7ff481d345c2e7d901ac87434aa00a34cf0162f8af933e5463267794",
    },
    "quantity-skew/clean": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "ba112f08ca0ec1464bebf9093c909d45c7a4e2cda49c18ae8266a699bbfd7fe3",
        "client_histograms.csv": "56697dab393dd2207e758a4e00695bec385fdcb457417379e93db64e1b9aec6a",
        "noisy_dataset.npy": "4ed2672feb650f1d0cc598efebbe08161311b9de6b1c410217896e23ed54acb0",
    },
    "quantity-skew/globalized-symmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "ba112f08ca0ec1464bebf9093c909d45c7a4e2cda49c18ae8266a699bbfd7fe3",
        "client_histograms.csv": "56697dab393dd2207e758a4e00695bec385fdcb457417379e93db64e1b9aec6a",
        "noisy_dataset.npy": "1c94a66c1a24c386b42b0cbab7841a504ec9340107656dab763f9fa8e082e6d5",
    },
    "quantity-skew/globalized-asymmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "ba112f08ca0ec1464bebf9093c909d45c7a4e2cda49c18ae8266a699bbfd7fe3",
        "client_histograms.csv": "56697dab393dd2207e758a4e00695bec385fdcb457417379e93db64e1b9aec6a",
        "noisy_dataset.npy": "5d75610a18a20bb6d94c183cd93fd40105a706f7f68ecdd5ae901a463eea7bdc",
    },
    "quantity-skew/localized-symmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "ba112f08ca0ec1464bebf9093c909d45c7a4e2cda49c18ae8266a699bbfd7fe3",
        "client_histograms.csv": "56697dab393dd2207e758a4e00695bec385fdcb457417379e93db64e1b9aec6a",
        "noisy_dataset.npy": "d0d69629a08eaa3ccfd9e5dbd5dae29904fe84e33e1b747c783fb89eec695cea",
    },
    "quantity-skew/localized-asymmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "ba112f08ca0ec1464bebf9093c909d45c7a4e2cda49c18ae8266a699bbfd7fe3",
        "client_histograms.csv": "56697dab393dd2207e758a4e00695bec385fdcb457417379e93db64e1b9aec6a",
        "noisy_dataset.npy": "bcbfc2d00b2905f7e0251154dff62c1a7ecc483decd9676b9d47652d954495da",
    },
    "label-quantity/clean": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "10f6f660e964c40467acca00325701b1e1d998f49e90a0d4aa58a7dce3d129cc",
        "client_histograms.csv": "f19e12a3356bdc0f94233952f7ed61d1510a54a021dbf08377527e9095b60b66",
        "noisy_dataset.npy": "4ed2672feb650f1d0cc598efebbe08161311b9de6b1c410217896e23ed54acb0",
    },
    "label-quantity/globalized-symmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "ac460155721f34fa0743cd482d920bfd1ad6bdf5b1c866831e59b0d03b390756",
        "client_histograms.csv": "e7153942aaa0ebf83c32d6e4e3a9a92c0aff62a37052c15fa3f5b535b91bc868",
        "noisy_dataset.npy": "1c94a66c1a24c386b42b0cbab7841a504ec9340107656dab763f9fa8e082e6d5",
    },
    "label-quantity/globalized-asymmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "3e6a3ece498bbb8a5743e5f2cd213bb5af6c4ac945247481f9852f1688702923",
        "client_histograms.csv": "556a6db3bf4f9550ee944caae33c50ca5e7fd984d761f941e8de54b8d5d9858e",
        "noisy_dataset.npy": "5d75610a18a20bb6d94c183cd93fd40105a706f7f68ecdd5ae901a463eea7bdc",
    },
    "label-quantity/localized-symmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "10f6f660e964c40467acca00325701b1e1d998f49e90a0d4aa58a7dce3d129cc",
        "client_histograms.csv": "f19e12a3356bdc0f94233952f7ed61d1510a54a021dbf08377527e9095b60b66",
        "noisy_dataset.npy": "3472b4a4832968200feda01d1233166a237772e03c1f1cca7f92c7e057492960",
    },
    "label-quantity/localized-asymmetric": {
        "test_dataset.npy": "1aed827614a0b404d83810f4fda4f549f27872590ec5f908003351bb960c2ad1",
        "plan.json": "10f6f660e964c40467acca00325701b1e1d998f49e90a0d4aa58a7dce3d129cc",
        "client_histograms.csv": "f19e12a3356bdc0f94233952f7ed61d1510a54a021dbf08377527e9095b60b66",
        "noisy_dataset.npy": "3472b4a4832968200feda01d1233166a237772e03c1f1cca7f92c7e057492960",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rng_only_artifacts_keep_their_bytes(tmp_path, name):
    config, out = write_config(tmp_path, changes=RUNS[name])
    assert main(["noise", "-c", config]) == 0
    hashes = {}
    for rel in FILES:
        with open(os.path.join(out, rel), "rb") as fh:
            hashes[rel] = hashlib.sha256(fh.read()).hexdigest()
    assert hashes == PINNED[name]
