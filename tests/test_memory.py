"""What the pipeline's stages hold in memory, and what they import.

A stage holds at most one copy of the training features at a time, in
float32, 4 bytes a value: the noise stage draws the blobs class by class
into one float32 array and corrupts the labels of one client's shard at a
time, and the train stage reads the float32 features and cuts each
client's shard when the client trains.  No stage makes an (N, dim) float64
array.  Beside its inputs and the shard of the client it trains, the train
stage's buffers are the size of a batch: each batch is taken from the
shard into one buffer, and the test set is evaluated in chunks of at most
``federation.EVAL_ROWS`` rows.  The array readers allocate nothing that a
file's header declares before they have checked it.  The traced
allocations are measured with ``tracemalloc`` (numpy reports its array
buffers to it) from a stage's start, on a wide config where the features
dominate every other allocation.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from noisyfl import cli, federation
from noisyfl.config import load_config
from noisyfl.datasets import make_synthetic_blobs, save_npy
from noisyfl.errors import ParseError
from noisyfl.federation import FedConfig, run_federation
from noisyfl.localtrain import TrainerConfig
from noisyfl.models import Layout
from noisyfl.partition import PartitionPlan
from test_cli import GLOBALIZED, _declaring, _header, write_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# SMALL widened to 4 x 1,000 rows of 256 features: 4.1 MB of float32 training features
WIDE = {
    "dataset.synthetic.num_classes": 4,
    "dataset.synthetic.per_class": 1000,
    "dataset.synthetic.dim": 256,
    "dataset.synthetic.test_per_class": 50,
    "federation.num_clients": 8,
    "federation.rounds": 2,
    "federation.model.hidden": 16,
    "federation.trainer.batch_size": 64,
    "federation.trainer.epochs": 1,
}

# a second copy of the features would take a stage to 2x, and a float64 one to 3x; the rest (one
# class's float64 draw, a client's shard, batch-sized buffers, hashing buffers) stays below this
PEAK_OVER_FEATURES = 1.75
FEATURE_BYTES = 4 * 1000 * 256 * 4


def test_each_stage_holds_one_copy_of_the_features(tmp_path):
    path, _ = write_config(tmp_path, changes=WIDE)
    cfg = load_config(path, {})
    peaks = {}
    tracemalloc.start()
    try:
        # each stage runs after the one before it finished, so it does only its own work
        for stage in (cli.cmd_noise, cli.cmd_train):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            stage(cfg)
            peaks[stage.__name__] = (tracemalloc.get_traced_memory()[1] - start) / FEATURE_BYTES
    finally:
        tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items() if peak >= PEAK_OVER_FEATURES} == {}, peaks


def traced_peak(call) -> int:
    """The traced peak of ``call()`` over what was allocated before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_train_stage_holds_its_inputs_one_shard_and_batch_sized_buffers(tmp_path):
    """On WIDE, the train stage's traced peak is at most its inputs, the largest shard and an O(batch) margin.

    The inputs are what the stage loads and keeps for its federations: both datasets and the plan
    with its client index arrays, measured as the traced memory that loading them leaves.  The
    largest shard is the one copy of a client's rows that ``restrict`` cuts: 4*dim + 16 bytes a
    row (float32 features, int64 labels and true labels).  The margin holds:
    - the batch buffer, b*dim*4 bytes (64 KiB here);
    - 16 bytes a row of the largest shard: its shuffled order and its gathered labels (13 KiB);
    - K + 16 models of P float32 values (P = 4,180, so 16.3 KiB each; 392 KiB here): a round's K
      client updates and their aggregate, the global model, the training stack and its velocity,
      the grad, decay and step buffers of the training and the evaluation workspace, and room to
      spare;
    - 128 KiB for the workspaces' row buffers (under 60 KiB here) and the stage's Python objects.
    That is 597 KiB.  An epoch's gather of the largest shard adds 806 KiB of features, and a shard
    held while the next client's is cut adds at least 199 rows of 1 KiB each, beyond the spare room.
    """
    path, out = write_config(tmp_path, changes=WIDE)
    cfg = load_config(path, {})
    cli.cmd_noise(cfg)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        noisy = cli.load_npy(os.path.join(out, "noisy_dataset.npy"))
        plan = cli.load_plan(os.path.join(out, "plan.npy"), len(noisy), cfg.federation.num_clients)
        test = cli.load_npy(os.path.join(out, "test_dataset.npy"))
        inputs = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    trainer = cfg.federation.trainer
    layout = Layout(noisy.dim, noisy.num_classes, cfg.model["hidden"])
    shard = (4 * noisy.dim + 16) * max(plan.sizes())
    margin = (
        trainer.batch_size * noisy.dim * 4
        + 16 * max(plan.sizes())
        + (cfg.federation.num_clients + 16) * layout.param_count * 4
        + 128 * 1024
    )
    del noisy, plan, test
    peak = traced_peak(lambda: cli.cmd_train(cfg))
    assert peak <= inputs + shard + margin, (peak - inputs - shard, margin)


def test_evaluation_memory_does_not_grow_with_the_test_set():
    """A federation's traced peak is the same within 4 KiB at 2,000 and at 20,000 test rows.

    The federation trains one 40-row client for one round, so its evaluation workspace, at most
    EVAL_ROWS rows of a 32-64-4 MLP, and the passes in it set the peak.  A workspace sized to
    the test set holds about 560 bytes a row here (512 in its two hidden-layer buffers), so the
    18,000 more rows would add about 10 MB; a chunk that grew with the test set would show too.
    """
    train = make_synthetic_blobs(4, 10, 32, 3.0, seed=0)
    plan = PartitionPlan(np.zeros(len(train), dtype=np.int64), 1)
    layout = Layout(dim=32, num_classes=4, hidden=64)
    cfg = FedConfig(num_clients=1, rounds=1, trainer=TrainerConfig(batch_size=64, epochs=1))
    peaks = []
    for per_class in (500, 5000):
        test = make_synthetic_blobs(4, per_class, 32, 3.0, seed=1)
        peaks.append(traced_peak(lambda: run_federation(train, plan, test, layout, cfg)))
    assert abs(peaks[1] - peaks[0]) <= 4096, peaks
    assert federation.EVAL_ROWS * layout.hidden * 4 <= peaks[0]  # the chunk's activations are traced


def huge_plan(path) -> None:
    """A plan.npy whose header declares 10**8 owners (800 MB) over 8 bytes of data."""
    path.write_bytes(_header((10**8,)) + bytes(8))


def huge_dataset(path) -> None:
    """A dataset file whose features header declares 10**4 x 10**4 float32s (400 MB) over 400 bytes of them."""
    save_npy(make_synthetic_blobs(2, 25, 2, 3.0, seed=0), str(path))
    path.write_bytes(_declaring((10**4, 10**4))(path.read_bytes()))


@pytest.mark.parametrize(
    "write, read",
    [(huge_plan, lambda path: cli.load_plan(path, 100, 2)), (huge_dataset, cli.load_npy)],
    ids=["plan", "dataset"],
)
def test_a_header_is_refused_before_its_array_is_allocated(tmp_path, write, read):
    path = tmp_path / "probe.npy"
    write(path)

    def refused():
        with pytest.raises(ParseError, match=str(path)):
            read(str(path))

    peak = traced_peak(refused)
    assert peak < 2**20, peak


@pytest.mark.parametrize("num_classes", [4, 8])
def test_blobs_make_no_float64_copy_of_the_features(num_classes):
    """The blobs hold their float32 features and one class's float64 draw at a time, never an (N, dim) float64 array.

    Beside those two, the draw allocates the label vectors (2 x N int64) and numpy's
    casting buffers: together under a quarter of one class's draw here.
    """
    per_class = 4000 // num_classes
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        make_synthetic_blobs(num_classes, per_class, 256, 2.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    class_draw = per_class * 256 * 8
    assert peak < FEATURE_BYTES + 1.25 * class_draw, (peak, FEATURE_BYTES, class_draw)


@pytest.mark.parametrize("changes", [None, GLOBALIZED], ids=["localized", "globalized"])
def test_pipeline_does_not_import_numpy_ma(tmp_path, changes):
    # plain np.unique imports numpy.ma on first use (about 1.2 MB and 12 ms a process)
    path, _ = write_config(tmp_path, changes=changes)
    script = (
        "import sys\n"
        "from noisyfl.cli import main\n"
        f"assert main(['pipeline', '-c', {path!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"
