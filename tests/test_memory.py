"""What the pipeline's stages hold in memory, and what they import.

A stage holds at most one copy of the training features at a time, in
float32, 4 bytes a value: the noise stage draws the blobs class by class
into one float32 array and corrupts the labels of one client's shard at a
time, and the train stage reads the float32 features and cuts each
client's shard when the client trains.  No stage makes an (N, dim) float64
array.  The traced allocations of a stage are measured with
``tracemalloc`` (numpy reports its array buffers to it) from the stage's
start, on a wide config where the features dominate every other
allocation.
"""

import os
import subprocess
import sys
import tracemalloc

import pytest

from noisyfl import cli
from noisyfl.config import load_config
from noisyfl.datasets import make_synthetic_blobs
from test_cli import GLOBALIZED, write_config

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
# class's float64 draw, a client's shard, an epoch's gather of it, hashing buffers) stays below this
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
