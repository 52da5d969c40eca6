"""Pipeline benchmark for noisyfl: end-to-end metrics, or per-layer metrics from a traced run.

Usage:
    python3 perfbench/run.py --workload reference --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all        # reference, coteach and io_heavy in turn

Load model: a closed loop with one caller.  Each op is a full pipeline in a
fresh Python process (``op.py``) with its own output directory, one op
after another, while the next op is likely to end within ``--seconds``; at least
two ops run so that their outputs can be compared.  BLAS is pinned to one
thread in every op process.  Each op is checked: exit code 0, every hash in
``run.json`` matches its file, ``run.json`` bytes equal those of the run's
first op, and the last-10-round accuracy is finite and above chance.

With ``--trace 1`` the ops alternate untraced and traced; the traced ones
wrap noisyfl's public functions (see ``tracer.py``) and give the per-layer
metrics, and the difference in pipeline time is the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
# ops import noisyfl from cached bytecode, as an installed package would
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import numpy as np  # noqa: E402  (after pinning BLAS threads)

sys.path.insert(0, HERE)
from tracer import TARGETS  # noqa: E402

MIN_OPS = 2  # run.json bytes are compared across ops of one run
SETUP_PROBES = 8  # extra set-up-only processes per run, for a steadier setup_s median
OP_TIMEOUT_S = 120

END_TO_END = [
    ("pipeline_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("last10_acc", "fraction", "higher"),
    ("ok_ratio", "fraction", "higher"),
]

_SPAN_STATS = {"calls", "s", "self_s", "bytes", "rows"}

PER_LAYER = [
    ("datasets.make_synthetic_blobs.calls", "count", "lower"),
    ("datasets.save_csv.calls", "count", "lower"),
    ("datasets.save_csv.s", "s", "lower"),
    ("datasets.save_csv.bytes", "B", "lower"),
    ("datasets.load_csv.calls", "count", "lower"),
    ("datasets.load_csv.s", "s", "lower"),
    ("datasets.load_csv.bytes", "B", "lower"),
    ("cli.cmd_partition.s", "s", "lower"),
    ("cli.cmd_noise.s", "s", "lower"),
    ("cli.cmd_train.s", "s", "lower"),
    ("cli.cmd_analyze.s", "s", "lower"),
    ("cli.sha256_file.calls", "count", "lower"),
    ("cli.sha256_file.s", "s", "lower"),
    ("cli.sha256_file.bytes", "B", "lower"),
    ("cli.write_json.calls", "count", "lower"),
    ("cli.write_json.s", "s", "lower"),
    ("cli.cmd_pipeline.self_s", "s", "lower"),
    ("partition.make_partition.calls", "count", "lower"),
    ("partition.make_partition.s", "s", "lower"),
    ("partition.make_partition.attempts_per_plan", "attempt/plan", "lower"),
    ("partition.restrict.calls", "count", "lower"),
    ("partition.restrict.s", "s", "lower"),
    ("partition.save_plan.s", "s", "lower"),
    ("partition.save_plan.bytes", "B", "lower"),
    ("partition.load_plan.s", "s", "lower"),
    ("noise.run_scene.s", "s", "lower"),
    ("noise.apply_noise.calls", "count", "lower"),
    ("noise.apply_noise.s", "s", "lower"),
    ("localtrain.train_local.calls", "count", "lower"),
    ("localtrain.train_local.s", "s", "lower"),
    ("localtrain.train_local.self_s", "s", "lower"),
    ("localtrain.train_local_coteaching.calls", "count", "lower"),
    ("localtrain.train_local_coteaching.s", "s", "lower"),
    ("localtrain.train_local_coteaching.self_s", "s", "lower"),
    ("localtrain.sgd_step.calls", "count", "lower"),
    ("localtrain.sgd_step.s", "s", "lower"),
    ("localtrain.small_loss_selection.calls", "count", "lower"),
    ("localtrain.small_loss_selection.rows", "row", "lower"),
    ("localtrain.small_loss_selection.kept_per_ranked", "row/row", "higher"),
    ("losses.backward.calls", "count", "lower"),
    ("losses.backward.s", "s", "lower"),
    ("losses.backward.rows", "row", "lower"),
    ("models.forward_cached.calls", "count", "lower"),
    ("models.forward_cached.s", "s", "lower"),
    ("models.params_built", "count", "lower"),
    ("models.save_checkpoint.s", "s", "lower"),
    ("federation.run_federation.s", "s", "lower"),
    ("federation.run_federation.self_s", "s", "lower"),
    ("federation.round_s.p50", "s", "lower"),
    ("federation.round_s.p90", "s", "lower"),
    ("federation.aggregate.calls", "count", "lower"),
    ("federation.aggregate.s", "s", "lower"),
    ("federation.evaluate.calls", "count", "lower"),
    ("federation.evaluate.s", "s", "lower"),
    ("federation.write_telemetry.s", "s", "lower"),
    ("config.validate_config.s", "s", "lower"),
    ("rng.stream.calls", "count", "lower"),
    ("rng.stream.s", "s", "lower"),
    ("trace.pipeline_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


# ---------------------------------------------------------------- workloads

def _derived_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _config(seed: int, *, num_classes=10, per_class=1000, dim=32, test_per_class=200, hidden=64,
            noise, clients=10, fraction=1.0, rounds=20, method="ce", epochs=5) -> dict:
    return {
        "seed": seed,
        "output_dir": "unused",  # each op overrides it
        "repeats": 1,
        "dataset": {
            "synthetic": {
                "num_classes": num_classes,
                "per_class": per_class,
                "dim": dim,
                "separation": 3.0,
                "test_per_class": test_per_class,
                "seed": _derived_seed(seed, "dataset"),
            }
        },
        "partition": {"scheme": "label-dir", "alpha": 0.5},
        "noise": noise,
        "federation": {
            "num_clients": clients,
            "rounds": rounds,
            "selection_fraction": fraction,
            "eval_every": 1,
            "model": {"kind": "mlp", "hidden": hidden, "activation": "tanh"},
            "trainer": {"method": method, "lr": 0.05, "batch_size": 64, "epochs": epochs},
        },
    }


LOCALIZED_SYM = {"scene": "localized", "mode": "symmetric", "eps_min": 0.3, "eps_max": 0.5}

WORKLOADS = {
    # ROADMAP's reference config: training and artifact I/O both large.
    "reference": lambda seed: _config(seed, noise=LOCALIZED_SYM),
    # Two networks per client and no partition stage: training-bound.
    "coteach": lambda seed: _config(
        seed,
        per_class=500,
        noise={"scene": "globalized", "mode": "symmetric", "eps_global": 0.4},
        method="coteaching",
    ),
    # 15k samples, K=100, 10% participation, one epoch: artifact-I/O-bound.
    "io_heavy": lambda seed: _config(
        seed,
        per_class=1500,
        noise={"scene": "localized", "mode": "asymmetric", "eps_min": 0.2, "eps_max": 0.4},
        clients=100,
        fraction=0.1,
        epochs=1,
    ),
    # Seconds-long pipeline for the self-tests; not part of BENCHMARK.json.
    "smoke": lambda seed: _config(
        seed, num_classes=3, per_class=60, dim=8, test_per_class=20, hidden=8, noise=LOCALIZED_SYM,
        clients=3, rounds=4, epochs=2,
    ),
}
MAIN_WORKLOADS = ["reference", "coteach", "io_heavy"]


# ---------------------------------------------------------------- one op

def run_op(config_path: str, op_dir: str, trace: bool = False, setup_only: bool = False) -> dict:
    """Start op.py, wait for it, and collect its report and resource usage."""
    os.makedirs(op_dir)
    out_dir = os.path.join(op_dir, "out")
    report_path = os.path.join(op_dir, "report.json")
    cmd = [sys.executable, os.path.join(HERE, "op.py"), config_path, out_dir, report_path]
    cmd += [repr(time.monotonic())] + ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(os.path.join(op_dir, "stderr.txt"), "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=op_dir)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    op = {
        "exit_code": proc.returncode,
        "stderr": stderr.strip().splitlines()[-1:] if stderr.strip() else [],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "trace": trace,
        "out_dir": out_dir,
    }
    if proc.returncode == 0:
        with open(report_path, "r", encoding="utf-8") as fh:
            op.update(json.load(fh))
    return op


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def check_op(op: dict, reference_run_json: bytes | None, num_classes: int) -> str | None:
    """Why the op's outputs are wrong, or None when every check passes.

    On success the op gains ``run_json`` (bytes), ``last10_acc`` and ``config_digest``.
    """
    if op["exit_code"] != 0:
        return f"exit code {op['exit_code']}: {' '.join(op['stderr'])}"
    try:
        return _check_outputs(op, reference_run_json, num_classes)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"


def _check_outputs(op: dict, reference_run_json: bytes | None, num_classes: int) -> str | None:
    out = op["out_dir"]
    with open(os.path.join(out, "run.json"), "rb") as fh:
        op["run_json"] = fh.read()
    run = json.loads(op["run_json"])
    on_disk = set()
    for root, _, files in os.walk(out):
        on_disk.update(os.path.relpath(os.path.join(root, f), out).replace(os.sep, "/") for f in files)
    if on_disk != set(run["artifacts"]) | {"run.json"}:
        return f"run.json lists {sorted(run['artifacts'])} but the output holds {sorted(on_disk)}"
    for rel, recorded in run["artifacts"].items():
        if _sha256(os.path.join(out, rel)) != recorded:
            return f"hash of {rel} does not match run.json"
    if reference_run_json is not None and op["run_json"] != reference_run_json:
        return "run.json differs from the first op of this run"
    with open(os.path.join(out, "train", "seed_0", "seed_manifest.json"), "r", encoding="utf-8") as fh:
        acc = json.load(fh)["last_k_accuracy"]
    if not (math.isfinite(acc) and acc > 1.0 / num_classes):
        return f"last-10 accuracy {acc} is not above chance {1.0 / num_classes}"
    op["last10_acc"] = acc
    op["config_digest"] = run["config_digest"]
    return None


# ---------------------------------------------------------------- metrics

_SPAN_NAMES = {span for _, _, span, _ in TARGETS}


def _layer_value(name: str, layers: dict) -> float:
    """One per-layer metric of one traced op."""
    if name == "models.params_built":
        return layers.get("models.ModelParams.__post_init__.calls", 0)
    if name == "partition.make_partition.attempts_per_plan":
        plans = layers.get("partition.make_partition.calls", 0)
        return layers.get("partition.labeldir_shares_streams", 0) / plans if plans else 0.0
    if name == "localtrain.small_loss_selection.kept_per_ranked":
        ranked = layers.get("localtrain.small_loss_selection.rows", 0)
        return layers.get("localtrain.small_loss_selection.kept", 0) / ranked if ranked else 0.0
    span, stat = name.rsplit(".", 1)
    if span not in _SPAN_NAMES or stat not in _SPAN_STATS:
        raise KeyError(f"no traced span gives {name}")
    return layers.get(name, 0)


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over the traced ops; the low median keeps counts whole numbers."""
    rounds = [r for op in traced for r in op["layers"]["federation.round_s"]]
    values = {
        "federation.round_s.p50": statistics.median(rounds),
        "federation.round_s.p90": statistics.quantiles(rounds, n=10)[-1] if len(rounds) > 1 else rounds[0],
        "trace.pipeline_s": statistics.median(op["pipeline_s"] for op in traced),
    }
    values["trace.overhead_s"] = values["trace.pipeline_s"] - statistics.median(op["pipeline_s"] for op in untraced)
    for name, _, _ in PER_LAYER:
        if name not in values:
            values[name] = statistics.median_low(_layer_value(name, op["layers"]) for op in traced)
    return values


def end_to_end_metrics(untraced: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    return {
        "pipeline_s": statistics.median(op["pipeline_s"] for op in untraced),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(op["cpu_s"] for op in untraced),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in untraced),
        "last10_acc": statistics.median(op["last10_acc"] for op in untraced),
        "ok_ratio": (attempted - failed) / attempted,
    }


# ---------------------------------------------------------------- one run

def host_probe_ms() -> float:
    """Time of a fixed pure-Python loop.

    On a shared host it rises by up to 1.8x while another tenant loads the
    same core, and ops slow down with it; recorded so that a spread in the
    timings can be told apart from a change in the program.
    """
    began = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - began) * 1000.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ops of one workload for ``seconds``; return the result and the environment."""
    started = time.monotonic()
    deadline = started + seconds
    doc = WORKLOADS[workload](seed)
    num_classes = doc["dataset"]["synthetic"]["num_classes"]
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(HERE, ".work"))
    try:
        config_path = os.path.join(work, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)

        # the first start compiles bytecode and fills the page cache; users pay that once
        run_op(config_path, os.path.join(work, "warmup"), setup_only=True)
        setups = []
        for i in range(SETUP_PROBES):
            probe = run_op(config_path, os.path.join(work, f"setup_{i}"), setup_only=True)
            if probe["exit_code"] == 0:
                setups.append(probe["setup_s"])

        ops, failures, reference_run_json, walls, probes = [], [], None, [], []
        while len(walls) < MIN_OPS or time.monotonic() + statistics.median(walls) <= deadline:
            index = len(walls)
            probes.append(host_probe_ms())
            began = time.monotonic()
            op = run_op(config_path, os.path.join(work, f"op_{index}"), trace=trace and index % 2 == 1)
            walls.append(time.monotonic() - began)
            problem = check_op(op, reference_run_json, num_classes)
            shutil.rmtree(op.pop("out_dir"), ignore_errors=True)
            if problem:
                failures.append(f"op {index}: {problem}")
                continue
            reference_run_json = reference_run_json or op["run_json"]
            ops.append(op)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [op for op in ops if not op["trace"]]
    traced = [op for op in ops if op["trace"]]
    if not untraced or (trace and not traced):
        raise SystemExit(f"{workload}: no op passed its checks: {failures}")
    setups += [op["setup_s"] for op in untraced]
    attempted = len(ops) + len(failures)
    if trace:
        values, units = per_layer_metrics(traced, untraced), {n: u for n, u, _ in PER_LAYER}
    else:
        values = end_to_end_metrics(untraced, setups, attempted, len(failures))
        units = {n: u for n, u, _ in END_TO_END}
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        },
        "failures": failures,
        "environment": environment(workload, seed, ops, len(setups), probes),
    }


def environment(workload: str, seed: int, ops: list[dict], setups: int, probes: list[float]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "config_digest": ops[0]["config_digest"],
        "op_pipeline_s": [round(op["pipeline_s"], 4) for op in ops],
        "setup_samples": setups,
        "host_probe_ms": [round(p, 1) for p in probes],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _print_run(workload: str, run: dict) -> None:
    result = run["result"]
    print(f"[{workload}] environment {json.dumps(run['environment'], sort_keys=True)}")
    for failure in run["failures"]:
        print(f"[{workload}] FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"[{workload}] {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"[{workload}] fail_ratio = {result['failed'] / result['attempted']:.6g} "
          f"fraction ({result['failed']} of {result['attempted']} ops)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "noisyfl", "cli.py")):
        print(f"noisyfl sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workloads = MAIN_WORKLOADS if args.workload == "all" else [args.workload]
    runs = {}
    for workload in workloads:
        runs[workload] = measure(workload, args.seed, args.seconds, bool(args.trace))
        _print_run(workload, runs[workload])

    results = [run["result"] for run in runs.values()]
    if len(runs) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{w}.{name}": metric for w, run in runs.items() for name, metric in run["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
