"""One benchmark op: a full ``noisyfl pipeline`` in this fresh process.

Usage: python3 op.py CONFIG OUTPUT_DIR REPORT SPAWNED_AT [--trace] [--setup-only]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, importing noisyfl and
validating the config.  Pipeline time runs from the ``cmd_pipeline`` call
until it returns, right after ``run.json`` is written.  The timings (and,
with --trace, the reduced spans) go to REPORT as JSON; stdout stays empty.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    config_path, output_dir, report_path, spawned_at = argv[:4]
    trace = "--trace" in argv[4:]
    setup_only = "--setup-only" in argv[4:]

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from noisyfl import cli, config

    tracer = None
    if trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        cfg = config.load_config(config_path, {"output_dir": output_dir})
        ready = time.monotonic()
        report = {"setup_s": ready - float(spawned_at)}
        if not setup_only:
            cli.cmd_pipeline(cfg)
            report["pipeline_s"] = time.monotonic() - ready
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        report["layers"] = tracer.reduce()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
