"""One CLI invocation in a fresh interpreter, as a user's `trendgp ...` would be.

    python3 bench/worker.py --workload NAME --data-seed N --work-dir DIR [--trace] [--setup-only]

Imports trendgp (from the checkout's `src`, which the caller puts on
PYTHONPATH), writes the workload's input into DIR, then times
`trendgp.cli.main(argv)`.  With --trace the module callables are wrapped
first and the spans are written to DIR/trace.json after the call.  The
timings go to DIR/result.json; the caller checks the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--data-seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import trendgp.cli
    from workloads import WORKLOADS, prepare

    argv = prepare(WORKLOADS[args.workload], args.data_seed, args.work_dir)
    result = {"ready": time.monotonic(), "trendgp_file": trendgp.cli.__file__}
    result_path = os.path.join(args.work_dir, "result.json")
    if args.setup_only:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=os.path.basename(args.work_dir))
        tracer.install()
    code, error = 0, None
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        code = trendgp.cli.main(argv) or 0
    except SystemExit as exc:  # the CLI reports failures by exit code
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # recorded and counted as a failed run by the caller
        code, error = 1, traceback.format_exc()
    end = time.perf_counter()
    result.update(
        exit=code,
        error=error,
        wall_s=end - start,
        cpu_s=_cpu_s() - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(args.work_dir, "trace.json"), (start, end))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
