"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Each workload runs in fresh single-threaded interpreters
(bench/worker.py): with --trace 0, SETUP_PROBES short ones that only time
the set-up and one that measures for S seconds; with --trace 1, one traced
interpreter that runs a single unit.  The last line of stdout is the result
as one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"

WORKLOADS = ("quad_tuned", "gdro_smoothed", "cli_diagnostics")
SETUP_PROBES = 4            # plus the measuring interpreter's own set-up
RUN_TIMEOUT_S = 170         # the whole run must end within 180 s

# one BLAS thread and a fixed hash seed, so runs differ only by the host
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

UNITS = {"setup_s": "s", "solve_s": "s", "epoch_ms_p50": "ms",
         "peak_rss_mb": "MB", "samples_to_eps": "samples"}


def _worker(mode: str, args, out_dir: Path, deadline: float) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out_dir),
           "--size", "smoke" if args.smoke else "full"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes: every check in a few seconds")
    args = ap.parse_args()

    if not (ROOT / "src" / "spidergda" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    out_dir = OUT_ROOT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    try:
        if args.trace:
            main_report = _worker("trace", args, out_dir, deadline)
            metrics = main_report["metrics"]
        else:
            probes = 1 if args.smoke else SETUP_PROBES
            probe_reports = [_worker("setup", args, out_dir, deadline)
                             for _ in range(probes)]
            main_report = _worker("measure", args, out_dir, deadline)
            setups = [r["setup_s"] for r in probe_reports + [main_report]]
            raw = {
                "setup_s": statistics.median(
                    r["setup_raw_s"] for r in probe_reports + [main_report]),
                "solve_s": statistics.median(main_report["unit_raw_s"]),
                "epoch_ms_p50": main_report["epoch_raw_ms_p50"],
            }
            values = {
                "setup_s": statistics.median(setups),
                "solve_s": statistics.median(main_report["unit_s"]),
                "epoch_ms_p50": main_report["epoch_ms_p50"],
                "peak_rss_mb": main_report["peak_rss_mb"],
                "samples_to_eps": main_report["samples_to_eps"],
            }
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    except (RuntimeError, subprocess.TimeoutExpired, KeyError,
            statistics.StatisticsError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    for name, ok, detail in main_report["checks"]:
        print(f"[{'pass' if ok else 'FAIL'}] {args.workload}: {name}"
              + (f" ({detail})" if detail else ""))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    if not args.trace:
        print(f"{args.workload} unscaled by host speed: "
              + ", ".join(f"{k} = {v} {UNITS[k]}" for k, v in raw.items()))
    print(json.dumps({"correct": main_report["correct"],
                      "attempted": main_report["attempted"],
                      "failed": main_report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
