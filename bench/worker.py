"""One workload in one fresh interpreter; run by run.py, never imported.

Modes:
  setup    time `import spidergda` plus the workload's set-up, print it, exit
  measure  set up, then run timed units for --seconds (at least MIN_UNITS),
           check the outputs, print the raw measurements
  trace    install the layer tracer, set up, run one unit, print per-layer
           metrics (a fixed amount of work, so counts repeat exactly)

The last line of stdout is one JSON object.  Nothing is imported before the
set-up clock starts except the standard library and bench/hostspeed.py
(which uses only the standard library), so numpy's import is part of the
set-up time, as it is for a user.

Set-up, unit and epoch times are reported both raw and scaled to a fixed
host speed (bench/hostspeed.py); traced runs leave the scaling off.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_UNITS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "measure", "trace"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostspeed    # standard library only
    hostspeed.ENABLED = args.mode != "trace"

    setup_clock = hostspeed.ScaledClock()
    import spidergda
    if args.workload.startswith("cli"):
        import spidergda.cli  # noqa: F401  (the package does not import it)
    t_imported = time.perf_counter()

    import tracing
    import workloads

    out_dir = Path(args.out)
    w = workloads.WORKLOADS[args.workload](args.seed, args.size, out_dir)
    tracer = tracing.Tracer().install() if args.mode == "trace" else None
    if tracer is not None:
        for target in tracer.missing:
            print(f"trace: target missing, skipped: {target}", file=sys.stderr)

    t_setup = time.perf_counter()
    if tracer is None or not w.SETUP_IN_UNIT:
        w.setup(spidergda)
    setup_clock.stop()
    # the import plus the workload's set-up, without the benchmark's own
    # imports and bookkeeping between them
    setup_raw_s, setup_s = (a + b for a, b in zip(
        setup_clock.span(setup_clock.t0, t_imported),
        setup_clock.span(t_setup, setup_clock.t1)))
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    checks = workloads.Checks()
    metrics = {}
    unit_raw_s, unit_s, attempted, failed = [], [], 0, 0
    spent = 0.0     # timed units plus failed attempts; checks are extra
    first = True
    while True:
        attempted += 1
        t_try = time.perf_counter()
        try:
            (seconds, scaled_s), result = w.unit(spidergda)
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            seconds = time.perf_counter() - t_try
            traceback.print_exc(file=sys.stderr)
        else:
            unit_raw_s.append(seconds)
            unit_s.append(scaled_s)
            if tracer is not None:
                metrics = tracing.layer_metrics(tracer, seconds, w.output_bytes())
                tracer.uninstall()
                tracer.write_spans(out_dir / f"spans_seed{args.seed}.tsv")
            if first:
                w.check_first(spidergda, result, checks)
                first = False
            else:
                w.check_repeat(spidergda, result, checks)
        if tracer is not None:
            break
        spent += seconds
        if attempted >= MIN_UNITS and spent + seconds > args.seconds:
            break

    report = {
        "attempted": attempted,
        "failed": failed,
        "correct": bool(unit_s) and checks.ok,
        "checks": checks.items,
    }
    if tracer is not None:
        tracer.uninstall()
        report["metrics"] = metrics
    else:
        report.update({
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "unit_s": unit_s,
            "unit_raw_s": unit_raw_s,
            "epoch_ms_p50": (1000.0 * statistics.median(w.epochs["scaled"])
                             if w.epochs["scaled"] else None),
            "epoch_raw_ms_p50": (1000.0 * statistics.median(w.epochs["raw"])
                                 if w.epochs["raw"] else None),
            "samples_to_eps": w.samples_to_eps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
