"""Command line of the benchmark.

    python benchmarks/perf/run.py --workload NAME [--seed N] [--seconds S]
                                  [--trace 0|1] [--out FILE]
    python benchmarks/perf/run.py --repeat K [--workload NAME] [--seed N]

One run prints every metric by name and unit and ends with one JSON
line: ``--trace 0`` reports the end-to-end metrics from untraced replays,
``--trace 1`` the per-layer metrics from one extra traced replay.
``--repeat K`` makes K untraced runs per workload on seeds N, N+1, … and
prints each end-to-end metric's spread against its bound.  The exit code
is non-zero when a reply, the recovery check or a spread fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload_name: str, seed: int, seconds: float, trace: bool,
             scale=None) -> dict:
    """One run; returns the full result document."""
    from benchmarks.perf import harness
    from benchmarks.perf.workloads import WORKLOADS, Scale

    workload = WORKLOADS[workload_name]
    run = harness.new_run(workload, seed, scale or Scale())
    try:
        if trace:
            base = harness.measure(run, seconds / 2, anchor_only=True)
            traced = harness.trace(run, base)
            metrics = traced["per_layer"]
            extra = {"end_to_end": base["end_to_end"],
                     "by_class_ms": traced["by_class_ms"],
                     "requests": traced["requests"]}
        else:
            base = harness.measure(run, seconds)
            metrics = base["end_to_end"]
            extra = {}
        return {
            "workload": workload.name,
            "trace": trace,
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "notes": run.notes,
            "metrics": metrics,
            "provenance": harness.provenance(run, len(base["replays"])),
            **extra,
        }
    finally:
        run.close()


def _units(declared: dict) -> dict:
    return {m["name"]: m["unit"]
            for m in declared["end_to_end"] + declared["per_layer"]}


def report(result: dict, units: dict) -> dict:
    """Print the metric table and the driver's last line."""
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    for note in result["notes"]:
        print(f"FAILED: {note}")
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    print(json.dumps(line))
    return line


def repeat(names: list[str], first_seed: int, seconds: float, k: int,
           declared: dict) -> tuple[dict, bool]:
    """K untraced runs per workload on consecutive seeds; per metric the
    quartile spread (the acceptance statistic) and the full range, both
    as shares of the median."""
    table: dict[str, dict] = {}
    ok = True
    for name in names:
        runs = [run_once(name, first_seed + i, seconds, trace=False)
                for i in range(k)]
        ok = ok and all(r["correct"] for r in runs)
        table[name] = {}
        for metric in declared["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            row = {
                "values": values,
                "median": median,
                "iqr_over_median": (q3 - q1) / median,
                "range_over_median": (max(values) - min(values)) / median,
                "bound": metric["bound"],
            }
            # setup_s is gated on its median only, never on its spread.
            row["within_bound"] = (metric["name"] == "setup_s"
                                   or row["iqr_over_median"] <= row["bound"])
            ok = ok and row["within_bound"]
            table[name][metric["name"]] = row
            print(f"{name:16s} {metric['name']:15s} "
                  f"median {median:12.6g} {metric['unit']:6s} "
                  f"iqr {row['iqr_over_median']:7.2%} "
                  f"range {row['range_over_median']:7.2%} "
                  f"bound {row['bound']:5.0%} "
                  f"{'ok' if row['within_bound'] else 'BREACH'}")
    return table, ok


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # the driver's checkout is not a git repository


def main(argv: list[str] | None = None) -> int:
    declared = _declared()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="K")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if not args.repeat and args.workload is None:
        parser.error("--workload is required unless --repeat is given")

    # Run as a script, sys.path[0] is this directory, whose trace.py
    # would shadow the standard library's: import through the package.
    if sys.path and Path(sys.path[0] or ".").resolve() == Path(__file__).parent:
        sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    # A terminated run must still stop its server: turn SIGTERM into an
    # exit that unwinds run_once()'s finally.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if args.repeat:
        chosen = [args.workload] if args.workload else names
        table, ok = repeat(chosen, args.seed, args.seconds, args.repeat,
                           declared)
        document = {"repeat": args.repeat, "first_seed": args.seed,
                    "git_sha": _git_sha(), "spread": table}
    else:
        result = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace))
        result.pop("requests", None)
        result["provenance"]["git_sha"] = _git_sha()
        document = result
        ok = report(result, _units(declared))["correct"]
    if args.out is not None:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
