"""One command for the end-to-end benchmark.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload; the last line of standard output is one JSON
    object (``--trace 0``: the end-to-end metrics BENCHMARK.json gates,
    ``--trace 1``: the per-layer metrics). This is what the driver calls.

``PYTHONPATH=src python -m benchmarks.e2e.run --seed N``
    the suite: every workload, untraced then traced; prints the nine
    end-to-end metrics for the workloads they apply to and the per-layer
    table, and writes ``.bench_e2e/results-seed<N>.json``.

``... --agree``
    the suite's untraced runs twice; prints both values of each metric,
    their relative difference and the bound; exits 1 if a pair disagrees
    by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT} is not a checkout of the program under test (no src/repro)")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e import spec, stats  # noqa: E402
from benchmarks.e2e.workloads import CheckFailed, Harness  # noqa: E402

OUT_DIR = ROOT / ".bench_e2e"


def _run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def environment() -> dict[str, object]:
    """Where and on what this run was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def contended(env: dict[str, object], loadavg_after: tuple[float, ...]) -> bool:
    """Did other work compete for the cores? (1-minute load averages.)

    The benchmark itself keeps at most two tasks runnable, so a box that
    was already busier than its core count before the run, or ends more
    than one task above it, was shared.
    """
    nproc = env["nproc"]
    return env["loadavg"][0] > nproc or loadavg_after[0] > nproc + 1


def _measure(harness: Harness, workload: str, seed: int, seconds: float,
             trace: bool) -> dict[str, object]:
    env = environment()
    run = harness.run(workload, seed, seconds, trace)
    after = os.getloadavg()
    record = asdict(run)
    record["env"] = dict(env, loadavg_after=list(after))
    record["unresolved"] = contended(env, after)
    record["seconds"] = seconds
    return record


def _write(name: str, payload: object) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# -- contract mode -------------------------------------------------------------


def contract_line(record: dict, trace: bool) -> str:
    """The driver's result object for one run (*record*: a RunResult as a dict)."""
    if trace:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": spec.PER_LAYER_UNITS[name]}
            for name in spec.PER_LAYER_NAMES
        }
    else:
        values = spec.contract_metrics(record["end_to_end"], record["workload"])
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better, _bound in spec.CONTRACT_END_TO_END
        }
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def run_contract(args: argparse.Namespace) -> int:
    harness = Harness(ROOT, OUT_DIR)
    record = _measure(harness, args.workload, args.seed, args.seconds, bool(args.trace))
    path = _write(f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(f"{args.workload} seed {args.seed}: details in {path}", file=sys.stderr)
    for note in record["notes"]:
        print(f"note: {note}", file=sys.stderr)
    if record["unresolved"]:
        print("note: load average shows a contended box; run is unresolved", file=sys.stderr)
    if not record["correct"]:
        print(f"INCORRECT: {record['failed']} failed, checks {record['checks']}", file=sys.stderr)
    # The verdict travels in the line; the exit code only says a line was printed.
    print(contract_line(record, bool(args.trace)))
    return 0


# -- suite mode ----------------------------------------------------------------


def print_end_to_end(records: list[dict]) -> None:
    print(f"{'workload':<13} {'metric':<24} {'value':>14} {'unit':<6} "
          f"{'n':>8} {'better':<7} bound")
    for record in records:
        for metric in spec.end_to_end_for(record["workload"]):
            bound = "any" if metric.bound == 0 else f"{metric.bound:.0%}"
            print(
                f"{record['workload']:<13} {metric.name:<24} "
                f"{record['end_to_end'][metric.name]:>14.6g} {metric.unit:<6} "
                f"{record['samples'][metric.name]:>8} {metric.better:<7} {bound}"
            )
        flag = " UNRESOLVED (contended box)" if record["unresolved"] else ""
        verdict = "correct" if record["correct"] else f"INCORRECT {record['checks']}"
        print(f"{record['workload']:<13} checks: {verdict}{flag}")


def print_per_layer(records: list[dict]) -> None:
    names = [record["workload"] for record in records]
    print(f"{'per-layer metric (traced run)':<42} {'unit':<6}"
          + "".join(f"{name:>14}" for name in names))
    for name, unit, _better in spec.PER_LAYER:
        cells = "".join(f"{record['per_layer'][name]:>14.6g}" for record in records)
        print(f"{name:<42} {unit:<6}{cells}")


def run_suite(args: argparse.Namespace, workloads: list[str]) -> int:
    harness = Harness(ROOT, OUT_DIR)
    records = []
    for workload in workloads:
        print(f"running {workload} (untraced, then traced) ...", file=sys.stderr)
        records.append(_measure(harness, workload, args.seed, args.seconds, True))
    # Set-up is repeated only on untraced-only runs; the traced pass above
    # sets up once, so its setup_s is a single sample (shown as n=1).
    print_end_to_end(records)
    print()
    print_per_layer(records)
    for record in records:
        for note in record["notes"]:
            print(f"note ({record['workload']}): {note}")
    path = _write(f"results-seed{args.seed}.json", records)
    print(f"\nresults: {path}; spans: {OUT_DIR}/trace-<workload>.jsonl")
    return 0 if all(record["correct"] for record in records) else 1


def run_agree(args: argparse.Namespace, workloads: list[str]) -> int:
    harness = Harness(ROOT, OUT_DIR)
    passes = []
    for number in (1, 2):
        records = {}
        for workload in workloads:
            print(f"pass {number}: {workload} ...", file=sys.stderr)
            records[workload] = _measure(harness, workload, args.seed, args.seconds, False)
        passes.append(records)
    print(f"{'workload':<13} {'metric':<24} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}")
    disagreements = 0
    for workload in workloads:
        for metric in spec.end_to_end_for(workload):
            first, second = (records[workload]["end_to_end"][metric.name] for records in passes)
            # Order must not matter: take the worse direction of the two.
            worse = max(
                stats.worsening(first, second, metric.better),
                stats.worsening(second, first, metric.better),
            )
            disagree = worse > metric.bound
            disagreements += disagree
            print(
                f"{workload:<13} {metric.name:<24} {first:>12.6g} {second:>12.6g} "
                f"{worse:>9.2%} {metric.bound:>6.0%}{'  DISAGREE' if disagree else ''}"
            )
        if any(records[workload]["unresolved"] for records in passes):
            print(f"{workload:<13} UNRESOLVED: load average shows a contended box")
    _write(f"agree-seed{args.seed}.json", passes)
    incorrect = [
        workload for records in passes for workload in workloads
        if not records[workload]["correct"]
    ]
    if incorrect:
        print(f"correctness checks failed: {sorted(set(incorrect))}")
    return 1 if disagreements or incorrect else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS,
                        help="one run of one workload, result as the last JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--agree", action="store_true",
                        help="run the suite twice and compare within the bounds")
    parser.add_argument("--only", default=",".join(spec.WORKLOADS),
                        help="suite/agree: comma-separated workloads to run")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_run_seconds())
    try:
        if args.workload:
            return run_contract(args)
        workloads = [name for name in spec.WORKLOADS if name in args.only.split(",")]
        return run_agree(args, workloads) if args.agree else run_suite(args, workloads)
    except CheckFailed as error:
        print(f"benchmark harness failed: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
