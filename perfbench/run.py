"""Lifecycle benchmark of the SCAN index: the build and explore workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload runs in a fresh child process.  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` re-runs with spans around every layer and
prints the per-layer tables and metrics.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch and trace output, inside the checkout (see the root .gitignore).
OUTPUT = ROOT / ".perfbench"
CHILD_TIMEOUT = 170.0
WORKLOAD_NAMES = ("build", "explore")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def error_row(reason: str) -> dict:
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "error": reason}


def run_in_child(args: argparse.Namespace, workload: str) -> tuple[dict, str]:
    """One workload in a fresh process group; ``(result, printed output)``.

    A crash, a timeout or a missing result line becomes an error row.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        output, _ = child.communicate()
        return error_row(f"{workload}: timed out after {CHILD_TIMEOUT:g}s"), output
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    lines = output.strip().splitlines()
    if child.returncode != 0 or not lines:
        return error_row(f"{workload}: exited {child.returncode}"), output
    try:
        return json.loads(lines[-1]), "\n".join(lines[:-1])
    except json.JSONDecodeError:
        return error_row(f"{workload}: no result line"), output


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import lifecycle
    import report
    from repro.bench.environment import capture_environment

    workload = lifecycle.WORKLOADS[args.workload]
    OUTPUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUTPUT))
    traced = bool(args.trace)
    environment = capture_environment()
    run_id = f"{workload.name}-seed{args.seed}"
    try:
        run = lifecycle.Run(workload, args.seed, args.seconds, ROOT, workdir)
        log = lifecycle.SpanLog(traced, run_id)
        log.event("bench.environment", **environment)
        lifecycle.setup(run)
        lifecycle.lifecycle(run, log)
        print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}\n  {workload.why}")
        print("  environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
        print(f"  stage wall seconds: {run.notes['stage_seconds']}")
        if traced:
            untraced = lifecycle.Run(workload, args.seed, args.seconds, ROOT, workdir)
            lifecycle.lifecycle(untraced, lifecycle.SpanLog(False), focus_only=True)
            run.attempted += untraced.attempted
            run.failed += untraced.failed
            run.problems += untraced.problems
            metrics, tables = report.per_layer(run, log, untraced)
            trace_path = OUTPUT / "traces" / f"{run_id}.jsonl"
            log.dump(trace_path)
            validated = subprocess.run(
                [sys.executable, "-m", "repro", "obs", "validate", str(trace_path)],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                capture_output=True, text=True, timeout=60,
            )
            run.check(validated.returncode == 0, f"trace invalid: {validated.stderr.strip()}")
            print(f"  trace: {trace_path.relative_to(ROOT)} ({validated.stdout.strip()})")
            print("per-layer reconciliation (medians; rows + residual = total):")
            report.print_tables(tables)
            print(f"  sweep base: {run.notes['sweep_base']}")
            print(f"  serve counters: {run.notes['serve_counters']}")
            units = dict(report.PER_LAYER)
        else:
            metrics = report.end_to_end(run)
            print("end-to-end:")
            report.print_end_to_end(metrics)
            print(f"  serve counters: {run.notes['serve_counters']}")
            units = {name: unit for name, unit, _ in report.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"  attempted {run.attempted}, failed {run.failed}, "
          f"error_rate {run.failed / run.attempted:.6g}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        result, output = run_in_child(args, workload)
        if output:
            print(output)
        results[workload] = result
        if "error" in result:
            print(f"workload {workload}: ERROR {result['error']}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, result in results.items()
                for name, metric in result["metrics"].items()
            },
        }
    errored = any("error" in result for result in results.values())
    final.pop("error", None)
    print(json.dumps(final))
    return 1 if errored else 0


if __name__ == "__main__":
    sys.exit(main())
