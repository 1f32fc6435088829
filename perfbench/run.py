"""Benchmark of the Cedar reproduction: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gm-stream --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` is a separate run that attributes host time and work counts
to the program's modules (per-layer metrics).  A human-readable report
goes first; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed.  See
``perfbench/METRICS.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

if __name__ == "__main__":
    sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402
from perfbench.measure import END_TO_END, Outcome, median, peak_rss_mb  # noqa: E402

WORKLOADS = ("gm-stream", "design-sweep", "serve-mix")

#: Cold set-ups per run of an in-process workload; setup_s is their median.
PROBE_SETUPS = 5


def _module(workload: str):
    if workload == "gm-stream":
        from perfbench import gm_stream as module
    elif workload == "design-sweep":
        from perfbench import design_sweep as module
    else:
        from perfbench import serve_mix as module
    return module


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to a finished set-up
    (program import, machine build or sweep expansion, input objects)."""
    began = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - began
    finally:
        child.stdout.close()
        child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"{workload} set-up probe failed ({child.returncode})")
    return elapsed


def _golden(workload: str, traced: bool) -> str:
    """The committed digest for the default seed.  A traced run has its own
    entry when tracing adds counters to the digest (gm-stream)."""
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)
    return golden.get(f"{workload}.traced" if traced else workload, golden[workload])


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 workdir: str) -> Outcome:
    module = _module(workload)
    if workload == "serve-mix":
        state = module.State(seed, ROOT, workdir)
        setups = state.setup_seconds
    else:
        setups = [] if traced else [
            _probe_setup(workload, seed) for _ in range(PROBE_SETUPS)
        ]
        state = module.State(seed)
    # Set-up objects (prebuilt inputs, imported modules) live for the whole
    # run; freezing them keeps the collector from rescanning the
    # benchmark's own heap inside the timed operations.
    gc.collect()
    gc.freeze()
    try:
        if traced:
            outcome = module.run_traced(state, seconds)
        else:
            outcome = module.run(state, seconds)
    finally:
        gc.unfreeze()
        if workload == "serve-mix":
            state.close()
    if not traced:
        outcome.add("setup_s", median(setups), "s", len(setups))
        outcome.add(
            "peak_rss_mb",
            peak_rss_mb(include_self=workload != "serve-mix"), "MB", 1,
        )
        order = [name for name, _unit, _better in END_TO_END]
        outcome.metrics.sort(key=lambda metric: order.index(metric.name))
    if outcome.failed == 0 and workload != "serve-mix" and seed == inputs.DEFAULT_SEED:
        expected = _golden(workload, traced)
        if outcome.golden != expected:
            outcome.fail(f"golden digest {outcome.golden} != committed {expected}")
    return outcome


def report(workload: str, outcome: Outcome) -> None:
    print(f"== {workload}: attempted {outcome.attempted}, failed {outcome.failed}, "
          f"error_rate {outcome.failed / max(outcome.attempted, 1):.4f}")
    for metric in outcome.metrics:
        print(f"  {metric.name:32s} {metric.value:14.6g} {metric.unit:6s} "
              f"(n={metric.samples})")
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    if outcome.golden is not None:
        print(f"  golden digest: {outcome.golden}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.setup_probe:
        _module(args.workload).State(args.seed)
        print("ready", flush=True)
        return 0

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = os.path.join(ROOT, ".perfbench", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            outcome = run_workload(workload, args.seed, args.seconds,
                                   bool(args.trace), workdir)
            report(workload, outcome)
            attempted += outcome.attempted
            failed += outcome.failed
            prefix = f"{workload}." if len(workloads) > 1 else ""
            for metric in outcome.metrics:
                metrics[prefix + metric.name] = {
                    "value": metric.value, "unit": metric.unit,
                }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
