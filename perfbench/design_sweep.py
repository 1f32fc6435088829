"""design-sweep: seeded batches of valid MachineSpec points through
``repro.builder.run_sweep(..., jobs=2)``.

Why: each point elaborates a fresh machine, runs a short traced probe in
a freshly started worker process, and scores it -- so builder
elaboration, the program's own ``Tracer`` and ``repro.parallel``'s
process-per-task fan-out cost host time here, and not in gm-stream.

A batch holds one point per CE-count slot (4, 8, 12, 16, 24 and 32 CEs)
with seeded shapes, radixes, port queues, module counts and interleaves,
so a batch costs about the same on every seed.
"""

from __future__ import annotations

import cProfile
import contextlib
import hashlib
import pstats
import time
from typing import Dict, List

from perfbench import inputs
from perfbench.measure import (
    Outcome,
    Profile,
    add_per_layer,
    counter_layers,
    counter_sums,
    hardware_layers,
    timing_metrics,
    median,
)


#: Worker processes for the sweep's fan-out: one per core of the 2-core
#: host the bounds were set on.
JOBS = 2

BATCHES = 200
MAX_OPS = 400

#: Distinct batches every run must cover; their digests are pinned.
GOLDEN_BATCHES = 2


class State:
    """Set-up product: the seeded, validated candidate batches."""

    def __init__(self, seed: int) -> None:
        from repro.builder import MachineSpec, run_sweep
        from repro.builder.sweep import DEFAULT_BLOCKS, canonical_json

        self.run_sweep = run_sweep
        self.canonical_json = canonical_json
        self.blocks = DEFAULT_BLOCKS
        self.batches = inputs.sweep_batches(seed, BATCHES)
        for batch in self.batches:
            for fields in batch:
                MachineSpec.from_dict(dict(fields))  # raises on an invalid point
        self.sequence = inputs.op_sequence(seed, BATCHES, MAX_OPS)


def _words(state: State, batch) -> int:
    """Read words a batch's probes deliver: every CE of the full machine
    plus the one-CE baseline each stream ``blocks`` 32-word blocks."""
    return sum(
        (fields["clusters"] * fields["ces_per_cluster"] + 1) * state.blocks * 32
        for fields in batch
    )


def _check(state: State, index: int, artifact, outcome: Outcome,
           digests: Dict[int, str]) -> None:
    if artifact.get("schema") != "cedar-sweep/v1":
        outcome.fail(f"batch {index}: schema {artifact.get('schema')!r}")
        return
    missing = [i for i, point in enumerate(artifact["points"]) if "metrics" not in point]
    if missing or len(artifact["points"]) != len(state.batches[index]):
        outcome.fail(f"batch {index}: points {missing} carry no metrics")
        return
    digest = hashlib.sha256(state.canonical_json(artifact).encode()).hexdigest()[:16]
    first = digests.setdefault(index, digest)
    if first != digest:
        outcome.fail(f"batch {index}: repeat digest {digest} != first {first}")


def golden_digest(digests: Dict[int, str]) -> str:
    text = ",".join(digests[index] for index in range(GOLDEN_BATCHES))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _covered(digests: Dict[int, str]) -> bool:
    return all(index in digests for index in range(GOLDEN_BATCHES))


def run(state: State, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics."""
    from repro.errors import WorkerCrashError

    outcome = Outcome()
    digests: Dict[int, str] = {}
    seen = set()
    misses: List[float] = []
    hits: List[float] = []
    rates: List[float] = []
    deadline = time.perf_counter() + seconds
    for index in state.sequence:
        if time.perf_counter() >= deadline and _covered(digests):
            break
        batch = state.batches[index]
        outcome.attempted += 1
        outcome.speed.sample(3)
        began = time.perf_counter()
        try:
            artifact = state.run_sweep(batch, jobs=JOBS)
        except WorkerCrashError as error:
            outcome.fail(f"batch {index}: {error}")
            continue
        elapsed = time.perf_counter() - began
        (hits if index in seen else misses).append(elapsed * 1000.0)
        seen.add(index)
        rates.append(len(batch) / elapsed)
        _check(state, index, artifact, outcome, digests)
    outcome.notes.append(
        "throughput_per_s is points_per_s: the median over batches of "
        "design points per second"
    )
    timing_metrics(outcome, median(rates), misses, hits)
    outcome.golden = golden_digest(digests) if _covered(digests) else None
    return outcome


@contextlib.contextmanager
def _reading_counters(sink: list):
    """Collect what ``Tracer.counter_totals()`` returns while active.

    Each sweep point reads its own machine's counters through this call
    (that is where the artifact's conflict count comes from); keeping a
    copy of each result is how the benchmark sees those counters without
    reaching into the points.
    """
    from repro.trace import Tracer

    original = Tracer.counter_totals

    def counter_totals(tracer):
        totals = original(tracer)
        sink.append((totals, tracer.records_seen))
        return totals

    Tracer.counter_totals = counter_totals
    try:
        yield
    finally:
        Tracer.counter_totals = original


def run_traced(state: State, seconds: float) -> Outcome:
    """The traced run: per-layer metrics.

    Batches from the first sixth of the run's time run three ways: with
    ``jobs=2`` (the untraced configuration), in-process with ``jobs=1``
    (point work without fan-out: the base of the parallel efficiency and
    of the trace overhead) and in-process under cProfile, so the profiler
    sees the points' own work.
    """
    chosen: List[int] = []
    parallel_wall = 0.0
    deadline = time.perf_counter() + seconds / 6.0
    for index in state.sequence:
        if time.perf_counter() >= deadline and len(set(chosen)) >= GOLDEN_BATCHES:
            break
        began = time.perf_counter()
        state.run_sweep(state.batches[index], jobs=JOBS)
        parallel_wall += time.perf_counter() - began
        chosen.append(index)

    serial_wall = 0.0
    for index in chosen:
        began = time.perf_counter()
        state.run_sweep(state.batches[index], jobs=1)
        serial_wall += time.perf_counter() - began

    outcome = Outcome()
    digests: Dict[int, str] = {}
    profile = Profile()
    seen: list = []
    traced_wall = 0.0
    words = 0
    for index in chosen:
        outcome.attempted += 1
        profiler = cProfile.Profile()
        with _reading_counters(seen):
            began = time.perf_counter()
            profiler.enable()
            artifact = state.run_sweep(state.batches[index], jobs=1)
            profiler.disable()
            traced_wall += time.perf_counter() - began
        profile.add(pstats.Stats(profiler))
        _check(state, index, artifact, outcome, digests)
        words += _words(state, state.batches[index])
    points = sum(len(state.batches[index]) for index in chosen)
    values = hardware_layers(profile, words)
    values.update(counter_layers(counter_sums(totals for totals, _ in seen)))
    values["trace.records"] = sum(records for _, records in seen)
    values["parallel.efficiency"] = serial_wall / (JOBS * parallel_wall)
    values["parallel.task_overhead_ms"] = (
        (JOBS * parallel_wall - serial_wall) / points * 1000.0
    )
    values["bench.trace_overhead"] = traced_wall / serial_wall
    add_per_layer(outcome, values, len(chosen))
    outcome.golden = golden_digest(digests)
    return outcome
