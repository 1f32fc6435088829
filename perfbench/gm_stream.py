"""gm-stream: seeded prefetch streams and store bursts on the paper's
32-CE machine, tracer off, one process.

Why: every CE streams global memory at once, so both networks saturate
and the host time goes to crossbar arbitration, port queues, memory
modules and engine dispatch -- the simulator's hot path.  Stores share
the forward network with the read requests, so a gain on the read path
that costs the write path shows here.

One operation is what the program's own experiments do per kernel run:
elaborate a fresh ``CedarMachine`` and ``run_kernel`` one plan on all 32
CEs.  The plan's op objects are built during set-up; the benchmark's
kernel coroutine only yields them (plus the ``ConsumePrefetch`` that has
to wrap the handle the prefetch returns at run time).
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import time
from typing import Dict, List

from perfbench import inputs
from perfbench.measure import (
    Outcome,
    Profile,
    counter_layers,
    counter_sums,
    hardware_layers,
    timing_metrics,
    median,
    add_per_layer,
)


#: Distinct plans generated per run, and the operation-sequence length;
#: both far above what a run reaches, so a run is bounded by time.
PLANS = 400
MAX_OPS = 800

#: Distinct plans every run must cover; their digests are pinned.
GOLDEN_PLANS = 6

FLOPS_PER_WORD = 2.0  # ConsumePrefetch's default chained operations


class State:
    """Set-up product: the plans' prebuilt op objects."""

    def __init__(self, seed: int) -> None:
        from repro.hardware.ce import ArmFirePrefetch, GlobalStores
        from repro.hardware.machine import CedarMachine

        self.machine_class = CedarMachine
        self.plans = inputs.gm_plans(seed, PLANS)
        self.ops: List[List[tuple]] = []
        for plan in self.plans:
            per_ce = []
            for steps in plan:
                ce_ops = []
                for kind, length, stride, start in steps:
                    if kind == "read":
                        ce_ops.append(ArmFirePrefetch(
                            length=length, stride=stride, start_address=start
                        ))
                    else:
                        ce_ops.append(GlobalStores(
                            start_address=start, length=length, stride=stride
                        ))
                per_ce.append(tuple(ce_ops))
            self.ops.append(per_ce)
        self.sequence = inputs.op_sequence(seed, PLANS, MAX_OPS)
        # One warm-up build, so lazily-initialised program state is paid
        # in set-up rather than by the first timed operation.
        CedarMachine()


def _kernel(per_ce_ops):
    from repro.hardware.ce import ArmFirePrefetch, ConsumePrefetch

    def kernel(ce):
        for op in per_ce_ops[ce.global_port]:
            if type(op) is ArmFirePrefetch:
                handle = yield op
                yield ConsumePrefetch(handle)
            else:
                yield op

    return kernel


def _run_op(state: State, plan_index: int, tracer=None):
    """Elaborate a machine and run one plan; returns (machine, end cycle)."""
    machine = state.machine_class(tracer=tracer)
    end = machine.run_kernel(_kernel(state.ops[plan_index]))
    return machine, end


def _digest(values: object) -> str:
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sim_stats(machine, end: int) -> list:
    """Simulated statistics of one run; identical for any host speed."""
    modules = machine.global_memory.modules
    return [
        end,
        [ce.finished_at for ce in machine.all_ces],
        machine.total_flops,
        sum(module.requests_served for module in modules),
        sum(module.busy_cycles for module in modules),
        sum(ce.pfu.network_stall_cycles for ce in machine.all_ces),
    ]


def _check(state: State, plan_index: int, machine, end: int, outcome: Outcome,
           digests: Dict[int, str], counted: tuple = ()) -> None:
    """Every CE finished, flops match the plan, and the simulated
    statistics (plus ``counted`` tracer counters) match the plan's first
    run."""
    plan = state.plans[plan_index]
    unfinished = [ce.global_port for ce in machine.all_ces if ce.finished_at is None]
    if unfinished:
        outcome.fail(f"plan {plan_index}: CEs {unfinished} never finished")
        return
    reads, _stores = inputs.planned_words(plan)
    if machine.total_flops != FLOPS_PER_WORD * reads:
        outcome.fail(f"plan {plan_index}: credited {machine.total_flops} "
                     f"flops, planned {FLOPS_PER_WORD * reads}")
        return
    digest = _digest(_sim_stats(machine, end) + list(counted))
    first = digests.setdefault(plan_index, digest)
    if first != digest:
        outcome.fail(f"plan {plan_index}: repeat gave digest {digest}, "
                     f"first run gave {first}")


def golden_digest(digests: Dict[int, str]) -> str:
    return _digest([digests[index] for index in range(GOLDEN_PLANS)])


def _covered(digests: Dict[int, str]) -> bool:
    return all(index in digests for index in range(GOLDEN_PLANS))


def run(state: State, seconds: float) -> Outcome:
    """The untraced run: end-to-end metrics."""
    from repro.errors import SimulationError

    outcome = Outcome()
    digests: Dict[int, str] = {}
    seen = set()
    misses: List[float] = []
    hits: List[float] = []
    rates: List[float] = []
    deadline = time.perf_counter() + seconds
    for plan_index in state.sequence:
        if time.perf_counter() >= deadline and _covered(digests):
            break
        outcome.attempted += 1
        outcome.speed.sample()
        began = time.perf_counter()
        try:
            machine, end = _run_op(state, plan_index)
        except SimulationError as error:
            outcome.fail(f"plan {plan_index}: {error}")
            continue
        elapsed = time.perf_counter() - began
        (hits if plan_index in seen else misses).append(elapsed * 1000.0)
        seen.add(plan_index)
        rates.append(end / elapsed)
        _check(state, plan_index, machine, end, outcome, digests)
    outcome.notes.append(
        "throughput_per_s is sim_cycles_per_s: the median over operations "
        "of simulated CE cycles per host second"
    )
    timing_metrics(outcome, median(rates), misses, hits)
    outcome.golden = golden_digest(digests) if _covered(digests) else None
    return outcome


def run_traced(state: State, seconds: float) -> Outcome:
    """The traced run: per-layer metrics.

    The operations of the first fifth of the run's time run twice:
    untraced (the overhead ratio's base), then under cProfile with the
    program's own ``Tracer`` on, whose counters give the simulated
    statistics.
    """
    from repro.trace import Tracer

    count = 0
    untraced = 0.0
    covered = set()
    deadline = time.perf_counter() + seconds / 5.0
    for plan_index in state.sequence:
        if time.perf_counter() >= deadline and len(covered) >= GOLDEN_PLANS:
            break
        began = time.perf_counter()
        _run_op(state, plan_index)
        untraced += time.perf_counter() - began
        covered.add(plan_index)
        count += 1

    outcome = Outcome()
    digests: Dict[int, str] = {}
    profile = Profile()
    totals = []
    records = 0
    words = 0
    traced = 0.0
    for plan_index in state.sequence[:count]:
        outcome.attempted += 1
        tracer = Tracer()
        profiler = cProfile.Profile()
        began = time.perf_counter()
        profiler.enable()
        machine, end = _run_op(state, plan_index, tracer=tracer)
        profiler.disable()
        traced += time.perf_counter() - began
        profile.add(pstats.Stats(profiler))
        totals.append(tracer.counter_totals())
        counts = counter_sums(totals[-1:])
        _check(state, plan_index, machine, end, outcome, digests, counted=(
            counts.get("port_conflicts", 0.0),
            counts.get("words_forwarded", 0.0),
            counts.get("packets_delivered", 0.0),
        ))
        records += tracer.records_seen
        words += sum(inputs.planned_words(state.plans[plan_index]))
    values = hardware_layers(profile, words)
    values.update(counter_layers(counter_sums(totals)))
    values["trace.records"] = records
    values["bench.trace_overhead"] = traced / untraced
    add_per_layer(outcome, values, count)
    outcome.golden = golden_digest(digests)
    return outcome
