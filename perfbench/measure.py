"""Measurement helpers shared by the workloads: metrics, percentiles,
resident-set size, and the per-layer attribution of a cProfile run.

Layers are the program's modules under ``src/repro/``.  Host time is
attributed by grouping cProfile *self* time by the file a function lives
in; work counts come from cProfile call counts and from counters the
program already keeps (engine attributes, ``Tracer.counter_totals()``,
serve's ``/metrics``).  Nothing here reaches inside the program.
"""

from __future__ import annotations

import math
import os
import pstats
import resource
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: End-to-end metrics every workload reports (untraced runs):
#: (name, unit, better).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("miss_ms_p50", "ms", "lower"),
    ("hit_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics every workload reports (traced runs).  A layer the
#: workload never calls into reads 0.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("crossbar.self_s", "s", "lower"),
    ("crossbar.arbiter_wakes", "count", "lower"),
    ("crossbar.wake_all_calls", "count", "lower"),
    ("crossbar.wakes_per_word", "ratio", "lower"),
    ("crossbar.port_conflicts", "count", "lower"),
    ("queueing.self_s", "s", "lower"),
    ("queueing.ops_per_word", "ratio", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.idle_cycles_skipped", "cycles", "higher"),
    ("network.self_s", "s", "lower"),
    ("network.packets_delivered", "count", "higher"),
    ("network.injection_rejections", "count", "lower"),
    ("memory.self_s", "s", "lower"),
    ("memory.requests_served", "count", "higher"),
    ("memory.busy_cycles", "cycles", "lower"),
    ("prefetch.self_s", "s", "lower"),
    ("prefetch.requests_issued", "count", "higher"),
    ("prefetch.network_stall_cycles", "cycles", "lower"),
    ("ce.self_s", "s", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.records", "count", "lower"),
    ("builder.build_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("parallel.task_overhead_ms", "ms", "lower"),
    ("serve.job_ms_p50", "ms", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("model.run_ms", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

#: Which layer each ``src/repro`` file belongs to, by path prefix.  Files
#: not listed fall into "other"; code outside ``src/repro`` (the standard
#: library, this benchmark) is not attributed to any layer.
_LAYER_PREFIXES = (
    ("hardware/crossbar.py", "crossbar"),
    ("hardware/queueing.py", "queueing"),
    ("hardware/engine.py", "engine"),
    ("hardware/fastpath.py", "engine"),
    ("hardware/network.py", "network"),
    ("hardware/packet.py", "network"),
    ("hardware/memory.py", "memory"),
    ("hardware/prefetch.py", "prefetch"),
    ("hardware/ce.py", "ce"),
    ("hardware/cluster.py", "ce"),
    ("hardware/cache.py", "ce"),
    ("hardware/vector_unit.py", "ce"),
    ("hardware/sync_processor.py", "ce"),
    ("trace/", "trace"),
    ("builder/", "builder"),
    ("parallel.py", "parallel"),
    ("serve/", "serve"),
    ("model/", "model"),
)

_SRC_MARKER = os.sep.join(("src", "repro", ""))


def layer_of(filename: str) -> Optional[str]:
    """The layer a profiled file belongs to, or None outside the program."""
    at = filename.rfind(_SRC_MARKER)
    if at < 0:
        return None
    relative = filename[at + len(_SRC_MARKER):].replace(os.sep, "/")
    for prefix, layer in _LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return "other"


@dataclass
class Profile:
    """What one cProfile run says about the program, by layer."""

    self_s: Dict[str, float] = field(default_factory=dict)
    #: (relative file, function name) -> total calls.
    calls: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: (relative file, function name) -> cumulative seconds.
    cumulative: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def add(self, stats: pstats.Stats) -> None:
        for (filename, _line, function), entry in stats.stats.items():
            layer = layer_of(filename)
            if layer is None:
                continue
            _primitive, total_calls, self_time, cumulative, _callers = entry
            self.self_s[layer] = self.self_s.get(layer, 0.0) + self_time
            at = filename.rfind(_SRC_MARKER) + len(_SRC_MARKER)
            key = (filename[at:].replace(os.sep, "/"), function)
            self.calls[key] = self.calls.get(key, 0) + total_calls
            self.cumulative[key] = self.cumulative.get(key, 0.0) + cumulative

    def ncalls(self, path: str, function: str) -> int:
        return self.calls.get((path, function), 0)

    def cumtime(self, path: str, function: str) -> float:
        return self.cumulative.get((path, function), 0.0)


def hardware_layers(profile: Profile, words: int) -> Dict[str, float]:
    """The per-layer metrics a profile of simulator work yields.

    ``words`` is the number of data words the workload's inputs move (read
    words landing in prefetch buffers plus stored words), a count fixed by
    the inputs, so the per-word ratios move only when work per word does.
    """
    wakes = profile.ncalls("hardware/crossbar.py", "wake")
    queue_ops = profile.ncalls("hardware/queueing.py", "push") + profile.ncalls(
        "hardware/queueing.py", "pop"
    )
    values = {
        f"{layer}.self_s": profile.self_s.get(layer, 0.0)
        for layer in (
            "crossbar", "queueing", "engine", "network", "memory",
            "prefetch", "ce", "trace",
        )
    }
    values["crossbar.arbiter_wakes"] = wakes
    values["crossbar.wake_all_calls"] = profile.ncalls(
        "hardware/crossbar.py", "wake_all"
    )
    values["crossbar.wakes_per_word"] = wakes / words if words else 0.0
    values["queueing.ops_per_word"] = queue_ops / words if words else 0.0
    values["builder.build_s"] = profile.cumtime(
        "hardware/machine.py", "__init__"
    ) + profile.cumtime("builder/elaborate.py", "build_config")
    return values


#: Tracer counter name -> per-layer metric, summed over components.
_COUNTER_METRICS = (
    ("events_dispatched", "engine.events"),
    ("idle_cycles_skipped", "engine.idle_cycles_skipped"),
    ("port_conflicts", "crossbar.port_conflicts"),
    ("packets_delivered", "network.packets_delivered"),
    ("injection_rejections", "network.injection_rejections"),
    ("requests_served", "memory.requests_served"),
    ("busy_cycles", "memory.busy_cycles"),
    ("requests_issued", "prefetch.requests_issued"),
    ("network_stall_cycles", "prefetch.network_stall_cycles"),
)


def counter_sums(
    totals: Iterable[Dict[str, Dict[str, float]]],
) -> Dict[str, float]:
    """Sum ``Tracer.counter_totals()`` results by counter name."""
    sums: Dict[str, float] = {}
    for per_component in totals:
        for counters in per_component.values():
            for name, value in counters.items():
                sums[name] = sums.get(name, 0.0) + value
    return sums


def counter_layers(sums: Dict[str, float]) -> Dict[str, float]:
    return {metric: sums.get(name, 0.0) for name, metric in _COUNTER_METRICS}


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


#: Median seconds of one :func:`reference_loop` on the host the bounds
#: were set on (2 shared vCPUs, Python 3.11).
REFERENCE_SECONDS = 0.0145


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: a probe of host speed.

    It runs no program code, so no change to the program can move it.
    """
    began = time.perf_counter()
    table: Dict[int, int] = {}
    for index in range(60000):
        table[index & 1023] = table.get(index & 511, 0) + index
    return time.perf_counter() - began


class HostSpeed:
    """Reference-loop samples taken between a workload's operations.

    The shared host's speed swings by 2x for minutes at a time, for any
    Python code.  Timings are reported at the reference host's speed: raw
    seconds times :attr:`factor` (below 1 when this host ran slower than
    the reference), rates divided by it.  Samples are taken while the
    program is idle, so the program's own load cannot move them.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(reference_loop())

    @property
    def factor(self) -> float:
        return REFERENCE_SECONDS / median(self.samples)


def peak_rss_mb(include_self: bool) -> float:
    """Highest resident set of the program's processes, in MB.

    Children count once they have been waited for (Linux reports the
    largest reaped descendant); ``include_self`` adds this process, which
    is a program process when the workload runs the program in-process.
    """
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if include_self:
        peak = max(peak, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak / 1024.0


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: List[Metric] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Extra lines for the human-readable report (metric aliases,
    #: p90s, sample counts); they never enter the JSON result.
    notes: List[str] = field(default_factory=list)
    #: Digest of the outputs for the inputs ``golden.json`` pins (None
    #: when the run did not cover them).
    golden: Optional[str] = None
    #: Host-speed samples of an untraced run; timings are scaled by them.
    speed: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics.append(Metric(name, float(value), unit, samples))


def timing_metrics(
    outcome: Outcome,
    rate: float,
    misses: Sequence[float],
    hits: Sequence[float],
) -> None:
    """Add throughput and miss/hit p50 at the reference host's speed; note
    the raw values, and p90 where 10+ samples lie beyond it."""
    factor = outcome.speed.factor
    outcome.add("throughput_per_s", rate / factor, "1/s", outcome.attempted)
    outcome.notes.append(
        f"host speed factor {factor:.4f} (n={len(outcome.speed.samples)}); "
        f"raw throughput {rate:.4f} 1/s"
    )
    for label, samples in (("miss", misses), ("hit", hits)):
        if not samples:
            outcome.fail(f"no {label} operations completed")
            continue
        outcome.add(f"{label}_ms_p50", median(samples) * factor, "ms", len(samples))
        outcome.notes.append(
            f"raw {label}_ms_p50 {median(samples):.3f} ms (n={len(samples)})"
        )
        if len(samples) >= 100:
            outcome.notes.append(
                f"{label}_ms_p90 = {percentile(samples, 0.9) * factor:.3f} ms, "
                f"raw {percentile(samples, 0.9):.3f} ms (n={len(samples)})"
            )


def add_per_layer(outcome: Outcome, values: Dict[str, float], samples: int) -> None:
    """Every PER_LAYER metric, 0 where the workload has no such layer."""
    for name, unit, _better in PER_LAYER:
        outcome.add(name, values.get(name, 0.0), unit, samples)
