"""Tests for the crossbar switch: arbitration order, conflict accounting,
the head-route masks, and pinned work counts.

The work counts at the bottom (``events_dispatched`` and every switch's
``port_conflicts``) are goldens, not rerun comparisons: any change to how
often arbiters scan shows up here, in tier 1, rather than only in the
bench gate.
"""

import random

import pytest

from repro.config import NetworkConfig
from repro.hardware import sanitize
from repro.hardware.crossbar import CrossbarSwitch
from repro.hardware.engine import Engine
from repro.hardware.network import OmegaNetwork
from repro.hardware.packet import Packet, PacketKind
from repro.hardware.queueing import BoundedWordQueue
from repro.kernels.tridiag_matvec import measure_tridiag
from repro.trace import Tracer, tracing

RADIX = 4


def packet(output, words=1, tag=0):
    return Packet(
        kind=PacketKind.READ_REQUEST, source=0, destination=output,
        address=0, words=words, request_tag=tag,
    )


class Harness:
    """A traced, sanitized radix-4 switch whose outputs feed plain queues.

    Packets route to ``destination % 4``; every sink push is logged as
    ``(output, request_tag, cycle)``, which for one-word packets is the
    grant order.
    """

    def __init__(self, queue_words=8, sink_words=64, attach=True):
        self.tracer = Tracer(enabled=True)
        with sanitize.sanitizing() as self.sanitizer:
            self.engine = Engine()
            self.switch = CrossbarSwitch(
                self.engine, radix=RADIX, route=lambda p: p.destination % RADIX,
                queue_words=queue_words, name="x", tracer=self.tracer,
            )
            self.sinks = [
                BoundedWordQueue(sink_words, name=f"sink{o}")
                for o in range(RADIX)
            ]
        self.arrivals = []
        for output, sink in enumerate(self.sinks):
            sink.add_item_listener(
                lambda o=output, s=sink: self.arrivals.append(
                    (o, s._packets[-1].request_tag, self.engine.now)
                )
            )
        if attach:
            self.attach()

    def attach(self):
        for output, sink in enumerate(self.sinks):
            self.switch.connect_output(output, sink)

    def push(self, index, output, words=1, tag=0):
        self.switch.input_queues[index].push(packet(output, words, tag))

    @property
    def conflicts(self):
        totals = self.tracer.counter_totals().get("x", {})
        return totals.get("port_conflicts", 0)

    def assert_masks_consistent(self):
        self.sanitizer.check_crossbar_masks(self.switch)
        assert self.sanitizer.violations == 0


class TestRoundRobin:
    def test_grants_rotate_from_the_pointer(self):
        h = Harness(attach=False)
        for index in range(RADIX):
            h.push(index, output=0, tag=index)  # no sink yet: no grant
        h.switch.arbiters[0]._next_input = 2
        h.attach()
        h.switch.wake_all()
        h.engine.run_until_idle()
        assert [tag for _o, tag, _t in h.arrivals] == [2, 3, 0, 1]
        assert [t for _o, _tag, t in h.arrivals] == [1, 2, 3, 4]
        assert h.switch.arbiters[0]._next_input == 2  # one past input 1
        assert h.sanitizer.violations == 0

    def test_pick_wraps_past_the_highest_input(self):
        h = Harness(attach=False)
        h.push(0, output=1, tag=10)
        h.push(1, output=1, tag=11)
        h.switch.arbiters[1]._next_input = 3  # nothing at or after 3
        h.attach()
        h.switch.wake_all()
        h.engine.run_until_idle()
        assert [tag for _o, tag, _t in h.arrivals] == [10, 11]

    def test_outputs_serve_in_parallel(self):
        h = Harness()
        h.push(0, output=0, tag=0)
        h.push(1, output=1, tag=1)
        h.push(2, output=1, tag=2)
        h.engine.run_until_idle()
        assert sorted(h.arrivals) == [(0, 0, 1), (1, 1, 1), (1, 2, 2)]


class TestConflicts:
    def blocked(self):
        """Output 0's one-word sink is full; input 0 holds a head for it."""
        h = Harness(sink_words=1)
        h.sinks[0].push(packet(0, tag=99))  # the blocker
        h.push(0, output=0, tag=1)
        return h

    def test_one_conflict_per_rescan_of_a_full_sink(self):
        h = self.blocked()
        assert h.conflicts == 1  # the push's own pass scanned once
        for expected in (2, 3, 4):
            h.switch.arbiters[0].wake()
            assert h.conflicts == expected
        # Each counted re-scan registered its own space waiter.
        assert len(h.sinks[0]._space_waiters) == 4
        assert h.sanitizer.violations == 0

    def test_passes_rescan_blocked_outputs(self):
        h = self.blocked()
        h.push(1, output=1, tag=2)  # its pass re-scans output 0 too
        assert h.conflicts == 2
        h.engine.run_until_idle()  # the grant's deferred pass: one more
        assert h.conflicts == 3
        assert h.arrivals[-1] == (1, 2, 1)

    def test_freed_space_grants_and_stale_waiters_count_nothing(self):
        h = self.blocked()
        h.switch.arbiters[0].wake()
        h.sinks[0].pop()  # first waiter fires: grant, arbiter busy
        assert h.switch.arbiters[0]._busy
        h.engine.run_until_idle()
        assert h.conflicts == 2
        assert h.arrivals[-1] == (0, 1, 1)
        h.sinks[0].pop()  # the stale waiter finds nothing to do
        assert h.conflicts == 2
        assert h.sanitizer.violations == 0


class TestMaskedSkip:
    def test_wake_without_a_routed_head_does_nothing(self):
        h = Harness()
        h.push(0, output=1)  # routed elsewhere; granted at once
        h.engine.run_until_idle()
        checks = h.sanitizer.checks.get("crossbar.arbiter", 0)
        events = h.engine.events_dispatched
        h.switch.arbiters[0].wake()
        assert h.sanitizer.checks["crossbar.arbiter"] == checks + 1
        assert h.engine.pending() == 0 and h.engine.events_dispatched == events
        assert not h.sinks[0]._space_waiters
        assert h.conflicts == 0
        assert h.sanitizer.violations == 0

    def test_finish_with_nothing_queued_skips_the_rescan(self):
        h = Harness()
        h.push(0, output=0)
        before = h.sanitizer.checks["crossbar.arbiter"]
        h.engine.run_until_idle()  # the finish proves its skip, grants none
        assert h.sanitizer.checks["crossbar.arbiter"] == before + 1
        assert h.switch._ready == 0
        assert h.sanitizer.violations == 0


class TestMasks:
    def test_masks_track_push_grant_and_finish(self):
        h = Harness(attach=False)
        switch = h.switch
        h.push(2, output=1)
        h.push(2, output=0)  # behind the head: masks unchanged
        assert switch._inputs_for == [0, 0b100, 0, 0]
        assert switch._ready == 0b10  # unattached arbiters count as idle
        h.assert_masks_consistent()
        h.attach()
        switch.wake_all()  # output 1 grants; the next head routes to 0
        assert switch.arbiters[1]._busy
        assert switch._inputs_for == [0b100, 0, 0, 0]
        assert switch._ready == 0b1  # below the pass: left for the next one
        h.assert_masks_consistent()
        h.push(0, output=1)  # routed to a busy output; its pass grants 0
        assert switch.arbiters[0]._busy
        assert switch._inputs_for == [0, 0b1, 0, 0]
        assert switch._ready == 0
        h.assert_masks_consistent()
        h.engine.run_until_idle()
        assert switch._inputs_for == [0, 0, 0, 0] and switch._ready == 0
        assert not any(arbiter._busy for arbiter in switch.arbiters)
        h.assert_masks_consistent()

    def test_external_pop_clears_the_masks(self):
        h = Harness(attach=False)
        h.push(1, output=2)
        h.switch.input_queues[1].pop()
        assert h.switch._inputs_for == [0, 0, 0, 0]
        assert h.switch._ready == 0
        h.assert_masks_consistent()

    def test_finish_behind_a_full_sink_keeps_the_output_busy(self):
        h = Harness(sink_words=2)
        h.push(0, output=0, words=2, tag=1)  # granted: the sink had room
        h.push(1, output=0, tag=2)  # waits behind the busy output
        h.sinks[0].push(packet(0, words=2, tag=99))  # another writer fills it
        h.engine.run_until_idle()  # the finish finds the sink full
        assert h.switch.arbiters[0]._busy
        assert h.switch._ready == 0
        h.assert_masks_consistent()
        h.sinks[0].pop()  # space: the finish retries, delivers, re-wakes
        assert h.arrivals[-1] == (0, 1, 2)
        # The re-wake found the sink full again: idle, blocked and ready.
        assert not h.switch.arbiters[0]._busy
        assert h.switch._ready == 0b1
        assert h.conflicts == 1
        h.assert_masks_consistent()

    @pytest.mark.parametrize("seed", range(5))
    def test_masks_hold_under_random_traffic(self, seed):
        rng = random.Random(seed)
        h = Harness(queue_words=4, sink_words=3)
        for step in range(200):
            index, output = rng.randrange(RADIX), rng.randrange(RADIX)
            queue = h.switch.input_queues[index]
            words = rng.randint(1, 2)
            if queue.free_words >= words:
                h.push(index, output, words, tag=step)
            if rng.random() < 0.4:
                sink = h.sinks[rng.randrange(RADIX)]
                if len(sink):
                    sink.pop()
            h.engine.run(until=h.engine.now + rng.randint(0, 2))
            h.assert_masks_consistent()


class TestReentrantPass:
    def test_push_during_a_grant_is_seen_by_a_nested_pass(self):
        """A grant's pop frees space, a waiter pushes into another input,
        and that push's own pass grants before the outer pass resumes."""
        h = Harness(queue_words=2, attach=False)
        h.push(0, output=0, tag=1)
        h.push(0, output=2, tag=2)  # in[0] now full
        h.switch.input_queues[0].wait_for_space(
            lambda: h.push(1, output=3, tag=3)
        )
        h.attach()
        h.switch.wake_all()
        assert [a._busy for a in h.switch.arbiters] == [True, False, True, True]
        h.engine.run_until_idle()
        # The nested grants scheduled their finishes before the outer
        # grant (which schedules after its pop returns), so they land first.
        assert [tag for _o, tag, _t in h.arrivals] == [2, 3, 1]
        assert h.sanitizer.violations == 0

    def test_head_exposed_above_the_pass_is_granted_in_it(self):
        """The pass re-reads the ready mask after every wake: a pop during
        output 0's grant exposes a head for output 2, which the same pass
        reaches and grants."""
        h = Harness(attach=False)
        h.push(0, output=0, tag=1)
        h.push(0, output=2, tag=2)
        h.attach()
        h.switch.wake_all()
        busy = [a._busy for a in h.switch.arbiters]
        assert busy == [True, False, True, False]
        assert h.switch._ready == 0
        h.engine.run_until_idle()
        assert [tag for _o, tag, _t in h.arrivals] == [1, 2]

    def test_head_exposed_below_the_pass_waits_for_the_deferred_pass(self):
        """A pop during output 2's grant exposes a head for output 1; the
        ascending pass has gone past it, so the deferred pass grants it in
        the same cycle, after the grant for output 3."""
        h = Harness(attach=False)
        h.push(0, output=2, tag=1)
        h.push(0, output=1, tag=2)  # behind tag 1 in in[0]
        h.push(1, output=3, tag=3)
        h.attach()
        h.switch.wake_all()
        busy = [a._busy for a in h.switch.arbiters]
        assert busy == [False, False, True, True]
        assert h.switch._ready == 0b10
        h.engine.run_until_idle()
        assert [tag for _o, tag, _t in h.arrivals] == [1, 3, 2]
        assert h.sanitizer.violations == 0


# -- pinned work counts -------------------------------------------------------


def _port_conflicts(tracer):
    return {
        component: int(counters["port_conflicts"])
        for component, counters in tracer.counter_totals().items()
        if "port_conflicts" in counters
    }


def _fuzz_work(seed):
    """The seeded contention fuzz of ``tests/test_determinism.py``, traced."""
    rng = random.Random(seed)
    flows = [
        (rng.randrange(16), rng.randrange(16), rng.randint(1, 4))
        for _ in range(rng.randint(30, 120))
    ]
    tracer = Tracer(enabled=True)
    engine = Engine()
    network = OmegaNetwork(
        engine, 16, NetworkConfig(switch_radix=4), name="fuzz", tracer=tracer
    )
    for port in range(16):
        network.attach_sink(port, lambda packet: None)
    queue = [
        Packet(
            kind=PacketKind.READ_REQUEST, source=source,
            destination=destination, address=destination, words=words,
            request_tag=index,
        )
        for index, (source, destination, words) in enumerate(flows)
    ]

    def pump():
        queue[:] = [p for p in queue if not network.try_inject(p.source, p)]
        if queue:
            engine.schedule(1, pump)

    engine.schedule(0, pump)
    engine.run_until_idle()
    return engine.events_dispatched, _port_conflicts(tracer)


@pytest.mark.parametrize(
    "seed, events, conflicts",
    [
        (0, 416, {"fuzz.s0.x0": 7, "fuzz.s0.x1": 7, "fuzz.s0.x2": 4,
                  "fuzz.s0.x3": 24}),
        (7, 376, {"fuzz.s0.x0": 1, "fuzz.s0.x1": 10, "fuzz.s0.x2": 6,
                  "fuzz.s0.x3": 4}),
        (1993, 485, {"fuzz.s0.x0": 14, "fuzz.s0.x1": 7, "fuzz.s0.x2": 9,
                     "fuzz.s0.x3": 12}),
    ],
)
def test_fuzzed_network_work_counts_are_pinned(seed, events, conflicts):
    assert _fuzz_work(seed) == (events, conflicts)


def test_tridiag_work_counts_are_pinned():
    tracer = Tracer(enabled=True)
    with tracing(tracer):
        measure_tridiag(8)
    totals = tracer.counter_totals()
    assert totals["engine"]["events_dispatched"] == 80168
    assert _port_conflicts(tracer) == {
        "fwd.s0.x1": 1, "fwd.s0.x2": 1, "fwd.s0.x6": 5, "fwd.s0.x7": 11,
        "fwd.s1.x3": 6,
        "rev.s0.x0": 58, "rev.s0.x1": 62, "rev.s0.x2": 75, "rev.s0.x3": 86,
        "rev.s0.x4": 78, "rev.s0.x5": 82, "rev.s0.x6": 121, "rev.s0.x7": 150,
    }
