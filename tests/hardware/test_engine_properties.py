"""Property-based tests: Engine.schedule delay coercion and ordering.

The engine's integer cycle clock accepts integral floats (``5.0``) as a
convenience but must reject every non-integral delay -- a fractional
event would drift off the tie-ordered clock and break determinism.
"""

import math

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import SimulationError
from repro.hardware.engine import Engine


class TestDelayCoercion:
    @settings(max_examples=80, deadline=None)
    @given(delay=st.integers(0, 10_000))
    def test_integral_floats_accepted_like_ints(self, delay):
        as_int, as_float = Engine(), Engine()
        fired = []
        as_int.schedule(delay, lambda: fired.append(as_int.now))
        as_float.schedule(float(delay), lambda: fired.append(as_float.now))
        as_int.run_until_idle()
        as_float.run_until_idle()
        assert fired == [delay, delay]

    @settings(max_examples=80, deadline=None)
    @given(
        delay=st.floats(
            min_value=0.0, max_value=10_000.0,
            allow_nan=False, allow_infinity=False,
        ).filter(lambda f: not f.is_integer())
    )
    def test_non_integral_floats_always_rejected(self, delay):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.schedule(delay, lambda: None)
        assert engine.pending() == 0  # nothing half-scheduled

    @settings(max_examples=40, deadline=None)
    @given(
        delay=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).filter(
                lambda f: math.isnan(f) or math.isinf(f)
            ),
            st.booleans(),
            st.text(max_size=4),
            st.none(),
        )
    )
    def test_non_cycle_delays_always_rejected(self, delay):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(delay, lambda: None)
        assert engine.pending() == 0

    @settings(max_examples=40, deadline=None)
    @given(delays=st.lists(st.integers(0, 50), min_size=1, max_size=30))
    def test_dispatch_order_is_time_then_fifo(self, delays):
        """Dispatch is (cycle, arrival-order) sorted, exactly."""
        engine = Engine()
        order = []
        for index, delay in enumerate(delays):
            engine.schedule(delay, lambda d=delay, i=index: order.append((d, i)))
        engine.run_until_idle()
        assert order == sorted((d, i) for i, d in enumerate(delays))
