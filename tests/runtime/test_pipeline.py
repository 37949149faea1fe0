"""In-flight accounting per AP group (pipelined inference, cluster routing)."""

import pytest

from repro.errors import SimulationError
from repro.runtime.pipeline import InFlightTracker


class TestInFlightTracker:
    def test_tracks_high_water_mark(self):
        tracker = InFlightTracker()
        tracker.enter("g")
        tracker.enter("g")
        tracker.exit("g")
        tracker.enter("g")
        trace = tracker.trace()["g"]
        assert trace.dispatches == 3
        assert trace.in_flight == 2
        assert trace.max_in_flight == 2

    def test_exit_underflow_raises(self):
        tracker = InFlightTracker()
        with pytest.raises(SimulationError, match="underflow"):
            tracker.exit("g")
        tracker.enter("g")
        tracker.exit("g")
        with pytest.raises(SimulationError, match="underflow"):
            tracker.exit("g")
