"""In-flight accounting per AP group for pipelined dispatch.

A weight-resident deployment gives every layer a *disjoint* AP group, so
pipelined inference (:mod:`repro.inference.engine`) can run layer L+1 of one
image while layer L of the next is still in flight, and the cluster front
door (:mod:`repro.serving.cluster`) keeps several requests in flight per
replica.  Both count that occupancy with an :class:`InFlightTracker`, keyed
by AP group (one group per resident layer) or by replica; its
:class:`GroupTrace` snapshots feed reports, metrics and the Chrome trace.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Hashable

from repro.errors import SimulationError


@dataclass
class GroupTrace:
    """Occupancy record of one AP group (one pipeline stage)."""

    group: Hashable
    #: Total work items dispatched through the group.
    dispatches: int = 0
    #: Work items currently in flight.
    in_flight: int = 0
    #: High-water mark of concurrent in-flight work items (pipeline overlap
    #: witness: > 0 on more than one group at once means stages overlapped).
    max_in_flight: int = 0


class InFlightTracker:
    """Thread-safe per-group in-flight counters with high-water marks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._groups: Dict[Hashable, GroupTrace] = {}

    def enter(self, group: Hashable) -> None:
        """Count one work item entering ``group``."""
        with self._lock:
            trace = self._groups.get(group)
            if trace is None:
                trace = self._groups[group] = GroupTrace(group=group)
            trace.in_flight += 1
            trace.dispatches += 1
            trace.max_in_flight = max(trace.max_in_flight, trace.in_flight)

    def exit(self, group: Hashable) -> None:
        """Count one work item leaving ``group``."""
        with self._lock:
            trace = self._groups.get(group)
            if trace is None or trace.in_flight < 1:
                raise SimulationError(
                    f"in-flight underflow on AP group {group!r}: exit() "
                    f"without a matching enter()"
                )
            trace.in_flight -= 1

    @contextmanager
    def entered(self, group: Hashable):
        """Context-managed ``enter``/``exit`` pair (exception-safe)."""
        self.enter(group)
        try:
            yield
        finally:
            self.exit(group)

    def trace(self) -> Dict[Hashable, GroupTrace]:
        """Snapshot of every group's occupancy counters."""
        with self._lock:
            return {
                group: GroupTrace(
                    group=trace.group,
                    dispatches=trace.dispatches,
                    in_flight=trace.in_flight,
                    max_in_flight=trace.max_in_flight,
                )
                for group, trace in self._groups.items()
            }
