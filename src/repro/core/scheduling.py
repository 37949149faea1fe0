"""DFG scheduling: placement selection and CAM-column allocation (paper Sec. IV-B/C).

Two decisions are made per channel DFG:

* **in-place vs out-of-place** for every add/sub node.  An operation can be
  in-place (8 cycles/bit instead of 10) when one of its operands dies at this
  use - the result then overwrites that operand's column.  For subtractions
  only the minuend can be overwritten (the Table-I LUT computes ``B <- B-A``).
* **column allocation**: values are grouped into *slots* (an in-place result
  reuses its operand's slot); slots that are live simultaneously must occupy
  different CAM columns.  The interference graph is colored with a greedy
  largest-degree-first heuristic (the classic register-allocation
  formulation the paper refers to); live ranges are intervals, so the graph
  is never built (see :func:`_color_intervals`).

The storage width of a slot is the widest value ever stored in it, and every
operation executes over its destination slot's storage width: this keeps the
stored bits physically sign-extended so later, wider consumers read correct
upper bits (see DESIGN.md, "Key modelling decisions").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.dfg import ChannelDFG
from repro.errors import CapacityError, CompilationError

#: Position assigned to values that must survive the whole program (outputs).
END_OF_PROGRAM = 1 << 30


@dataclass
class ScheduledOp:
    """One scheduled operation."""

    node_id: int
    op: str  # "add" | "sub"
    inplace: bool
    #: Node id whose slot is overwritten (only for in-place ops).
    overwrites: Optional[int]
    #: Operand node ids: (lhs, rhs) - for "sub", lhs is the minuend.
    lhs: int
    rhs: int


@dataclass
class Schedule:
    """Placement and column allocation for one channel DFG."""

    dfg: ChannelDFG
    ops: List[ScheduledOp] = field(default_factory=list)
    #: Node id -> slot id.
    slot_of_node: Dict[int, int] = field(default_factory=dict)
    #: Slot id -> storage width (bits).
    slot_width: Dict[int, int] = field(default_factory=dict)
    #: Slot id -> CAM column index.
    slot_column: Dict[int, int] = field(default_factory=dict)

    @property
    def num_inplace(self) -> int:
        """Number of in-place operations."""
        return sum(1 for op in self.ops if op.inplace)

    @property
    def num_outofplace(self) -> int:
        """Number of out-of-place operations."""
        return sum(1 for op in self.ops if not op.inplace)

    @property
    def num_columns(self) -> int:
        """Number of distinct CAM columns used by operands."""
        return len(set(self.slot_column.values()))

    def column_of_node(self, node_id: int) -> int:
        """CAM column assigned to a node's value."""
        return self.slot_column[self.slot_of_node[node_id]]

    def width_of_node(self, node_id: int) -> int:
        """Storage width of the slot holding a node's value."""
        return self.slot_width[self.slot_of_node[node_id]]


def _last_uses(dfg: ChannelDFG) -> Dict[int, int]:
    """Position (op index) of the last consumer of every node."""
    last_use: Dict[int, int] = {node_id: -1 for node_id in dfg.nodes}
    for position, node_id in enumerate(dfg.op_order):
        node = dfg.nodes[node_id]
        for operand in (node.lhs, node.rhs):
            if operand is not None:
                last_use[operand[0]] = position
    for output in dfg.outputs.values():
        if output is not None:
            last_use[output[0]] = END_OF_PROGRAM
    return last_use


def _color_intervals(live: Dict[int, Tuple[int, int]]) -> Dict[int, int]:
    """Greedy largest-degree-first coloring of interfering live ranges.

    Two slots interfere when their inclusive ``(start, end)`` ranges overlap.
    Slots are colored in decreasing interference degree (stable, so ties keep
    ``live`` order), each with the smallest color none of its already-colored
    neighbours holds.  Ranges are intervals, so degrees come from the sorted
    endpoints and each color keeps its disjoint ranges sorted by start: two
    bisections per color decide whether a range fits, with no interference
    graph.  The returned dict is in coloring order.
    """
    starts = sorted(start for start, _ in live.values())
    ends = sorted(end for _, end in live.values())

    def degree(slot: int) -> int:
        # Ranges starting by this one's end minus those ending before its
        # start; the range itself is one of them.
        start, end = live[slot]
        return bisect_right(starts, end) - bisect_left(ends, start) - 1

    color_starts: List[List[int]] = []
    color_ends: List[List[int]] = []
    coloring: Dict[int, int] = {}
    for slot in sorted(live, key=degree, reverse=True):
        start, end = live[slot]
        for color, (held_starts, held_ends) in enumerate(zip(color_starts, color_ends)):
            index = bisect_left(held_starts, start)
            if index < len(held_starts) and held_starts[index] <= end:
                continue
            if index and held_ends[index - 1] >= start:
                continue
            break
        else:
            color = len(color_starts)
            color_starts.append([])
            color_ends.append([])
            index = 0
        color_starts[color].insert(index, start)
        color_ends[color].insert(index, end)
        coloring[slot] = color
    return coloring


def schedule_dfg(
    dfg: ChannelDFG,
    usable_columns: Optional[int] = None,
    first_column: int = 1,
    prefer_inplace: bool = True,
) -> Schedule:
    """Select placements and allocate CAM columns for one channel DFG.

    Args:
        dfg: the channel DFG to schedule.
        usable_columns: number of CAM columns available to operands; ``None``
            skips the capacity check.
        first_column: first column index handed out (column 0 is reserved for
            the carry/borrow bit by default).
        prefer_inplace: disable to force every operation out-of-place (used by
            the placement-policy ablation).
    """
    last_use = _last_uses(dfg)
    schedule = Schedule(dfg=dfg)

    # ------------------------------------------------------------------
    # Slot assignment: every value starts in its own slot; an in-place result
    # reuses the slot of the operand it overwrites.
    # ------------------------------------------------------------------
    next_slot = 0
    slot_of: Dict[int, int] = {}

    def new_slot(node_id: int) -> int:
        nonlocal next_slot
        slot_of[node_id] = next_slot
        next_slot += 1
        return slot_of[node_id]

    for node_id in dfg.input_nodes.values():
        new_slot(node_id)

    for position, node_id in enumerate(dfg.op_order):
        node = dfg.nodes[node_id]
        if node.lhs is None or node.rhs is None:
            raise CompilationError(f"op node {node_id} is missing operands")
        lhs_id, rhs_id = node.lhs[0], node.rhs[0]
        candidates: List[int] = []
        if prefer_inplace:
            if node.op == "add":
                # Prefer overwriting the left operand: accumulation chains keep
                # their running value on the left, so this reuses the
                # accumulator column instead of clobbering narrow temporaries.
                candidates = [lhs_id, rhs_id]
            else:  # sub: only the minuend (lhs) may be overwritten.
                candidates = [lhs_id]
        overwrite: Optional[int] = None
        for candidate in candidates:
            if last_use.get(candidate, -1) == position:
                overwrite = candidate
                break
        if overwrite is not None:
            slot_of[node_id] = slot_of[overwrite]
            schedule.ops.append(
                ScheduledOp(
                    node_id=node_id,
                    op=node.op,
                    inplace=True,
                    overwrites=overwrite,
                    lhs=lhs_id,
                    rhs=rhs_id,
                )
            )
        else:
            new_slot(node_id)
            schedule.ops.append(
                ScheduledOp(
                    node_id=node_id,
                    op=node.op,
                    inplace=False,
                    overwrites=None,
                    lhs=lhs_id,
                    rhs=rhs_id,
                )
            )
    schedule.slot_of_node = slot_of

    # ------------------------------------------------------------------
    # Slot storage widths: widest value ever stored in the slot.
    # ------------------------------------------------------------------
    slot_width: Dict[int, int] = {}
    for node_id, slot in slot_of.items():
        width = dfg.nodes[node_id].width
        slot_width[slot] = max(slot_width.get(slot, 1), width)
    schedule.slot_width = slot_width

    # ------------------------------------------------------------------
    # Live ranges per slot and graph-coloring column allocation.
    # ------------------------------------------------------------------
    definition_position: Dict[int, int] = {}
    for node_id in dfg.input_nodes.values():
        definition_position[node_id] = -1
    for position, node_id in enumerate(dfg.op_order):
        definition_position[node_id] = position

    slot_live: Dict[int, Tuple[int, int]] = {}
    for node_id, slot in slot_of.items():
        start = definition_position[node_id]
        end = max(last_use.get(node_id, -1), start)
        if slot in slot_live:
            old_start, old_end = slot_live[slot]
            slot_live[slot] = (min(old_start, start), max(old_end, end))
        else:
            slot_live[slot] = (start, end)

    coloring = _color_intervals(slot_live)
    num_colors = (max(coloring.values()) + 1) if coloring else 0
    if usable_columns is not None and num_colors > usable_columns:
        raise CapacityError(
            f"channel DFG needs {num_colors} operand columns but only "
            f"{usable_columns} are usable; split the output channels across "
            "more APs or column groups"
        )
    schedule.slot_column = {
        slot: first_column + color for slot, color in coloring.items()
    }
    return schedule
