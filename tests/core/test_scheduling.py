"""Tests for DFG scheduling (placement + column allocation)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cse import eliminate_common_subexpressions
from repro.core.dfg import build_channel_dfg
from repro.core.folding import fold_weight_slice
from repro.core.scheduling import END_OF_PROGRAM, schedule_dfg
from repro.errors import CapacityError


def build_dfg(matrix, cse=True, activation_bits=4):
    rows = fold_weight_slice(np.asarray(matrix))
    definitions = None
    working = rows
    if cse:
        definitions = eliminate_common_subexpressions(rows)
        working = definitions.rows
    return build_channel_dfg(working, definitions=definitions, activation_bits=activation_bits)


class TestPlacement:
    def test_every_op_scheduled_once(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        assert len(schedule.ops) == dfg.num_operations
        assert schedule.num_inplace + schedule.num_outofplace == dfg.num_operations

    def test_inplace_used_when_operand_dies(self):
        # x0 + x1 + x2: the chain can overwrite its intermediate value.
        dfg = build_dfg([[1, 1, 1]], cse=False)
        schedule = schedule_dfg(dfg)
        assert schedule.num_inplace >= 1

    def test_prefer_inplace_false_forces_out_of_place(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg, prefer_inplace=False)
        assert schedule.num_inplace == 0

    def test_shared_value_not_overwritten(self):
        # The temporary t0 = x0+x1 is used by both outputs: the first consumer
        # must not destroy it.
        dfg = build_dfg([[1, 1, 1], [1, 1, -1]])
        schedule = schedule_dfg(dfg)
        for op in schedule.ops:
            if op.inplace:
                overwritten = op.overwrites
                assert overwritten is not None
                # the overwritten node must not be used by any later op
                position = schedule.ops.index(op)
                for later in schedule.ops[position + 1 :]:
                    assert overwritten not in (later.lhs, later.rhs)

    def test_outputs_never_overwritten(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        output_nodes = {ref[0] for ref in dfg.outputs.values() if ref is not None}
        for op in schedule.ops:
            if op.inplace and op.overwrites in output_nodes:
                pytest.fail("an output value was overwritten in place")


class TestColumnAllocation:
    def test_columns_start_after_carry(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg, first_column=1)
        assert min(schedule.slot_column.values()) >= 1

    def test_no_live_range_conflicts(self, paper_eq1_matrix):
        """Two values sharing a column must never be live at the same time."""
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        # Reconstruct per-node live ranges.
        last_use = {}
        for position, op in enumerate(schedule.ops):
            for operand in (op.lhs, op.rhs):
                last_use[operand] = position
        for ref in dfg.outputs.values():
            if ref is not None:
                last_use[ref[0]] = len(schedule.ops) + 1
        definition = {}
        for node_id in dfg.input_nodes.values():
            definition[node_id] = -1
        for position, node_id in enumerate(dfg.op_order):
            definition[node_id] = position
        by_column = {}
        for node_id, slot in schedule.slot_of_node.items():
            column = schedule.slot_column[slot]
            by_column.setdefault(column, []).append(
                (slot, definition[node_id], last_use.get(node_id, definition[node_id]))
            )
        for column, intervals in by_column.items():
            slots = {}
            for slot, start, end in intervals:
                slots.setdefault(slot, [start, end])
                slots[slot][0] = min(slots[slot][0], start)
                slots[slot][1] = max(slots[slot][1], end)
            items = list(slots.values())
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    a, b = items[i], items[j]
                    overlap = a[0] <= b[1] and b[0] <= a[1]
                    assert not overlap, f"column {column} double-booked"

    def test_capacity_error_when_columns_exhausted(self):
        matrix = np.ones((24, 9), dtype=np.int8)
        dfg = build_dfg(matrix.tolist(), cse=False)
        with pytest.raises(CapacityError):
            schedule_dfg(dfg, usable_columns=4)

    def test_slot_width_covers_all_values(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        for node_id, slot in schedule.slot_of_node.items():
            assert schedule.slot_width[slot] >= dfg.nodes[node_id].width

    def test_num_columns_reasonable(self, paper_eq1_matrix):
        dfg = build_dfg(paper_eq1_matrix)
        schedule = schedule_dfg(dfg)
        # 6 inputs plus a handful of temporaries/outputs at most.
        assert schedule.num_columns <= 16


def _slot_live_ranges(dfg, schedule):
    """Inclusive ``(start, end)`` live range per slot, in first-use order."""
    last_use = {node_id: -1 for node_id in dfg.nodes}
    for position, node_id in enumerate(dfg.op_order):
        node = dfg.nodes[node_id]
        last_use[node.lhs[0]] = position
        last_use[node.rhs[0]] = position
    for ref in dfg.outputs.values():
        if ref is not None:
            last_use[ref[0]] = END_OF_PROGRAM
    definition = {node_id: -1 for node_id in dfg.input_nodes.values()}
    for position, node_id in enumerate(dfg.op_order):
        definition[node_id] = position
    live = {}
    for node_id, slot in schedule.slot_of_node.items():
        start = definition[node_id]
        end = max(last_use[node_id], start)
        old_start, old_end = live.get(slot, (start, end))
        live[slot] = (min(old_start, start), max(old_end, end))
    return live


def _brute_force_greedy(live):
    """Largest-degree-first greedy coloring over an explicit O(n^2)
    interference relation (stable degree sort, smallest free color)."""
    slots = list(live)
    neighbours = {slot: set() for slot in slots}
    for i, slot_a in enumerate(slots):
        start_a, end_a = live[slot_a]
        for slot_b in slots[i + 1 :]:
            start_b, end_b = live[slot_b]
            if start_a <= end_b and start_b <= end_a:
                neighbours[slot_a].add(slot_b)
                neighbours[slot_b].add(slot_a)
    coloring = {}
    for slot in sorted(slots, key=lambda slot: len(neighbours[slot]), reverse=True):
        taken = {coloring[other] for other in neighbours[slot] if other in coloring}
        coloring[slot] = next(
            color for color in range(len(slots)) if color not in taken
        )
    return coloring


_ternary_matrix = st.integers(min_value=1, max_value=10).flatmap(
    lambda cols: st.lists(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=cols, max_size=cols),
        min_size=1,
        max_size=12,
    )
)


class TestAllocatorMatchesBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(
        matrix=_ternary_matrix,
        cse=st.booleans(),
        prefer_inplace=st.booleans(),
        first_column=st.integers(min_value=0, max_value=3),
    )
    def test_columns_equal_brute_force_greedy(
        self, matrix, cse, prefer_inplace, first_column
    ):
        """Columns and their insertion order equal an explicit-graph greedy."""
        dfg = build_dfg(matrix, cse=cse)
        schedule = schedule_dfg(
            dfg, first_column=first_column, prefer_inplace=prefer_inplace
        )
        expected = _brute_force_greedy(_slot_live_ranges(dfg, schedule))
        assert list(schedule.slot_column.items()) == [
            (slot, first_column + color) for slot, color in expected.items()
        ]
