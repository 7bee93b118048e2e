"""Unit tests for the shared array codec (repro.relational.arrays)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.relational import arrays


class TestAppendBlank:
    def test_grows_every_array_by_one(self):
        a, b = [1, 2], ["x"]
        arrays.append_blank([a, b])
        assert a == [1, 2, None]
        assert b == ["x", None]

    def test_custom_fill_value(self):
        a = []
        arrays.append_blank([a], value=0)
        assert a == [0]


class TestKeepIndices:
    def test_survivors_of_a_delete_predicate(self):
        rows = [10, 15, 20, 25]
        assert arrays.keep_indices(rows, lambda r: r >= 20) == [0, 1]

    def test_nothing_deleted(self):
        assert arrays.keep_indices([1, 2], lambda r: False) == [0, 1]

    def test_everything_deleted(self):
        assert arrays.keep_indices([1, 2], lambda r: True) == []


class TestGather:
    def test_kept_positions_in_order(self):
        assert arrays.gather(["a", "b", "c", "d"], [0, 2]) == ["a", "c"]

    def test_empty_keep(self):
        assert arrays.gather(["a"], []) == []


class TestCompactInPlace:
    def test_every_array_drops_the_same_positions(self):
        mapping = {"x": [1, 2, 3], "y": ["a", "b", "c"]}
        arrays.compact_in_place(mapping, [0, 2])
        assert mapping == {"x": [1, 3], "y": ["a", "c"]}

    def test_keyed_by_tuples_too(self):
        mapping = {("c", "i"): [1, 2]}
        arrays.compact_in_place(mapping, [1])
        assert mapping == {("c", "i"): [2]}


class TestMisaligned:
    def test_aligned_returns_none(self):
        assert arrays.misaligned(2, {"x": [1, 2], "y": [3, 4]}) is None

    def test_reports_first_divergent_key_and_length(self):
        assert arrays.misaligned(2, {"x": [1, 2], "y": [3]}) == ("y", 1)

    def test_empty_mapping_is_aligned(self):
        assert arrays.misaligned(5, {}) is None


class _Row:
    """A row stand-in: compared by identity only."""


def _expected_matches(old, new, plan):
    """Check a plan: every run pairs a new row with the same old object,
    and the segments cover ``new`` exactly; returns the matched count."""
    position = matched = 0
    for start, length in plan:
        assert length >= 0
        if start >= 0:
            for offset in range(length):
                assert new[position + offset] is old[start + offset]
            matched += length
        position += length
    assert position == len(new)
    return matched


class TestCarryPlan:
    def test_trimmed_head_and_appended_tail_is_two_segments(self):
        old = [_Row() for _ in range(300)]
        new = old[16:] + [_Row() for _ in range(16)]
        plan = arrays.carry_plan(old, new)
        assert plan == [(16, 284), (-1, 16)]
        assert arrays.fresh_positions(plan) == list(range(284, 300))
        values = list(range(300))
        assert arrays.carry(values, plan) == values[16:] + [None] * 16

    def test_scattered_deletes_keep_every_shared_row(self):
        old = [_Row() for _ in range(500)]
        new = [row for index, row in enumerate(old) if index % 7] + [_Row()]
        plan = arrays.carry_plan(old, new)
        assert _expected_matches(old, new, plan) == len(new) - 1

    def test_rows_behind_the_walk_read_as_fresh(self):
        old = [_Row() for _ in range(200)]
        new = list(reversed(old))
        plan = arrays.carry_plan(old, new)
        _expected_matches(old, new, plan)
        assert plan == [(199, 1), (-1, 199)]

    def test_costly_searches_fall_back_to_the_exact_index(self):
        old = [_Row() for _ in range(200)]
        new = [row for pair in zip([_Row() for _ in old], old) for row in pair]
        plan = arrays.carry_plan(old, new)
        assert _expected_matches(old, new, plan) == 200
        values = list(range(200))
        carried = arrays.carry(values, plan)
        assert carried[1::2] == values and carried[::2] == [None] * 200

    def test_empty_lists(self):
        assert arrays.carry_plan([], []) == []
        fresh = [_Row(), _Row()]
        assert arrays.carry_plan([], fresh) == [(-1, 2)]
        assert arrays.carry([], [(-1, 2)]) == [None, None]

    @given(
        st.lists(st.integers(0, 30), max_size=40),
        st.integers(0, 30),
    )
    def test_runs_only_pair_identical_rows(self, picks, pool_size):
        old = [_Row() for _ in range(pool_size)]
        spare = [_Row() for _ in range(31)]
        new = [old[p] if p < pool_size else spare[p] for p in picks]
        plan = arrays.carry_plan(old, new)
        _expected_matches(old, new, plan)
        values = [f"v{index}" for index in range(pool_size)]
        carried = arrays.carry(values, plan)
        fresh = set(arrays.fresh_positions(plan))
        for index, row in enumerate(new):
            if index in fresh:
                assert carried[index] is None
            else:
                assert old[int(carried[index][1:])] is row
