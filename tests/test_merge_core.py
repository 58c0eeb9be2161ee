"""Unit tests for the shared ranked-merge core (`repro.anyk.merge`).

The core is consumed by the UT-DP union enumerator, and its contract
is pinned directly: minimum-first order across members,
insertion-sequence tie-breaking, consecutive-duplicate elimination and
counter attribution.
"""

import pytest

from repro.anyk.base import Enumerator, RankedResult
from repro.anyk.merge import RankedMerge
from repro.anyk.union import UnionEnumerator
from repro.util.counters import OpCounter


class ListStream(Enumerator):
    """A canned member stream: yields prepared results in order."""

    def __init__(self, items):
        self._items = list(items)
        self._pos = 0

    def _next_result(self):
        if self._pos >= len(self._items):
            return None
        result = self._items[self._pos]
        self._pos += 1
        return result


def result(key, payload=None):
    r = RankedResult.__new__(RankedResult)
    r.weight = key
    r.key = key
    r.states = (payload,)
    r.decoder = None
    return r


def keys(merge):
    return [r.key for r in merge]


class TestRankedMerge:
    def test_merges_minimum_first(self):
        merge = RankedMerge(
            [
                ListStream([result(1.0), result(4.0), result(9.0)]),
                ListStream([result(2.0), result(3.0)]),
                ListStream([result(0.5)]),
            ]
        )
        assert keys(merge) == [0.5, 1.0, 2.0, 3.0, 4.0, 9.0]

    def test_exact_ties_break_by_insertion_sequence(self):
        merge = RankedMerge(
            [
                ListStream([result(1.0, "a1"), result(1.0, "a2")]),
                ListStream([result(1.0, "b1")]),
            ]
        )
        # Seeding order: a1 (seq 1), b1 (seq 2); a2 refills after a1 pops.
        assert [r.states[0] for r in merge] == ["a1", "b1", "a2"]

    def test_empty_members_are_harmless(self):
        merge = RankedMerge(
            [ListStream([]), ListStream([result(2.0)]), ListStream([])]
        )
        assert keys(merge) == [2.0]

    def test_no_members(self):
        merge = RankedMerge([])
        assert keys(merge) == []

    def test_counter_attribution(self):
        counter = OpCounter()
        merge = RankedMerge(
            [ListStream([result(1.0), result(2.0)]), ListStream([result(3.0)])],
            counter=counter,
        )
        out = list(merge)
        assert counter.pq_push == 3
        assert counter.pq_pop == 3
        assert counter.results == len(out) == 3

    def test_dedup_drops_consecutive_duplicates(self):
        merge = RankedMerge(
            [
                ListStream([result(1.0, "x"), result(2.0, "y")]),
                ListStream([result(1.0, "x")]),
            ],
            dedup=True,
            identity=lambda r: r.states[0],
        )
        assert [r.states[0] for r in merge] == ["x", "y"]

    def test_custom_key_function(self):
        merge = RankedMerge(
            [ListStream([result(1.0, "a")]), ListStream([result(2.0, "b")])],
            key=lambda r: -r.key,  # invert the order
        )
        assert [r.states[0] for r in merge] == ["b", "a"]

    def test_union_enumerator_is_the_merge_core(self):
        assert issubclass(UnionEnumerator, RankedMerge)
        union = UnionEnumerator(
            [ListStream([result(1.0, "x")]), ListStream([result(1.0, "x")])],
            identity=lambda r: r.states[0],
        )
        assert [r.states[0] for r in union] == ["x"]  # dedup on by default


class TestEnumeratorProtocol:
    def test_step_and_exhausted(self):
        merge = RankedMerge([ListStream([result(1.0), result(2.0)])])
        assert [r.key for r in merge.step(1)] == [1.0]
        assert not merge.exhausted
        assert [r.key for r in merge.step(5)] == [2.0]
        assert merge.exhausted

    def test_top(self):
        merge = RankedMerge(
            [ListStream([result(3.0)]), ListStream([result(1.0)])]
        )
        assert [r.key for r in merge.top(1)] == [1.0]


@pytest.mark.parametrize("merge_cls", [RankedMerge])
def test_determinism_across_runs(merge_cls):
    def build():
        return merge_cls(
            [
                ListStream([result(1.0, i) for i in range(5)]),
                ListStream([result(1.0, 10 + i) for i in range(5)]),
            ]
        )

    first = [r.states[0] for r in build()]
    second = [r.states[0] for r in build()]
    assert first == second
