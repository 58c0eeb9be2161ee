"""Direct DP construction tests: the paper's Fig 1 and Fig 7 instances."""

import random

import pytest

from repro.anyk.base import make_enumerator
from repro.dp.direct import DPProblem, k_lightest_paths
from tests.conftest import ALL_ALGORITHMS


def figure1_problem():
    """Fig 1: the Cartesian product of Example 6 as a serial chain."""
    dp = DPProblem()
    s1 = dp.add_stage(parent=None)
    s2 = dp.add_stage()
    s3 = dp.add_stage()
    h1 = [dp.add_state(s1, float(v), v) for v in (1, 2, 3)]
    h2 = [dp.add_state(s2, float(v), v) for v in (10, 20, 30)]
    h3 = [dp.add_state(s3, float(v), v) for v in (100, 200, 300)]
    for a in h1:
        for b in h2:
            dp.add_decision(a, b)
    for b in h2:
        for c in h3:
            dp.add_decision(b, c)
    return dp


class TestFigure1:
    def test_best_solution_is_111(self):
        tdp = figure1_problem().compile()
        assert tdp.best_weight == 111.0

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_full_ranked_enumeration(self, algorithm):
        tdp = figure1_problem().compile()
        got = [r.weight for r in make_enumerator(tdp, algorithm)]
        expected = sorted(
            a + b + c
            for a in (1, 2, 3)
            for b in (10, 20, 30)
            for c in (100, 200, 300)
        )
        assert got == pytest.approx([float(w) for w in expected])

    def test_example9_first_results(self):
        """Example 9: results 111, 112, ... with the right witnesses."""
        tdp = figure1_problem().compile()
        results = make_enumerator(tdp, "take2").top(3)
        labels = [
            [tdp.tuples[s][i][0] for s, i in enumerate(r.states)]
            for r in results
        ]
        assert labels[0] == [1, 10, 100]
        assert labels[1] == [2, 10, 100]
        assert results[2].weight == 113.0


class TestFigure7Tree:
    def test_tree_structure_solution(self):
        """A Fig 7-like tree: root with a chain branch and a leaf branch."""
        dp = DPProblem()
        s1 = dp.add_stage(parent=None)
        s2 = dp.add_stage(parent=s1)
        s3 = dp.add_stage(parent=s2)
        s4 = dp.add_stage(parent=s1)
        a1 = dp.add_state(s1, 1.0, "a1")
        a2 = dp.add_state(s1, 5.0, "a2")
        b1 = dp.add_state(s2, 2.0, "b1")
        b2 = dp.add_state(s2, 0.5, "b2")
        c1 = dp.add_state(s3, 3.0, "c1")
        d1 = dp.add_state(s4, 4.0, "d1")
        d2 = dp.add_state(s4, 1.5, "d2")
        dp.add_decision(a1, b1)
        dp.add_decision(a2, b2)
        dp.add_decision(b1, c1)
        dp.add_decision(b2, c1)
        dp.add_decision(a1, d1)
        dp.add_decision(a2, d2)
        tdp = dp.compile()
        results = [
            (r.weight, tuple(tdp.tuples[s][i][0] for s, i in enumerate(r.states)))
            for r in make_enumerator(tdp, "recursive")
        ]
        # Two full solutions: (a1,b1,c1,d1)=10, (a2,b2,c1,d2)=10.
        assert sorted(w for w, _ in results) == [10.0, 10.0]
        assert {labels for _, labels in results} == {
            ("a1", "b1", "c1", "d1"),
            ("a2", "b2", "c1", "d2"),
        }

    def test_dead_state_pruning(self):
        dp = DPProblem()
        s1 = dp.add_stage(parent=None)
        s2 = dp.add_stage()
        a1 = dp.add_state(s1, 1.0)
        a2 = dp.add_state(s1, 2.0)  # no outgoing decision: dead
        b1 = dp.add_state(s2, 1.0)
        dp.add_decision(a1, b1)
        tdp = dp.compile()
        assert len(tdp.tuples[0]) == 1

    def test_empty_problem_errors(self):
        with pytest.raises(ValueError, match="no stages"):
            DPProblem().compile()

    def test_validation(self):
        dp = DPProblem()
        s1 = dp.add_stage(parent=None)
        s2 = dp.add_stage()
        a = dp.add_state(s1, 1.0)
        b = dp.add_state(s2, 1.0)
        with pytest.raises(ValueError, match="unknown parent stage"):
            dp.add_stage(parent=99)
        with pytest.raises(ValueError, match="not a child"):
            dp.add_decision(b, a)
        with pytest.raises(ValueError, match="unknown state"):
            dp.add_decision((s1, 5), b)

    def test_empty_output(self):
        dp = DPProblem()
        s1 = dp.add_stage(parent=None)
        s2 = dp.add_stage()
        dp.add_state(s1, 1.0)
        dp.add_state(s2, 1.0)
        tdp = dp.compile()  # no decisions at all
        assert tdp.is_empty()
        assert list(make_enumerator(tdp, "take2")) == []


class TestTieOrder:
    """A decision set has no order, so neither has the compiled TDP's
    connector entries; the flat core must still break key ties by state,
    as the object path does."""

    @staticmethod
    def tied_problem(parents, seed):
        rng = random.Random(seed)
        dp = DPProblem()
        stages = []
        for parent in parents:
            stages.append(dp.add_stage(parent=None if parent is None else stages[parent]))
        states = [
            [dp.add_state(stage, float(rng.randrange(3))) for _ in range(12)]
            for stage in stages
        ]
        decisions = [
            (a, b)
            for child, parent in enumerate(parents)
            if parent is not None
            for a in states[parent]
            for b in states[child]
            if rng.random() < 0.6
        ]
        rng.shuffle(decisions)
        for a, b in decisions:
            dp.add_decision(a, b)
        return dp.compile()

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize(
        "parents", [(None, 0, 1), (None, 0, 0, 1)], ids=["chain", "tree"]
    )
    def test_flat_ties_match_the_object_path(self, algorithm, parents):
        for seed in range(3):
            tdp = self.tied_problem(parents, seed)
            got = [(r.weight, r.states) for r in make_enumerator(tdp, algorithm)]
            want = [
                (r.weight, r.states)
                for r in make_enumerator(tdp, algorithm, flat=False)
            ]
            assert len(got) > 100
            assert got == want


class TestKLightestPaths:
    def test_matches_brute_force(self):
        rng = random.Random(1)
        stages = [
            [(f"n{i}_{j}", round(rng.uniform(0, 9), 2)) for j in range(4)]
            for i in range(3)
        ]
        edges = [
            {(a, b) for a in range(4) for b in range(4) if rng.random() < 0.6}
            for _ in range(2)
        ]
        got = k_lightest_paths(stages, edges)
        expected = sorted(
            (
                stages[0][a][1] + stages[1][b][1] + stages[2][c][1],
                [stages[0][a][0], stages[1][b][0], stages[2][c][0]],
            )
            for a in range(4)
            for b in range(4)
            for c in range(4)
            if (a, b) in edges[0] and (b, c) in edges[1]
        )
        assert [w for w, _ in got] == pytest.approx([w for w, _ in expected])
        assert sorted(map(tuple, (p for _, p in got))) == sorted(
            map(tuple, (p for _, p in expected))
        )

    def test_k_limit(self):
        stages = [[("a", 1.0), ("b", 2.0)], [("c", 1.0), ("d", 5.0)]]
        edges = [{(0, 0), (0, 1), (1, 0), (1, 1)}]
        top2 = k_lightest_paths(stages, edges, k=2)
        assert [w for w, _ in top2] == [2.0, 3.0]
        assert top2[0][1] == ["a", "c"]

    def test_different_algorithms_agree(self):
        stages = [
            [(j, float(j)) for j in range(5)],
            [(j, float(10 * j)) for j in range(5)],
        ]
        edges = [{(a, b) for a in range(5) for b in range(5) if (a + b) % 2}]
        reference = k_lightest_paths(stages, edges, algorithm="batch")
        for algorithm in ("take2", "lazy", "recursive"):
            got = k_lightest_paths(stages, edges, algorithm=algorithm)
            assert [w for w, _ in got] == pytest.approx(
                [w for w, _ in reference]
            )
