"""Cross-implementation oracle checks at scales brute force cannot reach.

Generic-Join and Yannakakis are implemented independently of the T-DP
pipeline; agreement between all three on inputs of a few hundred tuples
gives much stronger evidence than the small brute-force tests.
"""

import pytest

from repro.data.generators import (
    nprr_hard_instance,
    uniform_database,
    worst_case_cycle_database,
)
from repro.enumeration.api import ranked_enumerate
from repro.joins.generic_join import generic_join
from repro.query.builders import cycle_query, path_query, star_query
from tests.reference.yannakakis import yannakakis


def pipeline_signature(db, query, algorithm="take2"):
    # round(4): weights reach ~1e5 here and the oracles aggregate in a
    # different order, so the last ulp can flip a round(6) digit.
    return sorted(
        (round(r.weight, 4), r.output_tuple)
        for r in ranked_enumerate(db, query, algorithm=algorithm)
    )


class TestAgainstGenericJoin:
    @pytest.mark.parametrize("ell,n", [(4, 80), (5, 50), (6, 40)])
    def test_cycles_at_scale(self, ell, n):
        db = uniform_database(ell, n, domain_size=max(2, n // 8), seed=ell * n)
        query = cycle_query(ell)
        expected = sorted(
            (round(w, 4), a) for w, a, _ in generic_join(db, query)
        )
        assert pipeline_signature(db, query) == expected

    def test_worst_case_cycle_at_scale(self):
        db = worst_case_cycle_database(4, 100, seed=1)
        query = cycle_query(4)
        expected = sorted(
            (round(w, 4), a) for w, a, _ in generic_join(db, query)
        )
        assert pipeline_signature(db, query, "recursive") == expected

    def test_nprr_instance_at_scale(self):
        db = nprr_hard_instance(40, seed=2)
        query = cycle_query(4)
        expected = sorted(
            (round(w, 4), a) for w, a, _ in generic_join(db, query)
        )
        assert len(expected) == 2 * 40 * 40
        assert pipeline_signature(db, query, "lazy") == expected


class TestAgainstYannakakis:
    @pytest.mark.parametrize("builder,ell,n", [
        (path_query, 4, 300),
        (path_query, 6, 150),
        (star_query, 4, 200),
    ])
    def test_acyclic_at_scale(self, builder, ell, n):
        db = uniform_database(ell, n, domain_size=max(2, n // 6), seed=n + ell)
        query = builder(ell)
        expected = sorted(
            (round(w, 4), a) for w, a in yannakakis(db, query)
        )
        got = pipeline_signature(db, query)
        assert got == expected
        # And the ranked order is globally consistent across algorithms.
        first_weights = [
            r.weight
            for _, r in zip(range(50), ranked_enumerate(db, query, algorithm="recursive"))
        ]
        # approx: the two implementations aggregate weights in different
        # stage orders, so sums may differ in the last ulp.
        assert first_weights == pytest.approx(
            [w for w, _ in sorted((w, a) for w, a in yannakakis(db, query))][:50]
        )


class TestThreeWayAgreement:
    def test_triangle_three_oracles(self):
        import random

        from repro.data.database import Database
        from repro.data.relation import Relation

        rng = random.Random(3)
        db = Database()
        for name in ("R1", "R2", "R3"):
            rel = Relation(name, 2)
            seen = set()
            for _ in range(60):
                t = (rng.randint(1, 10), rng.randint(1, 10))
                if t not in seen:
                    seen.add(t)
                    rel.add(t, round(rng.uniform(0, 100), 3))
            db.add(rel)
        query = cycle_query(3)
        via_gj = sorted(
            (round(w, 4), a) for w, a, _ in generic_join(db, query)
        )
        via_pipeline = pipeline_signature(db, query)
        assert via_pipeline == via_gj
