"""Golden ranked-order digests: the pre-refactor system is the oracle.

Every conformance suite in this repo compares one configuration of the
current code against another configuration of the current code.  A
refactor that moves *both* sides passes them all.  This module pins the
ranked output — weights, assignments, witness ids, **tie order** — of a
fixed set of workloads to sha256 digests committed in
``tests/golden/ranked_digests.json``, captured before the single-lowering
refactor (ISSUE 12 / ROADMAP item 2a) and required to stay byte-unchanged
across it.

Cells: {4-path, 4-star, two-component Cartesian product, self-join with a
repeated variable, 3-path with integer weights in 1..3, and 600-row
versions of the first and last (the size at which stage scans run as
numpy kernels)} x all 7 any-k variants x {tropical, max-plus} x {memory, SQLite cold, SQLite warm from
``.core``}, plus one lexicographic cell on the object-graph path and one
max-times cell captured there.  Acyclic max-times plans lower now (its
lane has no inverse), so ``path4/max_times/object`` runs lowered; it
keeps its name so the golden file stays byte-identical.  Each cell
hashes the top ``K`` answers (the full output where it is smaller).

Cyclic cells (captured before ISSUE 15 rewrote the decomposition-to-
choice-set path): {4-cycle, triangle} x {float weights, integer weights
in 1..3}, a 4-cycle whose entry columns are skewed so that heavy
partitions are non-empty, and a tie-heavy 6-cycle (middle fan bags,
three-atom chains), x {tropical, max-times} x all 7 variants, all
through the simple-cycle union plan (decomposition, tie-breaking dioid,
ranked merge, witness recovery from bag lineage).  The max-plus column
of those cells and a 4-cycle whose weights are mostly zeros (``0.0``,
``-0.0`` and ``int`` ``0``, so whole witnesses weigh zero: the sign a
derived zero reports is pinned) were captured before union members were
lowered to a compiled core.

Regenerate (only when a ranked-order change is intended and reviewed)::

    PYTHONPATH=src python tests/test_golden_order.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import tempfile

import pytest

from repro.anyk.base import make_enumerator
from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.cycle import decompose_cycle
from repro.dp.builder import build_tdp
from repro.engine import Engine
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_PLUS, MAX_TIMES, TROPICAL
from repro.ranking.lexicographic import relation_lexicographic

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "ranked_digests.json"
)
ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]
STORAGES = ["memory", "sqlite_cold", "sqlite_warm"]
DIOIDS = {"tropical": TROPICAL, "max_plus": MAX_PLUS}
#: Answers hashed per cell (the whole output where it is smaller).
K = 2000


def _float_weights(rng: random.Random, n: int) -> list[float]:
    return [round(rng.uniform(0.0, 100.0), 3) for _ in range(n)]


def _binary(name, n, domain, rng, weights=None) -> Relation:
    tuples = [(rng.randint(1, domain), rng.randint(1, domain)) for _ in range(n)]
    return Relation(name, 2, tuples, weights or _float_weights(rng, n))


def _path4():
    rng = random.Random(1204)
    relations = [_binary(f"R{i}", 60, 9, rng) for i in range(1, 5)]
    return path_query(4), Database(relations)


def _star4():
    rng = random.Random(1205)
    relations = [_binary(f"R{i}", 40, 12, rng) for i in range(1, 5)]
    return star_query(4), Database(relations)


def _cartesian():
    rng = random.Random(1206)
    relations = [
        _binary("R1", 40, 6, rng), _binary("R2", 40, 6, rng),
        _binary("R3", 25, 6, rng),
    ]
    query = parse_query("Q(a, b, c, d, e) :- R1(a, b), R2(b, c), R3(d, e)")
    return query, Database(relations)


def _selfjoin():
    rng = random.Random(1207)
    query = parse_query("Q(x, y, z) :- E(x, y), E(y, z), E(z, z)")
    return query, Database([_binary("E", 150, 7, rng)])


def _ties3():
    rng = random.Random(1208)
    relations = [
        _binary(f"R{i}", 45, 6, rng, [rng.randint(1, 3) for _ in range(45)])
        for i in range(1, 4)
    ]
    return path_query(3), Database(relations)


def _path4_wide():
    # Past the row count where stage scans switch to the numpy kernels.
    rng = random.Random(1210)
    relations = [_binary(f"R{i}", 600, 150, rng) for i in range(1, 5)]
    return path_query(4), Database(relations)


def _ties3_wide():
    rng = random.Random(1211)
    relations = [
        _binary(f"R{i}", 600, 100, rng, [rng.randint(1, 3) for _ in range(600)])
        for i in range(1, 4)
    ]
    return path_query(3), Database(relations)


WORKLOADS = {
    "path4": _path4,
    "star4": _star4,
    "cartesian": _cartesian,
    "selfjoin_repeat": _selfjoin,
    "ties3": _ties3,
    "path4_wide": _path4_wide,
    "ties3_wide": _ties3_wide,
}


def _cycle(length: int, n: int, domain: int, seed: int, ties: bool = False):
    rng = random.Random(seed)
    relations = [
        _binary(
            f"R{i}", n, domain, rng,
            [rng.randint(1, 3) for _ in range(n)] if ties else None,
        )
        for i in range(1, length + 1)
    ]
    return cycle_query(length), Database(relations)


def _cycle4_skew():
    # A quarter of every relation enters through one of two hub values:
    # those values are heavy, so heavy partitions carry answers.
    rng = random.Random(1216)
    relations = []
    for i in range(1, 5):
        tuples = [
            (rng.randint(1, 2) if j % 4 == 0 else rng.randint(3, 14),
             rng.randint(1, 14))
            for j in range(80)
        ]
        relations.append(Relation(f"R{i}", 2, tuples, _float_weights(rng, 80)))
    return cycle_query(4), Database(relations)


def _cycle4_zeros():
    # Zero weights of three spellings beside two non-zero ones: every
    # base dioid folds whole zero witnesses, mid-ranking under max-plus.
    rng = random.Random(1218)
    palette = (0.0, -0.0, 0, 1.0, -1.5)
    relations = [
        _binary(f"R{i}", 40, 6, rng, [rng.choice(palette) for _ in range(40)])
        for i in range(1, 5)
    ]
    return cycle_query(4), Database(relations)


CYCLIC_WORKLOADS = {
    # No value reaches the heavy threshold: only the all-light member.
    "cycle4": lambda: _cycle(4, 150, 30, 1212),
    "triangle": lambda: _cycle(3, 90, 9, 1213),
    "cycle4_ties": lambda: _cycle(4, 70, 8, 1214, ties=True),
    "triangle_ties": lambda: _cycle(3, 90, 9, 1215, ties=True),
    "cycle4_skew": _cycle4_skew,
    # Middle fan bags and three-atom chain joins only exist from l = 6.
    "cycle6_ties": lambda: _cycle(6, 40, 10, 1217, ties=True),
    "cycle4_zeros": _cycle4_zeros,
}
CYCLIC_DIOIDS = {"tropical": TROPICAL, "max_times": MAX_TIMES, "max_plus": MAX_PLUS}


def digest(results) -> dict:
    """sha256 over ``(repr(weight), sorted assignment, witness_ids)`` rows."""
    sha = hashlib.sha256()
    count = 0
    for result in itertools.islice(results, K):
        row = (
            repr(result.weight),
            tuple(sorted(result.assignment.items())),
            result.witness_ids,
        )
        sha.update(repr(row).encode("utf-8"))
        sha.update(b"\n")
        count += 1
    return {"count": count, "sha256": sha.hexdigest()}


def _engine_digests(engine: Engine, query, dioid) -> dict:
    return {
        variant: digest(
            engine.prepare(query, dioid=dioid, algorithm=variant).iter()
        )
        for variant in ALL_VARIANTS
    }


def compute_cell(workload: str, dioid_name: str, storage: str, scratch: str) -> dict:
    """Digests of all 7 variants for one (workload, dioid, storage) cell."""
    query, database = WORKLOADS[workload]()
    dioid = DIOIDS[dioid_name]
    if storage == "memory":
        return _engine_digests(Engine(database), query, dioid)
    path = os.path.join(scratch, f"{workload}-{dioid_name}.db")
    backend = SQLiteBackend(path)
    for relation in database:
        backend.ingest(relation)
    cold = Engine.from_backend(backend)
    try:
        cold_digests = _engine_digests(cold, query, dioid)
        assert cold.stats.core_writes == 1 and cold.stats.core_hits == 0
    finally:
        cold.close()
    if storage == "sqlite_cold":
        return cold_digests
    warm = Engine.from_backend(SQLiteBackend(path))
    try:
        warm_digests = _engine_digests(warm, query, dioid)
        assert warm.stats.core_hits == 1 and warm.stats.core_writes == 0
    finally:
        warm.close()
    return warm_digests


def compute_object_cells() -> dict:
    """A lexicographic cell (object graph) and a max-times one (now lowered)."""
    query, database = _path4()
    lex_dioid, lift = relation_lexicographic(query)
    tdp = build_tdp(database, build_join_tree(query), dioid=lex_dioid, lift=lift)
    rng = random.Random(1209)
    unit = Database(
        [
            _binary(f"R{i}", 60, 9, rng, [round(rng.uniform(0.05, 1.0), 4) for _ in range(60)])
            for i in range(1, 5)
        ]
    )
    return {
        "path4/lexicographic/object": {
            variant: digest(make_enumerator(tdp, variant)) for variant in ALL_VARIANTS
        },
        "path4/max_times/object": _engine_digests(Engine(unit), query, MAX_TIMES),
    }


def compute_cyclic_cell(workload: str, dioid_name: str) -> dict:
    """Digests of all 7 variants of one cyclic (workload, dioid) cell."""
    query, database = CYCLIC_WORKLOADS[workload]()
    return _engine_digests(Engine(database), query, CYCLIC_DIOIDS[dioid_name])


def cell_name(workload: str, dioid_name: str, storage: str) -> str:
    return f"{workload}/{dioid_name}/{storage}"


def compute_all() -> dict:
    cells = {}
    with tempfile.TemporaryDirectory() as scratch:
        for workload in WORKLOADS:
            for dioid_name in DIOIDS:
                for storage in STORAGES:
                    cells[cell_name(workload, dioid_name, storage)] = compute_cell(
                        workload, dioid_name, storage, scratch
                    )
    cells.update(compute_object_cells())
    for workload in CYCLIC_WORKLOADS:
        for dioid_name in CYCLIC_DIOIDS:
            cells[cell_name(workload, dioid_name, "union")] = compute_cyclic_cell(
                workload, dioid_name
            )
    return cells


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fd:
        return json.load(fd)


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("dioid_name", list(DIOIDS))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_ranked_order_matches_golden(golden, tmp_path, workload, dioid_name, storage):
    expected = golden[cell_name(workload, dioid_name, storage)]
    actual = compute_cell(workload, dioid_name, storage, str(tmp_path))
    assert actual == expected


def test_object_path_cells_match_golden(golden):
    for name, actual in compute_object_cells().items():
        assert actual == golden[name], name


@pytest.mark.parametrize("dioid_name", list(CYCLIC_DIOIDS))
@pytest.mark.parametrize("workload", list(CYCLIC_WORKLOADS))
def test_cyclic_ranked_order_matches_golden(golden, workload, dioid_name):
    expected = golden[cell_name(workload, dioid_name, "union")]
    assert compute_cyclic_cell(workload, dioid_name) == expected


def test_cyclic_cells_run_heavy_and_light_members():
    # The digests only pin the partitioned path if it is actually taken.
    for workload in set(CYCLIC_WORKLOADS) - {"cycle4"}:
        query, database = CYCLIC_WORKLOADS[workload]()
        labels = [task.label for task in decompose_cycle(database, query)]
        assert "all-light" in labels and len(labels) > 1, (workload, labels)


def test_golden_file_covers_exactly_the_matrix(golden):
    expected = {
        cell_name(w, d, s) for w in WORKLOADS for d in DIOIDS for s in STORAGES
    } | {"path4/lexicographic/object", "path4/max_times/object"} | {
        cell_name(w, d, "union") for w in CYCLIC_WORKLOADS for d in CYCLIC_DIOIDS
    }
    assert set(golden) == expected
    for cell in golden.values():
        assert set(cell) == set(ALL_VARIANTS)
        assert all(entry["count"] > 0 for entry in cell.values())


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fd:
        json.dump(compute_all(), fd, indent=1, sort_keys=True)
        fd.write("\n")
    print(f"wrote {GOLDEN_PATH}")
