"""Differential conformance: every any-k variant, every storage backend.

For randomized (seeded) acyclic and cyclic queries, the ranked stream
produced over a :class:`SQLiteBackend` must be *identical* to the one
produced over in-memory storage — same plans, same T-DPs, same floats,
since SQLite REAL round-trips IEEE doubles exactly — and both must
agree with the Batch oracle (full join, then sort) up to aggregation
order.  Extends the cross-oracle pattern of ``test_cross_oracle.py``
one axis further: implementation x storage backend.

The protocol itself is checked to be the store's whole surface: every
public method of :class:`SQLiteBackend` is a protocol member, and every
protocol member is used by the package outside ``data/backend.py``.
"""

import ast
import inspect
import itertools
import os
import random

import pytest

import repro
from repro.data.backend import SQLiteBackend, StorageBackend
from repro.data.database import Database
from repro.data.generators import uniform_database, worst_case_cycle_database
from repro.data.relation import Relation
from repro.decomposition.cycle import decompose_cycle
from repro.engine import Engine
from repro.query.builders import cycle_query, path_query, star_query

#: The any-k variants of Section 6 (batch is the oracle, not a subject).
ANYK_VARIANTS = ["recursive", "take2", "lazy", "eager", "all"]
#: Prefix length compared exactly across backends and variants.
K = 150


def random_case(seed: int):
    """A seeded random query + database pair (acyclic or cyclic)."""
    rng = random.Random(seed)
    shape = rng.choice(["path", "star", "cycle"])
    ell = rng.choice([3, 4])
    n = rng.randint(30, 70)
    domain = rng.randint(4, 9)
    if shape == "cycle" and rng.random() < 0.3:
        database = worst_case_cycle_database(ell, n, seed=seed)
    else:
        database = uniform_database(ell, n, domain_size=domain, seed=seed)
    query = {"path": path_query, "star": star_query, "cycle": cycle_query}[
        shape
    ](ell)
    return database, query, shape


def sqlite_copy(database: Database, tmp_path, tag: str) -> Database:
    backend = SQLiteBackend(str(tmp_path / f"{tag}.db"))
    for relation in database:
        backend.ingest(relation)
    return backend.database()


def memory_copy(database: Database) -> Database:
    """A second in-memory store: fresh relations over copied lists."""
    return Database([
        Relation(r.name, r.arity, list(r.tuples), list(r.weights))
        for r in database
    ])


def stream(database: Database, query, algorithm: str, k: int | None = K):
    """The ranked prefix as comparable ``(weight, output)`` pairs."""
    engine = Engine(database)
    prepared = engine.prepare(query, algorithm=algorithm)
    return [
        (result.weight, result.output_tuple)
        for result in itertools.islice(prepared.iter(), k)
    ]


class TestBackendsProduceIdenticalStreams:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_queries_all_variants(self, tmp_path, seed):
        database, query, shape = random_case(seed)
        via_sqlite = sqlite_copy(database, tmp_path, f"case{seed}")
        via_memory = memory_copy(database)
        oracle = sorted(
            (round(w, 6), out)
            for w, out in stream(database, query, "batch", k=None)
        )
        for algorithm in ANYK_VARIANTS:
            reference = stream(database, query, algorithm)
            # Bit-identical across storage backends: same tuples, same
            # order, same arithmetic.
            assert stream(via_sqlite, query, algorithm) == reference, (
                f"sqlite differs from memory for {algorithm} on "
                f"{shape} seed {seed}"
            )
            assert stream(via_memory, query, algorithm) == reference
            # And the ranked prefix agrees with the Batch oracle.
            assert [
                (round(w, 6), out) for w, out in reference
            ] == oracle[: len(reference)], (
                f"{algorithm} on {shape} seed {seed} diverges from Batch"
            )

    @pytest.mark.parametrize("algorithm", ANYK_VARIANTS)
    def test_full_enumeration_on_cycle(self, tmp_path, algorithm):
        """Cyclic (union-of-decompositions) path, full output, both stores."""
        database = worst_case_cycle_database(4, 40, seed=12)
        query = cycle_query(4)
        reference = stream(database, query, algorithm, k=None)
        assert (
            stream(sqlite_copy(database, tmp_path, algorithm), query,
                   algorithm, k=None)
            == reference
        )
        weights = [w for w, _ in reference]
        assert weights == sorted(weights)

    def test_query_with_constant_selection(self, tmp_path):
        """Selections compiled from query text filter both backends alike."""
        database = uniform_database(3, 50, domain_size=5, seed=33)
        text = "Q(x, y, z) :- R1(x, y), R2(y, z), R3(z, 2)"
        via_sqlite = sqlite_copy(database, tmp_path, "sel")
        for algorithm in ("take2", "recursive"):
            mem = [
                (r.weight, r.output_tuple)
                for r in itertools.islice(
                    Engine(database).prepare(text, algorithm=algorithm).iter(), K
                )
            ]
            sql = [
                (r.weight, r.output_tuple)
                for r in itertools.islice(
                    Engine(via_sqlite).prepare(text, algorithm=algorithm).iter(), K
                )
            ]
            assert mem == sql
            assert mem, "selection case should not be empty"

    def test_witnesses_match_across_backends(self, tmp_path):
        """Witness recovery (the rows the bind read) returns the same tuples."""
        database = uniform_database(3, 40, domain_size=4, seed=5)
        query = cycle_query(3)
        via_sqlite = sqlite_copy(database, tmp_path, "wit")
        mem = list(
            itertools.islice(Engine(database).prepare(query).iter(), 25)
        )
        sql = list(
            itertools.islice(Engine(via_sqlite).prepare(query).iter(), 25)
        )
        assert [r.witness for r in mem] == [r.witness for r in sql]
        assert [r.witness_ids for r in mem] == [r.witness_ids for r in sql]


class TestCycleSplitOverSQLite:
    @pytest.mark.parametrize("length", [3, 4, 5])
    def test_sqlite_bags_are_the_memory_bags(self, tmp_path, length):
        """The heavy/light degrees come from the codes each image holds:
        the stored relations decompose as the in-memory ones, bag for bag."""
        from tests.test_cycle_columns import snapshot

        database = uniform_database(length, 40, domain_size=8, seed=40 + length)
        via_sqlite = sqlite_copy(database, tmp_path, f"split{length}")
        query = cycle_query(length)
        try:
            heavy = 0
            for threshold in (None, 2, 3):
                memory = decompose_cycle(database, query, threshold=threshold)
                stored = decompose_cycle(via_sqlite, query, threshold=threshold)
                assert snapshot(stored) == snapshot(memory)
                heavy += sum(task.label.startswith("heavy") for task in stored)
            assert heavy > 0
        finally:
            via_sqlite.close()


def test_empty_relation_conformance(tmp_path):
    """A joined-away empty relation yields an empty stream on both stores."""
    database = Database([
        Relation("R", 2, [(1, 2)], [1.0]),
        Relation("S", 2),
    ])
    query_text = "Q(x, y, z) :- R(x, y), S(y, z)"
    assert list(Engine(database).prepare(query_text).iter()) == []
    via_sqlite = sqlite_copy(database, tmp_path, "empty")
    assert list(Engine(via_sqlite).prepare(query_text).iter()) == []


# -- the protocol is the store's whole surface --------------------------------


def public_members(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("_")}


def public_methods(cls) -> set[str]:
    return {
        name for name in public_members(cls)
        if inspect.isfunction(vars(cls)[name])
    }


PROTOCOL = public_members(StorageBackend)


def test_the_sqlite_backend_offers_the_protocol_and_nothing_more():
    """No access path beside the protocol: a method only ``tests/`` call
    is a method nothing in the product reads."""
    assert public_methods(SQLiteBackend) == public_methods(StorageBackend)
    assert PROTOCOL - public_methods(StorageBackend) == {"core_path"}
    assert isinstance(vars(SQLiteBackend)["core_path"], property)


def backend_reads(tree: ast.AST) -> set[str]:
    """Attribute names read off an expression named ``*backend``:
    ``backend.fetch_rows(...)``, ``self.backend.version``, and
    ``getattr(database.backend, "core_path", None)``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if ast.unparse(node.value).endswith("backend"):
                found.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and ast.unparse(node.args[0]).endswith("backend")
        ):
            found.add(node.args[1].value)
    return found


def test_every_protocol_member_has_a_caller_in_the_package():
    root = os.path.dirname(os.path.abspath(repro.__file__))
    own = os.path.join(root, "data", "backend.py")
    used: set[str] = set()
    for directory, _dirs, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(directory, name)
            if not name.endswith(".py") or path == own:
                continue
            with open(path, encoding="utf-8") as fd:
                used |= backend_reads(ast.parse(fd.read(), filename=path))
    assert PROTOCOL - used == set(), (
        "protocol members no module outside data/backend.py calls"
    )
