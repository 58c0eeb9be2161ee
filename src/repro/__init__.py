"""repro — ranked enumeration of answers to full conjunctive queries.

A from-scratch reproduction of Tziavelis et al., "Optimal Algorithms for
Ranked Enumeration of Answers to Full Conjunctive Queries" (VLDB 2020):
the any-k framework (anyK-part with Take2/Lazy/Eager/All, anyK-rec /
Recursive), tree-based dynamic programming over join trees, unions of
trees for cyclic queries, selective-dioid ranking functions, and every
baseline the paper evaluates against.

Quickstart::

    from repro import Database, Relation, parse_query, ranked_enumerate

    db = Database([
        Relation.from_pairs("R", [(1, 2), (1, 3)], weights=[1.0, 5.0]),
        Relation.from_pairs("S", [(2, 7), (3, 7)], weights=[2.0, 0.5]),
    ])
    query = parse_query("Q(x, y, z) :- R(x, y), S(y, z)")
    for result in ranked_enumerate(db, query, algorithm="take2"):
        print(result.weight, result.assignment)

Repeated executions should go through the engine, which caches the
physical plan (join tree / decomposition + built T-DPs) and re-runs
only the enumeration phase::

    from repro import Engine

    engine = Engine(db)
    prepared = engine.prepare(query)   # preprocessing paid here, once
    top5 = prepared.top(5)
    top50 = prepared.top(50)           # enumerates answers 6..50 only

``top`` calls (and :meth:`PreparedQuery.cursor` pagination handles)
share a memoized emitted-prefix stream, so overlapping requests never
repeat enumeration work.  The :mod:`repro.serve` subsystem exposes the
same engine over a streaming JSON-lines server with named sessions and
resumable cursors (``python -m repro.cli serve``).

Datasets can live on a persistent storage backend instead of in-memory
lists; the same plans run unchanged over a SQLite file::

    from repro import SQLiteBackend

    backend = SQLiteBackend("data.db")     # reopening skips ingestion
    for relation in db:
        backend.ingest(relation)
    with Engine.from_backend(backend) as engine:
        print(engine.execute(query, k=5))
"""

from repro.anyk import (
    AnyKPart,
    Batch,
    Enumerator,
    RankedResult,
    Recursive,
    UnionEnumerator,
    make_enumerator,
)
from repro.data import (
    Database,
    Relation,
    SQLiteBackend,
    StorageBackend,
)
from repro.dp import TDP, build_tdp, build_tdp_for_query
from repro.engine import (
    Engine,
    LogicalPlan,
    PhysicalPlan,
    PrefixStream,
    PreparedQuery,
    plan,
)
from repro.enumeration import QueryResult, ranked_enumerate
from repro.homomorphism import min_cost_homomorphism, ranked_homomorphisms
from repro.query import (
    Atom,
    ConjunctiveQuery,
    JoinTree,
    build_join_tree,
    cycle_query,
    parse_query,
    path_query,
    star_query,
)
from repro.ranking import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    NAMED_DIOIDS,
    TROPICAL,
    LexicographicDioid,
    SelectiveDioid,
    TieBreakingDioid,
)
from repro.serve import (
    Cursor,
    ServeClient,
    ServeServer,
    ServerThread,
    SessionManager,
)
from repro.util import OpCounter

__version__ = "1.0.0"

__all__ = [
    "Database",
    "Relation",
    "StorageBackend",
    "SQLiteBackend",
    "Engine",
    "PreparedQuery",
    "LogicalPlan",
    "PhysicalPlan",
    "plan",
    "Atom",
    "ConjunctiveQuery",
    "parse_query",
    "path_query",
    "star_query",
    "cycle_query",
    "JoinTree",
    "build_join_tree",
    "TDP",
    "build_tdp",
    "build_tdp_for_query",
    "Enumerator",
    "RankedResult",
    "make_enumerator",
    "AnyKPart",
    "Recursive",
    "Batch",
    "UnionEnumerator",
    "SelectiveDioid",
    "TROPICAL",
    "MAX_PLUS",
    "MAX_TIMES",
    "BOOLEAN",
    "NAMED_DIOIDS",
    "LexicographicDioid",
    "TieBreakingDioid",
    "PrefixStream",
    "Cursor",
    "SessionManager",
    "ServeServer",
    "ServerThread",
    "ServeClient",
    "OpCounter",
    "QueryResult",
    "ranked_enumerate",
    "min_cost_homomorphism",
    "ranked_homomorphisms",
    "__version__",
]
