"""Top-level ranked enumeration: the library's main entry point.

Dispatch (Section 5.4):

* full acyclic CQ — join tree, T-DP bottom-up, any-k enumeration;
* full cyclic CQ — simple-cycle decomposition when the query is a simple
  cycle (Section 5.3.1), otherwise a generic hypertree decomposition;
  the member trees are ranked under the Section 6.3 tie-breaking dioid
  and merged by the UT-DP union enumerator with on-the-fly duplicate
  elimination;
* non-full CQ — Section 8.1 projection semantics (all-weight by
  default; ``projection="min_weight"`` for free-connex queries).

Since the engine refactor, the dispatch lives in the planning layer
(:func:`repro.engine.plan.plan`); :func:`ranked_enumerate` is a thin
compatibility wrapper that plans, binds, and enumerates in one shot.
Use :class:`repro.engine.Engine` + ``prepare()`` to amortise the
preprocessing phase over repeated executions.
"""

from __future__ import annotations

from typing import Iterator

from repro.anyk.union import UnionEnumerator
from repro.data.database import Database
from repro.decomposition.base import TreeTask
from repro.decomposition.cycle import decompose_cycle, detect_simple_cycle
from repro.decomposition.generic import decompose_generic
from repro.enumeration.result import QueryResult
from repro.query.cq import ConjunctiveQuery
from repro.query.jointree import build_join_tree
from repro.ranking.dioid import TROPICAL, SelectiveDioid, TieBreakingDioid
from repro.util.counters import OpCounter

__all__ = [
    "QueryResult",
    "ranked_enumerate",
    "evaluate_boolean",
    "enumerate_union",
    "ranked_enumerate_ucq",
]


def ranked_enumerate(
    database: Database,
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
    algorithm: str = "take2",
    counter: OpCounter | None = None,
    projection: str = "all_weight",
    cycle_threshold: int | None = None,
) -> Iterator[QueryResult]:
    """Enumerate the answers of ``query`` on ``database`` in ranked order.

    ``algorithm`` is any of ``take2``, ``lazy``, ``eager``, ``all``,
    ``recursive``, ``batch``, ``batch_nosort``.  ``projection`` selects
    the Section 8.1 semantics (``all_weight`` or ``min_weight``);
    ``min_weight`` also applies to full queries, where it merges
    duplicate-tuple witnesses of the same assignment to their minimum.
    Returns a lazy iterator; pulling ``k`` results costs TT(k), not TTL.

    One-shot path: preprocessing (planning + binding) runs on every
    call.  For repeated executions of the same query, prepare it once
    through an :class:`repro.engine.Engine` instead.
    """
    from repro.engine.plan import bind, plan

    logical = plan(
        query,
        dioid=dioid,
        algorithm=algorithm,
        projection=projection,
        cycle_threshold=cycle_threshold,
    )
    return bind(logical, database).iter(counter)


def evaluate_boolean(
    database: Database,
    query: ConjunctiveQuery,
    counter: OpCounter | None = None,
) -> bool:
    """Boolean query evaluation through the ranked framework (§6.4).

    Runs ranked enumeration under the tropical dioid and asks for the
    first result only; TTF matches the best known Boolean bounds —
    O(n) for acyclic queries, O(n^(2-1/ceil(l/2))) for simple cycles
    (e.g. O(n^1.5) for the 4-cycle, the submodular-width bound).
    """
    full = query if query.is_full() else ConjunctiveQuery(
        head=None, atoms=query.atoms, name=query.name
    )
    stream = ranked_enumerate(
        database, full, algorithm="lazy", counter=counter
    )
    return next(iter(stream), None) is not None


def enumerate_union(
    database: Database,
    query: ConjunctiveQuery,
    tasks: list[TreeTask],
    dioid: SelectiveDioid,
    algorithm: str,
    counter: OpCounter | None,
    dedup: bool = False,
) -> Iterator[QueryResult]:
    """UT-DP over decomposition members with tie-breaking (+ optional dedup).

    Each member is ranked under the Section 6.3 tie-breaking dioid so
    that ties across members resolve identically and duplicates arrive
    consecutively; the reported weight is the base (first) dimension.
    Enable ``dedup`` only for decompositions whose member outputs may
    overlap — it assumes set semantics (duplicate-free relations), where
    identical consecutive output tuples are genuinely the same witness.
    """
    from repro.engine.plan import LogicalPlan, UnionPhysical

    logical = LogicalPlan(
        query=query,
        strategy="union-of-trees",
        dioid=dioid,
        algorithm=algorithm,
        projection="all_weight",
    )
    return UnionPhysical(logical, database, tasks, dedup=dedup).iter(counter)


def ranked_enumerate_ucq(
    database: Database,
    queries: list[ConjunctiveQuery],
    dioid: SelectiveDioid = TROPICAL,
    algorithm: str = "take2",
    dedup: bool = True,
    counter: OpCounter | None = None,
) -> Iterator[QueryResult]:
    """Ranked enumeration over a *union* of full CQs (UT-DP, Section 5.2).

    All member queries must be full and share the same head arity; the
    union's answers are head tuples, named after the first query's head
    variables.  Members are ranked under a tie-breaking dioid keyed by
    head *positions*, so identical ``(weight, head tuple)`` answers from
    overlapping members arrive consecutively and — with ``dedup`` — are
    reported once (set-style union semantics per weight level).

    Cyclic members are decomposed and their trees flattened into the
    top-level union.  The members are bound as a decomposition's are
    (:func:`~repro.engine.plan.bind_members`): lowered to compiled cores
    where the dioid has a lane, object graphs otherwise.
    """
    from repro.engine.plan import bind_members, run_tdp

    if not queries:
        raise ValueError("the union needs at least one query")
    head_arity = len(queries[0].head)
    head_names = queries[0].head
    for query in queries:
        if not query.is_full():
            raise ValueError(f"UCQ member {query.name} must be a full CQ")
        if len(query.head) != head_arity:
            raise ValueError("all UCQ members need the same head arity")

    tie = TieBreakingDioid(dioid, head_arity)
    #: Per member: (database, join tree, head variable -> head position).
    parts: list[tuple] = []

    def add_member(member_db, member_query, head):
        positions = {v: i for i, v in enumerate(head)}
        parts.append((member_db, build_join_tree(member_query), positions))

    for query in queries:
        if query.is_acyclic():
            add_member(database, query, query.head)
        elif detect_simple_cycle(query) is not None:
            for task in decompose_cycle(database, query, dioid=dioid):
                add_member(task.database, task.query, query.head)
        else:
            task = decompose_generic(database, query, dioid=dioid)
            add_member(task.database, task.query, query.head)

    # One numbering per head position, over every member.
    tdps, _why = bind_members(tie, parts)
    members = [run_tdp(tdp, algorithm, counter) for tdp in tdps]
    #: A member's ``assembler()`` — what its results decode through —
    #: -> states -> the answer's values in head order.
    head_values = {
        tdp.assembler(): tdp.assembler(tuple(positions)).output_tuple
        for tdp, (_db, _tree, positions) in zip(tdps, parts)
    }

    def identity(result) -> tuple:
        # The tie-broken key *is* (weight, head tuple) — sufficient.
        return result.key

    union = UnionEnumerator(members, identity=identity, dedup=dedup,
                            counter=counter)

    def generate() -> Iterator[QueryResult]:
        for result in union:
            values = head_values[result.decoder](result.states)
            yield QueryResult(
                tie.base_value(result.weight),
                dict(zip(head_names, values)),
                head_names,
            )

    return generate()
