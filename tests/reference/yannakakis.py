"""The Yannakakis algorithm for full acyclic CQs (Section 2.4, [103]).

Semi-join reduction (bottom-up then top-down over a join tree) followed
by a backtracking join produces the full output in O(n + |out|) data
complexity.  This implementation is deliberately *independent* of the
T-DP machinery — it operates directly on relations — so the suites use
it as an unranked oracle for the any-k enumerators and the
decompositions (``test_joins``, ``test_cross_oracle``,
``test_cycle_decomposition``, ``test_generic_decomposition``).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.data.database import Database
from repro.query.cq import ConjunctiveQuery
from repro.query.jointree import JoinTree, build_join_tree
from repro.ranking.dioid import TROPICAL, SelectiveDioid
from repro.util.counters import OpCounter


def yannakakis(
    database: Database,
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
    tree: JoinTree | None = None,
    counter: OpCounter | None = None,
) -> list[tuple[Any, tuple]]:
    """Full output of an acyclic full CQ as ``(weight, assignment)`` pairs.

    ``assignment`` is a tuple of values aligned with ``query.variables``;
    ``weight`` aggregates the witness's tuple weights with the dioid.
    The output order is unspecified (this is the *unranked* algorithm).
    """
    if tree is None:
        tree = build_join_tree(query)
    order = tree.order
    num_stages = len(order)
    atoms = [query.atoms[a] for a in order]
    parent = {
        stage: (
            -1
            if tree.parent[order[stage]] == -1
            else order.index(tree.parent[order[stage]])
        )
        for stage in range(num_stages)
    }
    shared = [tree.shared_variables(order[stage]) for stage in range(num_stages)]
    own_positions = [
        atoms[stage].positions_of(shared[stage]) for stage in range(num_stages)
    ]
    parent_positions = [
        ()
        if parent[stage] == -1
        else atoms[parent[stage]].positions_of(shared[stage])
        for stage in range(num_stages)
    ]

    # Working tuple lists per stage (indices into the base relations).
    # Tuple/weight lists are bound once up front: element-wise access in
    # the backtracking join below must not re-enter the (backend-aware)
    # Relation properties per lookup.
    relations = [database[atom.relation_name] for atom in atoms]
    rel_tuples = [relation.tuples for relation in relations]
    rel_weights = [relation.weights for relation in relations]
    alive: list[list[int]] = []
    for stage, relation in enumerate(relations):
        atom = atoms[stage]
        if atom.has_repeated_variables():
            alive.append(
                [
                    i
                    for i, values in enumerate(rel_tuples[stage])
                    if atom.satisfies_repeats(values)
                ]
            )
        else:
            alive.append(list(range(len(relation))))

    def keys_of(stage: int, positions: tuple[int, ...]) -> set:
        tuples = rel_tuples[stage]
        return {
            tuple(tuples[i][p] for p in positions)
            for i in alive[stage]
        }

    # Bottom-up semi-join pass: child reduces parent.
    for stage in reversed(range(num_stages)):
        p = parent[stage]
        if p == -1:
            continue
        child_keys = keys_of(stage, own_positions[stage])
        positions = parent_positions[stage]
        tuples = rel_tuples[p]
        alive[p] = [
            i
            for i in alive[p]
            if tuple(tuples[i][q] for q in positions) in child_keys
        ]
    # Top-down semi-join pass: parent reduces child.
    for stage in range(num_stages):
        p = parent[stage]
        if p == -1:
            continue
        parent_keys = keys_of(p, parent_positions[stage])
        positions = own_positions[stage]
        tuples = rel_tuples[stage]
        alive[stage] = [
            i
            for i in alive[stage]
            if tuple(tuples[i][q] for q in positions) in parent_keys
        ]

    # Index alive tuples of each stage by the join key with the parent.
    buckets: list[dict[tuple, list[int]]] = []
    for stage in range(num_stages):
        positions = own_positions[stage]
        tuples = rel_tuples[stage]
        index: dict[tuple, list[int]] = {}
        for i in alive[stage]:
            key = tuple(tuples[i][p] for p in positions)
            index.setdefault(key, []).append(i)
        buckets.append(index)

    variables = query.variables
    var_position = {v: i for i, v in enumerate(variables)}
    results: list[tuple[Any, tuple]] = []
    times = dioid.times

    assignment: list[Any] = [None] * len(variables)
    chosen_weight: list[Any] = [dioid.one] * (num_stages + 1)
    iterators: list[Iterator | None] = [None] * num_stages

    def stage_candidates(stage: int) -> Iterator[int]:
        p = parent[stage]
        if p == -1:
            yield from buckets[stage].get((), [])
            return
        parent_tuple = rel_tuples[p][chosen_index[p]]
        key = tuple(parent_tuple[q] for q in parent_positions[stage])
        yield from buckets[stage].get(key, [])

    chosen_index: list[int] = [-1] * num_stages
    level = 0
    iterators[0] = stage_candidates(0)
    while level >= 0:
        tuple_index = next(iterators[level], None)
        if tuple_index is None:
            level -= 1
            continue
        chosen_index[level] = tuple_index
        values = rel_tuples[level][tuple_index]
        for var, value in zip(atoms[level].variables, values):
            assignment[var_position[var]] = value
        chosen_weight[level + 1] = times(
            chosen_weight[level], rel_weights[level][tuple_index]
        )
        if counter is not None:
            counter.intermediate_tuples += 1
        if level == num_stages - 1:
            results.append((chosen_weight[num_stages], tuple(assignment)))
        else:
            level += 1
            iterators[level] = stage_candidates(level)
    return results
