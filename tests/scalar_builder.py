"""The row-at-a-time T-DP builder, kept as the oracle of the column sweep.

This is ``repro.dp.builder.build_tdp`` as it stood before it was turned
into a column sweep (ISSUE 22): one interpreter iteration per row, the
scalar ``lift`` / ``times`` / ``key`` of the dioid called per state, a
connector's minimum folded into ``pi1`` once per state that points at
it.  It defines what the column builder must produce — same values,
same ``(key, state, value)`` entries, same first-seen connector order
and uids — and ``tests/test_builder_columns.py`` compares the two by
``repr``.  Not collected by pytest; never imported by ``src/``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.data.database import Database
from repro.dp.builder import WeightLift, default_lift
from repro.dp.graph import ChoiceSet, TDP
from repro.query.jointree import JoinTree
from repro.ranking.dioid import TROPICAL, SelectiveDioid


def _key_reader(positions: tuple[int, ...]) -> tuple[int | None, Any]:
    """How the scan loops read a join key off a tuple.

    ``(column, None)`` for a single column: the loops subscript it in
    line and use the bare value instead of a 1-tuple (a measurable
    constant-factor win on the TTF-critical path).  Otherwise ``(None,
    getter)`` where ``getter(values)`` is the key tuple, built in C —
    decomposition bags join on two or more columns.
    """
    if len(positions) == 1:
        return positions[0], None
    if not positions:
        return None, lambda _values: ()
    return None, itemgetter(*positions)


def build_tdp_scalar(
    database: Database,
    join_tree: JoinTree,
    dioid: SelectiveDioid = TROPICAL,
    lift: WeightLift | None = None,
    share_connectors: bool = True,
) -> TDP:
    """``build_tdp`` as it ran before the column sweep: one row at a time."""
    if lift is None:
        lift = default_lift
    query = join_tree.query
    order = join_tree.order
    num_stages = len(order)
    stage_of_atom = {atom_idx: s for s, atom_idx in enumerate(order)}
    parent_stage = [
        -1 if join_tree.parent[atom_idx] == -1 else stage_of_atom[join_tree.parent[atom_idx]]
        for atom_idx in order
    ]
    tdp = TDP(
        dioid,
        atom_of_stage=order,
        parent_stage=parent_stage,
        query=query,
        join_tree=join_tree,
    )

    # Join-key column positions, per stage: within the stage's own atom
    # (used to group its states) and within the parent's atom (used to
    # look up the child connector from a parent state).
    own_key_positions: list[tuple[int, ...]] = []
    parent_key_positions: list[tuple[int, ...]] = []
    for stage, atom_idx in enumerate(order):
        atom = query.atoms[atom_idx]
        shared = join_tree.shared_variables(atom_idx)
        own_key_positions.append(atom.positions_of(shared))
        if parent_stage[stage] == -1:
            parent_key_positions.append(())
        else:
            parent_atom = query.atoms[join_tree.parent[atom_idx]]
            parent_key_positions.append(parent_atom.positions_of(shared))

    dioid_one = dioid.one
    times = dioid.times
    key_of = dioid.key
    identity_lift = lift is default_lift
    next_uid = 0

    # conn_map[c]: join key -> ChoiceSet over stage c's alive states.
    conn_map: list[dict] = [dict() for _ in range(num_stages)]

    for stage in reversed(range(num_stages)):
        atom = query.atoms[order[stage]]
        relation = database[atom.relation_name]
        child_list = tdp.children_stages[stage]
        check_repeats = atom.has_repeated_variables()

        stage_tuples = tdp.tuples[stage]
        stage_ids = tdp.tuple_ids[stage]
        stage_values = tdp.values[stage]
        stage_pi1 = tdp.pi1[stage]
        stage_conns = tdp.child_conns[stage]

        # Per child branch: (single_column_or_None, key_getter, conn_map).
        child_lookups = [
            (*_key_reader(parent_key_positions[c]), conn_map[c])
            for c in child_list
        ]

        for tuple_id, (values, raw_weight) in enumerate(relation.rows()):
            if check_repeats and not atom.satisfies_repeats(values):
                continue
            # ``times`` runs against ``one`` on the first branch here and
            # on leaf stages below: the result must carry the dioid's
            # arithmetic (``0.0 + 2`` is ``2.0``).  Folding ``one``
            # cheaply is the dioid's business (the tie-breaking dioid
            # skips the id-vector merge).
            pi = dioid_one
            conns: list[ChoiceSet] = []
            dead = False
            for single, key_getter, cmap in child_lookups:
                if single is None:
                    conn = cmap.get(key_getter(values))
                else:
                    conn = cmap.get(values[single])
                if conn is None:
                    dead = True
                    break
                conns.append(conn)
                pi = times(pi, conn.min_value)
            if dead:
                continue
            if not share_connectors and conns:
                private = []
                for conn in conns:
                    private.append(
                        ChoiceSet(next_uid, conn.stage, list(conn.entries))
                    )
                    next_uid += 1
                conns = private
            stage_tuples.append(values)
            stage_ids.append(tuple_id)
            stage_values.append(
                raw_weight if identity_lift else lift(atom, values, raw_weight)
            )
            stage_pi1.append(pi)
            stage_conns.append(tuple(conns))

        # Group the alive states of this stage by their join key with the
        # parent (the empty key for root stages: a single connector).
        single, key_getter = _key_reader(own_key_positions[stage])
        groups: dict = {}
        for state, values in enumerate(stage_tuples):
            entry_value = times(stage_values[state], stage_pi1[state])
            entry = (key_of(entry_value), state, entry_value)
            if single is None:
                join_key = key_getter(values)
            else:
                join_key = values[single]
            bucket = groups.get(join_key)
            if bucket is None:
                groups[join_key] = [entry]
            else:
                bucket.append(entry)
        stage_conn_map = conn_map[stage]
        for join_key, entries in groups.items():
            stage_conn_map[join_key] = ChoiceSet(next_uid, stage, entries)
            next_uid += 1

    tdp.num_connectors = next_uid

    # Virtual start state: one branch per root stage.
    best = dioid_one
    complete = True
    for root in tdp.root_stages:
        conn = conn_map[root].get(())
        if conn is None:
            complete = False
            break
        tdp.root_conn[root] = conn
        best = times(best, conn.min_value)
    tdp.best_weight = best if complete else dioid.zero
    if not complete:
        tdp.root_conn = {}
    return tdp
