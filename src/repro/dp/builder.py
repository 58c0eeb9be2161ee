"""Bottom-up construction of T-DP problems from a join tree (Eq. 2 / Eq. 7).

Processing stages in reverse serialised order (children before parents)
computes, per state, ``pi1`` — the weight of the best completion of the
subtree below it — while grouping alive states into the shared
:class:`~repro.dp.graph.ChoiceSet` connectors of the equi-join encoding.
States whose ``pi1`` would be ``zero`` (no join partner in some branch)
are pruned immediately, which is the semi-join reduction of Yannakakis
specialised to the tropical (or any) semiring, as Section 3 observes.

Total cost is O(l * n) data complexity: one pass over every relation
plus hash grouping; nothing is sorted (TTF optimality).

**A stage is swept as columns, never as rows.**  The input is two
parallel sequences (:func:`stage_columns`): rows and weights, the lists
a relation stores or a backend's one ``fetch_rows`` split once — the
lane lowering of :mod:`repro.dp.lower` reads the relation's column
image instead, and this builder is its oracle.  Per stage: one C-level hash-probe pass
per child branch (``map(conn_map.get, join keys)``) and one alive
filter; the lift as one column; ``pi1``, the entry values and their keys
through the dioid's column operations
(:meth:`~repro.ranking.dioid.SelectiveDioid.times_column` /
``key_column`` — by default the scalar methods mapped, so any dioid
works, and :class:`~repro.ranking.dioid.TieBreakingDioid` adds its rank
lane with one ``map(add, ...)``); the entries from one ``zip(keys,
count(), values)``.  The only per-row interpreter loop left is the
grouping of a non-root stage's entries into first-seen connectors.

**Folded once per connector.**  A connector's minimum is read, and its
product with ``one`` (the first branch's contribution to ``pi1``) made,
once per *distinct* connector a stage references; every parent state
pointing at it receives that one value.  ``min_entry`` stays lazy for
connectors nothing references.  Further branches multiply per state.

**What a state keeps alive**: its row (the relation's own tuple), its
lifted value, its entry value, the entry's key if the dioid boxes one,
the ``(key, state, value)`` entry and — with child branches — the tuple
of its child connectors.  Under the tie-breaking dioid that is four
tuples for any state, leaf or not — value ``(weight, rank)``, entry
value, key, entry — each a pair of scalars (the entry: of the two
pairs and an int); the tie-breaker is one ``int`` in each, numbered
once per bind (:func:`rank_tie_domains`), so there is no id vector, no
per-value box and nothing to merge.  No list and no ``pi1`` of its own
(``tests/test_builder_columns.py`` takes the census, and compares every
emitted value with the row-at-a-time loop this sweep replaced, kept as
``tests/scalar_builder.py``).
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import add, and_, is_not, itemgetter
from typing import Any, Callable, Iterable, Sequence

from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.graph import ChoiceSet, TDP
from repro.dp.lower import owned_columns, stage_layout
from repro.query.cq import ConjunctiveQuery
from repro.query.jointree import JoinTree, build_join_tree
from repro.ranking.dioid import TROPICAL, SelectiveDioid, TieBreakingDioid
from repro.util import vec

#: Lift signature: (atom, tuple_values, raw_weight) -> dioid value.  A
#: lift may carry its column form as a ``column`` attribute —
#: ``column(atom, rows, weights)``, equal to the lift mapped over the
#: two sequences — which the builder then calls once per stage.
WeightLift = Callable[[Any, tuple, Any], Any]


def stage_columns(relation: Relation) -> tuple[Sequence[tuple], Sequence]:
    """One stage's input: ``(rows, weights)``, parallel and order-stable.

    Rows are at atom arity.  An in-memory relation hands over the two
    lists it stores; a backend-stored, unmaterialised one splits its
    bulk ``fetch_rows`` result once.
    """
    backend = relation.backend
    if backend is not None and not relation.is_materialized:
        fetched = list(chain.from_iterable(backend.fetch_rows(relation.table)))
        return [row[:-1] for row in fetched], [row[-1] for row in fetched]
    return relation.tuples, relation.weights


def join_key_column(rows: Sequence[tuple], positions: tuple[int, ...]):
    """Iterate the join keys of ``rows``: bare values for one column, else tuples."""
    if not positions:
        return repeat((), len(rows))
    return map(itemgetter(*positions), rows)


def packed_ranks(ranks: Sequence[dict], template, rows) -> Iterable[int] | None:
    """Each row's packed rank over the owned ``template``, or ``None``.

    ``ranks`` is :attr:`TieBreakingDioid.ranks`; one table lookup pass
    per owned column, summed lazily (``None``: the stage owns nothing).
    """
    packed = None
    for column, slot in template:
        lane = map(ranks[slot].__getitem__, map(itemgetter(column), rows))
        packed = lane if packed is None else map(add, packed, lane)
    return packed


def default_lift(_atom, _values, raw_weight):
    """Identity lift: relation weights already live in the dioid domain."""
    return raw_weight


def rank_tie_domains(
    tie: TieBreakingDioid,
    members: Iterable[tuple[Database, JoinTree, dict[str, int]]],
) -> None:
    """Number the values of every ranked variable, once for the whole plan.

    ``members`` are the ``(database, join tree, variable -> slot)`` of
    every tree that will be lifted into ``tie`` (decomposition members,
    or UCQ members): a slot's domain is what the columns owning it hold,
    over all of them, so any two members rank one value alike.  One C pass per
    owning column over rows the bind reads anyway — over a column-backed
    bag's codes, its distinct codes by a
    :class:`~repro.util.vec.KeyIndex`, a table where they are dense — and
    one sort per slot, of its values.
    """
    domains: list[set] = [set() for _ in range(tie.num_variables)]
    for database, join_tree, var_position in members:
        atoms = join_tree.query.atoms
        for atom_idx, template in owned_columns(join_tree, var_position).items():
            if not template:
                continue
            relation = database[atoms[atom_idx].relation_name]
            if relation.backend is None and not relation.is_materialized:
                image = relation.arrays  # a column-backed bag
                domain = None if image.code is None else list(image.code)
                for column, slot in template:
                    codes = image.codes[column]
                    values = codes[vec.KeyIndex([codes], len(codes)).first].tolist()
                    if domain is not None:
                        values = map(domain.__getitem__, values)
                    domains[slot].update(values)
                continue
            rows, _weights = stage_columns(relation)
            for column, slot in template:
                domains[slot].update(map(itemgetter(column), rows))
    tie.rank_domains(domains)


def make_tie_lift(
    tie: TieBreakingDioid, var_position: dict[str, int], join_tree: JoinTree
):
    """Lift one member's weights into the tie-breaking dioid.

    A stage's value carries the packed rank of the variables the stage
    owns (:func:`owned_columns`), so the operands of every ``times`` of
    the bottom-up pass bind disjoint slots and adding ranks is the whole
    merge.  ``lift.column`` is one table lookup pass per owned column —
    most stages own one or two — and one ``zip``; nothing is boxed per
    value.  :func:`rank_tie_domains` must have numbered the domains.
    """
    atoms = join_tree.query.atoms
    # By identity: a query may hold two equal atoms, and only the first
    # owns their variables.  (The tree keeps the atoms alive.)
    templates = {
        id(atoms[atom_idx]): template
        for atom_idx, template in owned_columns(join_tree, var_position).items()
    }

    def lift(atom, values, raw_weight):
        ranks = tie.ranks
        return (
            raw_weight,
            sum([ranks[slot][values[column]] for column, slot in templates[id(atom)]]),
        )

    def lift_column(atom, rows, weights) -> list:
        packed = packed_ranks(tie.ranks, templates[id(atom)], rows)
        return list(zip(weights, repeat(0) if packed is None else packed))

    lift.column = lift_column
    return lift


def _keep(mask: list, *columns) -> list[list]:
    """Each of the parallel ``columns`` cut down to the rows ``mask`` keeps."""
    return [list(compress(column, mask)) for column in columns]


def alive_rows(relation, atom, children) -> tuple[list, list, Sequence[int], list[list]]:
    """One stage's alive rows: ``(rows, weights, ids, branches)``.

    ``children`` is ``(connector map, join-key positions in this atom)``
    per child branch.  A row is alive when it satisfies its atom's
    repeated variables and every branch finds its connector: one hash
    probe pass per branch (``branches[b][i]`` is what row ``i`` found),
    one filter.  ``ids`` are the rows' positions in the relation.  The
    columns are copies: an in-memory relation hands over its own lists.
    """
    rows, weights = map(list, stage_columns(relation))
    ids = range(len(rows))
    if atom.has_repeated_variables():
        rows, weights, ids = _keep(
            list(map(atom.satisfies_repeats, rows)), rows, weights, ids
        )
    branches = [
        list(map(conn_map.get, join_key_column(rows, positions)))
        for conn_map, positions in children
    ]
    alive = None
    for conns in branches:
        found = map(is_not, conns, repeat(None))
        alive = list(found if alive is None else map(and_, alive, found))
    if alive is not None and not all(alive):
        rows, weights, ids, *branches = _keep(alive, rows, weights, ids, *branches)
    return rows, weights, ids, branches


def build_tdp(
    database: Database,
    join_tree: JoinTree,
    dioid: SelectiveDioid = TROPICAL,
    lift: WeightLift | None = None,
    share_connectors: bool = True,
) -> TDP:
    """Materialise the T-DP state space for an acyclic (full) CQ.

    ``lift`` converts a stored tuple weight into a dioid value (identity
    by default); ``share_connectors=False`` disables the Fig 3 sharing by
    giving every parent state a private copy of its connector — only used
    by the encoding ablation benchmark, never in normal operation.
    """
    if lift is None:
        lift = default_lift
    lift_column = getattr(lift, "column", None)
    query = join_tree.query
    order = join_tree.order
    num_stages = len(order)
    parent_stage, own_key_positions, parent_key_positions = stage_layout(join_tree)
    tdp = TDP(
        dioid,
        atom_of_stage=order,
        parent_stage=parent_stage,
        query=query,
        join_tree=join_tree,
    )

    one = dioid.one
    times_column = dioid.times_column
    next_uid = 0

    # conn_map[c]: join key -> ChoiceSet over stage c's alive states.
    conn_map: list[dict] = [dict() for _ in range(num_stages)]

    for stage in reversed(range(num_stages)):
        atom = query.atoms[order[stage]]
        rows, weights, ids, branches = alive_rows(
            database[atom.relation_name], atom,
            [(conn_map[c], parent_key_positions[c]) for c in tdp.children_stages[stage]],
        )
        states = len(rows)

        # ``times`` runs against ``one`` on the first branch here and on
        # leaf stages below: the result must carry the dioid's
        # arithmetic (``0.0 + 2`` is ``2.0``).  A connector's minimum is
        # read once, and that first product made once, per distinct
        # connector the stage references, however many states share it.
        pi = [one] * states
        for branch, conns in enumerate(branches):
            minima = {conn: conn.min_value for conn in dict.fromkeys(conns)}
            if branch == 0:
                folded = times_column([one] * len(minima), list(minima.values()))
                pi = list(map(dict(zip(minima, folded)).__getitem__, conns))
            else:
                pi = times_column(pi, list(map(minima.__getitem__, conns)))

        if not share_connectors and branches:
            # State-major uids, as if each state copied its own.
            width = len(branches)
            branches = [
                [
                    ChoiceSet(uid, conn.stage, list(conn.entries))
                    for uid, conn in zip(count(next_uid + branch, width), conns)
                ]
                for branch, conns in enumerate(branches)
            ]
            next_uid += width * states

        if lift is default_lift:
            values = weights
        elif lift_column is not None:
            values = lift_column(atom, rows, weights)
        else:
            values = list(map(lift, repeat(atom), rows, weights))
        del weights
        tdp.tuples[stage] = rows
        tdp.tuple_ids[stage] = list(ids)
        tdp.values[stage] = values
        tdp.pi1[stage] = pi
        tdp.child_conns[stage] = list(zip(*branches)) if branches else [()] * states
        del branches

        entry_values = times_column(values, pi)
        entries = list(zip(dioid.key_column(entry_values), count(), entry_values))
        del entry_values

        # Group the alive states of this stage by their join key with the
        # parent (the empty key for root stages: a single connector).
        own_positions = own_key_positions[stage]
        groups: dict = {}
        if not own_positions:
            if entries:
                groups[()] = entries
        else:
            for join_key, entry in zip(join_key_column(rows, own_positions), entries):
                bucket = groups.get(join_key)
                if bucket is None:
                    groups[join_key] = [entry]
                else:
                    bucket.append(entry)
        stage_conn_map = conn_map[stage]
        for join_key, group in groups.items():
            stage_conn_map[join_key] = ChoiceSet(next_uid, stage, group)
            next_uid += 1

    tdp.num_connectors = next_uid

    # Virtual start state: a one-row stage with one branch per root stage.
    best = [one]
    complete = True
    for root in tdp.root_stages:
        conn = conn_map[root].get(())
        if conn is None:
            complete = False
            break
        tdp.root_conn[root] = conn
        best = times_column(best, [conn.min_value])
    tdp.best_weight = best[0] if complete else dioid.zero
    if not complete:
        tdp.root_conn = {}
    return tdp


def build_tdp_for_query(
    database: Database,
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
    lift: WeightLift | None = None,
    root: int | None = None,
) -> TDP:
    """Convenience: GYO join tree + bottom-up phase for an acyclic CQ."""
    tree = build_join_tree(query, root=root)
    return build_tdp(database, tree, dioid=dioid, lift=lift)
