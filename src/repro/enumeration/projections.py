"""Join queries with projections (Section 8.1).

Two semantics for a non-full query ``Q(y)``, both reached through
``ranked_enumerate(..., projection=...)`` (or ``Engine.prepare``):

* **all-weight** (``projection="all_weight"``): enumerate the full
  query and project each output onto ``y``, keeping duplicates and their
  individual weights — trivially reduces to full-CQ enumeration.
* **min-weight** (``projection="min_weight"``): return each distinct
  head assignment once, weighted by the minimum over its witnesses;
  possible with optimal guarantees exactly for *free-connex* acyclic
  queries (Theorem 20 / Corollary 22).  This module builds its plan
  (:func:`build_free_connex_plan`); the plan layer
  (``repro.engine.plan.MinWeightPhysical``) enumerates it.

The min-weight pipeline follows the paper's Example 19 construction:

1. extend the query with projected atoms ``a' = π_{free(a)}(a)`` for
   every atom mixing free and existential variables;
2. build a join tree of the extended query whose *free region* ``U``
   (projected atoms plus all-free atoms) sits at the top — achieved by
   biasing the GYO removal order to eliminate existential atoms first;
3. run the T-DP bottom-up pass on the extended problem, which computes
   for every U-state the best completion of the existential subtrees
   hanging below it;
4. cut below ``U``: fold each removed branch's minimum into its U-state's
   weight, merge duplicate U-tuples by minimum, and enumerate the
   reduced (full, acyclic) query over ``U`` with any any-k algorithm.
"""

from __future__ import annotations

from typing import Any

from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp
from repro.query.atom import Atom
from repro.query.cq import ConjunctiveQuery
from repro.query.jointree import JoinTree, build_join_tree
from repro.ranking.dioid import TROPICAL, SelectiveDioid


class FreeConnexPlan:
    """The reduced full query over the free region ``U`` plus its data."""

    def __init__(
        self,
        database: Database,
        query: ConjunctiveQuery,
        tree: JoinTree,
        offset: Any,
        empty: bool,
    ):
        self.database = database
        self.query = query
        self.tree = tree
        #: Contribution of fully existential components (a constant).
        self.offset = offset
        self.empty = empty


def build_free_connex_plan(
    database: Database,
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
) -> FreeConnexPlan:
    """Steps 1–4 of the module docstring; raises if not free-connex."""
    if not query.is_acyclic():
        raise ValueError(f"{query.name} is cyclic; min-weight needs free-connex")
    if not query.is_free_connex():
        raise ValueError(
            f"{query.name} is not free-connex; min-weight semantics cannot "
            "be guaranteed with logarithmic delay (Corollary 22)"
        )
    head = set(query.head)

    # -- step 1: extended atom list --------------------------------------------------
    ext_atoms: list[Atom] = []
    ext_relations: dict[str, Relation] = dict(database.relations)
    in_u: list[bool] = []
    for index, atom in enumerate(query.atoms):
        free_vars = tuple(v for v in atom.variables if v in head)
        distinct_free = tuple(dict.fromkeys(free_vars))
        if distinct_free and set(distinct_free) == atom.variable_set():
            # Fully free atom: belongs to U as-is.
            ext_atoms.append(atom)
            in_u.append(True)
            continue
        ext_atoms.append(atom)
        in_u.append(False)
        if distinct_free:
            name = f"__free_{index}_{atom.relation_name}"
            relation = database[atom.relation_name]
            columns = [atom.variables.index(v) for v in distinct_free]
            projected = relation.project(
                columns, name=name, distinct=True, default_weight=dioid.one
            )
            ext_relations[name] = projected
            ext_atoms.append(Atom(name, distinct_free))
            in_u.append(True)

    ext_query = ConjunctiveQuery(
        head=None, atoms=ext_atoms, name=f"{query.name}_ext"
    )
    # -- step 2: join tree with U on top (existential atoms removed first) --------
    priority = [1 if u else 0 for u in in_u]
    tree = build_join_tree(ext_query, priority=priority)
    for index, u in enumerate(in_u):
        parent = tree.parent[index]
        if u and parent != -1 and not in_u[parent]:
            raise ValueError(
                "free-connex join tree construction failed: free region "
                f"not upward closed at atom {ext_atoms[index]!r}"
            )

    # -- step 3: bottom-up pass on the extended problem ---------------------------
    ext_db = Database(ext_relations)
    tdp = build_tdp(ext_db, tree, dioid=dioid)

    # -- step 4: cut below U ----------------------------------------------------------
    stage_of_atom = {atom_idx: s for s, atom_idx in enumerate(tree.order)}
    offset = dioid.one
    empty = tdp.is_empty()
    u_relations: list[Relation] = []
    u_atoms: list[Atom] = []
    times = dioid.times
    plus = dioid.plus
    for atom_index, atom in enumerate(ext_atoms):
        if not in_u[atom_index]:
            # Fully existential component roots contribute a constant.
            if tree.parent[atom_index] == -1 and not empty:
                stage = stage_of_atom[atom_index]
                offset = times(offset, tdp.root_conn[stage].min_value)
            continue
        stage = stage_of_atom[atom_index]
        children = tdp.children_stages[stage]
        removed_branches = [
            b
            for b, child in enumerate(children)
            if not in_u[tree.order[child]]
        ]
        name = f"__u_{atom_index}_{atom.relation_name}"
        merged: dict[tuple, Any] = {}
        for state, values in enumerate(tdp.tuples[stage]):
            weight = tdp.values[stage][state]
            conns = tdp.child_conns[stage][state]
            for b in removed_branches:
                weight = times(weight, conns[b].min_value)
            if values in merged:
                merged[values] = plus(merged[values], weight)
            else:
                merged[values] = weight
        u_relations.append(
            Relation(
                name,
                atom.arity,
                list(merged.keys()),
                list(merged.values()),
            )
        )
        u_atoms.append(Atom(name, atom.variables))

    u_query = ConjunctiveQuery(
        head=query.head, atoms=u_atoms, name=f"{query.name}_minw"
    )
    u_tree = build_join_tree(u_query)
    return FreeConnexPlan(
        Database(u_relations), u_query, u_tree, offset, empty
    )
