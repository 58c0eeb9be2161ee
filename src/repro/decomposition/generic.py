"""Generic hypertree-style decomposition for arbitrary cyclic CQs.

The paper uses submodular-width decompositions (PANDA) as a black box;
those are out of scope, so arbitrary cyclic queries fall back to a
single-tree *generalized hypertree decomposition*: a greedy tree
decomposition of the query's primal graph (the min-fill-in heuristic,
:func:`min_fill_bags`), whose bags are materialised with our
worst-case-optimal Generic-Join and whose atom weights are *pinned* to
exactly one bag (the Section 8.2 pinned-decomposition condition), so
T-DP solution weights equal original witness weights.
"""

from __future__ import annotations

from repro.data.database import Database
from repro.data.relation import Relation
from repro.decomposition.base import TreeTask
from repro.joins.generic_join import generic_join
from repro.query.atom import Atom
from repro.query.cq import ConjunctiveQuery
from repro.ranking.dioid import TROPICAL, SelectiveDioid, ranking_order


def min_fill_bags(variables, edges) -> list[frozenset]:
    """The bags of a min-fill-in elimination of the graph on ``variables``.

    Each round orders the remaining nodes by degree (a stable sort) and
    eliminates the first with strictly least fill — a node whose
    neighbours are already a clique at once — joining its neighbours;
    elimination stops when the min-degree node is adjacent to all the
    others.  The bags are the remaining clique, then each eliminated
    node with its neighbours in reverse elimination order, duplicates
    dropped (``tests/test_generic_decomposition.py`` holds the order to
    a reference implementation's).
    """
    graph: dict = {var: set() for var in variables}
    for u, v in edges:
        if u != v:
            graph[u].add(v)
            graph[v].add(u)
    eliminated: list[frozenset] = []
    while graph:
        by_degree = sorted(graph, key=lambda node: len(graph[node]))
        if len(graph[by_degree[0]]) == len(graph) - 1:
            break
        best, least = None, None
        for node in by_degree:
            neighbours = graph[node]
            fill = sum(len(neighbours - graph[n]) - 1 for n in neighbours) // 2
            if least is None or fill < least:
                best, least = node, fill
                if fill == 0:
                    break
        neighbours = graph.pop(best)
        for u in neighbours:
            graph[u] |= neighbours - {u}
            graph[u].discard(best)
        eliminated.append(frozenset(neighbours | {best}))
    return list(dict.fromkeys([frozenset(graph), *reversed(eliminated)]))


def _tree_decomposition(query: ConjunctiveQuery) -> list[frozenset]:
    """Bags of a tree decomposition of the primal graph (deduplicated)."""
    bags = min_fill_bags(query.variables, query.hypergraph().primal_edges())
    # Drop bags subsumed by others; the remaining bags still cover all
    # vertices and atom cliques.
    bags.sort(key=len, reverse=True)
    kept: list[frozenset] = []
    for bag in bags:
        if not any(bag <= other for other in kept):
            kept.append(bag)
    return kept


def decompose_generic(
    database: Database,
    query: ConjunctiveQuery,
    dioid: SelectiveDioid = TROPICAL,
) -> TreeTask:
    """Evaluate a cyclic CQ through a single acyclic bag query.

    Every query atom is contained in some bag (atoms are cliques of the
    primal graph); it is *pinned* to the first such bag, which accounts
    for its weight.  Bags are materialised by Generic-Join over the
    atoms they fully contain; a bag variable not covered by any
    contained atom is extended with its active domain (a correct, if
    potentially expensive, fallback — it never triggers for the query
    shapes in the paper).
    """
    bags = _tree_decomposition(query)
    atoms = query.atoms
    pinned_bag: list[int] = []
    for atom in atoms:
        vars_ = atom.variable_set()
        for index, bag in enumerate(bags):
            if vars_ <= bag:
                pinned_bag.append(index)
                break
        else:
            raise ValueError(f"no bag contains atom {atom!r}")

    bag_relations: list[Relation] = []
    bag_atoms: list[Atom] = []
    lineage: dict[str, list[tuple]] = {}
    times = dioid.times
    for index, bag in enumerate(bags):
        bag_vars = tuple(sorted(bag))
        covered = [a for a, atom in enumerate(atoms) if atom.variable_set() <= bag]
        pinned = [a for a in covered if pinned_bag[a] == index]
        name = f"GHD_B{index}"
        if covered:
            sub_query = ConjunctiveQuery(
                head=None, atoms=[atoms[a] for a in covered], name=name
            )
            rows = generic_join(database, sub_query, dioid=dioid)
            sub_vars = sub_query.variables
            positions = [sub_vars.index(v) for v in bag_vars if v in sub_vars]
            pinned_slots = [covered.index(a) for a in pinned]
            # One bag tuple per value tuple and pinned atoms' tuple ids:
            # repeated tuples of a pinned atom are distinct witnesses.
            seen: set[tuple] = set()
            tuples: list[tuple] = []
            weights: list = []
            lineages: list[tuple] = []
            for _weight, assignment, witness in rows:
                bag_tuple = tuple(assignment[p] for p in positions)
                key = (bag_tuple, tuple(witness[slot] for slot in pinned_slots))
                if key in seen:
                    continue
                seen.add(key)
                weight = dioid.one
                for atom_index, slot in zip(pinned, pinned_slots):
                    relation = database[atoms[atom_index].relation_name]
                    weight = times(weight, relation.weights[witness[slot]])
                tuples.append(bag_tuple)
                weights.append(weight)
                lineages.append(
                    tuple(sorted(
                        (atom_index, witness[slot])
                        for atom_index, slot in zip(pinned, pinned_slots)
                    ))
                )
            bound = {v for v in bag_vars if v in sub_vars}
        else:
            tuples, weights, lineages = [()], [dioid.one], [()]
            bound = set()
        # Extend with active domains for any variables the contained
        # atoms do not bind (correctness fallback).
        for var in bag_vars:
            if var in bound:
                continue
            domain = _active_domain(database, query, var)
            tuples = [t + (value,) for t in tuples for value in domain]
            weights = [w for w in weights for _ in domain]
            lineages = [ln for ln in lineages for _ in domain]
        if not tuples:
            tuples, weights, lineages = [], [], []
        # Reorder columns to the sorted bag_vars order.
        current_order = [v for v in bag_vars if v in bound] + [
            v for v in bag_vars if v not in bound
        ]
        reorder = [current_order.index(v) for v in bag_vars]
        tuples = [tuple(t[i] for i in reorder) for t in tuples]
        bag_relations.append(Relation(name, len(bag_vars), tuples, weights))
        bag_atoms.append(Atom(name, bag_vars))
        lineage[name] = lineages

    bag_query = ConjunctiveQuery(
        head=query.head, atoms=bag_atoms, name=f"{query.name}_GHD"
    )
    return TreeTask(
        database=Database(bag_relations),
        query=bag_query,
        lineage=lineage,
        label="ghd",
        bag_layout="bag rows (generic decomposition)",
    )


def _active_domain(database: Database, query: ConjunctiveQuery, var: str) -> list:
    """Distinct values of ``var`` across all atoms containing it."""
    values: set = set()
    for atom in query.atoms:
        if var not in atom.variables:
            continue
        position = atom.variables.index(var)
        values.update(database[atom.relation_name].column_values(position))
    return ranking_order(values)
