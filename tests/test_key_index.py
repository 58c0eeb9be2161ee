"""Key lookups by code: a table over dense codes, one sort over wide ones.

A lowered stage numbers its connectors, its parent probes them and a
tie-broken member gathers its packed ranks through one
:class:`~repro.util.vec.KeyIndex` per key: a direct-address table where
the key's span is at most :data:`~repro.util.vec.TABLE_SLOTS_PER_ROW`
slots per row, else the codes renumbered by a sort.  Which branch runs
must not show in the core.  Each subject — a path, a star, a 4-cycle
and a tie-broken member with a two-column key — is bound over small
dense ints and again with every value relabelled in order (so the ranks
stay the ranks): the core columns and the ranked answers must be the
dense bind's, bit for bit, with the branch each relabelling forces.
"""

from __future__ import annotations

import random
from array import array

import numpy as np
import pytest

from repro.anyk.base import make_enumerator
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import rank_tie_domains
from repro.dp.flat import CompiledTDP
from repro.dp.lower import lower_member, member_lane
from repro.engine import Engine
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_TIMES, TROPICAL, TieBreakingDioid
from repro.util import vec

#: A member whose stage ``S`` joins ``R`` on the two-column key ``(b, c)``.
MEMBER = parse_query("Q(a, b, c, d, e) :- R(a, b, c), S(b, c, d), T(d, e)")

#: subject -> (query, dioid, rows per relation, values drawn from 1 .. top)
SUBJECTS = {
    "path": (path_query(4), TROPICAL, 120, 12),
    "star": (star_query(4), MAX_TIMES, 120, 12),
    "cycle": (cycle_query(4), MAX_TIMES, 80, 14),
    "member": (MEMBER, MAX_TIMES, 60, 6),
}

#: relabelling -> (value map, whether a table over the relabelled codes
#: is too wide somewhere).  Every map keeps the values' order.
RELABELLINGS = {
    # A span far past the table bound: each digit is a rank, one sort.
    "wide": (lambda v: v * 2**40 + 7, True),
    "negative": (lambda v: v - 1_000_000, False),
    "past_int32": (lambda v: v + 2**33, False),
    # Numbered in ranking order: zero-padded, so in the ints' order.
    "str": (lambda v: f"id{v:03d}", False),
    # ``wide`` with ``R2`` empty (in the dense bind too): a stage placing
    # no state, and probes of a table that holds no key.
    "empty_stage": (lambda v: v * 2**40 + 7, True),
    # Each column narrow, but a two-column key's radix product passes
    # the bound: the codes are renumbered by one sort.
    "two_column": (lambda v: v * 1000, True),
}


def _database(subject: str, seed: int) -> Database:
    query, _dioid, rows, top = SUBJECTS[subject]
    rng = random.Random(seed)
    relations = []
    for atom in query.atoms:
        arity = len(atom.variables)
        tuples = [
            # A hub value gives the 4-cycle heavy partitions.
            tuple(
                rng.randint(1, 2) if subject == "cycle" and j % 4 == 0 and k == 0
                else rng.randint(1, top)
                for k in range(arity)
            )
            for j in range(rows)
        ]
        weights = [round(rng.uniform(0.1, 1.0), 3) for _ in tuples]
        relations.append(Relation(atom.relation_name, arity, tuples, weights))
    return Database(relations)


def _relabelled(database: Database, value, empty: str | None) -> Database:
    return Database([
        Relation(
            relation.name, relation.arity,
            [] if relation.name == empty
            else [tuple(map(value, row)) for row in relation.tuples],
            [] if relation.name == empty else list(relation.weights),
        )
        for relation in database
    ])


def _bind(subject: str, database: Database):
    """``(cores, answers)``: the subject's lowered cores and its ranked
    answers as ``(weight, witness)`` pairs."""
    query, dioid, _rows, _top = SUBJECTS[subject]
    if subject == "member":
        tree = build_join_tree(query)
        positions = {var: slot for slot, var in enumerate(query.variables)}
        tie = TieBreakingDioid(dioid, len(positions))
        rank_tie_domains(tie, [(database, tree, positions)])
        core = lower_member(database, tree, tie, positions, member_lane(tie)[0])
        answers = [
            (result.weight, result.states) for result in make_enumerator(core, "take2")
        ]
        return [core], answers
    physical = Engine(database).prepare(query, dioid=dioid).bind()
    cores = physical.tdps if subject == "cycle" else [physical.tdp]
    answers = [
        (result.weight, result.witness_ids, tuple(result.assignment.values()))
        for result in physical.top(400)
    ]
    return cores, answers


#: The core columns a relabelling must leave as they are.
COLUMNS = (
    "conn_offsets", "entry_state", "entry_key", "child_uids", "min_base",
    "val_rank", "ent_rank", "entry_rank", "min_rank", "tuple_ids", "pi1",
    "root_uid", "best", "empty",
)


def canon(value):
    """A column with its types and every bit: floats by ``hex``."""
    if isinstance(value, (tuple, list, array, np.ndarray)):
        return tuple(map(canon, value))
    if isinstance(value, dict):
        return tuple((canon(k), canon(v)) for k, v in value.items())
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


@pytest.mark.parametrize("relabelling", list(RELABELLINGS))
@pytest.mark.parametrize("subject", list(SUBJECTS))
def test_a_relabelled_bind_is_the_dense_bind(monkeypatch, subject, relabelling):
    value, too_wide = RELABELLINGS[relabelling]
    empty = "R2" if relabelling == "empty_stage" else None
    if empty and subject == "member":
        empty = "S"
    dense = _database(subject, seed=4600)
    built: list[tuple[int, int, int]] = []  # (key columns, rows, sorts)
    real = vec.KeyIndex

    class Recorded(real):
        __slots__ = ()

        def __init__(self, columns, rows):
            super().__init__(columns, rows)
            built.append((len(columns), rows, self.sorts))

    monkeypatch.setattr(vec, "KeyIndex", Recorded)
    cores, answers = _bind(subject, _relabelled(dense, lambda v: v, empty))
    dense_built, built[:] = list(built), []
    relabelled_cores, relabelled_answers = _bind(
        subject, _relabelled(dense, value, empty)
    )

    if not cores:  # an empty relation leaves a cycle no member to bind
        assert (subject, relabelling) == ("cycle", "empty_stage")
        assert relabelled_cores == relabelled_answers == answers == []
        return
    assert dense_built and built
    # Over the dense ints every index is a table; the relabelling forces
    # the sorted branch where it widens the span, and only there.
    assert {sorts for _keys, _rows, sorts in dense_built} == {0}
    assert any(sorts for _keys, _rows, sorts in built) == too_wide
    if too_wide:
        assert any(not sorts for _keys, _rows, sorts in built), "both branches"
    if relabelling == "two_column" and subject in ("cycle", "member"):
        assert any(keys == 2 and sorts for keys, _rows, sorts in built)
    if empty:
        assert any(rows == 0 for _keys, rows, _sorts in built)

    assert len(relabelled_cores) == len(cores)
    assert all(isinstance(core, CompiledTDP) for core in cores + relabelled_cores)
    if empty is None:
        assert all(not core.empty for core in cores)
    for core, again in zip(cores, relabelled_cores):
        for name in COLUMNS:
            assert canon(getattr(again, name)) == canon(getattr(core, name)), name
    # The answers: same weights in the same order, same witnesses, the
    # assignment the relabelled values of the dense one.
    if subject != "member":
        answers = [
            (weight, ids, tuple(map(value, assignment)))
            for weight, ids, assignment in answers
        ]
    assert canon(relabelled_answers) == canon(answers)
    assert bool(answers) == (empty is None)
