"""Tie-broken union members, lowered to a two-lane compiled core.

A member of a cycle or generic decomposition ranks under the Section 6.3
:class:`~repro.ranking.dioid.TieBreakingDioid`: a value is ``(base_value,
rank)``, ``times`` runs the base dioid on the first lane and adds the
second, the key is ``(base_key, rank)``.  When the base keeps the lane
contract (:func:`~repro.ranking.dioid.lane_of`: tropical, max-plus,
max-times) none of that needs an object.  :func:`lower_member` sweeps the
member's join tree bottom-up, one column pass per operation per stage,
exactly as :func:`repro.dp.builder.build_tdp` does, and keeps

* per stage two lanes for the states' values — the base value column
  (the stored weights themselves) and the packed-rank ``int`` column of
  the variables the stage owns — and two for their entry values (value
  ⊗ ``pi1``);
* per connector its entries as flat ``(base_key, rank, state)`` triples,
  which order exactly as ``build_tdp``'s ``((base_key, rank), state,
  value)`` entries do (states are unique in a connector, so the value
  is never compared and stays in the columns), and the two lanes of its
  least entry's value.

The arithmetic runs in value space — one operator application for each
``times`` the object builder makes, same operands, same order — and is
keyed afterwards, so every bit (a signed zero included) and every type
(an ``int`` weight stays an ``int`` until it meets ``one``) is the object
path's.  A state keeps one tuple beyond its row, its entry; no
``ChoiceSet``, no value tuple, no ``times`` or ``key`` call.  The kernels
of :mod:`repro.anyk.flat` run this core's lane with the same fold
discipline, so they rank, tie-break and count exactly as
:mod:`repro.anyk.partition`, ``recursive`` and ``batch`` do over the
object graph (``tests/test_lane_conformance.py``).

Which path a member takes is decided once per bind, from the dioid
alone (:func:`member_lane`): no flag.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from operator import add, itemgetter, mul, neg
from typing import Callable

from repro.data.database import Database
from repro.dp.builder import alive_rows, owned_columns, packed_ranks
from repro.dp.flat import CompiledTDP, CoreShell
from repro.dp.lower import join_key_column, stage_layout
from repro.query.jointree import JoinTree
from repro.ranking.dioid import FloatLane, SelectiveDioid, TieBreakingDioid, lane_of


def member_lane(tie: SelectiveDioid) -> tuple[FloatLane | None, str]:
    """``(lane, "")`` when members ranked under ``tie`` lower, else ``(None, why)``."""
    if not isinstance(tie, TieBreakingDioid):
        return None, f"{type(tie).__name__} is not the packed-rank tie-breaker"
    return lane_of(tie.base)


class _PairSeq:
    """One stage's tie-broken values, ``(base, rank)``, read off its two lanes."""

    __slots__ = ("base", "rank")

    def __init__(self, base: list, rank: list):
        self.base = base
        self.rank = rank

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, index: int) -> tuple:
        return (self.base[index], self.rank[index])


class LaneCore(CompiledTDP):
    """A tie-broken member as two lanes (see the module docstring).

    A :class:`CompiledTDP` whose lane slots hold the base dioid's lane
    and ``one``, the base-value and packed-rank lanes (``val_base`` is
    also its ``values_key``), the entry lanes and each connector's least
    entry.  The lane has no inverse.  Entries are ``(base_key, rank,
    state)`` triples, so the shared caches hold triples too.
    """

    __slots__ = ()

    inverse = False

    @classmethod
    def assemble_lanes(
        cls, shell: CoreShell, *, lane: FloatLane, one, val_base, val_rank,
        ent_base, ent_rank, min_base, min_rank, child_uids, conn_stage,
        root_uid, best, empty, pairs,
    ) -> "LaneCore":
        """The core over finished lanes; completes ``shell`` as its T-DP."""
        self = cls.__new__(cls)
        best_key = None if empty else ((-best[0] if lane.negate else best[0]), best[1])
        self._fill(
            shell, values_key=val_base, pi1_key=None, child_uids=child_uids,
            conn_stage=conn_stage, root_uid=root_uid, best_key=best_key,
            empty=empty, pairs=pairs, val_rank=val_rank,
        )
        self.lane = lane
        self.one = one
        self.ent_base = ent_base
        self.ent_rank = ent_rank
        self.min_base = min_base
        self.min_rank = min_rank
        self.best = best
        shell.values = list(map(_PairSeq, val_base, val_rank))
        shell.num_connectors = self.num_connectors
        shell.best_weight = shell.dioid.zero if empty else best
        shell._empty = empty
        shell._compiled = self
        return self

    def emitter(self, emits: tuple) -> Callable:
        """``emit(key, rank, states)``: an answer keyed ``(key, rank)``.

        Its weight is ``(base, rank)``, the base value the key's
        negation or the key itself — exactly, as keying negated it; see
        :meth:`CompiledTDP.emitter`.
        """
        result_cls, decoder = emits
        new_result = result_cls.__new__
        negate = self.lane.negate

        def emit(key, rank: int, states: tuple[int, ...]):
            res = new_result(result_cls)
            res.weight = (-key if negate else key, rank)
            res.key = (key, rank)
            res.states = states
            res.decoder = decoder
            return res

        return emit


def lower_member(
    database: Database,
    join_tree: JoinTree,
    tie: TieBreakingDioid,
    var_position: dict[str, int],
    lane: FloatLane,
) -> LaneCore:
    """Lower one member to a :class:`LaneCore`; ``core.tdp`` is its shell.

    ``tie`` must have numbered its domains
    (:func:`~repro.dp.builder.rank_tie_domains`); ``lane`` is
    :func:`member_lane`'s.  Stage by stage, children first, the same
    sweep as ``build_tdp``: the alive rows, ``pi1`` from the child
    connectors' minima (the first branch's folded from ``one`` once per
    distinct connector), the entry values, then the connectors in
    first-seen join-key order.
    """
    query = join_tree.query
    order = join_tree.order
    num_stages = len(order)
    parent_stage, own_key_positions, parent_key_positions = stage_layout(join_tree)
    tuples: list = [None] * num_stages
    tuple_ids: list = [None] * num_stages
    shell = CoreShell(
        tie, order, parent_stage, query, join_tree, tuples, tuple_ids
    )
    templates = owned_columns(join_tree, var_position)
    ranks = tie.ranks
    times = mul if lane.multiply else add
    one = tie.base.one

    val_base: list = [None] * num_stages
    val_rank: list = [None] * num_stages
    ent_base: list = [None] * num_stages
    ent_rank: list = [None] * num_stages
    child_uids: list = [None] * num_stages
    # conn_map[c]: join key -> uid of a connector over stage c's states.
    conn_map: list[dict] = [dict() for _ in range(num_stages)]
    pairs: list[list[tuple]] = []
    conn_stage: list[int] = []
    min_base: list = []
    min_rank: list[int] = []

    for stage in reversed(range(num_stages)):
        atom = query.atoms[order[stage]]
        children = shell.children_stages[stage]
        rows, weights, ids, branches = alive_rows(
            database[atom.relation_name], atom,
            [(conn_map[c], parent_key_positions[c]) for c in children],
        )
        states = len(rows)

        pi_base = pi_rank = None
        for uids in branches:
            if pi_base is None:
                distinct = list(dict.fromkeys(uids))
                folded = dict(zip(
                    distinct,
                    map(times, repeat(one), map(min_base.__getitem__, distinct)),
                ))
                pi_base = list(map(folded.__getitem__, uids))
                pi_rank = list(map(min_rank.__getitem__, uids))
            else:
                pi_base = list(map(times, pi_base, map(min_base.__getitem__, uids)))
                pi_rank = list(map(add, pi_rank, map(min_rank.__getitem__, uids)))

        packed = packed_ranks(ranks, templates[order[stage]], rows)
        v_rank = [0] * states if packed is None else list(packed)
        if pi_base is None:  # a leaf: value ⊗ one
            e_base = list(map(times, weights, repeat(one, states)))
            e_rank = v_rank
        else:
            e_base = list(map(times, weights, pi_base))
            e_rank = list(map(add, v_rank, pi_rank))
        entries = list(zip(
            map(neg, e_base) if lane.negate else e_base, e_rank, range(states)
        ))

        groups: dict = {}
        if not own_key_positions[stage]:
            if entries:
                groups[()] = entries
        else:
            keys = join_key_column(rows, own_key_positions[stage])
            for join_key, entry in zip(keys, entries):
                bucket = groups.get(join_key)
                if bucket is None:
                    groups[join_key] = [entry]
                else:
                    bucket.append(entry)
        conn_map[stage].update(zip(groups, count(len(pairs))))
        pairs.extend(groups.values())
        conn_stage.extend(repeat(stage, len(groups)))
        # A connector's minimum is its least entry (first in state order
        # among equals, as ``min`` over ``build_tdp``'s entries finds it).
        least = list(map(min, groups.values()))
        min_base.extend(map(e_base.__getitem__, map(itemgetter(2), least)))
        min_rank.extend(map(itemgetter(1), least))

        tuples[stage] = rows
        tuple_ids[stage] = list(ids)
        val_base[stage] = weights
        val_rank[stage] = v_rank
        ent_base[stage] = e_base
        ent_rank[stage] = e_rank
        # Branch-major per state: ``state * len(branches) + branch``.
        child_uids[stage] = (
            branches[0] if len(branches) == 1
            else list(chain.from_iterable(zip(*branches)))
        )

    # The virtual start state: one branch per root, folded from ``one``
    # in stage order, as ``build_tdp`` folds ``best_weight``.
    best_base, best_rank = one, 0
    root_uid: dict[int, int] = {}
    for root in shell.root_stages:
        uid = conn_map[root].get(())
        if uid is None:
            root_uid = {}
            break
        root_uid[root] = uid
        best_base = times(best_base, min_base[uid])
        best_rank = best_rank + min_rank[uid]
    empty = len(root_uid) < len(shell.root_stages)
    return LaneCore.assemble_lanes(
        shell, lane=lane, one=one, val_base=val_base, val_rank=val_rank,
        ent_base=ent_base, ent_rank=ent_rank, min_base=min_base,
        min_rank=min_rank, child_uids=child_uids, conn_stage=conn_stage,
        root_uid=root_uid, best=None if empty else (best_base, best_rank),
        empty=empty, pairs=pairs,
    )
