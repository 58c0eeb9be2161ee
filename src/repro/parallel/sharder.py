"""Fragment planning: anchor-atom selection and partition layout.

Sharding is sound exactly when the output is *partitioned* by fragment:
every answer of a full CQ uses exactly one tuple of each atom, so
restricting a single **anchor atom** to one member of a disjoint
partition of its relation assigns every answer to exactly one fragment.
The per-fragment T-DPs then enumerate disjoint answer sets and a ranked
k-way merge reassembles the global order.

:class:`ShardSpec` is the user-facing request (carried on the logical
plan and in every engine cache key); :class:`Sharder` resolves it
against a concrete database into a :class:`ShardPlan` — anchor atom
and fragment bounds — with an ``explain()`` report of what
was chosen and why.

**Partitioning.**  Fragments are contiguous insertion-position runs of
the anchor relation, which SQLite scans as rowid ranges (no full-table
pass per fragment) and which keeps the ``batch_nosort`` generation
order reproducible by concatenation.

**Tie-break modes.**  With ``tie_break="arrival"`` (default) fragments
rank under the query's own dioid — the compiled flat cores apply
wherever it has a lane (``lane_of``: tropical, max-plus, max-times) — and
exact-key ties across fragments resolve by merge arrival order; the
merged stream is bit-identical to the unsharded one whenever no two
distinct answers share an exact key, which is the generic case for
float weights.  ``tie_break="canonical"`` ranks every fragment under
the Section 6.3 tie-breaking dioid instead: every distinct answer gets
a distinct key, so the merged ``(weight, assignment)`` sequence is a
canonical total order that is *independent of the shard count* even
under heavy weight ties (the only partition-independent choice —
per-fragment streams cannot otherwise agree on how a tie group that
straddles fragments interleaves).  Duplicate rows are the one residue:
two witnesses of the *same* answer with the same weight are
indistinguishable to any assignment-based key and stay interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.database import Database
    from repro.engine.plan import LogicalPlan

VALID_TIE_BREAKS = ("arrival", "canonical")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ShardSpec:
    """A sharding request: how many fragments, over which atom, and how
    ties across fragments resolve.

    Hashable and immutable: the engine embeds the spec in its physical
    and stream cache keys, so prepared queries that differ only in shard
    configuration never share a bound plan or a memoized result prefix
    (re-preparing with a different ``shards=`` cannot serve a stale
    prefix whose tie order belonged to another fragmentation).
    """

    shards: int
    #: Anchor atom index override (None = heuristic, see Sharder).
    atom: int | None = None
    tie_break: str = "arrival"

    def __post_init__(self):
        if not _is_int(self.shards) or self.shards < 1:
            raise ValueError(f"shards must be a positive int, got {self.shards!r}")
        if self.atom is not None and not _is_int(self.atom):
            raise ValueError(f"shard atom must be an int or None, got {self.atom!r}")
        if self.tie_break not in VALID_TIE_BREAKS:
            raise ValueError(
                f"unknown tie break {self.tie_break!r} "
                f"(expected one of {VALID_TIE_BREAKS})"
            )

    def cache_key(self) -> tuple:
        """The spec as a tuple of primitives, for the engine's caches
        and the ``.core`` persistence key."""
        return (self.shards, self.atom, self.tie_break)

    def describe(self) -> str:
        anchor = "auto" if self.atom is None else f"atom #{self.atom}"
        return (
            f"{self.shards} fragment(s) over {anchor} "
            f"({self.tie_break} tie-break)"
        )


@dataclass(frozen=True)
class Fragment:
    """One disjoint slice of the anchor relation: insertion positions
    ``lo .. hi-1``, which stay each row's witness id."""

    index: int
    lo: int = 0
    hi: int = 0


class ShardPlan:
    """A resolved fragment plan for one logical plan + database state."""

    def __init__(
        self,
        spec: ShardSpec,
        anchor_atom: int,
        anchor_stage: int,
        join_tree,
        fragments: tuple[Fragment, ...],
        notes: tuple[str, ...] = (),
    ):
        self.spec = spec
        self.anchor_atom = anchor_atom
        #: Stage index of the anchor atom in the join-tree serialisation
        #: (always a root stage of its component).
        self.anchor_stage = anchor_stage
        #: The join tree fragment T-DPs are built over.  Identical to
        #: the logical plan's tree when the anchor is its first root
        #: (the default), re-rooted at the anchor otherwise.
        self.join_tree = join_tree
        self.fragments = fragments
        self.notes = notes

    def explain(self, indent: str = "") -> list[str]:
        lines = [
            f"{indent}shard plan: {len(self.fragments)} fragment(s), "
            f"anchor atom #{self.anchor_atom} (stage {self.anchor_stage}), "
            f"{self.spec.tie_break} tie-break"
        ]
        for note in self.notes:
            lines.append(f"{indent}  note: {note}")
        return lines


class Sharder:
    """Resolves a :class:`ShardSpec` into a concrete :class:`ShardPlan`.

    **Anchor-atom heuristic.**  The anchor must be a root of its
    join-tree component (fragment-independent stages are then exactly
    the non-anchor stages, shared structurally across fragment T-DPs).
    The default anchor is the join tree's first root atom — the stage-0
    atom of the unsharded T-DP, so one-fragment plans coincide with the
    unsharded construction bit for bit.  When another eligible atom's
    relation is at least twice as large as the root's, the heuristic
    anchors there instead (larger anchors give better fragment balance
    and shrink the dominant stage), re-rooting that component.  An
    explicit ``spec.atom`` overrides the heuristic.

    The object-graph fragment path — taken for ``tie_break="canonical"``
    *and* for any dioid without a lane (``lane_of``) — restricts
    the anchor *relation by name*, so it requires an anchor whose
    relation name is unique among the query's atoms (no self-join on
    the anchor).  The flat direct builder restricts per *stage* and has
    no such constraint.
    """

    def __init__(self, database: "Database", indexes=None):
        self.database = database
        self.indexes = indexes

    # -- anchor selection ------------------------------------------------------

    def _cardinality(self, atom) -> int:
        relation = self.database[atom.relation_name]
        return len(relation)

    def choose_anchor(
        self, logical: "LogicalPlan", spec: ShardSpec, flat_path: bool
    ) -> tuple[int, list[str]]:
        """The anchor atom index plus human-readable reasoning.

        The object-graph fragment path (``flat_path=False``: canonical
        tie-break, or a dioid without a lane)
        restricts the anchor *relation by name*, so it must anchor an
        atom whose relation appears exactly once — restricting a
        self-joined name would also restrict the other occurrences and
        silently drop cross-fragment answers.  The flat direct builder
        restricts per *stage* and has no such constraint.
        """
        query = logical.query
        tree = logical.join_tree
        notes: list[str] = []
        names = [atom.relation_name for atom in query.atoms]
        unique_ok = {
            i for i, name in enumerate(names) if names.count(name) == 1
        }
        if spec.atom is not None:
            if not 0 <= spec.atom < len(query.atoms):
                raise ValueError(
                    f"anchor atom #{spec.atom} out of range "
                    f"(query has {len(query.atoms)} atoms)"
                )
            if not flat_path and spec.atom not in unique_ok:
                raise ValueError(
                    f"cannot anchor atom #{spec.atom}: relation "
                    f"{names[spec.atom]!r} appears in several atoms, and "
                    "the object-graph fragment path (canonical tie-break "
                    "or a dioid without a lane) restricts the anchor "
                    "relation by name"
                )
            notes.append(f"anchor atom #{spec.atom} set explicitly")
            return spec.atom, notes
        default = tree.order[0] if tree is not None else 0
        candidates = range(len(query.atoms))
        if not flat_path:
            candidates = sorted(unique_ok)
            if not candidates:
                raise ValueError(
                    "sharding this query needs an atom whose relation "
                    "appears exactly once: pure self-joins can only "
                    "shard on the flat path (arrival tie-break with a "
                    "dioid that has a lane)"
                )
            if default not in unique_ok:
                default = candidates[0]
        default_card = self._cardinality(query.atoms[default])
        best = max(candidates, key=lambda i: (self._cardinality(query.atoms[i]), -i))
        best_card = self._cardinality(query.atoms[best])
        if best != default and best_card >= 2 * max(1, default_card):
            notes.append(
                f"heuristic anchored atom #{best} "
                f"({names[best]}, n={best_card}) over the join-tree root "
                f"atom #{default} ({names[default]}, n={default_card}): "
                f">=2x larger relation gives better fragment balance"
            )
            return best, notes
        notes.append(
            f"anchored at the join-tree root atom #{default} "
            f"({names[default]}, n={default_card})"
        )
        return default, notes

    # -- fragment layout -------------------------------------------------------

    def fragments_for(self, spec: ShardSpec, cardinality: int) -> tuple[Fragment, ...]:
        n = spec.shards
        return tuple(
            Fragment(i, lo=i * cardinality // n, hi=(i + 1) * cardinality // n)
            for i in range(n)
        )

    # -- entry point -----------------------------------------------------------

    def plan(self, logical: "LogicalPlan", spec: ShardSpec, flat_path: bool) -> ShardPlan:
        anchor_atom, notes = self.choose_anchor(logical, spec, flat_path)
        tree = logical.join_tree
        if tree is not None and tree.parent[anchor_atom] != -1:
            # The anchor must be a root of its component so that every
            # other stage is fragment-independent (the bottom-up build
            # never propagates a root restriction downward).
            tree = tree.rerooted(anchor_atom)
            notes.append(
                "join tree re-rooted at the anchor atom (non-anchor "
                "stages stay fragment-independent)"
            )
        anchor_stage = tree.order.index(anchor_atom) if tree is not None else 0
        cardinality = self._cardinality(logical.query.atoms[anchor_atom])
        if spec.shards > max(1, cardinality):
            notes.append(
                f"{spec.shards} fragments over {cardinality} anchor rows: "
                "some fragments will be empty"
            )
        return ShardPlan(
            spec,
            anchor_atom,
            anchor_stage,
            tree,
            self.fragments_for(spec, cardinality),
            notes=tuple(notes),
        )
