"""Fragment planning: anchor-atom selection and partition layout.

Sharding is sound exactly when the output is *partitioned* by fragment:
every answer of a full CQ uses exactly one tuple of each atom, so
restricting a single **anchor atom** to one member of a disjoint
partition of its relation assigns every answer to exactly one fragment.
The per-fragment T-DPs then enumerate disjoint answer sets and a ranked
k-way merge reassembles the global order.

:class:`ShardSpec` is the user-facing request (carried on the logical
plan and in every engine cache key); :class:`Sharder` resolves it
against a concrete database into a :class:`ShardPlan` — anchor atom,
fragment bounds, execution mode — with an ``explain()`` report of what
was chosen and why.

**Partitioning strategies.**  ``range`` (default) splits the anchor
relation into contiguous insertion-position runs, which SQLite scans as
rowid ranges (no full-table pass per fragment) and which keeps the
``batch_nosort`` generation order reproducible by concatenation.
``hash`` buckets rows by a *stable* content hash (``zlib.crc32`` of the
repr — deterministic across processes, unlike ``hash()``), the classic
skew-resistant layout when insertion order correlates with weight.

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

import os
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.database import Database
    from repro.engine.plan import LogicalPlan

VALID_STRATEGIES = ("range", "hash")
VALID_TIE_BREAKS = ("arrival", "canonical")
VALID_PARALLEL = ("auto", "fused", "thread", "process")


@dataclass(frozen=True)
class ShardSpec:
    """A sharding request: how many fragments, over which atom, and how.

    Hashable and immutable: the engine embeds the spec in its physical
    and stream cache keys, so prepared queries that differ only in shard
    configuration never share a bound plan or a memoized result prefix
    (re-preparing with a different ``shards=`` cannot serve a stale
    prefix whose tie order belonged to another fragmentation).
    """

    shards: int
    #: Anchor atom index override (None = heuristic, see Sharder).
    atom: int | None = None
    strategy: str = "range"
    tie_break: str = "arrival"
    parallel: str = "auto"
    #: Worker-pool width for the thread/process modes (None = auto).
    workers: int | None = None

    def __post_init__(self):
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ValueError(f"shards must be a positive int, got {self.shards!r}")
        if self.strategy not in VALID_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {self.strategy!r} "
                f"(expected one of {VALID_STRATEGIES})"
            )
        if self.tie_break not in VALID_TIE_BREAKS:
            raise ValueError(
                f"unknown tie break {self.tie_break!r} "
                f"(expected one of {VALID_TIE_BREAKS})"
            )
        if self.parallel not in VALID_PARALLEL:
            raise ValueError(
                f"unknown parallel mode {self.parallel!r} "
                f"(expected one of {VALID_PARALLEL})"
            )
        if self.workers is not None and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            raise ValueError(f"workers must be a positive int, got {self.workers!r}")

    def cache_key(self) -> tuple:
        """The *result-identity* projection of the spec.

        ``parallel`` and ``workers`` change how fast fragments build,
        never what they contain — the engine keys its physical and
        stream caches on this projection, so prepares that differ only
        in build mechanics share one bound plan and one memoized
        prefix (the first prepare's mode hint wins for the shared
        bind).
        """
        return (self.shards, self.atom, self.strategy, self.tie_break)

    def describe(self) -> str:
        anchor = "auto" if self.atom is None else f"atom #{self.atom}"
        return (
            f"{self.shards} fragment(s) over {anchor} "
            f"({self.strategy} partitioning, {self.tie_break} tie-break, "
            f"parallel={self.parallel})"
        )


@dataclass(frozen=True)
class Fragment:
    """One disjoint slice of the anchor relation.

    ``range`` fragments own insertion positions ``lo .. hi-1``;
    ``hash`` fragments own the rows whose stable content hash is
    congruent to ``index`` modulo the shard count.  Either way the
    original insertion position remains each row's witness id.
    """

    index: int
    kind: str
    lo: int = 0
    hi: int = 0

    def describe(self, total: int) -> str:
        if self.kind == "range":
            return f"fragment {self.index}: positions [{self.lo}, {self.hi})"
        return f"fragment {self.index}: stable_hash(row) % {total} == {self.index}"


def stable_hash(values: tuple) -> int:
    """A deterministic content hash (process- and run-independent).

    ``hash()`` is salted per process (PYTHONHASHSEED), which would make
    hash fragments differ between a parent and its pool workers; CRC32
    over the canonical repr is stable everywhere and cheap in C.
    """
    return zlib.crc32(repr(values).encode("utf-8", "surrogatepass"))


class ShardPlan:
    """A resolved fragment plan for one logical plan + database state."""

    def __init__(
        self,
        spec: ShardSpec,
        anchor_atom: int,
        anchor_stage: int,
        join_tree,
        fragments: tuple[Fragment, ...],
        mode: str,
        workers: int,
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
        #: Resolved execution mode: 'fused' | 'thread' | 'process'.
        self.mode = mode
        self.workers = workers
        self.notes = notes

    def explain(self, indent: str = "") -> list[str]:
        lines = [
            f"{indent}shard plan: {len(self.fragments)} fragment(s), "
            f"anchor atom #{self.anchor_atom} (stage {self.anchor_stage}), "
            f"{self.spec.strategy} partitioning, "
            f"{self.spec.tie_break} tie-break, "
            f"mode={self.mode}({self.workers} worker(s))"
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

    **Mode resolution.** ``auto`` picks the fused in-process builder
    (the fastest measured path: direct-to-compiled lowering, shared
    lower stages, bulk backend scans), upgrading to a thread pool for
    phase B only where workers genuinely overlap — SQLite backends on
    multi-core hosts, whose C fetch path releases the GIL.  The process
    pool (fully GIL-free, picklable compiled cores, redundant lower
    stages per worker) is an explicit opt-in for wide hosts with large
    anchors.  Canonical/object fragment builds never use processes
    (their T-DPs carry tie-breaking closures).
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
        if spec.strategy == "hash":
            return tuple(Fragment(i, "hash") for i in range(n))
        return tuple(
            Fragment(i, "range", lo=i * cardinality // n, hi=(i + 1) * cardinality // n)
            for i in range(n)
        )

    # -- mode resolution -------------------------------------------------------

    def resolve_mode(
        self, spec: ShardSpec, flat_path: bool
    ) -> tuple[str, int, list[str]]:
        """Resolve ``auto`` and sanity-check explicit mode requests.

        The ``auto`` policy follows the committed measurements in
        ``BENCH_parallel.json``: the fused build (shared lower stages,
        no pool) is the fastest or tied everywhere on small hosts, a
        thread pool helps only where workers overlap GIL-released C
        work (the SQLite fetch path on a multi-core host), and the
        process pool — whose workers redundantly rebuild the shared
        lower stages and pay fork+pickle per bind — only pays off on
        wide hosts with large anchors, so it stays an explicit opt-in.
        """
        cpus = os.cpu_count() or 1
        workers = spec.workers or max(1, min(spec.shards, cpus))
        notes: list[str] = []
        mode = spec.parallel
        if mode == "auto":
            sqlite_file = (
                getattr(self.database.backend, "path", None) is not None
            )
            if flat_path and sqlite_file and cpus > 1 and spec.shards > 1:
                mode = "thread"
                notes.append(
                    f"auto mode: {cpus} cores over a SQLite backend -> "
                    "thread pool for phase B (GIL-released C fetch)"
                )
            else:
                mode = "fused"
                notes.append(
                    "auto mode: fused in-process build (shared lower "
                    "stages, no pool overhead)"
                )
        if mode == "process" and not flat_path:
            mode = "thread"
            notes.append(
                "process mode downgraded to threads: object-graph "
                "fragment T-DPs carry non-picklable tie-breaking closures"
            )
        if mode == "process" and not self._processable():
            mode = "thread"
            notes.append(
                "process mode downgraded to threads: the database cannot "
                "be reopened in a worker (:memory: SQLite)"
            )
        return mode, workers, notes

    def _processable(self) -> bool:
        """Whether fragment builds can run in worker processes."""
        backend = self.database.backend
        if backend is None:
            return True  # plain in-memory rows: shipped by value
        path = getattr(backend, "path", None)
        if path is None:
            return True  # MemoryBackend
        return path != ":memory:"  # file-backed SQLite reopens per worker

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
        fragments = self.fragments_for(spec, cardinality)
        mode, workers, mode_notes = self.resolve_mode(spec, flat_path)
        return ShardPlan(
            spec,
            anchor_atom,
            anchor_stage,
            tree,
            fragments,
            mode,
            workers,
            notes=tuple(notes + mode_notes),
        )
