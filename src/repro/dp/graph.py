"""T-DP state space with the O(l*n) equi-join connector encoding.

Fig 3 of the paper replaces the fully connected bipartite subgraph of an
equi-join value by a single in-between node; :class:`ChoiceSet` is that
node.  A connector groups the alive child states of one stage by their
join value with the parent stage; each parent state points to exactly
one connector per child branch.  Because the connector's entry weights
``w(child) (x) pi1(child)`` are independent of the parent state, every
ranking structure built on a connector (sorted lists, heaps, memoized
suffix lists) is *shared* by all parent states with that join value —
the sharing that drives Recursive's TTL advantage (Fig 6).

The solution weight of a (partial) solution is the dioid product of the
*state values* of its chosen states — each input tuple's weight enters
exactly once, which makes weight bookkeeping uniform for paths, trees,
and decompositions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

from repro.ranking.dioid import SelectiveDioid


class ChoiceSet:
    """A connector node: the choice set shared by all matching parents.

    ``entries`` holds one triple ``(key, child_state, value)`` per alive
    child state in this join-value group, where ``value`` is
    ``w(child) (x) pi1(child)`` (weight of the best solution suffix
    through that child) and ``key = dioid.key(value)``.  ``entries`` is
    deliberately *unsorted*: TTF optimality requires linear-time
    preprocessing, and each any-k strategy builds its own (lazy)
    structure on top, cached per enumerator run keyed by :attr:`uid`.

    :attr:`min_entry` is computed lazily on first access and cached:
    the builder creates one connector per join-key group of a stage,
    including groups no parent state ever points at, and a connector
    only referenced by an enumerator that never reaches its subtree
    should not pay a linear ``min`` during preprocessing.
    """

    __slots__ = ("uid", "stage", "entries", "_min_entry")

    def __init__(self, uid: int, stage: int, entries: list[tuple]):
        if not entries:
            raise ValueError("a choice set cannot be empty")
        self.uid = uid
        self.stage = stage
        self.entries = entries
        self._min_entry: tuple | None = None

    @property
    def min_entry(self) -> tuple:
        """The least entry (cached after the first access)."""
        entry = self._min_entry
        if entry is None:
            entry = self._min_entry = min(self.entries)
        return entry

    @min_entry.setter
    def min_entry(self, entry: tuple) -> None:
        # Kept assignable: verify()-style tests inject corrupted minima.
        self._min_entry = entry

    @property
    def min_value(self) -> Any:
        """Best achievable suffix weight through this connector."""
        return self.min_entry[2]

    @property
    def min_key(self) -> Any:
        return self.min_entry[0]

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        cached = self._min_entry
        shown = "?" if cached is None else repr(cached[0])
        return (
            f"ChoiceSet(uid={self.uid}, stage={self.stage}, "
            f"size={len(self.entries)}, min={shown})"
        )


class QueryResult:
    """One ranked answer: weight, variable assignment, optional witness.

    The public result type of every ranked-enumeration pipeline
    (re-exported as :class:`repro.enumeration.result.QueryResult`); it
    lives here, below the enumerators, because they allocate it.

    An answer is its states until someone reads it.  The flat kernels
    (:mod:`repro.anyk.flat`) allocate the *view* form — ``weight``,
    ``key`` (the dioid key it was ranked by), ``states`` (one per stage,
    the paper's O(l) solution) and ``decoder``, the plan's compiled
    :class:`ResultAssembler` — and ``assignment`` / ``witness_ids`` /
    ``witness`` / ``output_tuple`` decode through the assembler on every
    read, retaining nothing: a memoized answer nobody looks at costs its
    states, one that was served costs its states and its line, and two
    threads reading one answer share nothing they could race on.  The
    decoder is the assembler, never the T-DP or the compiled core, so a
    held answer keeps its plan's row lists alive (as a held
    :class:`~repro.anyk.base.RankedResult` does) but cannot pin a mapped
    ``.core`` file.

    ``QueryResult(weight, assignment, head, witness_ids, witness)``
    builds the *finished* form (``states is None``): what a finisher
    that post-processes answers hands out, and what the object-graph
    enumerators' plans hand out.  No decode reads a storage backend:
    every row store is in-process from the bind on.  A view pickles and
    copies as its finished form.

    ``_wire`` is the serving layer's: ``(index, line)`` once the answer
    has been sent at that rank (:func:`repro.serve.protocol.result_lines`
    owns it).  Nothing here sets it, so it reads with a default.
    """

    __slots__ = ("weight", "key", "states", "decoder", "_fields", "_wire")

    def __init__(
        self,
        weight: Any,
        assignment: dict[str, Any],
        head: tuple[str, ...],
        witness_ids: tuple | None = None,
        witness: tuple | None = None,
    ):
        self.weight = weight
        self.states = None
        self._fields = (assignment, head, witness_ids, witness)

    def decoded(self) -> tuple:
        """``(assignment, head, witness_ids, witness)`` in one decode."""
        states = self.states
        return self._fields if states is None else self.decoder.fields(states)

    @property
    def assignment(self) -> dict[str, Any]:
        """Mapping of query variables to values."""
        states = self.states
        if states is None:
            return self._fields[0]
        return self.decoder.assignment(states)

    @property
    def output_tuple(self) -> tuple:
        """The answer projected onto the query head."""
        states = self.states
        if states is None:
            fields = self._fields
            return tuple(map(fields[0].__getitem__, fields[1]))
        return self.decoder.output_tuple(states)

    @property
    def witness_ids(self) -> tuple | None:
        """Per-atom input tuple positions, when the pipeline tracks them."""
        states = self.states
        if states is None:
            return self._fields[2]
        return self.decoder.witness_ids(states)

    @property
    def witness(self) -> tuple | None:
        """Per-atom input tuples, when the pipeline tracks them."""
        states = self.states
        if states is None:
            return self._fields[3]
        return self.decoder.witness(states)

    def __reduce__(self):
        # The assembler holds compiled functions (and the plan's rows):
        # an answer travels as what it decodes to.
        return QueryResult, (self.weight, *self.decoded())

    def __repr__(self) -> str:
        return f"QueryResult(weight={self.weight!r}, {self.assignment!r})"


#: Source of one assembler's decoders (see :class:`ResultAssembler`).
_ASSEMBLER_SOURCE = """
def result(weight, states):
    {unpack} = states
    {fetch}
    return QueryResult(weight, {binding}, head, ({ids}), ({rows}))

def fields(states):
    {unpack} = states
    {fetch}
    return ({binding}, head, ({ids}), ({rows}))

def assignment(states):
    {unpack} = states
    {fetch}
    return {binding}

def output_tuple(states):
    {unpack} = states
    {fetch}
    return {output}

def witness(states):
    {unpack} = states
    {fetch}
    return ({rows})

def witness_ids(states):
    {unpack} = states
    return ({witness_ids})
"""


@lru_cache(maxsize=256)
def _assembler_code(source: str):
    """``source`` compiled; every bind of one query shape formats the
    same text."""
    return compile(source, "<result assembler>", "exec")


def _no_query() -> dict:
    raise ValueError("TDP was built without a query")


class ResultAssembler:
    """Decodes a solution's per-stage states into what callers read.

    Everything that depends only on the T-DP and the query is derived
    once, here — which ``(stage, column)`` binds each variable (the last
    binding, in order of first appearance: what a stage-by-stage dict
    fill leaves) and the permutation from stage order to atom order —
    and compiled into straight-line functions, so decoding a solution
    is ``l`` index lookups and one dict/tuple display, with no loop, no
    sort and no per-variable dispatch:

    * ``assignment(states)``, ``output_tuple(states)``,
      ``witness(states)``, ``witness_ids(states)`` — the single fields,
      which a :class:`QueryResult` view (and a
      :class:`~repro.anyk.base.RankedResult`) decodes when read;
    * ``fields(states)`` — ``(assignment, head, witness_ids, witness)``
      in one pass over the rows;
    * ``result(weight, states)`` — the finished :class:`QueryResult`,
      every field decoded *now*: what a plan over the object-graph
      enumerators hands out while extending.

    Built from anything that owns rows — an object :class:`TDP` or a
    :class:`~repro.dp.flat.CompiledTDP`: ``num_stages``,
    ``atom_of_stage``, ``query``, ``tuples``, ``tuple_ids`` and
    ``rows_by_id``.  A lowered core's ``tuples[s]`` is a row store — a
    relation's own list or a :class:`~repro.dp.lower.ColumnRows` — read
    at the state's tuple id, ``tuples[s][tuple_ids[s][state]]``; an
    object graph's, and a mapped ``.core``'s, hold their rows state by
    state.  Compile it after the builder is done: the per-stage
    row and id sequences are captured, not re-read from their owner —
    which is why a view holding an assembler holds no T-DP and no core.
    """

    __slots__ = (
        "head", "result", "fields", "assignment", "output_tuple", "witness",
        "witness_ids",
    )

    def __init__(self, owner, head: tuple[str, ...] | None):
        self.head = head
        stages = range(owner.num_stages)
        by_atom = sorted(stages, key=owner.atom_of_stage.__getitem__)
        binding = output = "_no_query()"
        query = owner.query
        if query is not None:
            source: dict[str, str] = {}
            for stage, atom in enumerate(owner.atom_of_stage):
                for column, var in enumerate(query.atoms[atom].variables):
                    source[var] = f"r{stage}[{column}]"
            binding = "{%s}" % ", ".join(
                f"{var!r}: {value}" for var, value in source.items()
            )
            output = "(%s)" % "".join(
                f"{source[var]}, "
                for var in (query.head if head is None else head)
            )
        namespace: dict[str, Any] = {
            "QueryResult": QueryResult, "head": head, "_no_query": _no_query,
        }
        for stage in stages:
            namespace[f"rows{stage}"] = owner.tuples[stage]
            namespace[f"ids{stage}"] = owner.tuple_ids[stage]
        witness_ids = "".join(f"ids{j}[s{j}], " for j in by_atom)
        if owner.rows_by_id:
            fetch = "; ".join(
                f"i{j} = ids{j}[s{j}]; r{j} = rows{j}[i{j}]" for j in stages
            )
            ids = "".join(f"i{j}, " for j in by_atom)
        else:
            fetch = "; ".join(f"r{j} = rows{j}[s{j}]" for j in stages)
            ids = witness_ids
        source_text = _ASSEMBLER_SOURCE.format(
            unpack="".join(f"s{j}, " for j in stages),
            fetch=fetch,
            binding=binding,
            output=output,
            ids=ids,
            witness_ids=witness_ids,
            rows="".join(f"r{j}, " for j in by_atom),
        )
        # Definitions land in their own dict: a function stored in its
        # own globals would be a cycle pinning the rows until a GC pass.
        decoders: dict[str, Any] = {}
        exec(_assembler_code(source_text), namespace, decoders)
        for name, decoder in decoders.items():
            setattr(self, name, decoder)


def stage_tree(parent_stage: Sequence[int]) -> tuple[list, list, list]:
    """``(children_stages, root_stages, branch_index)`` of a stage layout.

    ``branch_index[j]`` is stage ``j``'s position among its parent's
    children, or among the root stages for a root.  Shared by the object
    graph and the compiled core, which both derive their navigation from
    ``parent_stage`` alone.
    """
    children_stages: list[list[int]] = [[] for _ in parent_stage]
    root_stages: list[int] = []
    for stage, parent in enumerate(parent_stage):
        siblings = root_stages if parent == -1 else children_stages[parent]
        siblings.append(stage)
    branch_index = [0] * len(parent_stage)
    for siblings in (root_stages, *children_stages):
        for index, stage in enumerate(siblings):
            branch_index[stage] = index
    return children_stages, root_stages, branch_index


class TDP:
    """A fully materialised T-DP problem after the bottom-up phase.

    Stages are indexed ``0 .. num_stages-1`` in a serialised tree order
    (parents before children); ``parent_stage[j] == -1`` means stage
    ``j`` hangs off the virtual start state ``s0``.  All per-state data
    lives in parallel lists indexed by *local state index*:

    * ``tuples[s][i]`` — the input tuple of state ``i`` of stage ``s``;
    * ``tuple_ids[s][i]`` — its position in the base relation (witness id);
    * ``values[s][i]`` — its lifted weight (a dioid value);
    * ``pi1[s][i]`` — Eq. (7): best weight of completing the subtree
      *below* stage ``s`` from this state (excludes the state's own
      weight);
    * ``child_conns[s][i]`` — tuple of :class:`ChoiceSet`, one per child
      branch of stage ``s`` (aligned with ``children_stages[s]``).

    Dead states (those with ``pi1 = zero``) are pruned during
    construction, so the arrays contain only alive states (the paper's
    reduced sets S̄, Ē).
    """

    #: Rows are held state by state (see :class:`ResultAssembler`).
    rows_by_id = False

    def __init__(
        self,
        dioid: SelectiveDioid,
        atom_of_stage: Sequence[int],
        parent_stage: Sequence[int],
        query=None,
        join_tree=None,
    ):
        self.dioid = dioid
        self.query = query
        self.join_tree = join_tree
        self.atom_of_stage = list(atom_of_stage)
        self.parent_stage = list(parent_stage)
        self.num_stages = len(parent_stage)

        self.children_stages, self.root_stages, self.branch_index = stage_tree(
            self.parent_stage
        )

        # Per-stage state arrays, filled by the builder.
        empty: list[list] = [[] for _ in range(self.num_stages)]
        self.tuples: list[list[tuple]] = [list(x) for x in empty]
        self.tuple_ids: list[list[int]] = [list(x) for x in empty]
        self.values: list[list[Any]] = [list(x) for x in empty]
        self.pi1: list[list[Any]] = [list(x) for x in empty]
        self.child_conns: list[list[tuple]] = [list(x) for x in empty]

        #: Root connectors: one per root stage (the virtual s0's branches).
        self.root_conn: dict[int, ChoiceSet] = {}
        #: pi1(s0): weight of the overall best solution (zero if empty).
        self.best_weight: Any = dioid.zero
        #: Number of connectors created (uids are 0 .. num_connectors-1).
        self.num_connectors: int = 0
        #: Memoized :class:`~repro.dp.flat.CompiledTDP` (or ``False``
        #: when the dioid has no lane); filled by
        #: :func:`repro.dp.flat.compile_tdp`.  The core holds no
        #: reference back: it shares this graph's row lists, not the graph.
        self._compiled: Any = None
        #: head -> :class:`ResultAssembler` (see :meth:`assembler`).
        self._assemblers: dict = {}

    def __getstate__(self) -> dict:
        # Assemblers hold compiled functions: derived, not picklable,
        # rebuilt on first use wherever the T-DP lands.
        return {**self.__dict__, "_assemblers": {}}

    # -- navigation ---------------------------------------------------------------

    def connector_for(self, stage: int, parent_state: int | None) -> ChoiceSet:
        """The choice set governing ``stage`` given the parent's state.

        ``parent_state`` is ignored (must be ``None``) for root stages,
        whose single connector hangs off the virtual start state.
        """
        parent = self.parent_stage[stage]
        if parent == -1:
            return self.root_conn[stage]
        return self.child_conns[parent][parent_state][self.branch_index[stage]]

    def is_empty(self) -> bool:
        """Whether the query output is empty."""
        return self.dioid.is_zero(self.best_weight) or len(self.root_conn) < len(
            self.root_stages
        )

    def num_states(self) -> int:
        """Total alive states across stages."""
        return sum(len(stage_tuples) for stage_tuples in self.tuples)

    def stats(self) -> dict:
        """Summary statistics of the materialised state space.

        Used by plan/explain reporting: per-stage alive states and
        distinct child connectors, plus the totals and the best weight.
        """
        per_stage = []
        for stage in range(self.num_stages):
            conns = {
                conn.uid
                for state_conns in self.child_conns[stage]
                for conn in state_conns
            }
            per_stage.append(
                {
                    "stage": stage,
                    "atom": self.atom_of_stage[stage],
                    "states": len(self.tuples[stage]),
                    "connectors": len(conns),
                }
            )
        return {
            "stages": per_stage,
            "states": self.num_states(),
            "connectors": self.num_connectors,
            "best_weight": self.best_weight,
            "empty": self.is_empty(),
        }

    def solution_weight(self, states: Sequence[int]) -> Any:
        """Aggregate weight of a full solution (one state per stage)."""
        dioid = self.dioid
        acc = dioid.one
        for stage, state in enumerate(states):
            acc = dioid.times(acc, self.values[stage][state])
        return acc

    # -- result assembly ------------------------------------------------------------

    def assembler(self, head: tuple[str, ...] | None = None) -> "ResultAssembler":
        """The :class:`ResultAssembler` for ``head``, compiled on first use."""
        assembler = self._assemblers.get(head)
        if assembler is None:
            assembler = self._assemblers[head] = ResultAssembler(self, head)
        return assembler

    def assignment(self, states: Sequence[int]) -> dict[str, Any]:
        """Variable assignment of a full solution (requires query context)."""
        return self.assembler().assignment(states)

    def witness(self, states: Sequence[int]) -> tuple:
        """Witness in *atom order*: the input tuple chosen for each atom."""
        return self.assembler().witness(states)

    def witness_ids(self, states: Sequence[int]) -> tuple[int, ...]:
        """Stable witness identity: tuple positions, in atom order."""
        return self.assembler().witness_ids(states)

    def verify(self) -> None:
        """Check structural invariants; raise ``AssertionError`` on breakage.

        Intended for tests and for debugging custom constructions
        (:mod:`repro.dp.direct`, :mod:`repro.dp.theta`):

        * parent indexes precede their children (serialised order);
        * each alive state has one connector per child branch, and every
          connector entry references an alive state of that branch with
          the correct cached minimum and entry values;
        * ``pi1`` equals the product of the branch minima;
        * the root connectors cover exactly the root stages and
          ``best_weight`` matches their minima.
        """
        dioid = self.dioid
        times = dioid.times
        for stage in range(self.num_stages):
            parent = self.parent_stage[stage]
            assert parent < stage, "stages must be serialised parents-first"
            branch_count = len(self.children_stages[stage])
            for state in range(len(self.tuples[stage])):
                conns = self.child_conns[stage][state]
                assert len(conns) == branch_count
                pi = dioid.one
                for conn, child in zip(conns, self.children_stages[stage]):
                    assert conn.stage == child
                    assert conn.min_entry == min(conn.entries)
                    for key, child_state, value in conn.entries:
                        assert 0 <= child_state < len(self.tuples[child])
                        expected = times(
                            self.values[child][child_state],
                            self.pi1[child][child_state],
                        )
                        assert key == dioid.key(expected)
                        assert value == expected
                    pi = times(pi, conn.min_value)
                assert self.pi1[stage][state] == pi
        if not self.is_empty():
            assert set(self.root_conn) == set(self.root_stages)
            best = dioid.one
            for root in self.root_stages:
                best = times(best, self.root_conn[root].min_value)
            assert best == self.best_weight

    def __repr__(self) -> str:
        return (
            f"TDP(stages={self.num_stages}, states={self.num_states()}, "
            f"connectors={self.num_connectors}, best={self.best_weight!r})"
        )
