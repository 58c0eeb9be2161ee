"""The decomposition interface: one acyclic tree task per member."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.data.database import Database
from repro.query.cq import ConjunctiveQuery

#: Lineage of one bag tuple: the original (atom_index, tuple_id) pairs
#: whose weights are pinned to (i.e. accounted for by) this bag tuple.
Lineage = tuple[tuple[int, int], ...]


class BagLineage(Sequence):
    """The per-tuple lineage of one bag, kept as tuple-id columns.

    Every tuple of a bag pins the same original atoms, so the atom
    indices are stored once and bag tuple ``i`` costs one int per
    pinned atom — ``columns[j][i]`` is the id of its ``atoms[j]`` tuple
    — instead of a tuple of pairs.  A column is a list of ``int``, or an
    int64 array (bags built as columns); either way, indexing builds the
    public :data:`Lineage` value, of native ``int`` ids, on demand.
    """

    __slots__ = ("atoms", "columns", "_length")

    def __init__(
        self,
        atoms: Sequence[int],
        columns: Sequence[Sequence[int]],
        length: int | None = None,
    ):
        self.atoms = tuple(atoms)
        self.columns = tuple(columns)
        if len(self.atoms) != len(self.columns):
            raise ValueError("one tuple-id column per pinned atom")
        # Only a bag that pins no atom needs its length spelled out.
        self._length = len(self.columns[0]) if self.columns else (length or 0)

    @classmethod
    def of(cls, lineages: Sequence[Lineage]) -> "BagLineage":
        """``lineages`` as columns (itself when it already is).

        Raises ``ValueError`` when two tuples of the bag pin different
        atoms: a witness decoder fixed per bag cannot serve that.
        """
        if isinstance(lineages, cls):
            return lineages
        atoms = tuple(atom for atom, _id in lineages[0]) if len(lineages) else ()
        columns: list[list[int]] = [[] for _ in atoms]
        for lineage in lineages:
            if tuple(atom for atom, _id in lineage) != atoms:
                raise ValueError(
                    f"bag tuples pin different atoms: {lineage!r} vs {atoms!r}"
                )
            for column, (_atom, tuple_id) in zip(columns, lineage):
                column.append(tuple_id)
        return cls(atoms, columns, len(lineages))

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, position: int) -> Lineage:
        if not -self._length <= position < self._length:
            raise IndexError("bag tuple position out of range")
        return tuple(
            zip(self.atoms, [int(column[position]) for column in self.columns])
        )


@dataclass
class TreeTask:
    """One acyclic member of a decomposition.

    ``query`` is a full acyclic CQ over the derived bag relations in
    ``database``; its head is the original query's variable list, so the
    T-DP results of the task are directly original query answers.
    ``lineage`` maps each bag relation name to the per-tuple lineage (a
    sequence indexed by bag tuple position: a :class:`BagLineage` from
    the built-in decompositions, any list of :data:`Lineage` values from
    hand-made tasks), which lets the enumeration API reconstruct
    original witnesses, and ``label`` identifies the member (e.g.
    ``"heavy@x3"``).  ``bag_layout`` says how the bags are stored — the
    simple-cycle decomposition builds every bag as columns either way:
    ``"bag columns"`` (column-backed relations, whose image is their
    storage) or ``"bag rows (<why not columns>)"`` (tuples of the values
    read).
    """

    database: Database
    query: ConjunctiveQuery
    lineage: dict[str, Sequence[Lineage]] = field(default_factory=dict)
    label: str = ""
    bag_layout: str = "bag rows"

    def __repr__(self) -> str:
        sizes = {name: len(rel) for name, rel in self.database.relations.items()}
        return f"TreeTask({self.label or self.query.name}, bags={sizes})"
