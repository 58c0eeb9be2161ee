"""UT-DP: ranked enumeration over a union of T-DP problems (Section 5.2).

A top-level priority queue holds the most recent unconsumed result of
every member enumerator; popping the minimum and refilling from the same
member merges the ranked streams.  When the member problems come from a
decomposition whose outputs may overlap (e.g. generic tree
decompositions), duplicates of an output tuple must arrive
*consecutively* so that O(1) look-behind suffices to drop them — that is
guaranteed by ranking each member with the Section 6.3 tie-breaking
dioid, whose keys append the canonical output assignment.

The merge loop itself lives in :class:`~repro.anyk.merge.RankedMerge`;
this module keeps the union-specific configuration (duplicate
elimination on by default, results counted at the union level — the
historical UT-DP accounting).
"""

from __future__ import annotations

from typing import Sequence

from repro.anyk.base import Enumerator
from repro.anyk.merge import IdentityFn, RankedMerge, _default_identity
from repro.util.counters import OpCounter

__all__ = ["UnionEnumerator", "IdentityFn", "_default_identity"]


class UnionEnumerator(RankedMerge):
    """Merge several ranked streams; optionally drop consecutive duplicates.

    All member enumerators must rank by the *same* dioid so that their
    result keys are comparable.  With ``dedup=True`` (the default) a
    result equal — under ``identity`` — to the previously emitted one is
    silently skipped; correct global deduplication additionally requires
    tie-broken keys (see module docstring).
    """

    def __init__(
        self,
        members: Sequence[Enumerator],
        identity: IdentityFn | None = None,
        dedup: bool = True,
        counter: OpCounter | None = None,
    ):
        super().__init__(
            members,
            identity=identity,
            dedup=dedup,
            counter=counter,
        )
