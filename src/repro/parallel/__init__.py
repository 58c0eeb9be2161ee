"""Sharded execution layer: fragment-sharded T-DPs with a ranked merge.

This subsystem partitions one *anchor* atom's relation into disjoint
contiguous fragments, builds one bound T-DP per fragment (each strictly
smaller at the anchor stage, the fragment-independent stages shared
structurally), and merges the per-fragment any-k streams with a ranked
k-way merge whose output is bit-identical to the unsharded enumeration
(tie groups aside — see :mod:`repro.parallel.sharder` for the tie-break
modes).

Layout:

* :mod:`repro.parallel.sharder` — fragment planning (:class:`ShardSpec`,
  :class:`Sharder`, anchor-atom heuristic, range partitioning);
* :mod:`repro.parallel.build` — the fragment preprocessor
  (:class:`ParallelPreprocessor`): runs the direct lowering of
  :mod:`repro.dp.lower` once per fragment, inline on the calling
  thread;
* :mod:`repro.parallel.physical` — :class:`ShardedPhysical`, the engine
  integration (``Engine.prepare(..., shards=N)`` binds through it);
* :class:`repro.parallel.merge.ShardMerge` — the ranked k-way merge over
  per-fragment enumerators (built on :class:`repro.anyk.merge.RankedMerge`).
"""

from repro.parallel.build import ParallelPreprocessor
from repro.parallel.merge import ShardMerge
from repro.parallel.physical import ShardedPhysical, bind_sharded
from repro.parallel.sharder import Fragment, Sharder, ShardPlan, ShardSpec

__all__ = [
    "Fragment",
    "ParallelPreprocessor",
    "ShardMerge",
    "ShardPlan",
    "ShardSpec",
    "Sharder",
    "ShardedPhysical",
    "bind_sharded",
]
