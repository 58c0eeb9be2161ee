"""Any-k ranked-enumeration algorithms (Sections 4 and 5).

Two families over (T-)DP problems:

* **anyK-part** (:class:`repro.anyk.partition.AnyKPart`, Algorithm 1) —
  Lawler/Murty repeated partitioning of the solution space, instantiated
  by a successor strategy: :class:`~repro.anyk.strategies.EagerStrategy`,
  :class:`~repro.anyk.strategies.LazyStrategy`,
  :class:`~repro.anyk.strategies.AllStrategy`, or the paper's new
  :class:`~repro.anyk.strategies.Take2Strategy`.
* **anyK-rec** (:class:`repro.anyk.recursive.Recursive`, Algorithm 2) —
  the REA recursion that memoizes ranked suffixes per connector and can
  beat batch sorting on worst-case outputs (Theorem 11).

Plus the :class:`repro.anyk.batch.Batch` baseline (full result + sort)
and the :class:`repro.anyk.union.UnionEnumerator` for UT-DP problems.

Each family also has a *flat* port (:mod:`repro.anyk.flat`) whose inner
loops index into the compiled :class:`~repro.dp.flat.CompiledTDP`
arrays with native float arithmetic; :func:`make_enumerator` dispatches
to it automatically when the ranking dioid has a lane, with
bit-identical ranked output.
"""

from repro.anyk.base import Enumerator, RankedResult, make_enumerator
from repro.anyk.batch import Batch
from repro.anyk.flat import (
    FlatAnyKPart,
    FlatBatch,
    FlatRecursive,
    make_flat_enumerator,
)
from repro.anyk.partition import AnyKPart
from repro.anyk.recursive import Recursive
from repro.anyk.strategies import (
    ALGORITHMS,
    AllStrategy,
    EagerStrategy,
    LazyStrategy,
    SuccessorStrategy,
    Take2Strategy,
)
from repro.anyk.union import UnionEnumerator

__all__ = [
    "Enumerator",
    "RankedResult",
    "make_enumerator",
    "AnyKPart",
    "Recursive",
    "Batch",
    "FlatAnyKPart",
    "FlatRecursive",
    "FlatBatch",
    "make_flat_enumerator",
    "UnionEnumerator",
    "SuccessorStrategy",
    "EagerStrategy",
    "LazyStrategy",
    "AllStrategy",
    "Take2Strategy",
    "ALGORITHMS",
]
