"""(Tree-based) dynamic programming over join structures (Sections 3, 5.1).

A full acyclic CQ maps to a *T-DP problem*: one stage per atom, arranged
by the join tree, one state per (alive) input tuple, and decisions
between adjacent stages for joining tuples.  The equi-join encoding of
Fig 3 is realised by :class:`repro.dp.graph.ChoiceSet` "connector"
objects grouping child states by join value, keeping the graph at
O(l*n) size and *sharing* all ranking data structures between parent
states with the same join value.

Enumeration runs over the flat :class:`repro.dp.flat.CompiledTDP`
arrays whenever the ranking dioid has a lane (``lane_of``).  The engine
gets them in one bottom-up pass straight from the relations
(:mod:`repro.dp.lower`, no object graph) — acyclic plans, the free
region of a min-weight projection, and the tie-broken members of a
cyclic plan or a UCQ, which carry a packed-rank column besides.  A core
owns its rows and query, so physical plans hold it alone;
:func:`compile_tdp` lowers an object ``TDP`` handed to
:func:`~repro.anyk.base.make_enumerator`.  See :mod:`repro.dp.flat`.
"""

from repro.dp.builder import build_tdp, build_tdp_for_query
from repro.dp.direct import DPProblem, k_lightest_paths
from repro.dp.flat import CompiledTDP, compile_tdp
from repro.dp.graph import ChoiceSet, TDP
from repro.dp.theta import band_predicate, build_theta_path, comparison_predicate

__all__ = [
    "ChoiceSet",
    "TDP",
    "CompiledTDP",
    "compile_tdp",
    "build_tdp",
    "build_tdp_for_query",
    "DPProblem",
    "k_lightest_paths",
    "build_theta_path",
    "band_predicate",
    "comparison_predicate",
]
