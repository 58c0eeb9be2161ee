"""Public ranked-enumeration API (Theorem 15 end to end).

:func:`repro.enumeration.api.ranked_enumerate` dispatches a query to the
appropriate pipeline — serial/tree DP for acyclic full CQs, cycle or
generic decomposition + UT-DP union for cyclic ones, and the Section 8.1
projection semantics for non-full queries — and yields
:class:`repro.enumeration.api.QueryResult` objects in ranking order.
"""

from repro.enumeration.api import QueryResult, ranked_enumerate

__all__ = [
    "QueryResult",
    "ranked_enumerate",
]
