"""Join algorithms: the substrates and baselines of the paper.

* :mod:`repro.joins.generic_join` — a worst-case optimal join in the
  NPRR/Generic-Join family (Section 9.1.1's comparison point), also used
  to materialise decomposition bags.
* :mod:`repro.joins.rank_join` — an HRJN-style top-k rank join
  (Section 9.1.3's comparison point).

The unranked Yannakakis join, the suites' oracle, lives with the other
reference implementations in ``tests/reference/yannakakis.py``.
"""

from repro.joins.generic_join import build_trie, generic_join
from repro.joins.rank_join import RankJoin, rank_join_enumerate

__all__ = [
    "generic_join",
    "build_trie",
    "RankJoin",
    "rank_join_enumerate",
]
