"""Ranking functions captured as selective dioids (paper Sections 2.2, 6).

A *selective dioid* is a semiring ``(W, plus, times, zero, one)`` whose
``plus`` always returns one of its operands; selectivity induces a total
order on ``W`` and therefore a ranking of query results.  The library
ships the orders the paper discusses:

* :data:`TROPICAL` — ``(R∪{∞}, min, +, ∞, 0)``: rank by sum of weights,
  smallest first (the paper's running example).
* :data:`MAX_PLUS` — ``(R∪{−∞}, max, +, −∞, 0)``: heaviest result first.
* :data:`MAX_TIMES` — ``([0,∞), max, ×, 0, 1)``: e.g. bag-semantics
  multiplicities or probabilities, largest product first.
* :data:`BOOLEAN` — ``({0,1}, ∨, ∧, 0, 1)`` with the inverted order
  ``1 ≤ 0`` so that plain (unranked) evaluation falls out of the ranked
  framework (Section 6.4).
* :class:`LexicographicDioid` — vector weights compared entry-wise
  (Section 2.2 "Generality").
* :class:`TieBreakingDioid` — the Section 6.3 product construction that
  appends a canonical tie-breaking dimension (the output assignment,
  packed into one order-preserving integer) so duplicate results arrive
  consecutively in UT-DP unions.
"""

from repro.ranking.dioid import (
    BOOLEAN,
    MAX_PLUS,
    MAX_TIMES,
    NAMED_DIOIDS,
    TROPICAL,
    BooleanDioid,
    LexicographicDioid,
    MaxPlusDioid,
    MaxTimesDioid,
    SelectiveDioid,
    TieBreakingDioid,
    TropicalDioid,
)
from repro.ranking.lexicographic import (
    attribute_lexicographic,
    relation_lexicographic,
)
from repro.ranking.weights import (
    attribute_weight_rewrite,
    column_weights,
    random_weights,
    unit_weights,
)

__all__ = [
    "SelectiveDioid",
    "TropicalDioid",
    "MaxPlusDioid",
    "MaxTimesDioid",
    "BooleanDioid",
    "LexicographicDioid",
    "TieBreakingDioid",
    "TROPICAL",
    "MAX_PLUS",
    "MAX_TIMES",
    "BOOLEAN",
    "NAMED_DIOIDS",
    "column_weights",
    "random_weights",
    "unit_weights",
    "attribute_weight_rewrite",
    "attribute_lexicographic",
    "relation_lexicographic",
]
