"""Equi-join kernels shared by the column paths.

Kernels over numpy arrays must stay bit-identical to the object builder
(:func:`repro.dp.builder.build_tdp`), the reference they are tested
against: they may only reorder *bookkeeping*, never floating-point
arithmetic — every float operation performed must be the same
operation, in the same association order, as ``times`` there (see
``repro/dp/lower.py``: it folds a dioid's lane from ``one`` in the
object path's order).
"""

from __future__ import annotations

import numpy as np


#: The most slots per row a :class:`KeyIndex` table may take, as numpy's
#: ``isin(kind="table")`` bounds its table by the sizes of its inputs: a
#: table of ``TABLE_SLOTS_PER_ROW * rows`` int64 slots is at most 64
#: bytes per row indexed, and transient.
TABLE_SLOTS_PER_ROW = 8


def _rank(values, column):
    """``(at, found)``: per element of ``column`` its position in the
    sorted distinct ``values``, and whether it is there."""
    at = values.searchsorted(column)
    at[at == len(values)] = 0
    return at, values[at] == column


class KeyIndex:
    """The keys of some rows — one int64 code column per key column —
    numbered first-seen, and looked up by code.

    A key is read as a mixed-radix number, one digit per column: the
    value less the column's low value, the column's width (its span of
    values) being the digit's radix.  Where the product of the widths is
    at most :data:`TABLE_SLOTS_PER_ROW` per row — numbered values are
    dense by construction (:mod:`repro.data.image`) — the number is the
    key's slot in a direct-address table: no sort and no binary search.
    Only where that span is too wide are the codes renumbered densely by
    one sort, and a lookup searches that sort's distinct codes.  A column
    spanning 2**31 or more is a digit as its rank among its distinct
    values (a sort of its own), and the running code is renumbered
    before a digit that could carry it past 2**62.

    ``size`` keys, numbered ``0 ..`` in the order of their first row, as
    ``dict.fromkeys`` numbers them: ``first`` holds each key's first row,
    ``local`` each row's key number, ``sorts`` the sorts that took (0: a
    table over the codes).  :meth:`find` looks other rows' keys up, a key
    out of a column's range or absent a miss.
    """

    __slots__ = ("radix", "fold", "slots", "size", "first", "local", "sorts")

    def __init__(self, columns, rows: int):
        #: Per column ``(fold, low, high, width, values)``: the sorted
        #: distinct running codes it renumbers the code by first (or
        #: ``None``), its value range, its radix, and the sorted distinct
        #: values a ranked digit is found among (else ``None``).
        self.radix: list[tuple] = []
        self.sorts = 0
        code = np.zeros(rows, np.int64)
        span = 1
        for column in columns:
            low = int(column.min()) if rows else 0
            high = int(column.max()) if rows else 0
            width, values, fold = high - low + 1, None, None
            if width >= 1 << 31:
                values, digit = self._renumbered(column)
                width = len(values)
            else:
                digit = column - low
            if span * width >= 1 << 62:
                fold, code = self._renumbered(code)
                span = len(fold)
            code = code * width + digit
            span *= width
            self.radix.append((fold, low, high, width, values))
        #: The sorted distinct codes of a span too wide for a table.
        self.fold = None
        if span > TABLE_SLOTS_PER_ROW * max(rows, 1):
            self.fold, code = self._renumbered(code)
            span = len(self.fold)
        # A key's first row is the least row holding its code: a minimum,
        # which no order of repeated writes can change.
        row = np.arange(rows)
        first = np.full(span, rows, np.int64)
        np.minimum.at(first, code, row)
        self.first = np.flatnonzero(first[code] == row)
        self.size = len(self.first)
        #: code -> key number, ``-1`` for a code no row holds.
        self.slots = np.full(span, -1, np.int64)
        self.slots[code[self.first]] = np.arange(self.size)
        self.local = self.slots[code]

    def _renumbered(self, codes):
        """``(distinct, dense)``: the sorted distinct ``codes``, and each
        code's position among them — one sort."""
        self.sorts += 1
        distinct, dense = np.unique(codes, return_inverse=True)
        return distinct, dense.reshape(-1)

    def find(self, columns, rows: int):
        """Per row of ``columns`` (int64 code columns, one per key column)
        the number of its key, ``-1`` where no indexed row holds it."""
        code = np.zeros(rows, np.int64)
        hit = np.ones(rows, bool)
        for column, (fold, low, high, width, values) in zip(columns, self.radix):
            if fold is not None:
                code, found = _rank(fold, code)
                hit &= found
            if values is None:
                hit &= (column >= low) & (column <= high)
                digit = column - low
            else:
                digit, found = _rank(values, column)
                hit &= found
            code = code * width + digit
        if self.fold is not None:
            code, found = _rank(self.fold, code)
            hit &= found
        return np.where(hit, self.slots[np.where(hit, code, 0)], -1)


def grouped(local, size: int):
    """The positions of ``local`` (numbers ``0 .. size-1``) grouped by
    number, in position order within a number: one stable integer
    argsort, a counting sort up to 2**16 numbers."""
    if size <= 1 << 16:
        local = local.astype(np.uint16)
    return local.argsort(kind="stable")


def gather(probe, build):
    """Every ``(i, j)`` whose keys are equal, as two int64 arrays: row
    ``i`` of ``probe`` and row ``j`` of ``build``, each a list of int64
    code columns, one per key column.

    Ordered by ``i``, then by ``j``: the nested-loop order of a hash
    join that buckets ``build`` in scan order and probes it row by row.
    The buckets are ``build``'s :class:`KeyIndex` keys, grouped by one
    counting pass (:func:`grouped`), their bounds a ``bincount``; each
    probe finds its bucket by code, and a ``repeat`` lays the matches out.
    """
    index = KeyIndex(build, len(build[0]))
    rows = len(probe[0])
    at = index.find(probe, rows)
    # One bucket more than keys, empty: the one a miss (``-1``) reads.
    sizes = np.bincount(index.local, minlength=index.size + 1)
    counts = sizes[at]
    lo = (np.cumsum(sizes) - sizes)[at]
    left = np.repeat(np.arange(rows), counts)
    # Output t of probe i reads grouped build position lo[i] + (t - first[i]).
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return left, grouped(index.local, index.size)[np.arange(len(left)) + shift]
