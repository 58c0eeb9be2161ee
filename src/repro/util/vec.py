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


def gather(probe, build):
    """Every ``(i, j)`` with ``probe[i] == build[j]``, as two int64 arrays.

    Ordered by ``i``, then by ``j``: the nested-loop order of a hash
    join that buckets ``build`` in scan order and probes it row by row.
    One stable sort of ``build``, two ``searchsorted`` and a ``repeat``.
    """
    order = np.argsort(build, kind="stable")
    ordered = build[order]
    lo = np.searchsorted(ordered, probe, "left")
    counts = np.searchsorted(ordered, probe, "right") - lo
    left = np.repeat(np.arange(len(probe)), counts)
    # Output t of probe i reads sorted build position lo[i] + (t - first[i]).
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return left, order[np.arange(len(left)) + shift]


def _dense(a, b):
    """``a`` and ``b`` numbered ``0 ..`` over both: ``(codes_a, codes_b, count)``."""
    uniques, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
    inverse = inverse.reshape(-1).astype(np.int64, copy=False)
    return inverse[: len(a)], inverse[len(a):], len(uniques)


def key_codes(*columns):
    """One int64 code per row of a multi-column key, equal iff the keys are.

    ``columns`` holds one ``(a, b)`` pair of int64 arrays per key column:
    that column of two row sets (either may be empty).  Returns
    ``(codes_a, codes_b)``, comparable across the two sets: a key read as
    a mixed-radix number, one digit per column — the value less the
    column's minimum, or, where the values span 2**31 or more, its rank
    among the column's distinct values.  The running code is renumbered
    densely before a digit that could carry it past 2**62.
    """
    code_a = code_b = None
    span = 1
    for a, b in columns:
        both = np.concatenate([a, b])
        low = int(both.min()) if len(both) else 0
        width = int(both.max()) - low + 1 if len(both) else 1
        if width < 1 << 31:
            digit_a, digit_b = a - low, b - low
        else:
            digit_a, digit_b, width = _dense(a, b)
        if code_a is None:
            code_a, code_b = digit_a, digit_b
        else:
            if span * width >= 1 << 62:
                code_a, code_b, span = _dense(code_a, code_b)
            code_a = code_a * width + digit_a
            code_b = code_b * width + digit_b
        span *= width
    return code_a, code_b
