"""Optional numpy acceleration gate.

The repo's hot loops keep a pure-``array``/list implementation as the
reference path; numpy is an *optional* accelerator.  Every vectorized
call site reads :data:`np` through this module at call time (``from
repro.util import vec`` ... ``vec.np``), which gives one switch that

* honours the ``REPRO_NO_NUMPY=1`` environment flag (the CI ``no-numpy``
  job, and containers where numpy is installed but must be bypassed),
* degrades silently when numpy is simply absent, and
* can be monkeypatched in tests (``monkeypatch.setattr(vec, "np",
  None)``) to run both paths of a differential suite in one process.

Vectorized kernels must stay bit-identical to the scalar path: they may
only reorder *bookkeeping*, never floating-point arithmetic — every
float operation performed must be the same operation, in the same
association order, as the scalar code (see ``repro/dp/lower.py``: both
fold a dioid's lane from ``one`` in the object path's order).
"""

from __future__ import annotations

import os

np = None
if os.environ.get("REPRO_NO_NUMPY", "").strip() not in ("1", "true", "yes"):
    try:  # pragma: no cover - exercised via the no-numpy CI job
        import numpy as np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover
        np = None


def have_numpy() -> bool:
    """Whether the numpy fast paths are active right now."""
    return np is not None
