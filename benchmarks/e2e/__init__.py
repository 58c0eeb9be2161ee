"""End-to-end + layer-tax benchmark for bind, enumeration and serving.

One package measures what a caller of this system waits for — TTF,
TT(k), page latency, CPU, memory, set-up time — on five workloads, and
what each layer between the any-k enumerator and the client charges for
it (``--trace 1``).  ``BENCHMARK.json`` at the repo root names the
command, the workloads and every metric; ``README.md`` beside this file
says how to read them.

Run from the root of a checkout::

    python3 -m benchmarks.e2e --workload enum_extend --seed 93 --seconds 15 --trace 0
    python3 -m benchmarks.e2e --all --seed 93 --out results.json

The program under test is imported from ``src/`` of the same checkout;
a directory without it makes every entry point fail at import.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout this package sits in (``benchmarks/e2e/`` → root).
ROOT = Path(__file__).resolve().parents[2]

_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
