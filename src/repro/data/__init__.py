"""Relational substrate: relations, databases, storage, and workload data.

The paper assumes (Section 2.3) the standard RAM model plus hash-based
tuple lookup structures that can be built in linear time; this package
provides exactly that: relations with per-tuple weights over pluggable
storage backends (in-memory lists or a persistent SQLite file),
constant-time hash indexes on attribute subsets, and the synthetic /
graph workload generators used by the experiments.
"""

from repro.data.backend import (
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    quote_identifier,
    validate_identifier,
)
from repro.data.database import Database
from repro.data.index import HashIndex
from repro.data.relation import Relation

__all__ = [
    "Relation",
    "Database",
    "HashIndex",
    "StorageBackend",
    "MemoryBackend",
    "SQLiteBackend",
    "validate_identifier",
    "quote_identifier",
]
