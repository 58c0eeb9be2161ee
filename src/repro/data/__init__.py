"""Relational substrate: relations, databases, storage, and workload data.

The paper assumes (Section 2.3) the standard RAM model plus lookup
structures built in linear time; this package provides the relations
they are built from: relations with per-tuple weights, held in memory
(a plain :class:`Database`) or in a persistent SQLite file, each read
once per version into an int64 column image (:mod:`repro.data.image`)
that the bind's key tables are made from, plus the synthetic / graph
workload generators used by the experiments.
"""

from repro.data.backend import (
    SQLiteBackend,
    StorageBackend,
    quote_identifier,
    validate_identifier,
)
from repro.data.database import Database
from repro.data.relation import Relation

__all__ = [
    "Relation",
    "Database",
    "StorageBackend",
    "SQLiteBackend",
    "validate_identifier",
    "quote_identifier",
]
