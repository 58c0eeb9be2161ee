"""The public result type yielded by every ranked-enumeration pipeline."""

from repro.dp.graph import QueryResult

__all__ = ["QueryResult"]
