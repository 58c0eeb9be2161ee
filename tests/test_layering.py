"""Layering: the lower packages never import the upper ones.

``util``, ``data``, ``ranking``, ``query``, ``dp`` and ``obs`` sit below
the engine.  None of their modules may import ``repro.engine``,
``repro.parallel`` or ``repro.serve`` — at module level *or* inside a
function: an import-on-call is how a cycle gets hidden instead of
removed (``dp/corebuf.py`` and ``data/backend.py`` both did that to
reach the retry primitives while those lived in ``serve/``).
"""

from __future__ import annotations

import ast
import os

import repro

LOWER_PACKAGES = ("util", "data", "ranking", "query", "dp", "obs")
UPPER_PACKAGES = ("repro.engine", "repro.parallel", "repro.serve")
SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _imported_modules(path: str, package: str) -> list[tuple[int, str]]:
    """``(line, absolute module name)`` of every import in ``path``.

    A ``from a import b`` yields both ``a`` and ``a.b`` (``b`` may be a
    submodule), so callers de-duplicate by line.
    """
    with open(path, encoding="utf-8") as fd:
        tree = ast.parse(fd.read(), filename=path)
    found = []
    for node in ast.walk(tree):  # every scope, not just the module body
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: resolve against the file's package
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                module = ".".join(base + ([module] if module else []))
            found.append((node.lineno, module))
            # ``from repro import serve`` names the package as an alias.
            found.extend(
                (node.lineno, f"{module}.{alias.name}") for alias in node.names
            )
    return found


def test_lower_packages_do_not_import_upper_packages():
    violations = {}
    for package in LOWER_PACKAGES:
        root = os.path.join(SRC_ROOT, package)
        for directory, _dirs, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                relative = os.path.relpath(directory, SRC_ROOT)
                dotted = "repro." + relative.replace(os.sep, ".")
                for line, module in _imported_modules(path, dotted):
                    if any(
                        module == upper or module.startswith(upper + ".")
                        for upper in UPPER_PACKAGES
                    ):
                        where = f"{os.path.relpath(path, SRC_ROOT)}:{line}"
                        violations.setdefault(where, f"{where} imports {module}")
    assert not violations, "\n".join(violations.values())
