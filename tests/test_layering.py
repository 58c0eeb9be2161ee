"""Layering: the lower packages never import the upper ones.

``util``, ``data``, ``ranking``, ``query``, ``dp`` and ``obs`` sit below
the engine.  None of their modules may import ``repro.engine``,
``repro.serve`` or ``repro.enumeration`` — at module level *or* inside a function: an import-on-call is how a cycle gets
hidden instead of removed (``dp/corebuf.py`` and ``data/backend.py``
both did that to reach the retry primitives while those lived in
``serve/``; ``enumeration/api.py`` reached up into ``engine/plan.py``
for the tie lift, which now lives in ``dp/builder.py``).
"""

from __future__ import annotations

import ast
import os
import re
import sys

import repro

LOWER_PACKAGES = ("util", "data", "ranking", "query", "dp", "obs")
UPPER_PACKAGES = ("repro.engine", "repro.serve", "repro.enumeration")
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


#: ``serve`` modules, lowest layer first; a module imports only from
#: layers strictly below its own.  ``client`` is the other side of the
#: wire: it may know the protocol and nothing else of the package.
SERVE_LAYERS = (
    ("protocol", "policy", "cursor"),
    ("session",),
    ("server",),
    ("gateway",),
)
SERVE_ALLOWED = {"client": {"protocol"}}


def _serve_imports(name: str) -> set[str]:
    """The ``repro.serve`` submodules that ``serve/<name>.py`` imports."""
    path = os.path.join(SRC_ROOT, "serve", name + ".py")
    prefix = "repro.serve."
    return {
        module[len(prefix):].split(".")[0]
        for _line, module in _imported_modules(path, "repro.serve")
        if module.startswith(prefix)
    }


def test_serve_modules_import_only_downwards():
    allowed = dict(SERVE_ALLOWED)
    below: set[str] = set()
    for layer in SERVE_LAYERS:
        for name in layer:
            allowed[name] = set(below)
        below |= set(layer)
    violations = {
        name: sorted(_serve_imports(name) - permitted)
        for name, permitted in allowed.items()
        if _serve_imports(name) - permitted
    }
    assert not violations, violations


def test_serve_has_no_function_local_repro_imports():
    """An import inside a function is how a cycle gets hidden, not fixed."""
    violations = []
    root = os.path.join(SRC_ROOT, "serve")
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(root, name)
        with open(path, encoding="utf-8") as fd:
            tree = ast.parse(fd.read(), filename=path)
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                modules = []
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""] if not node.level else ["repro"]
                if any(m == "repro" or m.startswith("repro.") for m in modules):
                    violations.append(f"serve/{name}:{node.lineno}")
    assert not violations, violations



def _modules():
    """``(dotted name, imported modules)`` of every module in ``src/repro``."""
    for directory, _dirs, files in os.walk(SRC_ROOT):
        relative = os.path.relpath(directory, SRC_ROOT)
        package = "repro"
        if relative != ".":
            package += "." + relative.replace(os.sep, ".")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                module = package if name == "__init__.py" else f"{package}.{name[:-3]}"
                yield module, {found for _, found in _imported_modules(path, package)}


def test_the_engine_holds_cores_not_object_graphs():
    """A bound plan holds compiled cores; where it holds an object graph
    (a no-lane site) it gets one from the builder, never names the class."""
    violations = [
        module
        for module, imported in _modules()
        if module.startswith("repro.engine")
        and {"repro.dp.graph.TDP", "repro.dp.TDP"} & imported
    ]
    assert not violations, violations


#: Where the object path is still imported: the plan layer's branches
#: for a dioid without a lane, the free-connex cut of a min-weight
#: projection, ``make_enumerator`` (which lowers an object graph it is
#: handed) and the packages re-exporting the public API.  Every bind
#: whose dioid has a lane — UCQ members and the min-weight free region
#: included — lowers instead.
OBJECT_PATH_IMPORTERS = {
    "repro",  # public ``build_tdp``
    "repro.dp",  # package re-exports
    "repro.anyk.base",  # ``make_enumerator`` over an object graph
    "repro.engine.plan",  # no-lane acyclic plans, members and min-weight
    "repro.enumeration.projections",  # the free-connex cut
}


def test_only_the_no_lane_sites_import_the_object_builder():
    importers = {
        module
        for module, imported in _modules()
        if any(name.endswith((".build_tdp", ".compile_tdp")) for name in imported)
    }
    assert importers == OBJECT_PATH_IMPORTERS


def test_no_core_shell_is_left_in_src():
    found = []
    for directory, _dirs, files in os.walk(SRC_ROOT):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as fd:
                    if "CoreShell" in fd.read():
                        found.append(name)
    assert not found, found


def _declared_dependencies() -> set[str]:
    """``pyproject.toml``'s ``[project] dependencies``, names only (read
    without ``tomllib``, which Python 3.10 lacks)."""
    path = os.path.join(SRC_ROOT, os.pardir, os.pardir, "pyproject.toml")
    with open(path, encoding="utf-8") as fd:
        (line,) = [line for line in fd if line.startswith("dependencies")]
    specs = ast.literal_eval(line.split("=", 1)[1].strip())
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in specs}


def test_the_third_party_imports_are_the_declared_dependencies():
    """Every package ``src/`` imports — in any scope — is the standard
    library, ``repro`` or a dependency ``pyproject.toml`` declares, and
    every declared dependency is imported."""
    third_party = {
        module.split(".")[0]
        for _module, imported in _modules()
        for module in imported
        if module
    } - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == _declared_dependencies()
