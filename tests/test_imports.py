"""Each name is imported from the module that defines it, and every
import has a reader.

A package ``__init__.py`` holds its docstring only, so importing one
module of a package loads that module and what it imports, not the
whole package.  ``repro.runner`` is the one facade: it is the sweep API
the benchmark imports.

Every ``src`` module is reached, through imports, from a driver: the
CLI, or a file of ``bench`` (outside ``bench/tests``), ``benchmarks``,
``tools`` or ``examples``.  Every name a ``src`` module imports is read
there (a name in a quoted annotation counts), and the third-party
packages ``src`` imports are exactly the dependencies ``pyproject.toml``
declares.
"""

import ast
import functools
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
REPO = SRC.parent

#: where the drivers live; ``bench/tests`` tests the benchmark, so it
#: drives nothing
DRIVERS = ("bench", "benchmarks", "tools", "examples")

#: modules a plain run never calls: networkx (no longer a dependency, so
#: nothing may bring it back), the span layer and the Figure 2 use case
NOT_LOADED = (
    "networkx",
    "repro.telemetry.spans",
    "repro.scenarios.usecase",
)

RUN = f"""
import sys
from repro.runner.spec import RunSpec
from repro.scenarios.factory import compose_spec

spec = RunSpec.single("rf_jamming", seed=3, horizon_s=5.0, start=1.0)
compose_spec(spec).run()
print(" ".join(name for name in {NOT_LOADED!r} if name in sys.modules))
"""


def test_a_run_loads_only_what_it_calls():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", RUN], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_package_init_holds_its_docstring_only():
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        package = path.parent.relative_to(SRC).as_posix()
        if package == "repro/runner":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), package
        rest = [ast.unparse(node).split(" = ")[0] for node in tree.body[1:]]
        assert rest == (["__version__"] if package == "repro" else []), package


@functools.lru_cache(maxsize=None)
def _src_modules():
    """``{module name: parsed tree}`` for every module under ``src``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = ast.parse(path.read_text(encoding="utf-8"))
    return found


def _imported(tree):
    """Every module name an import in ``tree`` names (in a function body
    too), with each parent package.  The repository imports absolutely
    only; a relative import would leave its module unreached."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return {".".join(name.split(".")[:i + 1])
            for name in names for i in range(name.count(".") + 1)}


def test_every_module_is_reached_from_a_driver():
    modules = _src_modules()
    reached, todo = set(), ["repro.cli"]
    for top in DRIVERS:
        for path in sorted((REPO / top).rglob("*.py")):
            if REPO / "bench" / "tests" not in path.parents:
                todo += _imported(ast.parse(path.read_text(encoding="utf-8")))
    while todo:
        name = todo.pop()
        if name in modules and name not in reached:
            reached.add(name)
            todo += _imported(modules[name])
    assert sorted(set(modules) - reached) == []


def _read_names(tree):
    """Names ``tree`` reads, including those inside string constants
    (quoted annotations and ``__all__``)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    return read


def test_every_imported_name_is_read():
    unused = []
    for module, tree in _src_modules().items():
        read = _read_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{module}: {bound}")
    assert unused == [], (f"{len(unused)} unused import(s):\n  "
                          + "\n  ".join(unused))


def test_third_party_imports_are_the_declared_dependencies():
    imported = set()
    for tree in _src_modules().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    project = tomllib.loads((REPO / "pyproject.toml").read_text("utf-8"))
    assert third_party == set(project["project"]["dependencies"])
