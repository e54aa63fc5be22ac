"""Each name is imported from the module that defines it.

A package ``__init__.py`` holds its docstring only, so importing one
module of a package loads that module and what it imports, not the
whole package.  ``repro.runner`` is the one facade: it is the sweep API
the benchmark imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: modules a plain run never calls: the attack graph and networkx under
#: it, the span layer and the Figure 2 use case
NOT_LOADED = (
    "networkx",
    "repro.risk.attack_graphs",
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
