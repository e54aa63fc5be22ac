"""Every attribute ``src`` stores on ``self`` has a reader outside tests.

An attribute that is written and never read is state no output shows:
the golden traces, the same-bytes manifest and the benchmark cannot
check it, so it is kept only if something reads it.  The scan matches
names: it compares every attribute that ``src`` assigns on ``self``
(plain, annotated and augmented assignments) with the attribute loads
and the string constants (``getattr`` names) of ``src`` and of the
drivers: ``bench`` outside ``bench/tests``, ``benchmarks``, ``tools``
and ``examples``.  Tests do not count as readers.
"""

import ast
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]
READERS = ("src", "bench", "benchmarks", "tools", "examples")

#: attributes kept without a reader outside tests: name -> reason
ALLOWED = {
    "found": "CampaignSchemaError's data: the schema version the file "
             "holds, for a caller that catches the error",
}


def write_only_attributes():
    """``{attribute: [file:line, ...]}`` for each attribute ``src`` stores
    on ``self`` that no reader loads."""
    stored, read = {}, set()
    for top in READERS:
        for path in sorted((REPO / top).rglob("*.py")):
            rel = path.relative_to(REPO).as_posix()
            if rel.startswith("bench/tests/"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                    elif (top == "src" and isinstance(node.ctx, ast.Store)
                          and isinstance(node.value, ast.Name)
                          and node.value.id == "self"):
                        stored.setdefault(node.attr, []).append(
                            f"{rel}:{node.lineno}")
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    read.add(node.value)
    return {name: sites for name, sites in sorted(stored.items())
            if name not in read}


def test_every_stored_attribute_has_a_reader():
    unread = {name: sites for name, sites in write_only_attributes().items()
              if name not in ALLOWED}
    assert unread == {}, (
        f"{len(unread)} attribute(s) stored on self and read only by tests "
        "or nothing; delete each with its assignments (or allow it here "
        "with a reason):\n  "
        + "\n  ".join(f"{name}: {', '.join(sites)}"
                      for name, sites in unread.items())
    )


def test_every_allowance_is_still_needed():
    assert sorted(set(ALLOWED) - set(write_only_attributes())) == []
