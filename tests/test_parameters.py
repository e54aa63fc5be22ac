"""Every defaulted parameter in ``src`` is one some caller passes.

A default that no call site overrides is a constant with extra steps:
each such parameter is one more configuration the golden traces, the
same-bytes manifest and the benchmark never run.  The scan matches calls
by name over ``src``, ``bench``, ``benchmarks``, ``tools``, ``examples``
and ``tests``: a parameter counts as passed when a call to a callable of
its name passes it by keyword or by position, or when the call spreads
``*args`` or ``**kwargs``.  A class is called by its own name (its
``__init__`` and its dataclass or ``NamedTuple`` fields); ``super().
__init__(...)`` calls the class's first base, ``cls(...)`` inside a
class body calls that class, and ``replace(obj, field=...)`` passes the
dataclass fields it names.

Fields of a mutable dataclass that are state rather than settings are
not parameters: a field some ``src`` code assigns after construction, or
mutates (a subscript store, or a call such as ``append``, ``add`` or
``update`` on it).  A ``field(...)`` default that nothing changes is a
setting like any other.
"""

import ast
import fnmatch
import functools
from collections import defaultdict
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]
SCANNED = ("src", "bench", "benchmarks", "tools", "examples", "tests")

#: methods that change the container they are called on
MUTATORS = {"add", "append", "appendleft", "clear", "discard", "extend",
            "insert", "pop", "popitem", "popleft", "remove", "setdefault",
            "update"}

#: defaulted parameters passed in ways the name match cannot see, or kept
#: configurable on purpose: qualified name pattern -> reason
ALLOWED = {
    "repro.groundstation.audit.AuditLog.__init__.key":
        "credential: the audit chain's signing key is a deployment setting",
    "repro.groundstation.audit.verify_chain.key":
        "credential: the key an audit chain is verified under",
    "repro.comms.messages.*.msg_type":
        "the wire discriminator each subclass fixes; a dataclass field, so "
        "it is part of every message's repr and equality",
    "repro.scenarios.campaigns.*_campaign.start":
        "passed through CAMPAIGN_BUILDERS[name](scenario, **kwargs)",
    "repro.scenarios.campaigns.*_campaign.duration":
        "passed through CAMPAIGN_BUILDERS[name](scenario, **kwargs)",
    "repro.scenarios.campaigns.injection_campaign.command":
        "passed through CAMPAIGN_BUILDERS[name](scenario, **kwargs)",
}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _decorators(node):
    return {_name(d.func if isinstance(d, ast.Call) else d): d
            for d in node.decorator_list}


def _is_field(value):
    return isinstance(value, ast.Call) and _name(value.func) == "field"


def _fields(cls):
    """(name, defaulted, mutable) per constructor field of a dataclass or
    ``NamedTuple``, ``mutable`` being true in a mutable dataclass; None
    for any other class."""
    decorators = _decorators(cls)
    named_tuple = any(_name(base) == "NamedTuple" for base in cls.bases)
    if "dataclass" not in decorators and not named_tuple:
        return None
    config = decorators.get("dataclass")
    frozen = named_tuple or isinstance(config, ast.Call) and any(
        k.arg == "frozen" and getattr(k.value, "value", False) is True
        for k in config.keywords
    )
    fields = []
    for node in cls.body:
        if (not isinstance(node, ast.AnnAssign)
                or not isinstance(node.target, ast.Name)
                or "ClassVar" in ast.unparse(node.annotation)):
            continue
        value = node.value
        if _is_field(value) and any(
            k.arg == "init" and getattr(k.value, "value", True) is False
            for k in value.keywords
        ):
            continue
        fields.append((node.target.id, value is not None,
                       not frozen))
    return fields


def _definitions(module, tree):
    """(qualified name, called name, params, positional count, fields?)
    per function, method and dataclass in ``tree``; the third item of a
    params entry is a field's mutable flag, None for a function's
    parameter."""
    found = []

    def visit(statements, prefix, cls):
        for node in statements:
            if isinstance(node, ast.ClassDef):
                qual = prefix + node.name
                fields = _fields(node)
                if fields is not None:
                    found.append((f"{module}.{qual}", node.name, fields,
                                  len(fields), True))
                visit(node.body, qual + ".", node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                if cls is not None and "staticmethod" not in _decorators(node):
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                params = [(a.arg, i >= first, None)
                          for i, a in enumerate(positional)]
                params += [(a.arg, d is not None, None)
                           for a, d in zip(args.kwonlyargs, args.kw_defaults)]
                called = (cls.name if node.name == "__init__" and cls is not None
                          else node.name)
                found.append((f"{module}.{prefix}{node.name}", called, params,
                              len(positional), False))
                visit(node.body, f"{prefix}{node.name}.", None)
            else:
                for name in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, name, ()), prefix, cls)

    visit(tree.body, "", None)
    return found


def _calls_and_stores(tree, calls, stored):
    """Add each call in ``tree`` to ``calls`` (called name -> positional
    count, keywords, spreads) and each attribute it assigns or mutates to
    ``stored``."""
    stack = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        if isinstance(node, ast.Call):
            func = node.func
            name = _name(func)
            if cls is not None:
                if (name == "__init__" and isinstance(func.value, ast.Call)
                        and _name(func.value.func) == "super" and cls.bases):
                    name = _name(cls.bases[0])
                elif name == "cls" and isinstance(func, ast.Name):
                    name = cls.name
            if name is not None:
                spreads = (any(isinstance(a, ast.Starred) for a in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls[name].append(
                    (len(node.args), {k.arg for k in node.keywords}, spreads)
                )
            if (name in MUTATORS and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)):
                stored.add(func.value.attr)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            stored.add(node.attr)
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Attribute)):
            stored.add(node.value.attr)
        elif isinstance(node, ast.ClassDef):
            cls = node
        for field in node._fields:
            value = getattr(node, field, None)
            if isinstance(value, list):
                stack.extend((v, cls) for v in value if isinstance(v, ast.AST))
            elif isinstance(value, ast.AST):
                stack.append((value, cls))


@functools.lru_cache(maxsize=None)
def unpassed_parameters():
    """Qualified names of the defaulted ``src`` parameters no call passes."""
    calls = defaultdict(list)
    stored = set()
    definitions = []
    for top in SCANNED:
        src_stored = stored if top == "src" else set()
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if top == "src":
                parts = path.relative_to(REPO / "src").with_suffix("").parts
                definitions += _definitions(".".join(parts), tree)
            _calls_and_stores(tree, calls, src_stored)
    replaced = set().union(*(kw for _, kw, _ in calls.get("replace", [])))
    missing = []
    for qual, called, params, positional, is_fields in definitions:
        sites = calls.get(called, [])
        for index, (param, defaulted, mutable) in enumerate(params):
            if not defaulted or (is_fields and param in replaced):
                continue
            if mutable and param in stored:
                continue  # state of a mutable dataclass, not a setting
            if not any(spreads or param in keywords
                       or (index < positional and count > index)
                       for count, keywords, spreads in sites):
                missing.append(f"{qual}.{param}")
    return tuple(missing)


def test_every_defaulted_parameter_has_a_caller():
    missing = [
        name for name in unpassed_parameters()
        if not any(fnmatch.fnmatchcase(name, pattern) for pattern in ALLOWED)
    ]
    assert missing == [], (
        f"{len(missing)} defaulted parameter(s) no call site passes; make "
        "each a constant (or allow it here with a reason):\n  "
        + "\n  ".join(missing)
    )


def test_every_allowance_is_still_needed():
    found = unpassed_parameters()
    stale = [pattern for pattern in ALLOWED
             if not any(fnmatch.fnmatchcase(name, pattern) for name in found)]
    assert stale == []
