#!/usr/bin/env python3
"""Recompute (or rewrite) the same-bytes manifest of CLI outputs.

``tests/integration/golden/outputs.json`` lists recipes: a
``repro-worksite`` argv, the environment it runs under and the files it
writes.  This tool runs every recipe in order, in-process through
``repro.cli.main``, inside one fresh temporary working directory with
relative paths (so no printed path depends on the checkout), and hashes
each output with sha256.  Later recipes may read what earlier ones wrote
(``check --trace`` of a recorded trace, for example).

Recipe fields:

``argv``    the arguments after ``repro-worksite``;
``env``     ``REPRO_*`` switches for this recipe (every other ``REPRO_*``
            variable is cleared while it runs);
``files``   outputs to hash, relative to the working directory; a name
            ending in ``/`` hashes every file below that directory;
``stdout``  whether the captured stdout is pinned too;
``rows``    for JSONL outputs: hash only these fields of each row
            (for rows that also carry wall-clock or pid fields).

The manifest also names ``inputs``: repository files copied into the
working directory before the first recipe runs.

Usage::

    PYTHONPATH=src python tools/output_manifest.py            # check
    PYTHONPATH=src python tools/output_manifest.py --update   # rewrite

Check mode prints every digest that moved and exits 1 if any did.
``--update`` rewrites the digests (and exit codes) in place and prints
which ones moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "integration" / "golden" / "outputs.json"


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path, rows) -> str:
    if not rows:
        return _sha256(path.read_bytes())
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        lines.append(json.dumps({k: row.get(k) for k in rows},
                                sort_keys=True))
    return _sha256("\n".join(lines).encode("utf-8"))


@contextlib.contextmanager
def _environment(env: Dict[str, str]):
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in saved:
        del os.environ[key]
    os.environ.update(env)
    try:
        yield
    finally:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update(saved)


def run_recipe(recipe: dict, workdir: Path) -> dict:
    """Run one recipe in ``workdir``; returns ``{"exit", "digests"}``."""
    from repro.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with _environment(recipe.get("env", {})), \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = main(list(recipe["argv"]))
        except SystemExit as exc:
            code = exc.code
    digests = {}
    for name in recipe.get("files", []):
        target = workdir / name
        if name.endswith("/"):
            for path in sorted(p for p in target.rglob("*") if p.is_file()):
                rel = path.relative_to(workdir).as_posix()
                digests[rel] = _file_digest(path, recipe.get("rows"))
        elif target.is_file():
            digests[name] = _file_digest(target, recipe.get("rows"))
        else:
            digests[name] = None
    if recipe.get("stdout"):
        digests["stdout"] = _sha256(stdout.getvalue().encode("utf-8"))
    return {"exit": code, "digests": digests}


def compute(manifest: dict, workdir: Path) -> Dict[str, dict]:
    """Run every recipe in order inside ``workdir``; results by name."""
    workdir = Path(workdir).resolve()
    for name in manifest.get("inputs", []):
        target = workdir / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / name, target)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return {recipe["name"]: run_recipe(recipe, workdir)
                for recipe in manifest["recipes"]}
    finally:
        os.chdir(cwd)


def moved(manifest: dict, results: Dict[str, dict]) -> List[str]:
    """One line per output whose digest (or exit code) differs."""
    lines = []
    for recipe in manifest["recipes"]:
        got = results[recipe["name"]]
        if got["exit"] != recipe.get("exit"):
            lines.append(f"{recipe['name']}: exit {recipe.get('exit')} "
                         f"-> {got['exit']}")
        pinned = recipe.get("digests", {})
        for output in sorted(set(pinned) | set(got["digests"])):
            old, new = pinned.get(output), got["digests"].get(output)
            if old != new:
                lines.append(f"{recipe['name']}: {output} "
                             f"{(old or '-')[:12]} -> {(new or '-')[:12]}")
    return lines


def update(manifest: dict, results: Dict[str, dict]) -> dict:
    for recipe in manifest["recipes"]:
        got = results[recipe["name"]]
        recipe["exit"] = got["exit"]
        recipe["digests"] = got["digests"]
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest's digests in place")
    args = parser.parse_args(argv)
    manifest = load()
    with tempfile.TemporaryDirectory(prefix="outputs-") as workdir:
        results = compute(manifest, Path(workdir))
    lines = moved(manifest, results)
    for line in lines:
        print(f"moved: {line}")
    total = sum(len(r["digests"]) for r in results.values())
    if args.update:
        MANIFEST.write_text(
            json.dumps(update(manifest, results), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"updated {MANIFEST.relative_to(ROOT)}: {total} digests, "
              f"{len(lines)} moved")
        return 0
    print(f"{total} digests, {len(lines)} moved")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
