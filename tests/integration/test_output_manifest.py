"""Same-bytes manifest: every pinned CLI output keeps its digest.

``golden/outputs.json`` holds recipes (argv, environment, files to hash)
and the sha256 of each output and of stdout.  This test re-runs every
recipe through ``tools/output_manifest.py`` and names each digest that
moved.  A change that moves one on purpose rewrites the manifest with
``python tools/output_manifest.py --update`` and says why in CHANGES.md.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "output_manifest", ROOT / "tools" / "output_manifest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pinned_output_keeps_its_digest(tmp_path):
    tool = _tool()
    manifest = tool.load()
    moved = tool.moved(manifest, tool.compute(manifest, tmp_path))
    assert not moved, "moved digests:\n" + "\n".join(moved)


def test_recipes_name_every_campaign_profile_and_fault_campaign():
    """A builder, profile or fault campaign that no recipe names is code
    the manifest never runs, so a simplification there goes unchecked."""
    from repro.faults.campaigns import FAULT_CAMPAIGNS
    from repro.scenarios.campaigns import CAMPAIGN_BUILDERS
    from repro.scenarios.factory import PROFILES

    named = set()
    for recipe in _tool().load()["recipes"]:
        argv = recipe["argv"]
        for flag, value in zip(argv, argv[1:]):
            if flag == "--campaigns" and value == "all":
                named.update(CAMPAIGN_BUILDERS)
        for arg in argv:
            named.update(arg.split(","))
    wanted = {
        "campaign builder": set(CAMPAIGN_BUILDERS),
        "profile": set(PROFILES),
        "fault campaign": set(FAULT_CAMPAIGNS),
    }
    missing = [f"{kind} {name}" for kind, names in wanted.items()
               for name in sorted(names - named)]
    assert not missing, "no recipe runs: " + ", ".join(missing)
