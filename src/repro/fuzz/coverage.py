"""Behavioural coverage signatures over the trace record stream.

A *signature* is a short string naming one behaviour the run actually
exhibited — not what its spec asked for.  The families mirror the
subsystems the invariant engine checks:

* ``drop:frame:<cause>`` / ``drop:record:<cause>`` — drop-cause taxonomy
  hits at the frame and record layers;
* ``mode:<machine>:<prev>-><mode>`` — ModeMachine transition edges
  actually taken;
* ``ids:<detector>:<alert_type>:<in|out>`` — IDS alert ↔ attack-window
  attribution outcomes;
* ``service:<service>:down:<cause>`` / ``service:<service>:up`` — the
  outage/recovery paths (the retry/rejoin story shows up here and as
  ``drop:frame:retry_exhausted``);
* ``deauth:<accepted|rejected>`` — management-frame protection outcomes;
* ``safety:<action>`` — safety interventions taken.

Signatures are derived deterministically from the record stream, so the
coverage map inherits the simulator's byte-identical determinism: the
same corpus always produces the same map.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

#: signature family prefixes, in report order
FAMILIES = ("drop", "mode", "ids", "service", "deauth", "safety")

#: ``coverage.json`` layout version
COVERAGE_SCHEMA = 1


def signatures_from_records(records: Sequence[Mapping]) -> List[str]:
    """The sorted set of behavioural signatures a record stream exhibits."""
    found = set()
    for record in records:
        rtype = record.get("type")
        if rtype == "frame.drop":
            found.add(f"drop:frame:{record.get('cause')}")
        elif rtype == "record.drop":
            found.add(f"drop:record:{record.get('cause')}")
        elif rtype == "mode.transition":
            found.add(
                f"mode:{record.get('machine')}:"
                f"{record.get('prev')}->{record.get('mode')}"
            )
        elif rtype == "ids.alert":
            outcome = "in" if record.get("in_window") else "out"
            found.add(
                f"ids:{record.get('detector')}:"
                f"{record.get('alert_type')}:{outcome}"
            )
        elif rtype == "service.down":
            found.add(
                f"service:{record.get('service')}:down:{record.get('cause')}"
            )
        elif rtype == "service.up":
            found.add(f"service:{record.get('service')}:up")
        elif rtype == "link.deauth":
            outcome = "accepted" if record.get("accepted") else "rejected"
            found.add(f"deauth:{outcome}")
        elif rtype == "safety.intervention":
            found.add(f"safety:{record.get('action')}")
    return sorted(found)


def family_of(signature: str) -> str:
    """The family prefix of one signature string."""
    return signature.split(":", 1)[0]


class CoverageMap:
    """Which signatures the explored corpus has hit, and how often.

    The map is the fuzzer's fitness function: a spec whose trace exhibits
    a signature nobody has seen before earns a place in the corpus.
    Persistence is canonical JSON (sorted keys), so the file is a pure
    function of the observation history.
    """

    def __init__(self) -> None:
        #: signature -> {"count": total hits, "origin": first origin label}
        self._hits: Dict[str, dict] = {}

    def __len__(self) -> int:
        return len(self._hits)

    def __contains__(self, signature: str) -> bool:
        return signature in self._hits

    def observe(self, signatures: Iterable[str], origin: str) -> List[str]:
        """Fold one run's signatures in; returns the never-seen-before ones."""
        new: List[str] = []
        for signature in signatures:
            entry = self._hits.get(signature)
            if entry is None:
                self._hits[signature] = {"count": 1, "origin": origin}
                new.append(signature)
            else:
                entry["count"] += 1
        return sorted(new)

    def signatures(self) -> List[str]:
        return sorted(self._hits)

    def by_family(self) -> Dict[str, int]:
        """Signature counts per family, families in declaration order."""
        counts = {family: 0 for family in FAMILIES}
        for signature in self._hits:
            family = family_of(signature)
            counts[family] = counts.get(family, 0) + 1
        return {f: n for f, n in counts.items() if n}

    def to_dict(self) -> dict:
        return {
            "schema": COVERAGE_SCHEMA,
            "signatures": {
                signature: dict(entry)
                for signature, entry in sorted(self._hits.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CoverageMap":
        cover = cls()
        for signature, entry in dict(data.get("signatures", {})).items():
            cover._hits[str(signature)] = {
                "count": int(entry.get("count", 0)),
                "origin": str(entry.get("origin", "")),
            }
        return cover
