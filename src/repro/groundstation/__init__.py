"""The signed ground-station command/alert plane (ROADMAP item 3).

An MQTT-style pub/sub plane riding the deterministic sim: operators issue
HMAC-signed commands (start / pause / safe-stop / rejoin) with per-operator
monotonic counters and a replay window mirroring the SecureChannel
discipline; vehicles verify, execute through the degraded-mode
:class:`~repro.faults.modes.ModeMachine`, and publish signed status and
alert messages; every message the control station observes lands in a
hash-chained append-only audit log whose offline verifier emits a
structured evidence report for :mod:`repro.assurance`.

* :mod:`repro.groundstation.codec` — the signed message codec;
* :mod:`repro.groundstation.keys` — seed-derived per-principal keyring;
* :mod:`repro.groundstation.bus` — the deterministic topic bus;
* :mod:`repro.groundstation.audit` — hash chain, verifier, evidence;
* :mod:`repro.groundstation.station` — operators, vehicles, control;
* :mod:`repro.groundstation.selftest` — the audit tamper self-test.

The plane is strictly opt-in (``ScenarioConfig.groundstation_enabled``):
a disabled run is byte-identical to the golden traces.
"""
