"""Unit and adversarial tests for the hash-chained audit log."""

import json

import pytest

from repro.groundstation.audit import (
    AuditLog,
    entry_hash,
    entry_sig,
    evidence_from_report,
    genesis_hash,
    load_audit_file,
    station_key,
    verify_audit_file,
    verify_chain,
)
from repro.groundstation.selftest import MUTATIONS, run_audit_selftest


def build_log(seed=7, n=5, path=None):
    log = AuditLog(seed, path=path)
    for i in range(n):
        log.append(float(i), "gs/alert/forwarder", "forwarder", i, "status",
                   "ok", f"wire-{i}".encode())
    return log


class TestChain:
    def test_genesis_is_pure_function_of_seed(self):
        assert genesis_hash(7) == genesis_hash(7)
        assert genesis_hash(7) != genesis_hash(8)

    def test_entries_chain_from_genesis(self):
        log = build_log()
        assert log.entries[0]["prev"] == genesis_hash(7)
        for prev, entry in zip(log.entries, log.entries[1:]):
            assert entry["prev"] == prev["hash"]
        assert log.head == log.entries[-1]["hash"]

    def test_same_seed_chains_byte_identical(self):
        a, b = build_log(), build_log()
        assert json.dumps(a.entries, sort_keys=True) == \
            json.dumps(b.entries, sort_keys=True)

    def test_different_seed_chains_diverge(self):
        assert build_log(seed=7).head != build_log(seed=8).head

    def test_close_is_terminal_and_idempotent(self):
        log = build_log()
        log.close(10.0)
        assert log.closed
        assert log.entries[-1]["kind"] == "close"
        assert log.close(11.0) is None
        with pytest.raises(RuntimeError):
            log.append(12.0, "gs/alert/x", "x", 0, "status", "ok")

    def test_entry_sig_binds_station_key(self):
        log = build_log()
        entry = log.entries[0]
        assert entry["sig"] == entry_sig(entry["hash"], station_key(7))
        assert entry["sig"] != entry_sig(entry["hash"], station_key(8))


class TestVerifyChain:
    def test_clean_chain_verifies(self):
        log = build_log()
        log.close(10.0)
        report = verify_chain(log.entries, 7)
        assert report["ok"] and report["complete"]
        assert report["head"] == log.head
        assert not report["violations"]

    def test_unclosed_chain_needs_allow_partial(self):
        log = build_log()
        strict = verify_chain(log.entries, 7)
        assert not strict["ok"]
        assert strict["violations"][0]["check"] == "close"
        relaxed = verify_chain(log.entries, 7, require_close=False)
        assert relaxed["ok"] and not relaxed["complete"]

    def test_wrong_seed_breaks_at_genesis(self):
        log = build_log(seed=7)
        log.close(10.0)
        report = verify_chain(log.entries, 8)
        assert not report["ok"]
        first = report["violations"][0]
        assert (first["index"], first["check"]) == (0, "chain")

    def test_field_edit_localised_to_one_entry(self):
        log = build_log()
        log.close(10.0)
        log.entries[2]["verdict"] = "executed"
        report = verify_chain(log.entries, 7)
        # chaining forward from the recorded hash keeps the damage local:
        # exactly one violation, at the edited entry, not a cascade
        assert [
            (v["index"], v["check"]) for v in report["violations"]
        ] == [(2, "hash")]

    def test_resigned_edit_flags_sig_not_hash(self):
        log = build_log()
        log.close(10.0)
        entry = log.entries[2]
        entry["verdict"] = "executed"
        entry["hash"] = entry_hash(entry)
        entry["sig"] = entry_sig(entry["hash"], station_key(999))
        log.entries[3]["prev"] = entry["hash"]
        log.entries[3]["hash"] = entry_hash(log.entries[3])
        report = verify_chain(log.entries, 7)
        assert any(
            v["check"] == "sig" and v["index"] == 2
            for v in report["violations"]
        )

    #: (field, a value of the wrong type, the check that flags it)
    WRONG_TYPES = [
        ("counter", "x", "counter"),
        ("sender", ["forwarder"], "counter"),
        ("t", "noon", "time"),
    ]

    @pytest.mark.parametrize("field,value,check", WRONG_TYPES)
    def test_wrong_typed_field_edit_is_localised(self, field, value, check):
        log = build_log()
        log.close(10.0)
        log.entries[2][field] = value
        report = verify_chain(log.entries, 7)
        assert [
            (v["index"], v["check"]) for v in report["violations"]
        ] == [(2, "hash"), (2, check)]

    @pytest.mark.parametrize("field,value,check", WRONG_TYPES)
    def test_resigned_wrong_typed_field_is_localised(self, field, value,
                                                     check):
        # an insider with the station key re-chains and re-signs the log,
        # so only the field's type gives the edit away
        log = build_log()
        log.close(10.0)
        log.entries[2][field] = value
        prev = log.entries[1]["hash"]
        for entry in log.entries[2:]:
            entry["prev"] = prev
            entry["hash"] = prev = entry_hash(entry)
            entry["sig"] = entry_sig(entry["hash"], station_key(7))
        report = verify_chain(log.entries, 7)
        assert [
            (v["index"], v["check"]) for v in report["violations"]
        ] == [(2, check)]


class TestAuditFile:
    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        log = build_log(path=path)
        log.close(10.0)
        loaded = load_audit_file(path)
        assert loaded["header"]["seed"] == 7
        assert not loaded["torn_tail"]
        report = verify_audit_file(path)
        assert report["ok"] and report["complete"]

    def test_torn_tail_dropped_not_tampered(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        log = build_log(path=path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 5, "t": 5.0, "topic": "gs/al')  # killed mid-line
        report = verify_audit_file(path, require_close=False)
        assert report["torn_tail"]
        assert report["ok"] and not report["complete"]
        assert report["entries"] == len(log.entries)

    def test_mid_file_garbage_is_an_error(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        build_log(path=path).close(10.0)
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[3] = "not json"
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unparseable"):
            verify_audit_file(path)

    def test_header_seed_edit_detected(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        build_log(path=path).close(10.0)
        lines = open(path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        header["seed"] = 999  # genesis no longer matches
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        report = verify_audit_file(path)
        assert not report["ok"]
        checks = {v["check"] for v in report["violations"]}
        assert "chain" in checks

    def test_evidence_packaging(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        build_log(path=path).close(10.0)
        evidence = evidence_from_report(verify_audit_file(path))
        assert evidence.key == "gs.audit_chain"
        assert evidence.kind == "analysis"
        assert evidence.data["ok"] and evidence.data["complete"]
        assert evidence.data["violations"] == 0


class TestTamperSelftest:
    def test_all_mutations_detected_and_localised(self):
        report = run_audit_selftest()
        assert report["ok"]
        assert report["detected"] == report["mutations"] == len(MUTATIONS)
        for result in report["results"]:
            assert result["ok"], result

    def test_selftest_covers_required_mutations(self):
        names = {name for name, _, _, _ in MUTATIONS}
        assert {
            "bit_flip_payload", "drop_link", "reorder", "truncate_tail",
            "resign_wrong_key", "splice", "counter_rollback",
            "duplicate_entry",
        } <= names
        assert len(MUTATIONS) >= 8

    @pytest.mark.parametrize(
        "name", [name for name, _, _, _ in MUTATIONS]
    )
    def test_each_mutation_individually(self, name):
        report = run_audit_selftest()
        result = next(r for r in report["results"] if r["mutation"] == name)
        assert result["ok"]
        first = result["first_violation"]
        assert first["check"] == result["expected"]["check"]
        assert first["index"] == result["expected"]["index"]
