"""Every artefact reader returns what was written, or raises InputError.

Each reader is fed three kinds of input: the bytes of a valid artefact
(which must read back unchanged), arbitrary bytes and arbitrary JSON
values, and a valid artefact with one field replaced by a future version
or a value of the wrong type.  Whatever the input, the reader returns or
raises :class:`~repro.inputs.InputError` — never any other exception, so
the CLI can refuse it with exit 2 instead of a traceback.  What the status
and audit readers return is also handed to the code the CLI runs next
(``render_status``, ``verify_chain``), which must not fail on it either.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

from hypothesis import given, strategies as st

from repro.fuzz.corpus import Corpus
from repro.faults.spec import load_fault_schedule
from repro.groundstation.audit import load_audit_file, verify_audit_file
from repro.inputs import InputError
from repro.runner.monitor import progress_line, read_status, render_status
from repro.runner.spec import RunSpec, load_sweep_spec
from repro.telemetry.writer import read_trace

from tests.strategies import (
    audit_lines,
    corpus_files,
    fault_schedule_mapping,
    fault_schedules,
    json_values,
    one_field_replaced,
    one_record_replaced,
    run_specs,
    status_snapshots,
    sweep_specs,
    trace_records,
)

#: arbitrary file contents: raw bytes, and text that is at least UTF-8
file_bytes = st.binary(max_size=64) | st.text(max_size=64).map(str.encode)

#: an arbitrary JSON document, as file contents
json_files = json_values.map(lambda value: json.dumps(value).encode())

#: the suffixes that select the TOML or the JSON parser
spec_suffixes = st.sampled_from((".toml", ".json"))


def _jsonl(records) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _read(reader, name, data: bytes):
    """``reader(path)`` on a file holding ``data``; None if refused."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        try:
            return reader(str(path))
        except InputError:
            return None


def _read_status(data: bytes):
    """``read_status`` on ``data``; what it returns must render."""
    status = _read(read_status, "status.json", data)
    if status is not None:
        render_status(status)
        progress_line(status)
    return status


def _load_corpus(files: dict):
    """``Corpus.load`` on a directory holding ``{name: bytes}``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        try:
            return Corpus(tmp).load()
        except InputError:
            return None


def _corpus_bytes(files: dict) -> dict:
    return {
        name: _jsonl(content) if name.endswith(".jsonl")
        else json.dumps(content).encode()
        for name, content in files.items()
    }


def _from_dict(data):
    try:
        return RunSpec.from_dict(data)
    except InputError:
        return None


class TestTraceReader:
    @given(records=trace_records())
    def test_valid_trace_round_trips(self, records):
        assert _read(read_trace, "t.jsonl", _jsonl(records)) == records

    @given(data=file_bytes | json_files)
    def test_arbitrary_input_is_read_or_refused(self, data):
        _read(read_trace, "t.jsonl", data)

    @given(records=trace_records().flatmap(
        lambda r: one_record_replaced(r, "v")))
    def test_replaced_field_is_read_or_refused(self, records):
        _read(read_trace, "t.jsonl", _jsonl(records))

    @given(records=trace_records(),
           version=st.integers().filter(lambda v: v != 1))
    def test_other_record_version_is_refused(self, records, version):
        records[-1]["v"] = version
        assert _read(read_trace, "t.jsonl", _jsonl(records)) is None


class TestStatusReader:
    @given(status=status_snapshots())
    def test_valid_status_round_trips(self, status):
        assert _read_status(json.dumps(status).encode()) == status

    @given(data=file_bytes | json_files)
    def test_arbitrary_input_is_read_or_refused(self, data):
        _read_status(data)

    @given(status=status_snapshots().flatmap(
        lambda s: one_field_replaced(s, "schema")))
    def test_replaced_field_is_read_or_refused(self, status):
        _read_status(json.dumps(status).encode())


class TestCorpusLoader:
    @given(files=corpus_files())
    def test_valid_corpus_round_trips(self, files):
        corpus = _load_corpus(_corpus_bytes(files))
        assert corpus.state == files["state.json"]
        assert corpus.coverage.to_dict() == files["coverage.json"]
        assert corpus.entries == files["corpus.jsonl"]

    @given(files=corpus_files(),
           name=st.sampled_from(("state.json", "coverage.json",
                                 "corpus.jsonl")),
           data=file_bytes | json_files)
    def test_arbitrary_file_is_read_or_refused(self, files, name, data):
        _load_corpus({**_corpus_bytes(files), name: data})

    @given(files=corpus_files(), data=st.data())
    def test_replaced_field_is_read_or_refused(self, files, data):
        name = data.draw(st.sampled_from(sorted(files)))
        replace = (one_record_replaced if name.endswith(".jsonl")
                   else one_field_replaced)
        files[name] = data.draw(replace(files[name], "schema"))
        _load_corpus(_corpus_bytes(files))


class TestFaultScheduleLoader:
    @given(schedule=fault_schedules(min_size=0))
    def test_valid_schedule_round_trips(self, schedule):
        data = json.dumps(fault_schedule_mapping(schedule)).encode()
        assert _read(load_fault_schedule, "f.json", data) == schedule

    @given(data=file_bytes | json_files, suffix=spec_suffixes)
    def test_arbitrary_input_is_read_or_refused(self, data, suffix):
        _read(load_fault_schedule, "f" + suffix, data)

    @given(schedule=fault_schedules(), data=st.data())
    def test_replaced_field_is_read_or_refused(self, schedule, data):
        mapping = fault_schedule_mapping(schedule)
        if data.draw(st.booleans()):
            mapping["fault"] = data.draw(one_record_replaced(mapping["fault"]))
        else:
            mapping = data.draw(one_field_replaced(mapping))
        _read(load_fault_schedule, "f.json", json.dumps(mapping).encode())


class TestSweepSpecLoader:
    @given(spec=sweep_specs())
    def test_valid_spec_round_trips(self, spec):
        data = json.dumps(dataclasses.asdict(spec)).encode()
        assert _read(load_sweep_spec, "g.json", data) == spec

    @given(data=file_bytes | json_files, suffix=spec_suffixes)
    def test_arbitrary_input_is_read_or_refused(self, data, suffix):
        _read(load_sweep_spec, "g" + suffix, data)

    @given(mapping=sweep_specs().map(dataclasses.asdict).flatmap(
        one_field_replaced))
    def test_replaced_field_is_read_or_refused(self, mapping):
        _read(load_sweep_spec, "g.json", json.dumps(mapping).encode())


class TestAuditLoader:
    @given(lines=audit_lines())
    def test_valid_log_round_trips(self, lines):
        loaded = _read(load_audit_file, "a.jsonl", _jsonl(lines))
        assert loaded == {"header": lines[0], "entries": lines[1:],
                          "torn_tail": False}

    @given(data=file_bytes | json_files)
    def test_arbitrary_input_is_read_or_refused(self, data):
        _read(verify_audit_file, "a.jsonl", data)

    @given(lines=audit_lines().flatmap(
        lambda lines: one_record_replaced(lines, "audit")))
    def test_replaced_field_is_read_or_refused(self, lines):
        # verify_audit_file runs verify_chain on what load_audit_file reads
        _read(verify_audit_file, "a.jsonl", _jsonl(lines))


class TestRunSpecFromDict:
    @given(spec=run_specs())
    def test_valid_spec_round_trips(self, spec):
        assert _from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @given(data=json_values)
    def test_arbitrary_value_is_read_or_refused(self, data):
        _from_dict(data)

    @given(data=run_specs().map(RunSpec.to_dict).flatmap(one_field_replaced))
    def test_replaced_field_is_read_or_refused(self, data):
        _from_dict(data)
