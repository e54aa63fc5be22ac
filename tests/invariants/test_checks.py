"""Unit tests for each registered invariant, on synthetic record streams.

Each test hand-builds the minimal stream that satisfies or breaks one
contract, so a failure here names the exact invariant and clause that
regressed.  End-to-end behaviour on real traces is covered by
``test_engine.py`` / ``test_oracle.py`` and the mutation self-test.
"""

import pytest

from repro.invariants.clock import MonotoneClockInvariant, RecordIndexInvariant
from repro.invariants.crypto import (
    NonceSequenceInvariant,
    ReplayWindowInvariant,
)
from repro.invariants.engine import InvariantEngine
from repro.invariants.frames import (
    DropTaxonomyInvariant,
    FrameCausalityInvariant,
)
from repro.invariants.ids import AlertAttributionInvariant
from repro.invariants.modes import (
    ModeTransitionInvariant,
    RtoOrderingInvariant,
)


def rec(rtype, t=0.0, i=0, **fields):
    return {"type": rtype, "t": t, "i": i, **fields}


def seal(seq, t=0.0, node="harvester", peer="forwarder", profile="aead"):
    return rec("record.seal", t=t, node=node, peer=peer, seq=seq,
               profile=profile)


def opened(seq, t=0.0, node="forwarder", peer="harvester", profile="aead"):
    return rec("record.open", t=t, node=node, peer=peer, seq=seq,
               profile=profile)


def check(invariant, records):
    return InvariantEngine([invariant]).check(records)


class TestNonceSequence:
    def test_contiguous_stream_is_clean(self):
        assert check(NonceSequenceInvariant(), [seal(s) for s in (1, 2, 3)]) == []

    def test_gap_is_a_skipped_nonce(self):
        found = check(NonceSequenceInvariant(), [seal(1), seal(2), seal(4)])
        assert len(found) == 1
        assert found[0].invariant == "crypto.nonce_sequence"
        assert "skipped nonce" in found[0].message
        assert found[0].context["expected"] == 3

    def test_regression_is_nonce_reuse(self):
        found = check(NonceSequenceInvariant(), [seal(1), seal(2), seal(2)])
        assert len(found) == 1
        assert "nonce reuse" in found[0].message

    def test_seq_one_starts_a_fresh_epoch(self):
        # rejoin re-handshake: the restart is legal, not a regression
        found = check(NonceSequenceInvariant(),
                      [seal(1), seal(2), seal(1), seal(2)])
        assert found == []

    def test_plaintext_records_carry_no_nonce(self):
        stream = [seal(1, profile="plaintext"), seal(5, profile="plaintext")]
        assert check(NonceSequenceInvariant(), stream) == []

    def test_directions_are_independent(self):
        stream = [
            seal(1, node="a", peer="b"), seal(1, node="b", peer="a"),
            seal(2, node="a", peer="b"), seal(2, node="b", peer="a"),
        ]
        assert check(NonceSequenceInvariant(), stream) == []


class TestReplayWindow:
    def test_unique_sequence_is_clean(self):
        assert check(ReplayWindowInvariant(),
                     [opened(s) for s in (1, 2, 3, 5)]) == []

    def test_duplicate_open_is_a_replay(self):
        found = check(ReplayWindowInvariant(),
                      [opened(2), opened(3), opened(2)])
        assert len(found) == 1
        assert found[0].invariant == "crypto.replay_window"
        assert "replayed record" in found[0].message
        assert found[0].context["seq"] == 2

    def test_below_window_acceptance_is_flagged(self):
        inv = ReplayWindowInvariant(window=8)
        found = check(inv, [opened(100), opened(50)])
        assert len(found) == 1
        assert "below the replay window" in found[0].message

    def test_open_seq_one_resets_the_epoch(self):
        stream = [opened(2), opened(3), opened(1), opened(2), opened(3)]
        assert check(ReplayWindowInvariant(), stream) == []

    def test_reverse_seal_restart_resets_the_opener(self):
        # the rejoin's first sealed record may be lost in transit; the
        # seal restart alone must clear the opener-side replay state
        stream = [
            seal(1, node="harvester", peer="forwarder"),
            opened(1, node="forwarder", peer="harvester"),
            opened(2, node="forwarder", peer="harvester"),
            seal(1, node="harvester", peer="forwarder"),  # rejoin
            opened(2, node="forwarder", peer="harvester"),  # fresh epoch
        ]
        assert check(ReplayWindowInvariant(), stream) == []

    def test_plaintext_direction_is_exempt(self):
        stream = [
            seal(1, node="harvester", peer="forwarder", profile="plaintext"),
            opened(7, node="forwarder", peer="harvester", profile="plaintext"),
            opened(7, node="forwarder", peer="harvester", profile="plaintext"),
        ]
        assert check(ReplayWindowInvariant(), stream) == []


def tx(seq=1, src="harvester", dst="forwarder", t=0.0):
    return rec("frame.tx", t=t, src=src, dst=dst, seq=seq)


def delivered(seq=1, src="harvester", dst="forwarder", t=0.0):
    return rec("frame.delivered", t=t, src=src, dst=dst, seq=seq)


def rx(seq=1, src="harvester", node="forwarder", t=0.0):
    return rec("frame.rx", t=t, src=src, node=node, seq=seq)


def drop(cause, seq=1, src="harvester", dst="forwarder", t=0.0):
    return rec("frame.drop", t=t, src=src, dst=dst, seq=seq, cause=cause)


class TestFrameCausality:
    def test_nominal_lifecycle_is_clean(self):
        assert check(FrameCausalityInvariant(),
                     [tx(), delivered(), rx()]) == []

    def test_delivery_without_tx_is_forged(self):
        found = check(FrameCausalityInvariant(), [delivered()])
        assert len(found) == 1
        assert found[0].invariant == "frames.causality"
        assert "forged frame" in found[0].message

    def test_double_verdict_breaks_conservation(self):
        found = check(FrameCausalityInvariant(),
                      [tx(), delivered(), delivered()])
        assert len(found) == 1
        assert "conservation" in found[0].message
        assert found[0].context["verdicts"] == 2

    def test_retransmission_permits_a_second_verdict(self):
        stream = [tx(), drop("link_budget"), tx(), delivered(), rx()]
        assert check(FrameCausalityInvariant(), stream) == []

    def test_rx_without_delivery(self):
        found = check(FrameCausalityInvariant(), [tx(), rx()])
        assert len(found) == 1
        assert "without delivery" in found[0].message

    def test_unassociated_tx_never_aired(self):
        # this drop names a frame that never reached the medium: exempt
        assert check(FrameCausalityInvariant(),
                     [drop("unassociated_tx")]) == []

    def test_link_drop_of_unknown_frame(self):
        found = check(FrameCausalityInvariant(), [drop("duplicate")])
        assert len(found) == 1
        assert "never-transmitted" in found[0].message


class TestDropTaxonomy:
    def test_declared_causes_pass(self):
        stream = [drop("link_budget"), drop("duplicate"),
                  rec("record.drop", cause="decode_error")]
        assert check(DropTaxonomyInvariant(), stream) == []

    def test_unknown_cause_is_flagged(self):
        found = check(DropTaxonomyInvariant(), [drop("gremlins")])
        assert len(found) == 1
        assert found[0].invariant == "frames.drop_taxonomy"
        assert found[0].context["cause"] == "gremlins"


def transition(prev, mode, machine="harvester", t=0.0, **fields):
    return rec("mode.transition", t=t, machine=machine, prev=prev,
               mode=mode, **fields)


class TestModeTransitions:
    def test_legal_cycle_is_clean(self):
        stream = [
            transition("nominal", "degraded"),
            transition("degraded", "safe_stop"),
            transition("safe_stop", "recovering"),
            transition("recovering", "nominal"),
        ]
        assert check(ModeTransitionInvariant(), stream) == []

    def test_illegal_jump_is_flagged(self):
        found = check(ModeTransitionInvariant(),
                      [transition("nominal", "degraded"),
                       transition("degraded", "nominal")])
        assert len(found) == 1
        assert found[0].invariant == "modes.transition_legality"
        assert "illegal mode jump" in found[0].message

    def test_broken_chain_is_flagged(self):
        # record claims prev=degraded but the machine was never degraded
        found = check(ModeTransitionInvariant(),
                      [transition("degraded", "safe_stop")])
        assert len(found) == 1
        assert "chain broken" in found[0].message

    def test_machines_are_tracked_independently(self):
        stream = [
            transition("nominal", "degraded", machine="a"),
            transition("nominal", "safe_stop", machine="b"),
        ]
        assert check(ModeTransitionInvariant(), stream) == []

    def test_negative_latency_is_flagged(self):
        found = check(ModeTransitionInvariant(),
                      [transition("nominal", "safe_stop", latency_s=-0.5)])
        assert len(found) == 1
        assert "latency is negative" in found[0].message


def service_down(machine="harvester", service="positioning", t=0.0):
    return rec("service.down", t=t, machine=machine, service=service)


def service_up(machine="harvester", service="positioning", t=0.0):
    return rec("service.up", t=t, machine=machine, service=service)


def rto_stop(machine="harvester", service="positioning", t=10.0):
    return transition("degraded", "safe_stop", machine=machine, t=t,
                      reason=f"{service}:rto_exceeded")


class TestRtoOrdering:
    def test_escalation_during_open_outage_is_clean(self):
        stream = [service_down(t=5.0), rto_stop(t=10.0)]
        assert check(RtoOrderingInvariant(), stream) == []

    def test_escalation_without_outage(self):
        found = check(RtoOrderingInvariant(), [rto_stop(t=10.0)])
        assert len(found) == 1
        assert found[0].invariant == "modes.rto_ordering"
        assert "no open outage" in found[0].message

    def test_escalation_after_recovery(self):
        stream = [service_down(t=5.0), service_up(t=8.0), rto_stop(t=10.0)]
        found = check(RtoOrderingInvariant(), stream)
        assert len(found) == 1

    def test_escalation_before_outage_start(self):
        stream = [service_down(t=10.0), rto_stop(t=10.0)]
        found = check(RtoOrderingInvariant(), stream)
        assert len(found) == 1
        assert "only began" in found[0].message

    def test_non_rto_safe_stop_is_ignored(self):
        stream = [transition("nominal", "safe_stop", reason="operator")]
        assert check(RtoOrderingInvariant(), stream) == []


class TestClockAndIndex:
    def test_monotone_time_is_clean(self):
        stream = [rec("mission.phase", t=t) for t in (0.0, 1.0, 1.0, 2.5)]
        assert check(MonotoneClockInvariant(), stream) == []

    def test_time_regression_is_flagged(self):
        stream = [rec("mission.phase", t=5.0), rec("mission.phase", t=4.0)]
        found = check(MonotoneClockInvariant(), stream)
        assert len(found) == 1
        assert found[0].invariant == "clock.monotonic"
        assert found[0].context["previous_t"] == 5.0

    def test_contiguous_indices_are_clean(self):
        stream = [rec("mission.phase", i=i) for i in (0, 1, 2)]
        assert check(RecordIndexInvariant(), stream) == []

    @pytest.mark.parametrize("indices", [(0, 2), (0, 1, 1), (3, 2)])
    def test_gap_repeat_or_regression_is_flagged(self, indices):
        stream = [rec("mission.phase", i=i) for i in indices]
        found = check(RecordIndexInvariant(), stream)
        assert len(found) == 1
        assert found[0].invariant == "clock.record_index"


def alert(t, in_window, latency_s=None, window=None, detector="signature"):
    fields = {"detector": detector, "alert_type": "deauth_flood",
              "in_window": in_window}
    if latency_s is not None:
        fields["latency_s"] = latency_s
    if window is not None:
        fields["window"] = window
    return rec("ids.alert", t=t, **fields)


def attack_window(start, stop, attack="jam-1", attack_type="rf_jamming"):
    return [
        rec("attack.start", t=start, attack=attack, attack_type=attack_type),
        rec("attack.stop", t=stop, attack=attack, attack_type=attack_type),
    ]


class TestAlertAttribution:
    def test_consistent_in_window_alert_is_clean(self):
        start, stop = attack_window(10.0, 40.0)
        stream = [start, alert(25.0, True, latency_s=15.0,
                               window="rf_jamming"), stop]
        assert check(AlertAttributionInvariant(), stream) == []

    def test_orphan_in_window_alert(self):
        found = check(AlertAttributionInvariant(),
                      [alert(25.0, True, latency_s=15.0)])
        assert len(found) == 1
        assert found[0].invariant == "ids.alert_attribution"
        assert "no attack window" in found[0].message

    def test_false_alarm_during_open_window(self):
        start, stop = attack_window(10.0, 40.0)
        found = check(AlertAttributionInvariant(),
                      [start, alert(25.0, False), stop])
        assert len(found) == 1
        assert "marked as false" in found[0].message

    def test_wrong_latency_is_flagged(self):
        start, stop = attack_window(10.0, 40.0)
        found = check(AlertAttributionInvariant(),
                      [start, alert(25.0, True, latency_s=3.0,
                                    window="rf_jamming"), stop])
        assert len(found) == 1
        assert "does not match window" in found[0].message

    def test_grace_period_extends_the_window(self):
        start, stop = attack_window(10.0, 40.0)
        stream = [start, stop,
                  alert(60.0, True, latency_s=50.0, window="rf_jamming")]
        assert check(AlertAttributionInvariant(), stream) == []

    def test_false_alarm_outside_any_window_is_clean(self):
        start, stop = attack_window(10.0, 40.0)
        stream = [start, stop, alert(200.0, False)]
        assert check(AlertAttributionInvariant(), stream) == []
