"""Service-layer unit tests: backoff, framing, messages, leases,
journal fencing and offline verification — everything below the socket
layer, so these run without real network timing."""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.sfi.campaign import CampaignConfig, InjectionPlan, partition_plan
from repro.sfi.service.backoff import backoff_delay
from repro.sfi.service.leases import LeaseLog, LeaseManager
from repro.sfi.service.messages import (
    HeartbeatMessage,
    HelloMessage,
    LeaseMessage,
    RecordMessage,
    ShardDoneMessage,
    WelcomeMessage,
    config_from_dict,
    config_to_dict,
    decode_message,
    plan_item_from_dict,
    plan_item_to_dict,
)
from repro.sfi.service.wire import (
    FrameError,
    FrameReader,
    encode_frame,
    recv_message,
    send_message,
)
from repro.sfi.storage import (
    CampaignJournal,
    FencedAppendError,
    verify_journal,
)

from tests.conftest import SMALL_PARAMS


def _plan(n: int) -> list[InjectionPlan]:
    return [InjectionPlan(position=i, site_index=100 + i,
                          testcase_index=i % 2, occurrence=0)
            for i in range(n)]


class TestBackoff:
    def test_exponential_envelope_and_cap(self):
        raws = [backoff_delay(1.0, attempt, cap=8.0, seed=1)
                for attempt in range(1, 8)]
        # jitter keeps every delay within [0.5, 1.0) of the raw value
        for attempt, delay in enumerate(raws, start=1):
            raw = min(8.0, 1.0 * 2 ** (attempt - 1))
            assert 0.5 * raw <= delay < raw

    def test_deterministic_per_key(self):
        a = backoff_delay(0.25, 3, seed=7, stream=2)
        b = backoff_delay(0.25, 3, seed=7, stream=2)
        assert a == b
        assert backoff_delay(0.25, 3, seed=7, stream=3) != a
        assert backoff_delay(0.25, 4, seed=7, stream=2) != a

    def test_zero_base_disables(self):
        assert backoff_delay(0.0, 5, seed=1) == 0.0

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            backoff_delay(1.0, 0)


class TestWire:
    def test_frame_reader_roundtrip_and_partial_feeds(self):
        frames = [encode_frame({"type": "a", "n": i}) for i in range(3)]
        blob = b"".join(frames)
        reader = FrameReader()
        out = []
        # Feed one byte at a time: partial frames must resume cleanly.
        for i in range(0, len(blob), 1):
            out.extend(reader.feed(blob[i:i + 1]))
        assert [m["n"] for m in out] == [0, 1, 2]
        assert reader.pending_bytes == 0

    def test_oversized_frame_rejected(self):
        reader = FrameReader()
        with pytest.raises(FrameError):
            reader.feed(b"\x7f\xff\xff\xff")

    def test_socket_roundtrip_eof_and_torn_frame(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"type": "heartbeat", "token": 3})
            assert recv_message(b)["token"] == 3
            # torn frame: half a header then close
            a.sendall(b"\x00\x00")
            a.close()
            with pytest.raises(FrameError):
                recv_message(b)
        finally:
            b.close()
        # clean EOF at a frame boundary is None, not an error
        a, b = socket.socketpair()
        a.close()
        assert recv_message(b) is None
        b.close()

    def test_non_object_frame_rejected(self):
        reader = FrameReader()
        bad = struct.pack(">I", 7) + b"[1,2,3]"
        with pytest.raises(FrameError):
            reader.feed(bad)


class TestMessages:
    def test_roundtrip_through_wire_dict(self):
        for message in (HelloMessage(worker="w1"),
                        HeartbeatMessage(token=9),
                        RecordMessage(token=2, pos=5, record={"x": 1}),
                        ShardDoneMessage(token=2, population=100),
                        WelcomeMessage(config={"k": 1}),
                        LeaseMessage(token=4, shard_id=1, seed=7,
                                     items=[{"position": 0}])):
            again = decode_message(json.loads(
                json.dumps(message.to_wire())))
            assert again == message

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            decode_message({"type": "warp"})

    def test_unknown_fields_ignored(self):
        msg = decode_message({"type": "heartbeat", "token": 1,
                              "future_field": True})
        assert msg == HeartbeatMessage(token=1)

    def test_plan_item_roundtrip(self):
        item = InjectionPlan(position=3, site_index=44, testcase_index=1,
                             occurrence=2)
        assert plan_item_from_dict(plan_item_to_dict(item)) == item

    def test_config_roundtrip_preserves_equality(self):
        config = CampaignConfig(suite_size=2, suite_seed=99,
                                core_params=SMALL_PARAMS)
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(payload) == config

    def test_config_roundtrip_nondefault_fields(self):
        from repro.rtl.fault import InjectionMode
        from repro.sfi.classify import ClassifyOptions
        config = CampaignConfig(
            suite_size=3, injection_mode=InjectionMode.STICKY,
            checker_mask=0, fastpath=False,
            classify_options=ClassifyOptions(latent_as_vanished=True),
            core_params=SMALL_PARAMS)
        payload = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(payload) == config

    def test_config_from_older_payload_drops_removed_fields(self):
        """A coordinator or queued spec from an older build still sends
        fields this build removed (``wave_window``, ``digest_stride``,
        ``ladder_max_rungs``); they are dropped."""
        config = CampaignConfig(suite_size=2, backend="bitplane",
                                core_params=SMALL_PARAMS)
        payload = json.loads(json.dumps(config_to_dict(config)))
        payload["wave_window"] = None
        payload["digest_stride"] = 16
        payload["ladder_max_rungs"] = 256
        assert config_from_dict(payload) == config


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestLeaseManager:
    def test_tokens_monotonic_across_grants(self):
        mgr = LeaseManager(_plan(8), seed=1, lease_items=2)
        tokens = [mgr.grant(f"w{i}").token for i in range(4)]
        assert tokens == sorted(tokens) == list(set(tokens))

    def test_partitioning_matches_partition_plan(self):
        plan = _plan(10)
        mgr = LeaseManager(plan, seed=1, lease_items=4)
        shards = [lease.items for lease in mgr.queued]
        assert shards == partition_plan(plan, 3)

    def test_stale_token_is_fenced_after_reclaim(self):
        mgr = LeaseManager(_plan(4), seed=1, lease_items=4,
                           backoff_base=0.0)
        lease = mgr.grant("w1")
        old = lease.token
        mgr.reclaim(old, "partition")
        assert mgr.accept(old, 0) is None
        assert mgr.fenced == 1
        # the re-issued lease accepts the same position normally
        again = mgr.grant("w2")
        assert again.token > old
        assert mgr.accept(again.token, 0) is again

    def test_duplicate_and_alien_positions_fenced(self):
        mgr = LeaseManager(_plan(4), seed=1, lease_items=2)
        lease = mgr.grant("w1")
        assert mgr.accept(lease.token, 0) is lease
        assert mgr.accept(lease.token, 0) is None      # duplicate
        assert mgr.accept(lease.token, 3) is None      # other shard's
        assert mgr.fenced == 2

    def test_complete_with_missing_records_requeues(self):
        mgr = LeaseManager(_plan(4), seed=1, lease_items=4,
                           backoff_base=0.0)
        lease = mgr.grant("w1")
        mgr.accept(lease.token, 0)
        mgr.complete(lease.token)  # 3 records never arrived
        assert mgr.outstanding()
        again = mgr.grant("w2")
        assert [item.position for item in again.remaining()] == [1, 2, 3]

    def test_retries_then_split_then_poison(self):
        clock = FakeClock()
        mgr = LeaseManager(_plan(2), seed=1, lease_items=2, max_retries=1,
                           backoff_base=0.0, clock=clock)
        lease = mgr.grant("w1")
        mgr.reclaim(lease.token, "boom")           # attempt 1: requeued
        lease = mgr.grant("w1")
        mgr.reclaim(lease.token, "boom")           # attempt 2: split
        assert len(mgr.queued) == 2
        for _ in range(2 * (1 + 1)):               # fail every half out
            lease = mgr.grant("w1")
            if lease is None:
                break
            mgr.reclaim(lease.token, "boom")
        assert sorted(item.position for item in mgr.poisoned) == [0, 1]
        assert mgr.reissues >= 4

    def test_requeue_reports_branch_and_delay(self):
        clock = FakeClock()
        requeues, revoked = [], []
        mgr = LeaseManager(_plan(2), seed=1, lease_items=2, max_retries=1,
                           backoff_base=2.0, clock=clock,
                           fence=revoked.append,
                           on_requeue=requeues.append)
        lease = mgr.grant("w1")
        first = lease.token
        mgr.reclaim(first, "lost")
        assert revoked == [first]                  # fenced before requeue
        (retry,) = requeues
        expected = backoff_delay(2.0, 1, seed=1, stream=lease.shard_id)
        assert (retry.action, retry.shard_id, retry.attempt, retry.reason,
                retry.items, retry.delay) == \
            ("retry", lease.shard_id, 1, "lost", 2, expected)
        assert lease.not_before == clock.now + expected
        clock.now += expected
        again = mgr.grant("w1")
        mgr.reclaim(again.token, "lost again")
        assert requeues[-1].action == "split"
        assert (requeues[-1].attempt, requeues[-1].items,
                requeues[-1].delay) == (2, 2, 0.0)
        halves = [mgr.grant("w1"), mgr.grant("w2")]
        for half in halves:
            mgr.reclaim(half.token, "boom")
        assert [r.action for r in requeues[-2:]] == ["retry", "retry"]
        clock.now += 10.0
        for _ in halves:
            mgr.reclaim(mgr.grant("w1").token, "boom")
        assert [(r.action, r.items) for r in requeues[-2:]] == \
            [("poison", 1), ("poison", 1)]
        assert revoked == sorted(revoked) and len(revoked) == 6

    def test_backoff_delays_regrant_until_clock_advances(self):
        clock = FakeClock()
        mgr = LeaseManager(_plan(2), seed=1, lease_items=2,
                           backoff_base=5.0, clock=clock)
        lease = mgr.grant("w1")
        mgr.reclaim(lease.token, "slow")
        assert mgr.grant("w1") is None             # still backing off
        assert mgr.next_ready_at() > clock.now
        clock.now += 10.0
        assert mgr.grant("w1") is not None

    def test_drain_returns_everything_unaccepted_sorted(self):
        mgr = LeaseManager(_plan(6), seed=1, lease_items=2)
        first = mgr.grant("w1")
        mgr.accept(first.token, first.items[0].position)
        drained = mgr.drain()
        assert [item.position for item in drained] == [1, 2, 3, 4, 5]
        assert not mgr.outstanding()

    def test_lease_log_records_lifecycle(self, tmp_path):
        log = LeaseLog(tmp_path / "x.leases")
        mgr = LeaseManager(_plan(2), seed=1, lease_items=2, log=log)
        lease = mgr.grant("w1")
        mgr.accept(lease.token, 0)
        mgr.reclaim(lease.token, "lost")
        log.close()
        events = [json.loads(line)["event"]
                  for line in (tmp_path / "x.leases").read_text()
                  .splitlines()]
        assert events == ["session", "grant", "reclaim"]


def _make_journal(path, n=3):
    journal = CampaignJournal.create(path, seed=11, total_sites=n)
    return journal


def _fake_record():
    from repro.rtl.latch import LatchKind
    from repro.sfi.outcomes import Outcome
    from repro.sfi.results import InjectionRecord
    return InjectionRecord(
        site_index=1, site_name="iu.r0.b1", unit="iu",
        kind=LatchKind.FUNC, ring="ring-iu", testcase_seed=5,
        inject_cycle=9, outcome=Outcome.VANISHED, trace=())


class TestJournalFencing:
    def test_revoked_token_append_rejected(self, tmp_path):
        path = tmp_path / "j.journal"
        journal = _make_journal(path)
        record = _fake_record()
        journal.append(0, record, fence=1)
        journal.raise_fence(2)
        with pytest.raises(FencedAppendError):
            journal.append(1, record, fence=2)
        # other live tokens and fence-less appends are unaffected
        journal.append(1, record, fence=3)
        journal.append(2, record)
        journal.close()
        body = path.read_text().splitlines()[1:]
        assert [json.loads(line)["pos"] for line in body] == [0, 1, 2]
        # fencing metadata never reaches the record lines
        assert all("fence" not in json.loads(line) for line in body)

    def test_fence_is_not_retroactive(self, tmp_path):
        journal = _make_journal(tmp_path / "j.journal")
        journal.append(0, _fake_record(), fence=5)
        journal.raise_fence(5)  # too late by design: already durable
        journal.close()


class TestVerifyJournal:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def _good_lines(self, n=3):
        from repro.sfi.storage import _record_to_dict
        header = {"format": 1, "kind": "sfi-journal", "seed": 11,
                  "total_sites": n, "population_bits": 0}
        record = _record_to_dict(_fake_record())
        return [json.dumps(header)] + [
            json.dumps({"pos": i, "record": record}) for i in range(n)]

    def test_clean_journal_ok(self, tmp_path):
        path = tmp_path / "a.journal"
        self._write(path, self._good_lines())
        report = verify_journal(path)
        assert report.ok and report.records == 3 and not report.issues

    def test_torn_tail_flagged_but_separate(self, tmp_path):
        path = tmp_path / "a.journal"
        lines = self._good_lines()
        self._write(path, lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
        report = verify_journal(path)
        assert report.torn_tail and not report.issues and not report.ok

    def test_duplicate_position_reported_with_site(self, tmp_path):
        path = tmp_path / "a.journal"
        lines = self._good_lines()
        self._write(path, lines + [lines[1]])
        report = verify_journal(path)
        assert not report.ok
        assert any("duplicate" in issue and "iu.r0.b1" in issue
                   for issue in report.issues)

    def test_position_out_of_range(self, tmp_path):
        from repro.sfi.storage import _record_to_dict
        path = tmp_path / "a.journal"
        lines = self._good_lines(2)
        lines.append(json.dumps(
            {"pos": 99, "record": _record_to_dict(_fake_record())}))
        lines.append(lines[1])  # keep the bad line interior
        self._write(path, lines)
        report = verify_journal(path)
        assert any("outside plan range" in issue for issue in report.issues)

    def test_interior_garbage_is_corruption(self, tmp_path):
        path = tmp_path / "a.journal"
        lines = self._good_lines()
        lines.insert(2, "{not json")
        self._write(path, lines)
        report = verify_journal(path)
        assert any("malformed JSON" in issue for issue in report.issues)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "a.journal"
        self._write(path, [json.dumps({"format": 99})])
        assert not verify_journal(path).ok

    def test_lease_token_regression_flagged(self, tmp_path):
        path = tmp_path / "a.journal"
        self._write(path, self._good_lines())
        lease_path = tmp_path / "a.journal.leases"
        self._write(lease_path, [
            json.dumps({"event": "session"}),
            json.dumps({"event": "grant", "token": 1}),
            json.dumps({"event": "grant", "token": 3}),
            json.dumps({"event": "grant", "token": 2}),
        ])
        report = verify_journal(path)
        assert any("fencing-token regression" in issue
                   for issue in report.issues)

    def test_new_session_resets_token_watermark(self, tmp_path):
        path = tmp_path / "a.journal"
        self._write(path, self._good_lines())
        lease_path = tmp_path / "a.journal.leases"
        self._write(lease_path, [
            json.dumps({"event": "session"}),
            json.dumps({"event": "grant", "token": 5}),
            json.dumps({"event": "session"}),
            json.dumps({"event": "grant", "token": 1}),
        ])
        report = verify_journal(path)
        assert report.ok and report.lease_events == 4
