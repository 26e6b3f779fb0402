"""Campaign persistence.

Real injection campaigns run for hours and accumulate across sessions;
results are stored as JSON-lines journals (one header line, then one
line per record with the full cause-and-effect trace) so later analysis
and re-scoring need no re-simulation.

A journal (:class:`CampaignJournal`) is appended one record at a time
*while* the campaign runs.  A crash can leave a torn final line, so
every reader (:func:`read_journal`, :meth:`CampaignJournal.recover`)
tolerates exactly that (and nothing else): the fragment is skipped with
a warning and its injection re-runs on resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.cpu.events import EventKind, MachineEvent
from repro.rtl.latch import LatchKind

from repro.sfi.outcomes import Outcome
from repro.sfi.results import InjectionRecord

_JOURNAL_FORMAT_VERSION = 1
_JOURNAL_KIND = "sfi-journal"

# fsync the journal every N appended records (and at close); each record
# is flushed to the OS immediately, this only bounds data loss on power
# failure without paying a sync per injection.
_JOURNAL_SYNC_EVERY = 64


class CampaignStorageError(ValueError):
    """A campaign file is missing, malformed, truncated or from an
    unsupported format version."""


class FencedAppendError(CampaignStorageError):
    """An append carried a revoked fencing token.

    Raised when a record arrives under a lease issue that the
    coordinator has already reclaimed — the classic stale-writer-after-
    partition race.  The record is rejected *before* it reaches the
    file, so the journal never double-counts an injection.
    """


def _record_to_dict(record: InjectionRecord) -> dict:
    return {
        "site_index": record.site_index,
        "site_name": record.site_name,
        "unit": record.unit,
        "kind": record.kind.value,
        "ring": record.ring,
        "testcase_seed": record.testcase_seed,
        "inject_cycle": record.inject_cycle,
        "outcome": record.outcome.value,
        "trace": [[event.cycle, event.kind.value, event.detail]
                  for event in record.trace],
    }


def _record_from_dict(payload: dict) -> InjectionRecord:
    try:
        return InjectionRecord(
            site_index=payload["site_index"],
            site_name=payload["site_name"],
            unit=payload["unit"],
            kind=LatchKind(payload["kind"]),
            ring=payload["ring"],
            testcase_seed=payload["testcase_seed"],
            inject_cycle=payload["inject_cycle"],
            outcome=Outcome(payload["outcome"]),
            trace=tuple(MachineEvent(cycle, EventKind(kind), detail)
                        for cycle, kind, detail in payload.get("trace", [])),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CampaignStorageError(
            f"campaign record is missing or has a bad field: {exc!r}") from exc


def _parse_line(path: Path, number: int, line: str, *, is_last: bool):
    """Parse one record line; a torn *final* line (crash mid-append) is
    skipped with a warning, anything else malformed is an error."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        if is_last:
            warnings.warn(
                f"{path}: skipping truncated trailing line {number} "
                f"(crash mid-write?)", RuntimeWarning, stacklevel=4)
            return None
        raise CampaignStorageError(
            f"{path}:{number}: malformed JSON line: {exc}") from exc


def _parse_journal(path: Path, decoder,
                   kind: str) -> tuple[dict, dict, list[str] | None]:
    """Read and decode the journal at ``path``: ``(header, covered,
    clean)``.

    ``covered`` maps campaign position -> decoded record for every
    complete line.  ``clean`` is None when the file needs no repair,
    else the text of a repaired copy: the header and those lines, each
    newline-terminated.  A torn final line is skipped with a warning; a
    missing file, a missing or foreign header, a malformed interior line
    or a line without ``pos`` and ``record`` raises
    :class:`CampaignStorageError`.
    """
    try:
        with path.open() as handle:
            lines = handle.readlines()
    except FileNotFoundError as exc:
        raise CampaignStorageError(f"{path}: no such journal") from exc
    if not lines or not lines[0].strip():
        raise CampaignStorageError(f"{path}: empty journal")
    header = _parse_line(path, 1, lines[0], is_last=len(lines) == 1)
    if (not isinstance(header, dict)
            or header.get("format") != _JOURNAL_FORMAT_VERSION
            or header.get("kind") != kind):
        raise CampaignStorageError(
            f"{path}: not a {kind} journal this build can read "
            f"(header {header!r})")
    decoder = decoder or _record_from_dict
    covered: dict[int, object] = {}
    kept = [lines[0]]
    body = [(number, line) for number, line in enumerate(lines[1:], 2)
            if line.strip()]
    for offset, (number, line) in enumerate(body):
        payload = _parse_line(path, number, line,
                              is_last=offset == len(body) - 1)
        if payload is None:
            continue
        if (not isinstance(payload, dict) or "pos" not in payload
                or "record" not in payload):
            raise CampaignStorageError(
                f"{path}:{number}: journal line missing pos/record")
        covered[payload["pos"]] = decoder(payload["record"])
        kept.append(line)
    kept = [line if line.endswith("\n") else line + "\n" for line in kept]
    return header, covered, None if kept == lines else kept


def read_journal(path: str | Path, record_decoder=None,
                 kind: str = _JOURNAL_KIND) -> tuple[dict, dict]:
    """Read a journal without reopening it for writing.

    Returns ``(header, covered)`` decoded exactly as
    :meth:`CampaignJournal.recover` decodes them, but never rewrites the
    file, drops no torn tail and opens no append handle — safe on a
    journal another process is still appending to (``repro-sfi trace
    --journal`` / ``monitor``).  A torn final line is simply skipped.
    """
    header, covered, _ = _parse_journal(Path(path), record_decoder, kind)
    return header, covered


# ----------------------------------------------------------------------
# Incremental consumption: byte-offset cursors for live tailing.
#
# `repro-sfi monitor` and the warehouse tailer both poll a journal that
# another process is appending to.  Re-reading the whole file per poll is
# O(records) per poll — quadratic over a campaign — so consumers keep a
# `JournalCursor` and ask only for what arrived since.  The cursor only
# ever advances over *newline-terminated* lines: a torn tail (a crash or
# an append caught mid-`write`) is left unconsumed and re-examined on the
# next poll, which is exactly the "verified tail" rule `verify_journal`
# enforces offline.  Readers never write the journal.


#: Tail-window length of :attr:`JournalCursor.check` — the checksum
#: covers the last ``min(offset, 64)`` consumed bytes.  64 bytes spans
#: at least the tail of the previous line, which is what distinguishes
#: "same journal, grown" from "rewritten journal that happens to be at
#: least as long" (shrink-then-grow between polls).
_CURSOR_CHECK_BYTES = 64


def _cursor_check(tail: bytes) -> str:
    """Checksum of the consumed tail window (empty tail -> '')."""
    if not tail:
        return ""
    return "sha256:" + hashlib.sha256(tail).hexdigest()[:16]


@dataclass
class JournalCursor:
    """Resumable read position in an append-only JSON-lines journal.

    ``offset`` counts bytes of complete (newline-terminated) lines
    already consumed, ``line`` counts those lines, and ``header`` caches
    the decoded header once line 1 has been consumed.  ``check`` is a
    checksum over the last :data:`_CURSOR_CHECK_BYTES` consumed bytes:
    a bare size comparison cannot see a journal that was rewritten
    shorter *and then grew past the cursor* between two polls, but the
    rewrite changes the bytes under the cursor, so the checksum does.
    The cursor is a plain value: persist it (e.g. the warehouse stores
    it per campaign) and resume scanning later, across processes.
    """

    offset: int = 0
    line: int = 0
    header: dict | None = None
    check: str = ""

    def to_dict(self) -> dict:
        return {"offset": self.offset, "line": self.line,
                "header": self.header, "check": self.check}

    @classmethod
    def from_dict(cls, payload: dict) -> "JournalCursor":
        return cls(offset=int(payload.get("offset", 0)),
                   line=int(payload.get("line", 0)),
                   header=payload.get("header"),
                   check=str(payload.get("check", "") or ""))


@dataclass
class JournalDelta:
    """What one :func:`scan_journal` poll produced.

    ``entries`` holds ``(line_number, payload)`` for every complete,
    well-formed JSON-object line (payload-level ``pos``/``record``
    validation is the caller's job — the monitor and the warehouse skip
    different subsets).  ``skipped`` lists line numbers of complete lines
    that failed to decode — interior corruption, never the torn tail,
    which by construction lacks its newline and is not consumed at all.
    ``rewound`` reports that the file shrank below the cursor — or was
    rewritten under it: the tail checksum no longer matches even though
    the size grew back (journal recovery rewrote it) — so the caller
    must discard derived state.
    """

    entries: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    rewound: bool = False


def scan_journal(path: str | Path, cursor: JournalCursor, *,
                 kind: str = _JOURNAL_KIND) -> JournalDelta:
    """Read journal lines appended since ``cursor``, advancing it.

    Only newline-terminated bytes are consumed; a torn final line stays
    un-consumed until a later append completes it (or recovery drops
    it — the resulting shrink is detected and reported as ``rewound``
    after resetting the cursor to the start).  A rewrite the poll never
    *saw* as a shrink — the file shrank and then grew past the cursor
    between two polls — is caught the same way: the consumed tail bytes
    under the cursor no longer match :attr:`JournalCursor.check`.  On
    the first poll the header line is validated against ``kind`` (pass
    ``kind=None`` to accept any journal header); a malformed or foreign
    header raises :class:`CampaignStorageError` and leaves the cursor
    untouched.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            rewound = False
            tail = b""
            if size < cursor.offset:
                rewound = True
            elif cursor.offset:
                window = min(_CURSOR_CHECK_BYTES, cursor.offset)
                handle.seek(cursor.offset - window)
                tail = handle.read(window)
                if cursor.check and _cursor_check(tail) != cursor.check:
                    rewound = True  # shrink-then-grow between polls
                    tail = b""
            if rewound:
                cursor.offset = 0
                cursor.line = 0
                cursor.header = None
                cursor.check = ""
            handle.seek(cursor.offset)
            chunk = handle.read()
    except FileNotFoundError as exc:
        raise CampaignStorageError(f"{path}: no such journal") from exc
    delta = JournalDelta(rewound=rewound)
    cut = chunk.rfind(b"\n")
    if cut < 0:
        return delta
    complete = chunk[:cut + 1]
    lines = complete.split(b"\n")[:-1]
    header = cursor.header
    start_line = cursor.line
    for index, raw in enumerate(lines):
        number = start_line + index + 1
        if not raw.strip():
            continue
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            if number == 1:
                raise CampaignStorageError(
                    f"{path}:1: malformed journal header: {exc}") from exc
            delta.skipped.append(number)
            continue
        if number == 1:
            if (not isinstance(payload, dict)
                    or payload.get("format") != _JOURNAL_FORMAT_VERSION
                    or (kind is not None and payload.get("kind") != kind)):
                raise CampaignStorageError(
                    f"{path}: not a {kind or 'journal'} this build can "
                    f"read (header {payload!r})")
            header = payload
            continue
        if not isinstance(payload, dict):
            delta.skipped.append(number)
            continue
        delta.entries.append((number, payload))
    cursor.offset += len(complete)
    cursor.line += len(lines)
    cursor.header = header
    cursor.check = _cursor_check((tail + complete)[-_CURSOR_CHECK_BYTES:])
    return delta


# ----------------------------------------------------------------------
# Stable record -> row flattening (the warehouse's ingest contract).

#: Column order produced by :func:`record_to_row`.  The warehouse's
#: ``records`` table stores exactly these columns (plus its own
#: ``campaign_id``/``pos``/fast-path columns); renaming, reordering or
#: retyping any of them is a ``repro.warehouse.schema.SCHEMA_VERSION``
#: bump (lint rule REPRO-S01 enforces the fingerprint).
RECORD_ROW_FIELDS = (
    "site_index", "site_name", "unit", "kind", "ring", "testcase_seed",
    "inject_cycle", "outcome", "trace_events", "detector",
    "detect_latency",
)

_DETECTION_EVENT_KINDS = (
    EventKind.ERROR_DETECTED, EventKind.CORRECTED_LOCAL,
    EventKind.HANG_DETECTED, EventKind.CHECKSTOP,
)


def record_to_row(record: InjectionRecord) -> tuple:
    """Flatten one :class:`InjectionRecord` to the stable warehouse row.

    ``detector``/``detect_latency`` replicate
    :func:`repro.analysis.tracing.detection_event` semantics (first
    detection-class event *after* the injection event; detector name is
    the first word of the event detail) — duplicated here rather than
    imported so the storage layer stays free of analysis imports.
    """
    detector = None
    latency = None
    seen_injection = False
    for event in record.trace:
        if event.kind is EventKind.INJECTION:
            seen_injection = True
            continue
        if seen_injection and event.kind in _DETECTION_EVENT_KINDS:
            detector = event.detail.split(" ")[0]
            latency = event.cycle - record.inject_cycle
            break
    return (record.site_index, record.site_name, record.unit,
            record.kind.value, record.ring, record.testcase_seed,
            record.inject_cycle, record.outcome.value, len(record.trace),
            detector, latency)


def record_from_dict(payload: dict) -> InjectionRecord:
    """Decode one journaled ``record`` payload (public alias used by the
    warehouse and by pure-Python cross-check folds in tests/CI)."""
    return _record_from_dict(payload)


# ----------------------------------------------------------------------
# Incremental journal: the supervisor's crash-consistent record stream.

class CampaignJournal:
    """Append-only JSON-lines journal of completed injections.

    One header line describes the campaign (seed, planned total, format
    version); every completed injection then appends one line carrying
    its campaign ``position`` alongside the record, written in a single
    ``write`` call and flushed immediately.  A campaign killed at any
    point — even mid-``write`` — recovers by :meth:`recover`: complete
    lines are kept, a torn final line is dropped, and the supervisor
    re-runs exactly the positions that are missing.
    """

    def __init__(self, path: str | Path, header: dict,
                 handle=None) -> None:
        self.path = Path(path)
        self.header = header
        self._handle = handle
        self._since_sync = 0
        # Fencing state: tokens are drawn from one monotonically
        # increasing counter (repro.sfi.service.leases); a token is
        # revoked exactly when its lease issue is reclaimed.  Appends
        # that still carry a revoked token are stale by construction.
        self._revoked_tokens: set[int] = set()
        self._fence = 0  # highest revoked token, for diagnostics

    # -- creation / recovery ------------------------------------------

    @classmethod
    def create(cls, path: str | Path, *, seed: int, total_sites: int,
               population_bits: int = 0, meta: dict | None = None,
               kind: str = _JOURNAL_KIND) -> "CampaignJournal":
        """Start a fresh journal (truncating any previous file)."""
        path = Path(path)
        header = {"format": _JOURNAL_FORMAT_VERSION, "kind": kind,
                  "seed": seed, "total_sites": total_sites,
                  "population_bits": population_bits}
        if meta:
            header["meta"] = meta
        handle = path.open("w")
        handle.write(json.dumps(header) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
        return cls(path, header, handle)

    @classmethod
    def recover(cls, path: str | Path, *, seed: int, total: int,
                record_decoder=None,
                kind: str = _JOURNAL_KIND) -> tuple["CampaignJournal", dict]:
        """Reopen the interrupted journal of campaign ``(seed, total)``
        for resumption.

        Returns ``(journal, covered)``, where ``covered`` maps campaign
        position -> decoded record for every complete line (as
        :func:`read_journal` decodes them) whose position lies in the
        plan, ``[0, total)``.  A journal of another seed or total raises
        :class:`CampaignStorageError` and is left as it is; otherwise it
        is rewritten without its torn final line, if any, and reopened
        for appending.
        """
        path = Path(path)
        header, covered, clean = _parse_journal(path, record_decoder, kind)
        if header.get("seed") != seed or header.get("total_sites") != total:
            raise CampaignStorageError(
                f"{path}: journal is for a different campaign "
                f"(seed={header.get('seed')}, "
                f"total={header.get('total_sites')}; this run has "
                f"seed={seed}, total={total})")
        if clean is not None:
            # Rewrite without the torn tail, every line terminated, so
            # future appends start on a line of their own.
            with path.open("w") as handle:
                handle.writelines(clean)
                handle.flush()
                os.fsync(handle.fileno())
        covered = {position: record for position, record in covered.items()
                   if 0 <= position < total}
        return cls(path, header, path.open("a")), covered

    # -- appending -----------------------------------------------------

    def raise_fence(self, token: int) -> None:
        """Revoke fencing token ``token`` (the coordinator calls this
        when it reclaims a lease issue, *before* re-granting the work).
        Any later :meth:`append` still carrying the token raises
        :class:`FencedAppendError` instead of reaching the file."""
        if token > 0:
            self._revoked_tokens.add(token)
            self._fence = max(self._fence, token)

    def append(self, position: int, record, record_encoder=None,
               extra: dict | None = None,
               fence: int | None = None) -> None:
        """Journal one completed injection (atomic single-line append).

        ``extra`` merges additional top-level keys into the line (e.g.
        the fast-path ``{"fastpath": {...}}`` sidecar); readers that only
        know ``pos``/``record`` skip them, so the format stays backward
        and forward compatible.  ``pos`` and ``record`` cannot be
        overridden.

        ``fence`` is the fencing token of the lease issue that produced
        the record (None for non-leased execution).  A revoked token
        (see :meth:`raise_fence`) raises :class:`FencedAppendError` and
        writes nothing.  The token itself is **not** written: journal
        bytes stay identical to a single-process run, and lease history
        lives in the ``.leases`` sidecar instead.
        """
        if self._handle is None:
            raise CampaignStorageError(f"{self.path}: journal is closed")
        if fence is not None and fence in self._revoked_tokens:
            raise FencedAppendError(
                f"{self.path}: append for position {position} carried "
                f"revoked fencing token {fence} (high-water {self._fence})")
        encoder = record_encoder or _record_to_dict
        payload = dict(extra) if extra else {}
        payload["pos"] = position
        payload["record"] = encoder(record)
        line = json.dumps(payload)
        self._handle.write(line + "\n")
        self._handle.flush()
        self._since_sync += 1
        if self._since_sync >= _JOURNAL_SYNC_EVERY:
            os.fsync(self._handle.fileno())
            self._since_sync = 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Offline integrity verification (`repro-sfi journal verify`).

@dataclass
class JournalVerifyReport:
    """Outcome of an offline journal integrity check."""

    path: str
    records: int = 0
    torn_tail: bool = False
    issues: list[str] = field(default_factory=list)
    lease_events: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues and not self.torn_tail


def verify_journal(path: str | Path) -> JournalVerifyReport:
    """Offline integrity check of a campaign journal (and its ``.leases``
    sidecar, when present) without opening either for writing.

    Flags, as human-readable issues:

    * a missing/invalid header, or a journal of the wrong kind;
    * malformed interior lines (only the *final* line may be torn — a
      crash mid-append — and that is reported separately as
      ``torn_tail``, since recovery handles it);
    * lines missing ``pos``/``record`` keys, undecodable records, or
      positions outside ``[0, total_sites)``;
    * duplicate positions — the same ``(site, occurrence)`` injection
      journaled twice, i.e. exactly what fencing exists to prevent;
    * fencing-token regressions in the lease log (grant tokens must be
      strictly increasing).
    """
    path = Path(path)
    report = JournalVerifyReport(path=str(path))
    try:
        with path.open() as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        report.issues.append(f"{path}: no such journal")
        return report
    if not lines or not lines[0].strip():
        report.issues.append(f"{path}: empty journal (no header)")
        return report
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        report.issues.append(f"{path}:1: malformed header: {exc}")
        return report
    if (not isinstance(header, dict)
            or header.get("format") != _JOURNAL_FORMAT_VERSION
            or header.get("kind") != _JOURNAL_KIND):
        report.issues.append(
            f"{path}:1: not a {_JOURNAL_KIND} journal this build can "
            f"read (header {header!r})")
        return report
    total = header.get("total_sites")

    seen: dict[int, int] = {}  # position -> first line number
    body = [(number, line) for number, line in enumerate(lines[1:], 2)
            if line.strip()]
    for offset, (number, line) in enumerate(body):
        is_last = offset == len(body) - 1
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            if is_last:
                report.torn_tail = True
            else:
                report.issues.append(
                    f"{path}:{number}: malformed JSON on interior line")
            continue
        if not isinstance(payload, dict) or "pos" not in payload \
                or "record" not in payload:
            report.issues.append(
                f"{path}:{number}: journal line missing pos/record")
            continue
        position = payload["pos"]
        if not isinstance(position, int) or position < 0 \
                or (isinstance(total, int) and position >= total):
            report.issues.append(
                f"{path}:{number}: position {position!r} outside plan "
                f"range [0, {total})")
            continue
        try:
            record = _record_from_dict(payload["record"])
        except CampaignStorageError as exc:
            report.issues.append(f"{path}:{number}: {exc}")
            continue
        if position in seen:
            report.issues.append(
                f"{path}:{number}: duplicate record for position "
                f"{position} (site {record.site_index} "
                f"{record.site_name!r}, first seen on line "
                f"{seen[position]}) — double-journaled injection")
            continue
        seen[position] = number
        report.records += 1

    _verify_lease_log(path.with_name(path.name + ".leases"), report)
    return report


def _verify_lease_log(lease_path: Path, report: JournalVerifyReport) -> None:
    """Replay a ``.leases`` sidecar: grant tokens must strictly increase
    (a regression means two issues shared a token — fencing is void)."""
    try:
        with lease_path.open() as handle:
            lease_lines = handle.readlines()
    except FileNotFoundError:
        return
    last_grant = 0
    for number, line in enumerate(lease_lines, 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lease_lines):
                continue  # torn tail of the sidecar; harmless
            report.issues.append(
                f"{lease_path}:{number}: malformed lease event")
            continue
        if not isinstance(event, dict):
            report.issues.append(
                f"{lease_path}:{number}: lease event is not an object")
            continue
        report.lease_events += 1
        if event.get("event") == "session":
            # New coordinator incarnation: its token counter restarts.
            last_grant = 0
        elif event.get("event") == "grant":
            token = event.get("token")
            if not isinstance(token, int):
                report.issues.append(
                    f"{lease_path}:{number}: grant without integer token")
                continue
            if token <= last_grant:
                report.issues.append(
                    f"{lease_path}:{number}: fencing-token regression "
                    f"(grant token {token} after {last_grant})")
            else:
                last_grant = token
