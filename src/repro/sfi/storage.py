"""Campaign persistence.

Real injection campaigns run for hours and accumulate across sessions;
results are stored as JSON-lines journals (one header line, then one
line per record with the full cause-and-effect trace) so later analysis
and re-scoring need no re-simulation.

A journal (:class:`CampaignJournal`) is appended one record at a time
*while* the campaign runs, like its ``.leases``, ``.provenance`` and
``.spans`` sidecars and a trace log.  Every reader of these files reads
them through :func:`scan_journal`, the one line scanner, under two rules:

* **End of file.**  A line ends at its newline.  A last fragment without
  its newline that parses as a whole JSON object is a line too (no
  shorter cut of a line parses: its outer brace is still open).  Any
  other last fragment, or a newline-terminated last line that does not
  parse, is the torn tail, which a scan leaves unconsumed: a tailer
  re-reads it on its next poll.
* **Record line** (:func:`journal_entry`).  A JSON object with an
  ``int`` ``pos`` in ``[0, total_sites)`` and a ``record`` that decodes;
  where a position appears twice, the first line wins.

Readers differ only in what they do with a bad line: resume and
:func:`read_journal` skip the torn tail with a warning (resume cuts it),
drop out-of-plan lines and raise on any other; :func:`verify_journal`
reports them, the warehouse counts them as skipped, the monitor skips
them.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.cpu.events import EventKind, MachineEvent, first_detection
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


class JournalNotReady(CampaignStorageError):
    """A journal that does not exist yet, or has no complete header line
    yet: a follower (``repro-sfi ingest --follow``) polls it again, where
    any other storage error is final."""


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


# ----------------------------------------------------------------------
# The campaign-file reader: byte-offset cursors, one line scanner, the
# end-of-file rule and the record-line rule (module docstring).
#
# `repro-sfi monitor` and the warehouse tailer both poll a journal that
# another process is appending to.  Re-reading the whole file per poll is
# O(records) per poll — quadratic over a campaign — so consumers keep a
# `JournalCursor` and ask only for what arrived since; a whole-file read
# is a scan from a fresh `JournalCursor()`.  Readers never write the
# journal.


#: Tail-window length of :attr:`JournalCursor.check` — the checksum
#: covers the last ``min(offset, 64)`` consumed bytes.  64 bytes spans
#: at least the tail of the previous line, which is what distinguishes
#: "same journal, grown" from "rewritten journal that happens to be at
#: least as long" (shrink-then-grow between polls).
_CURSOR_CHECK_BYTES = 64

#: What :func:`_parse` returns for a line that is not JSON.
_UNPARSED = object()


def _cursor_check(tail: bytes) -> str:
    """Checksum of the consumed tail window (empty tail -> '')."""
    if not tail:
        return ""
    return "sha256:" + hashlib.sha256(tail).hexdigest()[:16]


def _parse(raw: bytes):
    """The JSON value of one line, or :data:`_UNPARSED`."""
    try:
        return json.loads(raw)
    except ValueError:  # malformed JSON or undecodable bytes
        return _UNPARSED


@dataclass
class JournalCursor:
    """Resumable read position in an append-only JSON-lines journal.

    ``offset`` counts bytes of the lines already consumed, ``line``
    counts those lines, and ``header`` caches the decoded header once
    line 1 has been consumed.  ``check`` is a checksum over the last
    :data:`_CURSOR_CHECK_BYTES` consumed bytes: a bare size comparison
    cannot see a journal that was rewritten shorter *and then grew past
    the cursor* between two polls, but the rewrite changes the bytes
    under the cursor, so the checksum does.  The cursor is a plain
    value: persist it (e.g. the warehouse stores it per campaign) and
    resume scanning later, across processes.
    """

    offset: int = 0
    line: int = 0
    header: dict | None = None
    check: str = ""


@dataclass
class JournalDelta:
    """What one :func:`scan_journal` poll produced.

    ``entries`` holds ``(line_number, payload)`` for every consumed line
    that parses as JSON, the header aside (each reader applies
    :func:`journal_entry` itself); ``skipped`` lists the numbers of
    consumed lines that do not parse; ``torn`` is the line number of the
    unconsumed torn tail, or None.  ``rewound`` reports that the file
    shrank below the cursor or was rewritten under it, so the caller
    must discard derived state.
    """

    entries: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    torn: int | None = None
    rewound: bool = False


def scan_journal(path: str | Path, cursor: JournalCursor, *,
                 kind: str | None = _JOURNAL_KIND,
                 header: bool = True) -> JournalDelta:
    """Read the lines of a campaign file appended since ``cursor``,
    advancing it over them under the end-of-file rule.

    A shrink below the cursor (recovery cut the torn tail), or a rewrite
    that shrank and grew past it between two polls (the consumed tail
    bytes no longer match :attr:`JournalCursor.check`), resets the
    cursor to the start and reports ``rewound``.  With ``header``
    (journals and the ``.provenance`` sidecar) line 1 is checked against
    ``kind`` (``kind=None`` accepts any journal header); a missing file
    or a malformed or foreign header raises :class:`CampaignStorageError`
    and leaves the cursor untouched.  Without it (the ``.leases`` and
    ``.spans`` sidecars, trace logs) every line is an entry and a missing
    file reads as empty.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            size = handle.seek(0, os.SEEK_END)
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
        if not header:
            return JournalDelta()
        raise JournalNotReady(f"{path}: no such journal") from exc
    delta = JournalDelta(rewound=rewound)
    first = cursor.header
    number = cursor.line
    start = end = 0  # where the next line starts; bytes consumed
    if chunk[:1] == b"\n" and tail[-1:] not in (b"", b"\n"):
        start = end = 1  # ends a line consumed before its newline came
    unparsed = None  # (number, start) of a line that does not parse
    while start < len(chunk):
        stop = chunk.find(b"\n", start) + 1 or len(chunk)
        raw = chunk[start:stop]
        blank = not raw.strip()
        payload = None if blank else _parse(raw)
        if unparsed is not None and not blank:
            delta.skipped.append(unparsed[0])  # not the last line after all
            unparsed = None
        if not raw.endswith(b"\n") and (blank
                                         or not isinstance(payload, dict)):
            if not blank:
                delta.torn = number + 1
            break
        number += 1
        if not blank:
            if header and number == 1:
                if (not isinstance(payload, dict)
                        or payload.get("format") != _JOURNAL_FORMAT_VERSION
                        or (kind is not None and payload.get("kind") != kind)):
                    text = raw.strip().decode(errors="replace")
                    raise CampaignStorageError(
                        f"{path}: not a {kind or 'journal'} this build can "
                        f"read (header {text!r})")
                first = payload
            elif payload is _UNPARSED:
                unparsed = (number, start)
            else:
                delta.entries.append((number, payload))
        start = end = stop
    if unparsed is not None:
        delta.torn, end = unparsed
        number = delta.torn - 1
    cursor.offset += end
    cursor.line = number
    cursor.header = first
    cursor.check = _cursor_check((tail + chunk[:end])[-_CURSOR_CHECK_BYTES:])
    return delta


class _OutOfPlan(CampaignStorageError):
    """A record line at a position outside its campaign's plan."""


def journal_entry(payload, total: int | None,
                  decoder=_record_from_dict) -> tuple:
    """The record-line rule: ``(position, record)`` of one journal line,
    else :class:`CampaignStorageError`.

    ``total`` is the header's ``total_sites`` (None bounds nothing).
    ``decoder=None`` leaves the record undecoded: the monitor, which also
    tails chip journals, checks only that there is one.
    """
    if not isinstance(payload, dict) or "pos" not in payload \
            or "record" not in payload:
        raise CampaignStorageError("journal line missing pos/record")
    position = payload["pos"]
    if not isinstance(position, int):
        raise CampaignStorageError(f"position {position!r} is not an integer")
    if position < 0 or (isinstance(total, int) and position >= total):
        raise _OutOfPlan(
            f"position {position} outside plan range [0, {total})")
    record = payload["record"]
    return position, record if decoder is None else decoder(record)


def _read_records(path: Path, decoder, kind: str) -> tuple[JournalCursor,
                                                           dict]:
    """``(cursor, covered)`` of a whole journal for :func:`read_journal`
    and :meth:`CampaignJournal.recover`; ``covered`` maps position ->
    decoded record.  Out-of-plan lines are dropped and the torn tail is
    skipped with a warning; any other bad line raises
    :class:`CampaignStorageError`."""
    cursor = JournalCursor()
    delta = scan_journal(path, cursor, kind=kind)
    if cursor.header is None:
        raise CampaignStorageError(
            f"{path}: empty journal (no complete header line)")
    if delta.skipped:
        raise CampaignStorageError(
            f"{path}:{delta.skipped[0]}: malformed JSON line")
    if delta.torn is not None:
        warnings.warn(
            f"{path}: skipping truncated trailing line {delta.torn} "
            f"(crash mid-write?)", RuntimeWarning, stacklevel=3)
    total = cursor.header.get("total_sites")
    covered: dict[int, object] = {}
    for number, payload in delta.entries:
        try:
            position, record = journal_entry(
                payload, total, decoder or _record_from_dict)
        except _OutOfPlan:
            continue
        except CampaignStorageError as exc:
            raise CampaignStorageError(f"{path}:{number}: {exc}") from exc
        covered.setdefault(position, record)
    return cursor, covered


def read_journal(path: str | Path, record_decoder=None,
                 kind: str = _JOURNAL_KIND) -> tuple[dict, dict]:
    """Read a journal without reopening it for writing.

    Returns ``(header, covered)`` read exactly as
    :meth:`CampaignJournal.recover` reads them, but never writes the
    file and opens no append handle — safe on a journal another process
    is still appending to (``repro-sfi trace --journal`` /
    ``explain --journal``).
    """
    cursor, covered = _read_records(Path(path), record_decoder, kind)
    return cursor.header, covered


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

def record_to_row(record: InjectionRecord) -> tuple:
    """Flatten one :class:`InjectionRecord` to the stable warehouse row.

    ``detector``/``detect_latency`` describe the record's
    :func:`~repro.cpu.events.first_detection` event; the detector name is
    the first word of the event detail.
    """
    detector = None
    latency = None
    event = first_detection(record.trace)
    if event is not None:
        detector = event.detail.split(" ")[0]
        latency = event.cycle - record.inject_cycle
    return (record.site_index, record.site_name, record.unit,
            record.kind.value, record.ring, record.testcase_seed,
            record.inject_cycle, record.outcome.value, len(record.trace),
            detector, latency)


# ----------------------------------------------------------------------
# Incremental journal: the supervisor's crash-consistent record stream.

class CampaignJournal:
    """Append-only JSON-lines journal of completed injections.

    One header line describes the campaign (seed, planned total, format
    version); every completed injection then appends one line carrying
    its campaign ``position`` alongside the record, written in a single
    ``write`` call and flushed immediately.  A campaign killed at any
    point — even mid-``write`` — recovers by :meth:`recover`: complete
    lines are kept, the torn tail is cut, and the supervisor re-runs
    exactly the positions that are missing.
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
        position -> decoded record for every record line in the plan,
        ``[0, total)``, read as :func:`read_journal` reads them.  A
        journal of another seed or total raises
        :class:`CampaignStorageError` and is left as it is; otherwise its
        torn tail, if any, is cut, an unterminated last line is
        terminated, and it is reopened for appending.
        """
        path = Path(path)
        cursor, covered = _read_records(path, record_decoder, kind)
        header = cursor.header
        if header.get("seed") != seed or header.get("total_sites") != total:
            raise CampaignStorageError(
                f"{path}: journal is for a different campaign "
                f"(seed={header.get('seed')}, "
                f"total={header.get('total_sites')}; this run has "
                f"seed={seed}, total={total})")
        with path.open("r+b") as handle:
            # Cut the torn tail and terminate a kept unterminated last
            # line, so future appends start on a line of their own.
            handle.seek(cursor.offset - 1)
            terminated = handle.read(1) == b"\n"
            if handle.read(1) or not terminated:
                handle.truncate(cursor.offset)
                handle.seek(cursor.offset)
                handle.write(b"" if terminated else b"\n")
                handle.flush()
                os.fsync(handle.fileno())
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
    * lines that do not parse (the torn tail is reported separately as
      ``torn_tail``, since recovery handles it);
    * lines that break the record-line rule (:func:`journal_entry`);
    * duplicate positions — the same ``(site, occurrence)`` injection
      journaled twice, i.e. exactly what fencing exists to prevent;
    * fencing-token regressions in the lease log (grant tokens must be
      strictly increasing).
    """
    path = Path(path)
    report = JournalVerifyReport(path=str(path))
    cursor = JournalCursor()
    try:
        delta = scan_journal(path, cursor)
    except CampaignStorageError as exc:
        report.issues.append(str(exc))
        return report
    if cursor.header is None:
        report.issues.append(f"{path}: empty journal (no header)")
        return report
    report.torn_tail = delta.torn is not None
    for number in delta.skipped:
        report.issues.append(
            f"{path}:{number}: malformed JSON on interior line")
    total = cursor.header.get("total_sites")
    seen: dict[int, int] = {}  # position -> first line number
    for number, payload in delta.entries:
        try:
            position, record = journal_entry(payload, total)
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
    report.records = len(seen)

    _verify_lease_log(path.with_name(path.name + ".leases"), report)
    return report


def _verify_lease_log(lease_path: Path, report: JournalVerifyReport) -> None:
    """Replay a ``.leases`` sidecar: grant tokens must strictly increase
    (a regression means two issues shared a token — fencing is void).
    Its torn tail is harmless."""
    delta = scan_journal(lease_path, JournalCursor(), header=False)
    for number in delta.skipped:
        report.issues.append(f"{lease_path}:{number}: malformed lease event")
    last_grant = 0
    for number, event in delta.entries:
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
