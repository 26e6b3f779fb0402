"""Every reader of a campaign journal counts the same records.

``repro.sfi.storage.scan_journal`` is the one code that splits a journal
into lines, under one end-of-file rule, and every consumer applies one
record-line rule (``journal_entry``).  Whatever the body holds and
however it ends, resume (``CampaignJournal.recover``), ``read_journal``,
``journal verify``, the monitor and the warehouse must count the
distinct in-plan positions of the valid record lines, and a tailer fed
the same bytes chunk by chunk must end where one scan of the finished
file does.
"""

import itertools
import json
import random
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs import read_journal_progress
from repro.sfi.storage import (
    CampaignJournal,
    CampaignStorageError,
    JournalCursor,
    _record_to_dict,
    read_journal,
    scan_journal,
    verify_journal,
)
from repro.warehouse import Warehouse
from repro.warehouse.fixture import synthetic_record

TOTAL = 4
_HEADER = json.dumps({"format": 1, "kind": "sfi-journal", "seed": 1,
                      "total_sites": TOTAL, "population_bits": 0})
_RECORD = _record_to_dict(synthetic_record(random.Random(0), 0))
_BAD_RECORD = {**_RECORD, "outcome": "not an outcome"}

# Malformed lines: none has a prefix that parses as a JSON object, as no
# cut of a written line does.
_MALFORMED = ["{not json}", '{"pos": 1, "rec', '{"pos": 2,}', "{"]
_NOT_OBJECTS = ["[2, 3]", "42", '"pos"', "null"]

_POSITION = st.integers(0, TOTAL + 1)  # two positions past the plan
_LINE = st.one_of(
    st.tuples(st.just("record"), _POSITION),
    st.tuples(st.just("repeat"), st.integers(0, 99)),
    st.tuples(st.just("text"), st.sampled_from(_MALFORMED + _NOT_OBJECTS)),
    st.tuples(st.just("no-record"), _POSITION),
    st.tuples(st.just("bad-field"), _POSITION),
)


def _record_line(position, record=_RECORD) -> str:
    return json.dumps({"pos": position, "record": record})


@st.composite
def journals(draw):
    """``(journal bytes, expected records, has an undecodable record)``.

    Each body line is kept as ``(text, position if it is a valid record
    line else None, undecodable)``.
    """
    lines = []
    for kind, value in draw(st.lists(_LINE, max_size=12)):
        if kind == "record":
            lines.append((_record_line(value), value, False))
        elif kind == "repeat" and lines:
            lines.append(lines[value % len(lines)])
        elif kind == "text":
            lines.append((value, None, False))
        elif kind == "no-record":
            lines.append((json.dumps({"pos": value}), None, False))
        elif kind == "bad-field":
            lines.append((_record_line(value, _BAD_RECORD), None, True))
    body = "".join(text + "\n" for text, _, _ in lines)
    ending = draw(st.sampled_from(["none", "torn", "unterminated"]))
    if ending == "torn":
        line = _record_line(draw(_POSITION))
        body += line[:draw(st.integers(1, len(line) - 1))]
    elif ending == "unterminated":
        body = body[:-1]  # a whole last line without its newline
    expected = len({position for _, position, _ in lines
                    if position is not None and position < TOTAL})
    undecodable = any(flag for _, _, flag in lines)
    return (_HEADER + "\n" + body).encode(), expected, undecodable


def _tail(blob: bytes, sizes: list, path: Path):
    """Scan ``path`` after each chunk of ``blob`` is appended to it."""
    path.write_bytes(b"")
    cursor = JournalCursor()
    entries, skipped = [], []
    offset = 0
    chunks = itertools.cycle(sizes)
    while offset < len(blob):
        size = next(chunks)
        with path.open("ab") as handle:
            handle.write(blob[offset:offset + size])
        offset += size
        delta = scan_journal(path, cursor)
        assert not delta.rewound
        entries += delta.entries
        skipped += delta.skipped
    return cursor, entries, skipped


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(journal=journals(), sizes=st.lists(st.integers(1, 48), min_size=1,
                                          max_size=6))
def test_every_reader_counts_the_same_records(journal, sizes):
    blob, expected, undecodable = journal
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "c.jsonl"
        path.write_bytes(blob)

        assert verify_journal(path).records == expected
        with Warehouse(Path(scratch) / "wh.sqlite") as warehouse:
            assert warehouse.ingest_journal(path).records == expected
        if not undecodable:
            assert read_journal_progress(path).done == expected
        whole = JournalCursor()
        delta = scan_journal(path, whole)
        cursor, entries, skipped = _tail(blob, sizes, path)
        assert entries == delta.entries and skipped == delta.skipped
        assert (cursor.offset, cursor.line) == (whole.offset, whole.line)

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _, covered = read_journal(path)
                journal, recovered = CampaignJournal.recover(
                    path, seed=1, total=TOTAL)
        except CampaignStorageError:
            return
        journal.close()
        assert len(covered) == expected and recovered == covered
        # Recovery cut the torn tail and ended the last line: the file
        # now reads whole, as the same records.
        after = scan_journal(path, JournalCursor())
        assert after.torn is None and after.entries == delta.entries
        assert path.read_bytes().endswith(b"\n")
