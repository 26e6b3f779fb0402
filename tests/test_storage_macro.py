"""Campaign journals and macro-targeted campaigns."""

import json

import pytest

from repro.sfi.storage import (
    CampaignJournal,
    CampaignStorageError,
    read_journal,
)
from repro.sfi.targeted import macro_campaign


def _journaled(experiment, tmp_path, count=6, seed=3):
    """Journal a ``count``-flip campaign: ``(result, journal path)``."""
    result = experiment.run_random_campaign(count, seed=seed)
    path = tmp_path / "c.jsonl"
    with CampaignJournal.create(
            path, seed=seed, total_sites=count,
            population_bits=result.population_bits) as journal:
        for position, record in enumerate(result.records):
            journal.append(position, record)
    return result, path


def _recovered(path, seed=3, total=6) -> dict:
    """``covered`` of :meth:`CampaignJournal.recover`, handle closed."""
    journal, covered = CampaignJournal.recover(path, seed=seed, total=total)
    journal.close()
    return covered


def _both_raise(path, match: str) -> None:
    """The read-only reader and the resume path refuse ``path`` alike."""
    with pytest.raises(CampaignStorageError, match=match):
        read_journal(path)
    with pytest.raises(CampaignStorageError, match=match):
        CampaignJournal.recover(path, seed=3, total=6)


class TestStorage:
    def test_roundtrip(self, experiment, tmp_path):
        """Every journaled record reads back equal through either
        reader."""
        result, path = _journaled(experiment, tmp_path, count=20, seed=5)
        header, covered = read_journal(path)
        assert header["population_bits"] == result.population_bits
        assert [covered[position] for position in range(20)] == \
            result.records
        assert _recovered(path, seed=5, total=20) == covered

    def test_traces_survive_roundtrip(self, experiment, tmp_path):
        """Each record's event trace reads back event for event."""
        result, path = _journaled(experiment, tmp_path, count=10, seed=6)
        _, covered = read_journal(path)
        assert any(record.trace for record in result.records)
        for position, record in enumerate(result.records):
            restored = covered[position].trace
            assert len(restored) == len(record.trace)
            assert all(a.cycle == b.cycle and a.kind == b.kind
                       for a, b in zip(record.trace, restored))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        _both_raise(path, "empty")


class TestStorageErrors:
    """Hardened journal reading: clear CampaignStorageError, never a
    bare KeyError/JSONDecodeError, and tolerant recovery of a torn
    tail.  ``read_journal`` and ``CampaignJournal.recover`` share one
    parser, so each case holds for both."""

    def test_unknown_format_version(self, experiment, tmp_path):
        _, path = _journaled(experiment, tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["format"] = 99
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        _both_raise(path, "this build can read")

    def test_malformed_middle_line(self, experiment, tmp_path):
        _, path = _journaled(experiment, tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = "{this is not json}\n"
        path.write_text("".join(lines))
        _both_raise(path, "malformed JSON")
        lines[2] = "[2, 3]\n"  # JSON, but not a journal line
        path.write_text("".join(lines))
        _both_raise(path, "missing pos/record")

    def test_missing_record_field(self, experiment, tmp_path):
        _, path = _journaled(experiment, tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        payload = json.loads(lines[1])
        del payload["record"]["outcome"]
        lines[1] = json.dumps(payload) + "\n"
        path.write_text("".join(lines))
        _both_raise(path, "missing or has a bad")

    def test_torn_trailing_line_warns_then_counts(self, experiment, tmp_path):
        """A crash mid-append leaves a torn last line: both readers skip
        it with a warning and count one record fewer.  ``read_journal``
        leaves the file as it is; ``recover`` drops the fragment, so the
        next append starts on a line of its own."""
        result, path = _journaled(experiment, tmp_path)
        torn = path.read_text()[:-30]
        path.write_text(torn)
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            _, covered = read_journal(path)
        assert sorted(covered) == list(range(5))
        assert path.read_text() == torn
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            journal, recovered = CampaignJournal.recover(path, seed=3,
                                                         total=6)
        assert recovered == covered
        journal.append(5, result.records[5])
        journal.close()
        _, covered = read_journal(path)
        assert [covered[position] for position in range(6)] == \
            result.records

    def test_unterminated_last_line_is_completed(self, experiment, tmp_path):
        """A complete last record without its newline is kept, and
        ``recover`` terminates it before appending after it."""
        result, path = _journaled(experiment, tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + lines[-1].rstrip("\n"))
        journal, covered = CampaignJournal.recover(path, seed=3, total=6)
        assert sorted(covered) == list(range(6))
        journal.append(0, result.records[0])
        journal.close()
        assert len(path.read_text().splitlines()) == 8
        assert sorted(read_journal(path)[1]) == list(range(6))

    def test_recover_keeps_only_planned_positions(self, experiment,
                                                  tmp_path):
        """A resume covers the positions of its plan, ``[0, total)``,
        and refuses a journal of another seed or total."""
        result, path = _journaled(experiment, tmp_path)
        with path.open("a") as handle:
            handle.write(json.dumps({"pos": 6, "record": json.loads(
                path.read_text().splitlines()[1])["record"]}) + "\n")
        assert sorted(_recovered(path)) == list(range(6))
        for seed, total in ((4, 6), (3, 7)):
            with pytest.raises(CampaignStorageError, match="different"):
                CampaignJournal.recover(path, seed=seed, total=total)

    def test_storage_error_is_a_value_error(self):
        assert issubclass(CampaignStorageError, ValueError)


class TestMacroCampaign:
    def test_targets_only_the_macro(self, experiment):
        result = macro_campaign(experiment, "rut.cmt", trials_per_site=1,
                                max_sites=30)
        assert result.total == 30
        assert all(record.site_name.startswith("rut.cmt")
                   for record in result.records)

    def test_trials_multiply_sites(self, experiment):
        result = macro_campaign(experiment, "pervasive.mode_clkcfg",
                                trials_per_site=2)
        assert result.total == 16  # 8-bit latch x 2 trials

    def test_unknown_macro_rejected(self, experiment):
        with pytest.raises(KeyError):
            macro_campaign(experiment, "nonexistent.block")

    def test_deterministic(self, experiment):
        a = macro_campaign(experiment, "lsu.derat", trials_per_site=1,
                           max_sites=15, seed=4)
        b = macro_campaign(experiment, "lsu.derat", trials_per_site=1,
                           max_sites=15, seed=4)
        assert [r.outcome for r in a.records] == [r.outcome for r in b.records]
