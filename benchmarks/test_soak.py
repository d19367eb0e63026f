"""The durability soak stays within its journal budget and replays clean.

Runs ``benchmarks/soak.py`` small; the nightly CI job runs it long.
"""

from repro.cli import main
from repro.core.storage import JournaledDatabase, RecordFile

from soak import run_durability_soak


class TestDurabilitySoak:
    def test_journal_stays_bounded_and_clean(self, tmp_path):
        path = tmp_path / "soak.journal"
        result = run_durability_soak(
            path, transactions=120, checkins=30, byte_budget=20_000, seed=4
        )
        # the budget self-enforces: the file never reaches 2x budget,
        # and the mixed stream forced real auto-compactions
        assert result.high_water_bytes < 2 * result.byte_budget
        assert result.compactions >= 1
        assert result.rejected >= 1
        # the journal the soak leaves behind is structurally clean...
        assert main(["fsck", str(path)]) == 0
        assert RecordFile(path).size_bytes() == result.final_bytes
        # ...and replays to the live state the server last held
        reopened = JournaledDatabase.open(path)
        assert len(reopened.db.objects("Item")) == result.items

    def test_deterministic_for_a_seed(self, tmp_path):
        first = run_durability_soak(
            tmp_path / "a.journal",
            transactions=60, checkins=15, byte_budget=16_000, seed=9,
        )
        second = run_durability_soak(
            tmp_path / "b.journal",
            transactions=60, checkins=15, byte_budget=16_000, seed=9,
        )
        assert first == second
