"""Tests for the training database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import TrainingDatabase, TrainingRecord
from repro.partitioning import Partitioning


def _record(machine="mc1", program="p1", size=64, best="100/0/0", t_best=1.0):
    timings = {"100/0/0": t_best, "0/100/0": t_best * 2, "0/50/50": t_best * 3}
    timings[best] = t_best
    return TrainingRecord.from_timings(
        machine=machine,
        program=program,
        size=size,
        features={"st_x": 1.0, "rt_y": float(size)},
        timings=timings,
    )


class TestTrainingRecord:
    def test_best_derived_from_sweep(self):
        r = _record()
        assert r.best_label == "100/0/0"
        assert r.best_time == 1.0
        assert r.best_partitioning == Partitioning((100, 0, 0))

    def test_time_of(self):
        r = _record()
        assert r.time_of(Partitioning((0, 100, 0))) == 2.0

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            TrainingRecord.from_timings("m", "p", 1, {}, {})

    def test_inconsistent_best_rejected(self):
        with pytest.raises(ValueError):
            TrainingRecord("m", "p", 1, {}, {"100/0/0": 1.0}, best_label="0/100/0")


class TestDatabaseQueries:
    def _db(self):
        db = TrainingDatabase()
        for m in ("mc1", "mc2"):
            for p in ("p1", "p2", "p3"):
                for s in (64, 256):
                    db.add(_record(machine=m, program=p, size=s))
        return db

    def test_len_and_iter(self):
        db = self._db()
        assert len(db) == 12
        assert len(list(db)) == 12

    def test_machines_and_programs(self):
        db = self._db()
        assert db.machines() == ("mc1", "mc2")
        assert db.programs() == ("p1", "p2", "p3")

    def test_for_machine(self):
        db = self._db().for_machine("mc1")
        assert len(db) == 6
        assert all(r.machine == "mc1" for r in db)

    def test_excluding_program_lopo(self):
        db = self._db().excluding_program("p2")
        assert "p2" not in db.programs()
        assert len(db) == 8

    def test_matrices_shapes(self):
        db = self._db()
        X, y, groups = db.matrices()
        assert X.shape == (12, 2)
        assert y.shape == (12,)
        assert len(groups) == 12

    def test_matrices_on_empty_rejected(self):
        with pytest.raises(ValueError):
            TrainingDatabase().matrices()

    def test_inconsistent_features_rejected(self):
        db = TrainingDatabase([_record()])
        bad = TrainingRecord.from_timings(
            "mc1", "p9", 1, {"other": 1.0}, {"100/0/0": 1.0}
        )
        db.add(bad)
        with pytest.raises(ValueError):
            db.feature_names()


class TestOnlineAppend:
    def test_record_for_finds_exact_key(self):
        db = TrainingDatabase([_record(program="p1", size=64)])
        assert db.record_for("mc1", "p1", 64) is not None
        assert db.record_for("mc1", "p1", 128) is None
        assert db.record_for("mc2", "p1", 64) is None

    def test_upsert_appends_new_key(self):
        db = TrainingDatabase([_record(program="p1")])
        replaced = db.upsert(_record(program="p2"))
        assert not replaced
        assert len(db) == 2

    def test_upsert_replaces_existing_key(self):
        db = TrainingDatabase([_record(program="p1", t_best=1.0)])
        replaced = db.upsert(_record(program="p1", t_best=0.5))
        assert replaced
        assert len(db) == 1
        assert db.record_for("mc1", "p1", 64).best_time == 0.5

    def test_merge_timings_creates_record(self):
        db = TrainingDatabase()
        record = db.merge_timings(
            "mc1", "new", 32, {"st_x": 1.0, "rt_y": 32.0}, {"100/0/0": 2.0}
        )
        assert len(db) == 1
        assert record.best_label == "100/0/0"

    def test_merge_timings_grows_sweep_and_rederives_best(self):
        db = TrainingDatabase()
        feats = {"st_x": 1.0, "rt_y": 32.0}
        db.merge_timings("mc1", "new", 32, feats, {"100/0/0": 2.0})
        record = db.merge_timings("mc1", "new", 32, feats, {"0/50/50": 1.0})
        assert len(db) == 1  # merged into the same key
        assert record.timings == {"100/0/0": 2.0, "0/50/50": 1.0}
        assert record.best_label == "0/50/50"

    def test_merge_timings_empty_rejected(self):
        with pytest.raises(ValueError):
            TrainingDatabase().merge_timings("m", "p", 1, {}, {})

    def test_consistent_sweeps_drops_partial_records(self):
        db = TrainingDatabase([_record(program="p1"), _record(program="p2")])
        db.merge_timings(
            "mc1", "online", 16, {"st_x": 1.0, "rt_y": 16.0}, {"100/0/0": 1.0}
        )
        full = db.consistent_sweeps()
        assert len(full) == 2
        assert "online" not in full.programs()

    def test_consistent_sweeps_prefers_widest_over_most_numerous(self):
        # Partial online records outnumbering the full training sweeps
        # must not shrink the candidate space.
        db = TrainingDatabase([_record(program="p1")])
        for i in range(5):
            db.merge_timings(
                "mc1", f"online{i}", 16, {"st_x": 1.0, "rt_y": 16.0}, {"100/0/0": 1.0}
            )
        full = db.consistent_sweeps()
        assert full.programs() == ("p1",)

    def test_consistent_sweeps_empty_database(self):
        assert len(TrainingDatabase().consistent_sweeps()) == 0

    def test_record_for_sees_direct_appends(self):
        # The lazy key index must notice records added behind its back.
        db = TrainingDatabase()
        assert db.record_for("mc1", "p1", 64) is None
        db.records.append(_record(program="p1"))
        assert db.record_for("mc1", "p1", 64) is not None


# Small pools, so keys, labels, equal re-measurements and ties repeat.
_KEYS = (("mc1", "p1", 32), ("mc1", "p1", 64), ("mc2", "p2", 32))
_LABELS = ("100/0/0", "0/100/0", "0/50/50", "50/50/0", "30/30/40", "10/0/90")
_VALUES = (0.5, 1.0, 2.0, 3.0)
_FEATURES = ({"st_x": 1.0, "rt_y": 32.0}, {"st_x": 2.0, "rt_y": 32.0})
_SWEEPS = st.dictionaries(
    st.sampled_from(_LABELS), st.sampled_from(_VALUES), min_size=1
)

KEY, FEATS = _KEYS[0], _FEATURES[0]


@st.composite
def _merges(draw):
    """One merge_timings call: energies on a subset of the timed labels."""
    timings = draw(_SWEEPS)
    labels = draw(st.lists(st.sampled_from(sorted(timings)), unique=True))
    energies = {label: draw(st.sampled_from(_VALUES)) for label in labels}
    key = draw(st.sampled_from(_KEYS))
    return key, draw(st.sampled_from(_FEATURES)), timings, energies or None


@st.composite
def _added_records(draw):
    """A record from outside merge_timings: best is any tied fastest label."""
    timings = draw(_SWEEPS)
    fastest = min(timings.values())
    best = draw(st.sampled_from([k for k, t in timings.items() if t == fastest]))
    return TrainingRecord(*KEY, dict(FEATS), timings, best)


def _reference_merge(records, key, features, timings, energies):
    """The merge as it used to be: copy, update, re-derive from the sweep."""
    existing = records.get(key)
    merged = dict(existing.timings) if existing is not None else {}
    merged.update(timings)
    merged_energy = dict(existing.energies) if existing is not None else {}
    if energies:
        merged_energy.update(energies)
    records[key] = TrainingRecord.from_timings(
        *key, features, merged, energies=merged_energy
    )
    return records[key]


class TestIncrementalMerge:
    @given(added=st.none() | _added_records(), merges=st.lists(_merges(), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_matches_rederiving_the_whole_sweep(self, added, merges):
        db = TrainingDatabase([added] if added is not None else [])
        reference = {KEY: added} if added is not None else {}
        for key, features, timings, energies in merges:
            got = db.merge_timings(*key, features, timings, energies)
            want = _reference_merge(reference, key, features, timings, energies)
            assert db.record_for(*key) is got
            assert list(got.timings.items()) == list(want.timings.items())
            assert list(got.energies.items()) == list(want.energies.items())
            assert got.best_label == want.best_label
            assert got.features == want.features
            assert len(db) == len(reference)

    def test_merge_that_changes_nothing_returns_stored_record(self):
        db = TrainingDatabase()
        sweep = {"100/0/0": 2.0, "0/50/50": 1.0}
        stored = db.merge_timings(*KEY, FEATS, sweep, {"0/50/50": 4.0})
        again = db.merge_timings(*KEY, dict(FEATS), {"0/50/50": 1.0}, {"0/50/50": 4.0})
        assert again is stored
        assert db.record_for(*KEY) is stored
        assert len(db) == 1

    def test_first_merge_rederives_a_record_from_elsewhere(self):
        # A JSON round trip sorts the sweep by label, so a tied best
        # label need not be the one min picks; the first merge re-derives
        # it, later ones may trust it.
        tied = {"0/100/0": 1.0, "100/0/0": 1.0}
        added = TrainingRecord(*KEY, dict(FEATS), tied, "100/0/0")
        db = TrainingDatabase([added])
        record = db.merge_timings(*KEY, FEATS, {"100/0/0": 1.0})
        assert record is not added
        assert record.best_label == "0/100/0"
        assert db.merge_timings(*KEY, FEATS, {"0/100/0": 1.0}) is record

    @pytest.mark.parametrize("source", ["added", "merged"])
    def test_unswept_energies_on_existing_key_rejected(self, source):
        db = TrainingDatabase()
        if source == "merged":
            db.merge_timings(*KEY, FEATS, {"100/0/0": 2.0})
        else:
            db.add(TrainingRecord.from_timings(*KEY, FEATS, {"100/0/0": 2.0}))
        stored = db.record_for(*KEY)
        with pytest.raises(ValueError, match="unswept"):
            db.merge_timings(*KEY, FEATS, {"0/50/50": 1.0}, {"0/100/0": 3.0})
        assert db.record_for(*KEY) is stored
        assert stored.timings == {"100/0/0": 2.0}
        assert stored.best_label == "100/0/0"
        assert stored.energies == {}
        assert len(db) == 1

    def test_callers_dicts_are_never_stored(self):
        db = TrainingDatabase()
        feats = dict(FEATS)
        timings, energies = {"100/0/0": 2.0}, {"100/0/0": 5.0}
        created = db.merge_timings(*KEY, feats, timings, energies)
        timings2, energies2 = {"0/50/50": 1.0}, {"0/50/50": 4.0}
        updated = db.merge_timings(*KEY, feats, timings2, energies2)
        for d in (feats, timings, energies, timings2, energies2):
            d["0/100/0"] = 9.0
        feats["st_x"] = timings["100/0/0"] = energies2["0/50/50"] = 0.1
        assert created.features == updated.features == FEATS
        assert created.timings == {"100/0/0": 2.0}
        assert created.energies == {"100/0/0": 5.0}
        assert updated.timings == {"100/0/0": 2.0, "0/50/50": 1.0}
        assert updated.energies == {"100/0/0": 5.0, "0/50/50": 4.0}
        assert updated.best_label == "0/50/50"
        assert db.record_for(*KEY) is updated


class TestPersistence:
    def test_round_trip(self, tmp_path):
        db = TrainingDatabase([_record(), _record(program="p2", size=128)])
        path = tmp_path / "db.json"
        db.save(path)
        loaded = TrainingDatabase.load(path)
        assert len(loaded) == 2
        assert loaded.records[0] == db.records[0]
        X1, y1, _ = db.matrices()
        X2, y2, _ = loaded.matrices()
        assert np.array_equal(X1, X2)
        assert list(y1) == list(y2)

    def test_online_appends_round_trip(self, tmp_path):
        """Records appended by the serving loop survive JSON persistence."""
        db = TrainingDatabase([_record()])
        feats = {"st_x": 2.0, "rt_y": 32.0}
        db.merge_timings("mc1", "online", 32, feats, {"100/0/0": 3.0})
        db.merge_timings("mc1", "online", 32, feats, {"0/100/0": 1.5, "0/50/50": 2.5})
        path = tmp_path / "db.json"
        db.save(path)
        loaded = TrainingDatabase.load(path)
        assert len(loaded) == 2
        record = loaded.record_for("mc1", "online", 32)
        assert record == db.record_for("mc1", "online", 32)
        assert record.best_label == "0/100/0"
        assert record.timings == {"100/0/0": 3.0, "0/100/0": 1.5, "0/50/50": 2.5}

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "db.json"
        TrainingDatabase([_record()]).save(path)
        doc = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError, match="schema"):
            TrainingDatabase.load(path)
