"""Tests for relationship instances and attributes."""

import pytest

from repro.core import SeedDatabase, SeedError, figure3_schema


@pytest.fixture
def db_with_write(fig3_db):
    alarms = fig3_db.create_object("OutputData", "Alarms")
    sensor = fig3_db.create_object("Action", "Sensor")
    sensor.add_sub_object("Description", "senses")
    write = fig3_db.relate("Write", {"to": alarms, "by": sensor})
    return fig3_db, alarms, sensor, write


class TestBindings:
    def test_bound_and_positions(self, db_with_write):
        __, alarms, sensor, write = db_with_write
        assert write.bound("to") is alarms
        assert write.bound("by") is sensor
        assert write.bound_at(0) is alarms
        assert write.bound_at(1) is sensor

    def test_role_of_and_other(self, db_with_write):
        __, alarms, sensor, write = db_with_write
        assert write.role_of(alarms) == "to"
        assert write.role_of(sensor) == "by"
        assert write.other(alarms) is sensor
        assert write.other(sensor) is alarms

    def test_role_of_an_unbound_object(self, db_with_write):
        db, __, __, write = db_with_write
        other = db.create_object("Action", "Other")
        other.add_sub_object("Description", "x")
        assert write.role_of(other) is None

    def test_other_for_unbound_object(self, db_with_write):
        db, __, __, write = db_with_write
        stranger = db.create_object("Action", "Stranger")
        stranger.add_sub_object("Description", "x")
        with pytest.raises(SeedError, match="not bound"):
            write.other(stranger)

    def test_unknown_role(self, db_with_write):
        write = db_with_write[3]
        with pytest.raises(SeedError, match="no role 'from'"):
            write.bound("from")

    def test_endpoints_order(self, db_with_write):
        __, alarms, sensor, write = db_with_write
        assert write.endpoints() == (alarms, sensor)
        assert list(write.bound_objects()) == [alarms, sensor]

    def test_bindings_copy(self, db_with_write):
        __, alarms, sensor, write = db_with_write
        bindings = write.bindings()
        assert bindings == {"to": alarms, "by": sensor}
        bindings["to"] = sensor  # mutating the copy changes nothing
        assert write.bound("to") is alarms


class TestAttributes:
    def test_set_and_get(self, db_with_write):
        __, __, __, write = db_with_write
        write.set_attribute("NumberOfWrites", 2)
        write.set_attribute("ErrorHandling", "repeat")
        assert write.attribute("NumberOfWrites") == 2
        assert write.attributes() == {
            "NumberOfWrites": 2,
            "ErrorHandling": "repeat",
        }
        assert write.has_attribute("ErrorHandling")

    def test_default_for_unset(self, db_with_write):
        write = db_with_write[3]
        assert write.attribute("NumberOfWrites") is None
        assert write.attribute("NumberOfWrites", 0) == 0

    def test_unknown_attribute_rejected(self, db_with_write):
        write = db_with_write[3]
        with pytest.raises(SeedError):
            write.set_attribute("Bogus", 1)

    def test_wrong_sort_rejected(self, db_with_write):
        write = db_with_write[3]
        with pytest.raises(SeedError):
            write.set_attribute("NumberOfWrites", "two")

    def test_clear_attribute_with_none(self, db_with_write):
        db, __, __, write = db_with_write
        write.set_attribute("NumberOfWrites", 2)
        db.set_attribute(write, "NumberOfWrites", None)
        assert not write.has_attribute("NumberOfWrites")


class TestFreezing:
    def test_freeze_fields(self, db_with_write):
        __, alarms, sensor, write = db_with_write
        write.set_attribute("NumberOfWrites", 2)
        state = write.freeze()
        assert state.association_name == "Write"
        assert state.bindings == (("to", alarms.oid), ("by", sensor.oid))
        assert state.attributes == (("NumberOfWrites", 2),)
        assert not state.deleted

    def test_attributes_sorted_in_state(self, db_with_write):
        write = db_with_write[3]
        write.set_attribute("NumberOfWrites", 1)
        write.set_attribute("ErrorHandling", "abort")
        assert write.freeze().attributes == (
            ("ErrorHandling", "abort"),
            ("NumberOfWrites", 1),
        )
