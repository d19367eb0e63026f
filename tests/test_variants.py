"""Tests for variant families (paper, figure 5 and its discussion)."""

import pytest

from repro.core import SeedDatabase, VariantError
from repro.core.variants import VariantFamily


@pytest.fixture
def config_family(spades_db):
    """The paper's variants example: system configurations sharing most
    software modules but differing in hardware-dependent ones."""
    db = spades_db
    kernel = db.create_object("Module", "Kernel")
    logging = db.create_object("Module", "Logging")
    family = VariantFamily(db, "Config", variant_class="Action")
    family.add_shared_relationship(
        "AllocatedTo", {"module": kernel}, variant_role="action"
    )
    family.add_shared_relationship(
        "AllocatedTo", {"module": logging}, variant_role="action"
    )
    alpine = db.create_object("Action", "AlpineConfig")
    alpine.add_sub_object("Description", "mountain hardware")
    desert = db.create_object("Action", "DesertConfig")
    desert.add_sub_object("Description", "desert hardware")
    family.add_variant(alpine)
    family.add_variant(desert)
    return db, family, kernel, logging, alpine, desert


class TestConstruction:
    def test_variants_share_common_relationships(self, config_family):
        db, family, kernel, logging, alpine, desert = config_family
        for variant in (alpine, desert):
            modules = sorted(
                str(m.name) for m in db.navigate(variant, "AllocatedTo", "module")
            )
            assert modules == ["Kernel", "Logging"]

    def test_uniformity_check_passes(self, config_family):
        __, family, *___ = config_family
        assert family.check_uniformity() == []

    def test_common_part_sees_all_variants(self, config_family):
        db, __, kernel, __, alpine, desert = config_family
        actions = sorted(
            str(a.name) for a in db.navigate(kernel, "AllocatedTo", "action")
        )
        assert actions == ["AlpineConfig", "DesertConfig"]

    def test_variant_added_later_gets_all_patterns(self, config_family):
        db, family, *__ = config_family
        late = db.create_object("Action", "LateConfig")
        late.add_sub_object("Description", "added later")
        family.add_variant(late)
        modules = sorted(
            str(m.name) for m in db.navigate(late, "AllocatedTo", "module")
        )
        assert modules == ["Kernel", "Logging"]
        assert family.check_uniformity() == []

    def test_shared_relationship_added_later_reaches_all_variants(
        self, config_family
    ):
        db, family, *__ = config_family
        network = db.create_object("Module", "Network")
        family.add_shared_relationship(
            "AllocatedTo", {"module": network}, variant_role="action"
        )
        for variant in family.variants:
            modules = {
                str(m.name) for m in db.navigate(variant, "AllocatedTo", "module")
            }
            assert "Network" in modules

    def test_variant_part_stays_individual(self, config_family):
        db, family, __, __, alpine, desert = config_family
        avalanche = db.create_object("Module", "AvalancheSensorDriver")
        db.relate("AllocatedTo", {"action": alpine, "module": avalanche})
        alpine_modules = {
            str(m.name) for m in db.navigate(alpine, "AllocatedTo", "module")
        }
        desert_modules = {
            str(m.name) for m in db.navigate(desert, "AllocatedTo", "module")
        }
        assert "AvalancheSensorDriver" in alpine_modules
        assert "AvalancheSensorDriver" not in desert_modules
        assert family.check_uniformity() == []  # common part still uniform

    def test_variant_vs_alternative_distinction(self, config_family):
        # variants coexist within one database state; alternatives are
        # separate versions — both variants are visible simultaneously
        db, family, *__ = config_family
        names = {o.simple_name for o in db.objects("Action")}
        assert {"AlpineConfig", "DesertConfig"} <= names


class TestSharedSubObjects:
    def test_shared_deadline(self, spades_db):
        db = spades_db
        family = VariantFamily(db, "Procs", variant_class="Action")
        deadline = family.add_shared_sub_object("Deadline", "1986-06-01")
        worker = db.create_object("Action", "Worker")
        worker.add_sub_object("Description", "x")
        family.add_variant(worker)
        import datetime

        values = [d.value for d in worker.effective_sub_objects("Deadline")]
        assert values == [datetime.date(1986, 6, 1)]
        deadline.set_value("1986-12-24")
        values = [d.value for d in worker.effective_sub_objects("Deadline")]
        assert values == [datetime.date(1986, 12, 24)]


class TestGuards:
    def test_wrong_class_variant_rejected(self, config_family):
        db, family, *__ = config_family
        data = db.create_object("Data", "NotAnAction")
        with pytest.raises(VariantError, match="instances of 'Action'"):
            family.add_variant(data)

    def test_double_add_rejected(self, config_family):
        __, family, __, __, alpine, __ = config_family
        with pytest.raises(VariantError, match="already a variant"):
            family.add_variant(alpine)

    def test_bad_role_rejected(self, config_family):
        db, family, kernel, *__ = config_family
        with pytest.raises(VariantError, match="no role"):
            family.add_shared_relationship(
                "AllocatedTo", {"module": kernel}, variant_role="bogus"
            )

    def test_wrong_common_bindings_rejected(self, config_family):
        db, family, kernel, *__ = config_family
        with pytest.raises(VariantError, match="exactly role"):
            family.add_shared_relationship(
                "AllocatedTo", {"action": kernel}, variant_role="action"
            )
