"""Tests for the DDL printer behind ``repro ddl``.

The output format is the one the ``repro.core.schema.ddl`` module
docstring describes: one declaration per line, classes with their
dependents and attached procedures first, then associations with their
attributes and procedures. The SPADES schema and the paper's figure-2
and figure-3 schemas are pinned byte for byte.
"""

from repro.core import SchemaBuilder, figure2_schema, figure3_schema
from repro.core.schema import print_ddl
from repro.core.schema.attached import AttachedProcedure
from repro.spades import spades_schema

SPADES_DDL = """\
schema spades

class Thing covering
sub Thing.Revised = DATE 0..1
sub Thing.Note = TEXT 0..*
sub Thing.Deadline = DATE 0..1
class Data : Thing
sub Data.Text 0..16
sub Data.Text.Body
sub Data.Text.Body.Contents = STRING
sub Data.Text.Body.Keywords = STRING 0..*
sub Data.Text.Selector = STRING 0..1
class InputData : Data
class OutputData : Data
class Action : Thing
sub Action.Description = STRING
class Module : Thing
sub Module.Language = STRING 0..1

association Access (data: Data 1..*, by: Action 1..*) covering
association Read : Access (from: Data 1..*, by: Action 0..*)
association Write : Access (to: Data 1..*, by: Action 0..*)
attribute Write.NumberOfWrites = INTEGER
attribute Write.ErrorHandling = STRING
association Contained (contained: Action 0..1, container: Action 0..*) ACYCLIC
association Triggers (trigger: Action 0..*, triggered: Action 0..*)
association AllocatedTo (action: Action 0..*, module: Module 0..*)
"""


FIGURE2_DDL = """\
schema figure2

class Data
sub Data.Text 0..16
sub Data.Text.Body
sub Data.Text.Body.Contents = STRING
sub Data.Text.Body.Keywords = STRING 0..*
sub Data.Text.Selector = STRING 0..1
class Action
sub Action.Description = STRING

association Read (from: Data 1..*, by: Action 0..*)
association Write (to: Data 1..*, by: Action 0..*)
association Contained (contained: Action 0..1, container: Action 0..*) ACYCLIC
"""

FIGURE3_DDL = """\
schema figure3

class Thing covering
sub Thing.Revised = DATE 0..1
class Data : Thing
sub Data.Text 0..16
sub Data.Text.Body
sub Data.Text.Body.Contents = STRING
sub Data.Text.Body.Keywords = STRING 0..*
sub Data.Text.Selector = STRING 0..1
class OutputData : Data
class InputData : Data
class Action : Thing
sub Action.Description = STRING

association Access (data: Data 1..*, by: Action 1..*) covering
association Read : Access (from: InputData 1..*, by: Action 0..*)
association Write : Access (to: OutputData 1..*, by: Action 0..*)
attribute Write.NumberOfWrites = INTEGER 1..1
attribute Write.ErrorHandling = STRING
association Contained (contained: Action 0..1, container: Action 0..*) ACYCLIC
"""


def _guard(name: str) -> AttachedProcedure:
    return AttachedProcedure(name, lambda ctx: None)


class TestPrinting:
    def test_spades_schema_golden(self):
        assert print_ddl(spades_schema()) == SPADES_DDL

    def test_figure2_schema_golden(self):
        assert print_ddl(figure2_schema()) == FIGURE2_DDL

    def test_figure3_schema_golden(self):
        assert print_ddl(figure3_schema()) == FIGURE3_DDL

    def test_printed_ddl_is_readable(self):
        text = print_ddl(figure3_schema())
        assert "class OutputData : Data" in text
        assert "association Contained" in text and "ACYCLIC" in text
        assert "attribute Write.NumberOfWrites = INTEGER 1..1" in text

    def test_procedures_follow_what_they_are_attached_to(self):
        schema = (
            SchemaBuilder("guarded")
            .entity_class("A")
            .dependent("A", "B", "0..*")
            .dependent("A.B", "C")
            .dependent("A", "D")
            .association("R", ("x", "A", "0..*"), ("y", "A", "0..*"))
            .attach("A.B", _guard("sub_guard"))
            .attach("A", _guard("class_guard"))
            .attach("R", _guard("assoc_guard"))
            .build()
        )
        assert print_ddl(schema) == (
            "schema guarded\n"
            "\n"
            "class A\n"
            "sub A.B 0..*\n"
            "attach A.B sub_guard\n"
            "sub A.B.C\n"
            "sub A.D\n"
            "attach A class_guard\n"
            "\n"
            "association R (x: A 0..*, y: A 0..*)\n"
            "attach R assoc_guard\n"
        )

    def test_a_value_typed_class_prints_its_sort(self):
        schema = (
            SchemaBuilder("tags")
            .entity_class("Tag", sort="STRING")
            .entity_class("Box")
            .build()
        )
        assert print_ddl(schema) == (
            "schema tags\n"
            "\n"
            "class Tag = STRING\n"
            "class Box\n"
            "\n"
        )
