"""The schema as DDL text: what ``repro ddl`` prints.

The printer writes one declaration per line, the schema's classes
first, then its associations, each in definition order::

    schema <name>

    class <Name> [: <General>] [= <SORT>] [covering]
    sub <Parent.Path>.<Name> [= <SORT>] [<min>..<max|*>]
    attach <Class or dependent> <procedure-name>

    association <Name> [: <General>] (<role>: <Class> <card>,
                                      <role>: <Class> <card>) [ACYCLIC] [covering]
    attribute <Association>.<Name> = <SORT> [<card>]
    attach <Association> <procedure-name>

A class is followed by its dependent classes (``sub``, depth first),
each followed by the procedures attached to it, and then by the
procedures attached to the class itself. An association is followed by
its attributes and then its procedures. A dependent's cardinality is
left out when it is ``1..1`` and an attribute's when it is ``0..1``;
role cardinalities are always written. The figure-3 schema prints as::

    schema figure3

    class Thing covering
    sub Thing.Revised = DATE 0..1
    class Data : Thing
    sub Data.Text 0..16
    sub Data.Text.Body
    sub Data.Text.Body.Contents = STRING
    ...

    association Access (data: Data 1..*, by: Action 1..*) covering
    association Read : Access (from: InputData 1..*, by: Action 0..*)
    association Write : Access (to: OutputData 1..*, by: Action 0..*)
    attribute Write.NumberOfWrites = INTEGER 1..1
    attribute Write.ErrorHandling = STRING
    association Contained (contained: Action 0..1, container: Action 0..*) ACYCLIC
"""

from __future__ import annotations

from repro.core.schema.schema import Schema

__all__ = ["print_ddl"]


def print_ddl(schema: Schema) -> str:
    """Render a schema as DDL text (the format in the module docstring)."""
    lines: list[str] = [f"schema {schema.name}", ""]
    for entity_class in schema.classes:
        chunk = f"class {entity_class.name}"
        if entity_class.general is not None:
            chunk += f" : {entity_class.general.name}"
        if entity_class.value_sort is not None:
            chunk += f" = {entity_class.value_sort.name}"
        if entity_class.covering:
            chunk += " covering"
        lines.append(chunk)
        for dependent in entity_class.walk():
            if dependent is entity_class:
                continue
            chunk = f"sub {dependent.full_name}"
            if dependent.value_sort is not None:
                chunk += f" = {dependent.value_sort.name}"
            if str(dependent.cardinality) != "1..1":
                chunk += f" {dependent.cardinality}"
            lines.append(chunk)
            for procedure in dependent.attached_procedures:
                lines.append(f"attach {dependent.full_name} {procedure.name}")
        for procedure in entity_class.attached_procedures:
            lines.append(f"attach {entity_class.name} {procedure.name}")
    lines.append("")
    for association in schema.associations:
        roles = ", ".join(
            f"{role.name}: {role.target.name} {role.cardinality}"
            for role in association.roles
        )
        chunk = f"association {association.name}"
        if association.general is not None:
            chunk += f" : {association.general.name}"
        chunk += f" ({roles})"
        if association.acyclic:
            chunk += " ACYCLIC"
        if association.covering:
            chunk += " covering"
        lines.append(chunk)
        for attribute in association.attributes:
            chunk = (
                f"attribute {association.name}.{attribute.name} = "
                f"{attribute.sort.name}"
            )
            if str(attribute.cardinality) != "0..1":
                chunk += f" {attribute.cardinality}"
            lines.append(chunk)
        for procedure in association.attached_procedures:
            lines.append(f"attach {association.name} {procedure.name}")
    return "\n".join(lines) + "\n"
