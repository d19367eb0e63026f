#!/usr/bin/env python
"""Attached procedures: integrity rules written as code.

The paper: "Attached procedures may be attached to any SEED schema
element. They are executed when an item of the corresponding schema
element is updated. Attached procedures are used to express complex
integrity constraints." This example registers one such rule, attaches
it to an association, and shows SEED accepting the updates that keep
the rule and vetoing the one that breaks it.

Run:  python examples/integrity_procedures.py
"""

from repro import SchemaBuilder, SeedDatabase
from repro.core import ConsistencyError, attached_procedure


@attached_procedure(
    "writes_happen",
    operations=("create", "update"),
    doc="a known number of writes is at least one",
)
def writes_happen(context):
    """Vetoes a Write whose known number of writes is below one."""
    times = context.item.attribute("NumberOfWrites")
    if times is not None and times < 1:
        return [f"a Write happens at least once, not {times} times"]
    return None


def main() -> None:
    builder = SchemaBuilder("procedures")
    builder.entity_class("Data")
    builder.entity_class("Action")
    builder.association("Write", ("to", "Data", "0..*"), ("by", "Action", "0..*"))
    builder.attribute("Write", "NumberOfWrites", "INTEGER")
    builder.attach("Write", "writes_happen")  # by its registered name
    db = SeedDatabase(builder.build(), "procedures")

    alarms = db.create_object("Data", "Alarms")
    handler = db.create_object("Action", "AlarmHandler")
    flow = db.relate("Write", to=alarms, by=handler)  # count unknown: fine
    flow.set_attribute("NumberOfWrites", 2)
    print("accepted: AlarmHandler writes Alarms",
          flow.attribute("NumberOfWrites"), "times")

    try:
        flow.set_attribute("NumberOfWrites", 0)
    except ConsistencyError as exc:
        print("vetoed:", exc)
    else:
        raise SystemExit("the rule let a Write with no writes through")
    # a vetoed update leaves the database as it was
    assert flow.attribute("NumberOfWrites") == 2
    print("still:", flow.attribute("NumberOfWrites"), "writes")


if __name__ == "__main__":
    main()
