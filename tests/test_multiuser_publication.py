"""A team cycle pays for what it changed: the oracles.

Over seeded histories on masters with patterns, each fast path is
compared with the full computation it replaces (``tests/_oracles.py``):

* **publication** — after every check-in (accepted or rejected) and
  every direct master transaction, restore and schema migration, the
  published snapshot answers every retrieval as a view built cold from
  the live master does (:func:`cold_live_view`), lists in order;
* **package** — ``build_package`` freezes only the keys the local copy
  reported and still equals the diff of every item
  (:func:`full_diff_package`), in order, over client histories with
  local rollbacks, reclassification, patterns, deletes and local
  versions;
* **ticket** — every state of a check-out ticket, most of them taken
  from the standing publication, equals the master item frozen at
  check-out (:func:`freeze_all_ticket`);
* **closure** — ``SeedServer.closure`` (one walk, the incidence index)
  equals :func:`closure_keys_scan` (two walks, every relationship).
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import SeedError
from repro.multiuser import SeedServer
from repro.multiuser.checkin import build_package
from repro.core.values import STRING
from repro.spades import spades_schema
from _oracles import (
    closure_keys_scan,
    cold_live_view,
    freeze_all_ticket,
    full_diff_package,
)
from test_view_successor import observe

SEEDS = [3, 11, 1986]


def make_master(server: SeedServer, rng: random.Random) -> None:
    """Two action patterns (one with a pattern relationship), actions
    that inherit them, data objects, and flows and triggers among
    them."""
    master = server.master
    templates = []
    for number in range(2):
        template = master.create_object("Action", f"Template{number}", pattern=True)
        template.add_sub_object("Note", f"pattern note {number}")
        templates.append(template)
    master.relate(
        "Triggers", {"trigger": templates[0], "triggered": templates[1]},
        pattern=True,
    )
    actions = []
    for number in range(10):
        action = master.create_object("Action", f"Act{number}")
        action.add_sub_object("Description", f"does {number}")
        if rng.random() < 0.4:
            master.inherit(rng.choice(templates), action)
        actions.append(action)
    data = [master.create_object("Data", f"Dat{number}") for number in range(10)]
    for __ in range(24):
        kind = rng.choice(["Access", "Read", "Write", "Triggers"])
        if kind == "Triggers":
            first, second = rng.sample(actions, 2)
            master.relate(kind, {"trigger": first, "triggered": second})
        else:
            role = {"Access": "data", "Read": "from", "Write": "to"}[kind]
            master.relate(kind, {role: rng.choice(data), "by": rng.choice(actions)})


def roots_of(master, rng: random.Random) -> list[str]:
    """One to three live independent non-pattern names."""
    names = sorted(
        obj.simple_name
        for obj in master.objects(include_patterns=False)
        if obj.parent is None
    )
    return rng.sample(names, min(len(names), rng.randint(1, 3)))


# ---------------------------------------------------------------------------
# client histories
# ---------------------------------------------------------------------------

def local_edit(local, rng: random.Random, number: int) -> None:
    """One random edit of a local copy; a refused one rolls back."""
    objects = [obj for obj in local.objects(include_patterns=True) if obj.parent is None]
    actions = [obj for obj in objects if obj.class_name == "Action" and not obj.is_pattern]
    data = [obj for obj in objects if obj.class_name.endswith("Data")]
    patterns = [obj for obj in objects if obj.is_pattern]
    roll = rng.random()
    try:
        if roll < 0.2 and actions:
            action = rng.choice(actions)
            local.set_value(action.sub_object("Description"), f"edit {number}")
        elif roll < 0.3 and objects:
            rng.choice(objects).add_sub_object("Note", f"note {number}")
        elif roll < 0.4 and actions:
            created = local.create_object("Data", f"New{number}")
            local.relate("Read", {"from": created, "by": rng.choice(actions)})
        elif roll < 0.5 and data:
            local.delete(rng.choice(data))  # cascades to its flows
        elif roll < 0.58:
            flows = local.relationships("Access", include_specials=False)
            if flows:
                local.reclassify(rng.choice(flows), rng.choice(["Read", "Write"]))
        elif roll < 0.64 and data:
            obj = rng.choice(data)
            if obj.class_name == "Data":
                local.reclassify(obj, "InputData")
        elif roll < 0.7 and patterns and actions:
            local.inherit(rng.choice(patterns), rng.choice(actions))
        elif roll < 0.78 and actions:
            # changed and changed back: the package must not carry it
            description = rng.choice(actions).sub_object("Description")
            value = description.value
            local.set_value(description, "transient")
            local.set_value(description, value)
        elif roll < 0.86 and actions:
            # a local transaction the user abandons: it rolls back
            with local.transaction():
                local.set_value(rng.choice(actions).sub_object("Description"), "gone")
                local.create_object("Data", f"Gone{number}")
                raise _Abandon
        elif roll < 0.92:
            local.create_version()
        elif local.saved_versions():
            local.select_version(
                rng.choice(local.saved_versions()), discard_changes=True
            )
    except _Abandon:
        pass
    except SeedError:
        pass  # refused by the consistency rules: rolled back


class _Abandon(Exception):
    """Leaves a local transaction, which rolls it back."""


def direct_edit(
    server: SeedServer, rng: random.Random, number: int, restores: bool = True
) -> list[str]:
    """A direct master transaction, a restore (only with *restores*: a
    copy checked out before a restore cannot be checked in), a schema
    migration or a global version, as the server's owner may run them.
    Returns the names of the roots a transaction changed."""
    master = server.master
    roll = rng.random()
    changed: list[str] = []
    try:
        if roll < 0.35:
            with master.transaction():
                name = rng.choice(roots_of(master, rng))
                action = master.get_object(name)
                if action.class_name == "Action":
                    master.set_value(action.sub_object("Description"), f"direct {number}")
                else:
                    action.add_sub_object("Note", f"direct {number}")
                master.create_object("Data", f"Direct{number}")
            changed = [name, f"Direct{number}"]
        elif roll < 0.5:
            with master.transaction():
                master.create_object("Data", f"Doomed{number}")
                raise _Abandon
        elif roll < 0.65:
            server.create_global_version()
        elif roll < 0.75 and restores and master.saved_versions():
            master.select_version(
                rng.choice(master.saved_versions()), discard_changes=True
            )
        elif roll < 0.8:
            # a new dependent class: every retrieval by class sees it
            migrated = master.schema.copy(f"tagged{number}")
            migrated.entity_class("Data").add_dependent(
                f"Tag{number}", "0..1", value_sort=STRING
            )
            master.migrate_schema(migrated)
        else:
            victims = [
                obj for obj in master.objects("Data") if obj.parent is None
            ]
            if victims:
                master.delete(rng.choice(victims))
    except _Abandon:
        pass
    except SeedError:
        pass
    return changed


def assert_published_is_cold(server: SeedServer) -> None:
    snapshot = server.publish_snapshot()
    published = server.snapshot(snapshot)
    assert observe(published) == observe(cold_live_view(server.master)), snapshot


@pytest.mark.parametrize("seed", SEEDS)
def test_team_cycles_against_their_oracles(seed, monkeypatch):
    rng = random.Random(seed)
    server = SeedServer(spades_schema())
    make_master(server, rng)
    tickets = []
    real_check_out = server.check_out

    def checked_out(token, names):
        ticket = real_check_out(token, names)
        objects, relationships = freeze_all_ticket(server.master, ticket.keys)
        assert ticket.objects == objects
        assert ticket.relationships == relationships
        tickets.append(ticket)
        return ticket

    monkeypatch.setattr(server, "check_out", checked_out)
    client = server.connect("writer")
    outcomes = {"accepted": 0, "rejected": 0, "from the publication": 0}
    assert_published_is_cold(server)
    for number in range(40):
        names = roots_of(server.master, rng)
        if rng.random() < 0.3:
            # unpublished: the ticket must freeze what it changed
            names += direct_edit(server, rng, number)
            if rng.random() < 0.3:
                assert_published_is_cold(server)
        published = server.snapshot(server.latest_snapshot())
        local = client.check_out(*dict.fromkeys(names))
        outcomes["from the publication"] += sum(
            state is published.state_of(("o", oid))
            for oid, state in tickets[-1].objects
        )
        for step in range(rng.randint(1, 6)):
            local_edit(local, rng, number * 10 + step)
        package = build_package(
            local, client._baseline_objects, client._baseline_relationships,
            client._changed,
        )
        assert package == full_diff_package(
            local, client._baseline_objects, client._baseline_relationships
        )
        if rng.random() < 0.25:
            direct_edit(server, rng, number, restores=False)  # may make the copy stale
        elif rng.random() < 0.15:
            # the same description edited on both sides: a stale copy
            mine = [
                obj for obj in local.objects("Action")
                if obj.parent is None and server.master.find_object(obj.simple_name)
            ]
            if mine:
                name = f"{rng.choice(mine).simple_name}.Description"
                local.set_value(local.get_object(name), "mine")
                server.master.set_value(server.master.get_object(name), "theirs")
        try:
            client.check_in()
            outcomes["accepted"] += 1
        except SeedError:
            outcomes["rejected"] += 1
            client.abandon()
        assert_published_is_cold(server)
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("seed", SEEDS)
def test_the_closure_equals_the_scan(seed):
    rng = random.Random(seed)
    server = SeedServer(spades_schema())
    make_master(server, rng)
    master = server.master
    names = [
        obj.simple_name for obj in master.objects(include_patterns=True)
        if obj.parent is None
    ]
    for __ in range(30):
        wanted = rng.sample(names, rng.randint(1, 4))
        fast = server.closure(wanted)
        scan = closure_keys_scan(server, wanted)
        assert [obj.oid for obj in fast[0]] == [obj.oid for obj in scan[0]]
        assert fast[1] == scan[1]
