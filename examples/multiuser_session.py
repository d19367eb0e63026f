#!/usr/bin/env python
"""The multi-user service: sessions, wire clients, MVCC snapshot reads.

Since PR 7 the two-level architecture (paper, "Open problems") is a
real concurrent service: ``connect`` mints a session *token* — the
credential every check-out/check-in presents — the lock table is keyed
by token (a stale pre-disconnect handle can never touch its successor's
locks), and retrieval runs against *pinned snapshot views* that stay
consistent while check-ins apply. Each accepted check-in publishes a
new snapshot (``p1``, ``p2``, ...); global versions are the ones the
server's owner creates.

This script runs the service in-process on an ephemeral port. The same
service runs standalone against a durable journal with::

    python -m repro serve central.journal --port 7844

and any number of :class:`~repro.multiuser.ServiceClient` processes
connect to it.

Run:  python examples/multiuser_session.py
"""

from repro.core import LockError, SeedError
from repro.multiuser import SeedServer, SeedService, ServiceClient
from repro.spades import SpadesTool, spades_schema
from repro.workloads import SpecShape, generate_spec, load_into_spades


def main() -> None:
    # ------------------------------------------------------------------
    # the central database, seeded with a generated specification
    # ------------------------------------------------------------------
    server = SeedServer(spades_schema())
    spec = generate_spec(
        SpecShape(actions=6, data=6, flows=8, vague_fraction=0.0), seed=7
    )
    load_into_spades(spec, SpadesTool("central", db=server.master))
    server.create_global_version()
    data_names = sorted(
        o.simple_name
        for o in server.master.objects("Data", include_specials=False)
    )
    print("central objects:", ", ".join(data_names))

    # ------------------------------------------------------------------
    # serve it: many concurrent clients over the wire protocol
    # ------------------------------------------------------------------
    with SeedService(server) as service:
        host, port = service.address
        print(f"\nserving on {host}:{port} (JSON lines over a socket)")

        alice = ServiceClient.for_service(service, "alice")
        bob = ServiceClient.for_service(service, "bob")
        print(f"alice's session token: {alice.token}")

        # -- disjoint check-outs; conflicts fail fast, naming the user -
        alice_item, bob_item = data_names[0], data_names[1]
        alice_local = alice.check_out(alice_item)
        bob.check_out(bob_item)
        carol = ServiceClient.for_service(service, "carol")
        try:
            carol.check_out(alice_item)
        except LockError as exc:
            print(f"carol's conflicting check-out failed fast: {exc}")

        # -- an MVCC reader pins a snapshot before alice commits -------
        reader = ServiceClient.for_service(service, "reporter")
        pinned = reader.pin()
        before_objects, __ = reader.counts()

        # -- local work with full SEED semantics, then check-in --------
        alice_obj = alice_local.get_object(alice_item)
        alice_obj.add_sub_object("Note", "alice: retention policy = 30 days")
        alice.check_in()
        print(f"\nalice checked in; locks held centrally: "
              f"{len(server.locks)} (bob still holds his)")

        # the reader's pin predates the commit: its answers are frozen
        after_objects, __ = reader.counts()
        print(f"reporter pinned {pinned}: {before_objects} objects before "
              f"alice's commit, still {after_objects} after (consistent "
              "as of the pin)")
        reader.pin()
        fresh_objects, __ = reader.counts()
        print(f"after re-pinning: {fresh_objects} objects (alice's Note)")

        # -- a zombie: bob's socket drops without a clean disconnect ---
        stale_token = bob.token
        bob.close()  # crash, network cut — no disconnect call
        import time
        time.sleep(0.1)  # the service notices EOF and closes the session
        zombie = ServiceClient.for_service(service)
        zombie.token = stale_token  # resurrect the dead credential
        try:
            zombie.check_out(bob_item)
        except SeedError as exc:
            print(f"\nbob's zombie handle was refused: {exc}")
        print(f"bob's locks after the drop: "
              f"{len(server.locks)} held centrally")

        # -- a large check-in over the wire ----------------------------
        loader = ServiceClient.for_service(service, "loader")
        local = loader.check_out()
        for i in range(80):
            local.create_object("Data", f"Imported{i}")
        loader.check_in()  # one master transaction, like every check-in
        print(f"\nloader checked in 80 new objects; service stats:")
        stats = loader.stats()
        print(f"  check-ins applied: {stats['checkins_applied']}, "
              f"published snapshot: {stats['published']}, "
              f"snapshot reads served: {stats['reads_served']}")

        for client in (alice, carol, reader, zombie, loader):
            client.close()

    # the server object survives the service: global versions and all
    version = server.create_global_version()
    print(f"\nglobal version {version} saved; history:")
    print(server.master.versions.tree.render())


if __name__ == "__main__":
    main()
