"""Query layer: by-name retrieval, predicates, the ER algebra, planner.

* :class:`~repro.core.query.retrieval.Retrieval` — the prototype-level
  retrieval operations (by name, by name prefix, class extents,
  navigation chains);
* :mod:`~repro.core.query.predicates` — the optimizer-readable object
  predicates queries build (name prefix, value equality,
  participation, conjunction);
* :mod:`~repro.core.query.algebra` — the entity-relationship algebra
  extension (select/project/rename/join/union/difference over class
  extents and relationship relations), evaluated eagerly — the
  reference implementation;
* :mod:`~repro.core.query.planner` — the cost-based planner: the
  select/project/rename/join part of that algebra built as a logical
  plan, optimized with index-layer statistics (selection pushdown,
  indexed scans, joins ordered by what they read, index joins) and
  executed through streaming generators over fused scan leaves;
* :mod:`~repro.core.query.parallel` — the fused scan kernel every
  ``Select``-over-scan leaf runs through: in-thread for plain plans,
  fanned over a warm forked worker pool where the planner finds a scan
  large enough and the host has ``fork`` and more than one CPU
  (``plan(db, ParallelConfig())``).

Planner example — the builder mirrors the ``Relation`` API, and
``explain()`` shows what the optimizer did::

    from repro.core.query import plan, on
    from repro.core.query.predicates import name_prefix

    query = (
        plan(db).extent("Data", column="data")
        .join(plan(db).relationship("Access"))
        .select(on("data", name_prefix("Alarm")))
    )
    print(query.explain())
    # Join on [data]  est~3
    # ├─ ExtentScan Data as data prefix='Alarm'  est~1
    # └─ RelScan Access (data, by)  est~3
    result = query.execute()   # a Relation, multiset-equal to the
                               # eager evaluation of the same query

The selection was pushed below the join and rewritten from a full
extent scan into a bisected name-index range scan; the join streams the
larger input and materializes only the smaller. On a database with
more than a handful of flows the same query plans as ``IndexJoin
Access.data`` over the prefix scan: only the edges of the matching data
objects are fetched, and ``Access`` is never scanned.
"""

from repro.core.query.algebra import Relation, extent, relationship_relation
from repro.core.query.parallel import ParallelConfig
from repro.core.query.planner import Plan, PlanBuilder, on, plan
from repro.core.query.retrieval import Retrieval

__all__ = [
    "ParallelConfig",
    "Relation",
    "extent",
    "relationship_relation",
    "Retrieval",
    "Plan",
    "PlanBuilder",
    "on",
    "plan",
]
