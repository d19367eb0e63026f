"""Cost-based query planner over the index layer.

The eager :class:`~repro.core.query.algebra.Relation` algebra evaluates
strictly left-to-right and fully materializes every intermediate table.
This module keeps that algebra as the *reference implementation* and adds
a planned evaluation path with three layers:

1. **Logical plans** — a small tree of immutable nodes
   (:class:`ExtentScan`, :class:`RelScan`, :class:`Select`,
   :class:`Project`, :class:`Rename`, :class:`Join`) built through
   :func:`plan`, whose builder mirrors the part of the ``Relation`` API
   that queries use (``select``/``project``/``rename``/``join``).

2. **A cost-based optimizer** that reads cardinality statistics from the
   PR-1 :class:`~repro.core.indexes.IndexLayer` (extent sizes,
   association counters, name-prefix counts, and — since PR 5 — the
   maintained value and participation histograms) to

   * push selections below joins, renames and projections;
   * rewrite a :class:`~repro.core.query.predicates.NamePrefix`
     selection over an extent of independent classes into a bisected
     ``objects_by_name_prefix`` range scan;
   * order join chains — of two factors as of ten — by what each step
     **reads**, and pick every step's join method (below), always
     preferring join partners that share a column (no accidental
     cartesian products) and restoring the original column order with
     an internal :class:`Reorder` node;
   * give every selection over an association scan that is still in
     the tree its cheaper access path: ``σ role: name^='p'`` over an
     association whose role classes are all independent is read from
     the name index (:class:`IndexJoin` from the objects named ``p*``)
     when that reads fewer than half the rows the scan would —
     wherever the selection sits (join input, under a rename).

   **Read-cost model.** Output estimates say how many rows a subtree
   returns; they do not say what producing them costs — ``σ by:
   name^='Alert883'`` over a ``Read`` scan returns one row and reads
   the whole ``Access`` family. Joins are therefore ordered by *read
   cost*, in scanned-row units (the unit of
   :func:`~repro.core.query.parallel.pool_pays`): a shardable scan
   costs the rows its kernel reads
   (:func:`~repro.core.query.parallel.scan_size` — for an association
   scan the whole family), whatever is selected from them; a prefix
   extent scan costs its slice of the name index; a hash join costs
   both inputs; an :class:`IndexJoin` costs its driving side plus
   ``est(drive) × association_size / distinct_participants(assoc,
   role)``, the edges it fetches. Every row a step returns is work for
   the next one, so a step's work is the rows it adds to what the plan
   reads *plus* its output estimate (read cost alone would start
   ``σ tag (Note) ⋈ Covers ⋈ Mentions`` from the 6 000-row ``Mentions``
   scan instead of the 11 notes that cost 10 000 rows to find): the
   chain starts from the factor with the least work and is extended
   greedily by the step that adds the least. Each step is a hash :class:`Join` — smaller estimated input on the left,
   which the executor builds — or, when the factor is an association
   scan joined through one role column and probing reads fewer than
   half the rows scanning would, an :class:`IndexJoin` from the chain so
   far. The join method is thus part of the optimized tree: rendered
   by ``explain()``, cached with the plan, never decided at run time.

   **Statistics model (PR 5).** Selection selectivities are no longer a
   fixed 1/3: structured predicates are costed from maintained
   statistics — ``NamePrefix`` from the bisected name-index count,
   ``ValueEquals`` from the per-class value counters (exact counts),
   ``ParticipatesIn`` from the distinct-participant counters, and
   ``And`` multiplies its parts' selectivities. Join
   output sizes use the containment-of-value-sets estimate
   ``|L|·|R| / ∏ max(V(L,c), V(R,c))`` over per-column distinct counts
   (extent rows are distinct; role columns read the participation
   histogram). Opaque callables keep the 1/3 heuristic.

3. **A streaming executor** that yields rows through generators.
   The leaves are *shardable scans* — zero or more selections over a
   bare extent or association scan, peeled once by ``_shard_spec`` —
   and every one of them runs through the fused kernel of
   :mod:`repro.core.query.parallel` (liveness, family membership and
   the peeled predicates in one loop over the sorted id list), on the
   calling thread, a chunk of ids at a time: rows stream, memory stays
   O(chunk), and a consumer that stops early stops the scan. The
   executor itself only scans the bisected name-index slice of a
   prefix-rewritten extent. Above the leaves, selections (over
   anything that is not a bare scan), projections, renames and the
   probe side of every join stream; only pipeline breakers materialize
   (the build side of a join — chosen as the smaller estimated input —
   and the duplicate-elimination set of a projection). A hash
   :class:`Join` builds its left input and probes with its right. An
   :class:`IndexJoin` never scans its association: it streams the
   driving side, fetches each driving object's incident relationships
   from the incidence index, keeps those bound at the join role,
   filters them with the scan side's peeled predicates, and so turns
   the join from O(family) into O(matching edges).

Equivalence contract: for any query built both ways, the planner's
:meth:`Plan.execute` returns a relation whose row *multiset* equals the
eager evaluation (verified for randomized schemas/populations/queries in
``tests/test_planner_equivalence.py``). :meth:`Plan.explain` renders a
deterministic plan tree with cardinality estimates for golden-snapshot
testing.

4. **A plan cache** (:class:`PlanCache`, one per database) so
   persistent/repeated queries skip re-optimization: optimizer output
   is memoized under a structural key of the logical tree plus the
   schema epoch (:attr:`~repro.core.versions.manager.VersionManager.
   current_schema_index`), so schema migration invalidates every cached
   plan (``migrate_schema`` additionally clears the cache outright).
   Structured predicates (:mod:`repro.core.query.predicates`) key by
   value; opaque callables key by identity — re-running the *same*
   plan object hits, a structurally identical rebuild with fresh
   lambdas misses.

   **Drift rule.** An entry is served while none of the statistics its
   optimization read has drifted. Every index-layer statistic the
   optimizer consults passes one recording seam, the entry keeps
   ``{(accessor, *args): value}``, and a lookup re-reads exactly those
   keys: one that moved by more than :data:`DRIFT_MIN_DELTA` rows
   **and** by more than :data:`DRIFT_RATIO`× (+1-smoothed, so a
   near-empty reading still compares) re-optimizes the entry in place
   (:attr:`PlanCache.reoptimizations`). What the cost model reads is
   what the cache watches — there is no second list to keep in step.
   Soundness never depends on it: a stale plan is correct, just slower.

5. **Pooled scans.** With a
   :class:`~repro.core.query.parallel.ParallelConfig` (the shard count
   — nothing else is configurable), the optimizer runs a final pass
   that wraps a shardable scan in a :class:`Parallel` node when a
   worker pool pays for it. That is decided per scan from the
   maintained statistics, in scanned-row units
   (:func:`~repro.core.query.parallel.pool_pays`): a base scan of
   ``S`` rows is pooled only when ``S >= 100 000`` (below that, pool
   spin-up dominates) and ``S / shards + 25 000 < S`` (the per-shard
   cost plus a fixed dispatch charge must beat one thread). A host
   without ``fork`` or with one CPU never pools
   (:func:`~repro.core.query.parallel.host_can_pool`). Every other scan
   runs in-thread — the *same* kernel, so the two choices differ in
   where the loop runs and in nothing else.

   ``explain()`` renders the choice deterministically
   (``Parallel shards=4 per-shard~S/n+C dispatch``). Execution cuts
   the scan's sorted id list into contiguous ranges through the index
   layer, runs one kernel call per non-empty range on the warm forked
   pool, and merges in range order — the in-thread row order. The node
   is a pipeline breaker, so everything above
   (``Project``, join probe/build) streams unchanged. Worker failures are bounded by failpoints and a result
   timeout, after which the scan just runs in-thread (see
   :mod:`repro.core.query.parallel`). A plan is pooled or not by how it
   was built — ``plan(db, config)`` or ``plan(db)`` — and cached plans
   key on the config, so the same logical tree can hold plain and
   pooled optimizations side by side.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.core.database import SeedDatabase
from repro.core.errors import QueryError
from repro.core.objects import SeedObject
from repro.core.query.algebra import Relation
from repro.core.query import parallel as kernel
from repro.core.query.parallel import ParallelConfig, ShardSpec
from repro.core.query.predicates import (
    And,
    NamePrefix,
    ParticipatesIn,
    ValueEquals,
    describe_predicate,
)

__all__ = [
    "plan",
    "on",
    "Plan",
    "PlanBuilder",
    "PlanCache",
    "plan_cache",
    "execute_node",
    "ColumnPredicate",
    "ExtentScan",
    "RelScan",
    "Select",
    "Project",
    "Rename",
    "Join",
    "Reorder",
    "IndexJoin",
    "Parallel",
    "ParallelConfig",
]


# ----------------------------------------------------------------------
# predicates over rows
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnPredicate:
    """A row predicate that tests a single column with an object predicate.

    Works directly as a ``Relation.select`` predicate (it is a callable
    over row dicts), while giving the optimizer the structure it needs:
    the referenced column (for pushdown) and the cell-level predicate
    (for indexed-scan rewrites).
    """

    column: str
    predicate: Callable[[Any], bool]

    def __call__(self, row: dict[str, Any]) -> bool:
        return bool(self.predicate(row[self.column]))

    def describe(self) -> str:
        return f"{self.column}: {describe_predicate(self.predicate)}"


def on(column: str, predicate: Callable[[Any], bool]) -> ColumnPredicate:
    """Bind an object/value predicate to one column of a relation."""
    return ColumnPredicate(column, predicate)


# ----------------------------------------------------------------------
# logical plan nodes
# ----------------------------------------------------------------------


#: memo of :func:`_shape`, per node type
_SHAPES: dict[type, tuple[tuple[str, ...], tuple[str, ...]]] = {}


def _shape(node: "PlanNode") -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Every field name of *node*'s type, and the names of the fields
    that hold plan nodes — they do in every instance of a type, so both
    are read off the first instance seen."""
    shape = _SHAPES.get(type(node))
    if shape is None:
        names = tuple(field.name for field in fields(node))
        shape = _SHAPES[type(node)] = (
            names,
            tuple(n for n in names if isinstance(getattr(node, n), PlanNode)),
        )
    return shape


@dataclass(frozen=True, eq=False)
class PlanNode:
    """Base of all logical plan nodes (immutable, identity-hashed).

    The tree shape is read off the dataclass fields: a field that holds
    a plan node is a child, in field order. Keying, rewriting and
    rendering walk :attr:`children`, so a new node type needs no
    traversal code of its own.
    """

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return tuple([getattr(self, name) for name in _shape(self)[1]])

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """This node over *children*, one per :attr:`children` slot."""
        return replace(self, **dict(zip(_shape(self)[1], children)))


@dataclass(frozen=True, eq=False)
class ExtentScan(PlanNode):
    """Scan the live extent of a class into a one-column relation.

    With ``prefix`` set (by the optimizer) the scan bisects the sorted
    name index instead of walking the extent — sound only when every
    class of the scanned family is independent, which the rewrite checks.
    """

    class_name: str
    column: str
    prefix: Optional[str] = None


@dataclass(frozen=True, eq=False)
class RelScan(PlanNode):
    """Scan an association's instances into a two-column relation."""

    association: str


@dataclass(frozen=True, eq=False)
class Select(PlanNode):
    """Keep rows satisfying a predicate (row dict or :func:`on`)."""

    child: PlanNode
    predicate: Callable[[dict[str, Any]], bool]


@dataclass(frozen=True, eq=False)
class Project(PlanNode):
    """Keep only the named columns, removing duplicate rows."""

    child: PlanNode
    columns: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class Rename(PlanNode):
    """Rename columns; ``renames`` is a sorted (old, new) tuple."""

    child: PlanNode
    renames: tuple[tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
class Join(PlanNode):
    """Natural join on all shared columns (cartesian when none)."""

    left: PlanNode
    right: PlanNode


@dataclass(frozen=True, eq=False)
class Reorder(PlanNode):
    """Permute columns (optimizer-internal; restores the original layout
    after join reordering without the duplicate-removal of a Project)."""

    child: PlanNode
    columns: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class IndexJoin(PlanNode):
    """Index nested-loop join (optimizer-placed): stream ``drive`` and,
    for each of its rows, fetch the relationships of ``scan``'s
    association that bind the ``column`` cell at that role — from the
    incidence index, never by scanning the association.

    ``scan`` is a shardable association scan (selections over a bare
    :class:`RelScan`); its selections filter the fetched rows. The
    result is the natural join of the two on ``column``, their only
    shared column: the drive row followed by ``scan``'s other columns.
    """

    drive: PlanNode
    scan: PlanNode
    column: str


@dataclass(frozen=True, eq=False)
class Parallel(PlanNode):
    """Run a shardable subtree across the worker pool (optimizer-placed)."""

    child: PlanNode
    shards: int


# ----------------------------------------------------------------------
# schema helpers
# ----------------------------------------------------------------------


def _columns_of(db: SeedDatabase, node: PlanNode) -> tuple[str, ...]:
    """Output columns of *node*, computed statically."""
    if isinstance(node, ExtentScan):
        return (node.column,)
    if isinstance(node, RelScan):
        return db.schema.association(node.association).role_names()
    if isinstance(node, (Project, Reorder)):
        return node.columns
    columns = _columns_of(db, node.children[0])
    if isinstance(node, Rename):
        mapping = dict(node.renames)
        return tuple(mapping.get(column, column) for column in columns)
    if isinstance(node, (Join, IndexJoin)):
        right = _columns_of(db, node.children[1])
        return columns + tuple(column for column in right if column not in columns)
    return columns  # pass-through nodes


def _family_is_independent(db: SeedDatabase, scan: ExtentScan) -> bool:
    """True when every class the scan can yield is a top-level class.

    Only then does every scanned instance appear in the sorted name
    index, making the prefix range scan equivalent to the predicate.
    """
    wanted = db.schema.entity_class(scan.class_name)
    if not wanted.is_independent:
        return False
    return all(special.is_independent for special in wanted.all_specials())


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------

#: fallback selectivity for predicates the statistics cannot explain
#: (opaque callables) — the planner's pre-statistics heuristic
DEFAULT_SELECTIVITY = 1 / 3


def _column_class(db: SeedDatabase, node: PlanNode, column: str) -> Optional[str]:
    """Class name of the objects a column carries, traced to its scan.

    ``None`` when the column cannot be traced.
    """
    if isinstance(node, ExtentScan):
        return node.class_name if column == node.column else None
    if isinstance(node, RelScan):
        assoc = db.schema.association(node.association)
        roles = assoc.role_names()
        if column in roles:
            return assoc.role_at(roles.index(column)).target.full_name
        return None
    return _column_class(db, *_column_source(db, node, column))


def _column_source(
    db: SeedDatabase, node: PlanNode, column: str
) -> tuple[PlanNode, str]:
    """The child of *node* that *column* comes from, and its name there:
    the first child, unless only a join's second input carries it."""
    owner = node.children[0]
    if isinstance(node, Rename):
        column = {new: old for old, new in node.renames}.get(column, column)
    elif isinstance(node, (Join, IndexJoin)):
        if column not in _columns_of(db, owner):
            owner = node.children[1]
    return owner, column


def _predicate_selectivity(
    db: SeedDatabase, predicate: Any, class_name: Optional[str]
) -> float:
    """Fraction of rows a cell predicate keeps, from the statistics.

    *class_name* is the traced class of the tested column (None when
    untraceable); histogram lookups then fall back to database-wide
    aggregates. Opaque predicates keep the old 1/3 heuristic.
    """
    indexes = db.indexes
    if isinstance(predicate, And):
        selectivity = 1.0
        for part in predicate.parts:
            selectivity *= _predicate_selectivity(db, part, class_name)
        return selectivity
    if isinstance(predicate, NamePrefix):
        total = indexes.name_count()
        if not total:
            return DEFAULT_SELECTIVITY
        return indexes.name_prefix_count(predicate.prefix) / total
    if isinstance(predicate, ValueEquals):
        wanted = (
            db.schema.entity_class(class_name) if class_name is not None else None
        )
        if wanted is not None:
            total = indexes.extent_size(wanted)
        else:  # aggregate over every class
            total = indexes.total_objects()
        if not total:
            return DEFAULT_SELECTIVITY
        try:
            if wanted is not None:
                matching = indexes.value_frequency(wanted, predicate.expected)
            else:
                matching = indexes.total_value_frequency(predicate.expected)
        except TypeError:
            # unhashable expected value (e.g. a list): the predicate is
            # still a valid filter — it just cannot be histogram-costed
            return DEFAULT_SELECTIVITY
        return min(1.0, matching / total)
    if isinstance(predicate, ParticipatesIn):
        try:
            assoc = db.schema.association(predicate.association)
        except Exception:  # pragma: no cover - defensive
            return DEFAULT_SELECTIVITY
        position: Optional[int] = None
        if predicate.role is not None and predicate.role in assoc.role_names():
            position = assoc.role_names().index(predicate.role)
        participants = indexes.distinct_participants(assoc.name, position)
        if class_name is not None:
            total = indexes.extent_size(db.schema.entity_class(class_name))
        else:
            total = indexes.total_objects()
        if not total:
            return DEFAULT_SELECTIVITY
        return min(1.0, participants / total)
    return DEFAULT_SELECTIVITY


def _selectivity_of(
    db: SeedDatabase, child: PlanNode, predicate: Callable[..., Any]
) -> float:
    """Selectivity of a Select's predicate over *child*'s rows."""
    if isinstance(predicate, ColumnPredicate):
        class_name = _column_class(db, child, predicate.column)
        return _predicate_selectivity(db, predicate.predicate, class_name)
    return DEFAULT_SELECTIVITY


def _estimate(db: SeedDatabase, node: PlanNode, memo: dict[int, int]) -> int:
    """Estimated output rows of *node*, from index-layer statistics."""
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    estimate = _estimate_uncached(db, node, memo)
    memo[id(node)] = estimate
    return estimate


def _estimate_uncached(db: SeedDatabase, node: PlanNode, memo: dict[int, int]) -> int:
    indexes = db.indexes
    if isinstance(node, ExtentScan):
        wanted = db.schema.entity_class(node.class_name)
        size = indexes.extent_size(wanted)
        if node.prefix is not None:
            size = min(size, indexes.name_prefix_count(node.prefix))
        return size
    if isinstance(node, RelScan):
        return indexes.association_size(node.association)
    if isinstance(node, Select):
        child = _estimate(db, node.child, memo)
        selectivity = _selectivity_of(db, node.child, node.predicate)
        return max(1, round(child * selectivity))
    if isinstance(node, (Join, IndexJoin)):
        left_node, right_node = node.children
        left = _estimate(db, left_node, memo)
        right = _estimate(db, right_node, memo)
        left_columns = _columns_of(db, left_node)
        right_columns = _columns_of(db, right_node)
        shared = [column for column in right_columns if column in left_columns]
        if shared:
            # |L ⋈ R| ≈ |L|·|R| / ∏ max(V(L,c), V(R,c)) — the classical
            # containment-of-value-sets estimate over the maintained
            # distinct counts; never below the old max(L, R) // denom
            denominator = 1
            for column in shared:
                denominator *= max(
                    _distinct_of(db, left_node, column, memo),
                    _distinct_of(db, right_node, column, memo),
                    1,
                )
            return max(1, (left * right) // denominator) if left and right else 0
        return left * right
    # pass-through nodes keep their input's rows
    return _estimate(db, node.children[0], memo)


def _distinct_of(
    db: SeedDatabase, node: PlanNode, column: str, memo: dict[int, int]
) -> int:
    """Estimated distinct values a column holds in *node*'s output.

    Scans answer exactly (extent rows are distinct objects; role
    columns read the maintained distinct-participant counters);
    everything else delegates toward its scans, capped by the node's
    own row estimate.
    """
    if isinstance(node, RelScan):
        assoc = db.schema.association(node.association)
        roles = assoc.role_names()
        if column in roles:
            return db.indexes.distinct_participants(
                assoc.name, roles.index(column)
            )
        return _estimate(db, node, memo)
    if isinstance(node, ExtentScan):
        return _estimate(db, node, memo)
    distinct = _distinct_of(db, *_column_source(db, node, column), memo)
    if isinstance(node, (Select, Join, IndexJoin)):  # the nodes that drop rows
        return min(distinct, _estimate(db, node, memo))
    return distinct


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------


def optimize(
    db: SeedDatabase, node: PlanNode, parallel: Optional[ParallelConfig] = None
) -> PlanNode:
    """Full rewrite pipeline: pushdown, indexed scans, join order, join
    methods and association access paths, and — when a
    :class:`ParallelConfig` is given — pooling of the shardable scans
    large enough to pay for it (see module docstring, layer 5)."""
    node = _push_selections(db, node)
    node = _rewrite_scans(db, node)
    node = _plan_joins(db, node)
    if parallel is not None:
        node = _parallelize(db, node, parallel)
    return node


def _rebuilt(
    node: PlanNode,
    rewrite: Callable[..., PlanNode],
    *args: Any,
    only: Optional[Sequence[PlanNode]] = None,
) -> PlanNode:
    """*node* over its children as ``rewrite(*args, child)`` returns
    them (with *only*, just those of them; the others stay) — the one
    place a plan tree is rebuilt; every pass recurses through it. A node
    none of whose children changed is returned as it is."""
    children = node.children
    rewritten = tuple(
        [
            rewrite(*args, child) if only is None or child in only else child
            for child in children
        ]
    )
    if rewritten == children:  # nodes compare by identity
        return node
    return node.with_children(rewritten)


def _inputs(node: PlanNode) -> tuple[PlanNode, ...]:
    """The children *node* runs. An index join probes its scan side and
    never runs it: that child is keyed and rebuilt like any other, but
    no pass gives it an access path and ``explain()`` renders it in the
    join's label, not as a branch."""
    return node.children[:1] if isinstance(node, IndexJoin) else node.children


def _push_selections(db: SeedDatabase, node: PlanNode) -> PlanNode:
    """Sink every Select as deep as soundness allows."""
    node = _rebuilt(node, _push_selections, db)
    if isinstance(node, Select):
        return _sink(db, node.predicate, node.child)
    return node


def _sink(
    db: SeedDatabase, predicate: Callable[[dict[str, Any]], bool], node: PlanNode
) -> PlanNode:
    """Place *predicate* as low in *node*'s tree as it stays sound."""
    column = predicate.column if isinstance(predicate, ColumnPredicate) else None

    if isinstance(node, Select):
        # below sibling selections, so scans end up directly under their
        # filters (predicates are pure; order cannot matter)
        return _rebuilt(node, _sink, db, predicate)
    if column is None:
        # opaque row predicate: only the pushes above are sound
        return Select(node, predicate)
    if isinstance(node, Rename):
        inverse = {new: old for old, new in node.renames}
        renamed = ColumnPredicate(inverse.get(column, column), predicate.predicate)
        return _rebuilt(node, _sink, db, renamed)
    if isinstance(node, Reorder) or (
        isinstance(node, Project) and column in node.columns
    ):
        return _rebuilt(node, _sink, db, predicate)
    if isinstance(node, Join):
        sides = [side for side in node.children if column in _columns_of(db, side)]
        joined = _rebuilt(node, _sink, db, predicate, only=sides)
        if joined is not node:
            return joined
    return Select(node, predicate)


def _rewrite_scans(db: SeedDatabase, node: PlanNode) -> PlanNode:
    """Turn recognizable selections over extent scans into indexed scans."""
    node = _rebuilt(node, _rewrite_scans, db)
    if (
        isinstance(node, Select)
        and isinstance(node.child, ExtentScan)
        and isinstance(node.predicate, ColumnPredicate)
        and node.predicate.column == node.child.column
    ):
        return _absorb_into_scan(db, node.child, node.predicate)
    return node


def _absorb_into_scan(
    db: SeedDatabase, scan: ExtentScan, predicate: ColumnPredicate
) -> PlanNode:
    """Fold the indexable parts of *predicate* into *scan*."""
    residual: list[Callable[[Any], bool]] = []
    for part in _conjuncts(predicate.predicate):
        if isinstance(part, NamePrefix) and _family_is_independent(db, scan):
            if scan.prefix is None or part.prefix.startswith(scan.prefix):
                scan = replace(scan, prefix=part.prefix)
            elif not scan.prefix.startswith(part.prefix):
                # incompatible prefixes: provably empty, but keep the
                # filter (no dedicated empty node) — it matches nothing
                residual.append(part)
        else:
            residual.append(part)
    if not residual:
        return scan
    remaining = residual[0] if len(residual) == 1 else And(tuple(residual))
    return Select(scan, ColumnPredicate(predicate.column, remaining))


def _plan_joins(db: SeedDatabase, node: PlanNode) -> PlanNode:
    """Order maximal join chains by what each step reads, pick every
    step's join method, and give every selection over an association
    scan its cheaper access path — wherever it sits: join input, under
    a rename (see the module docstring, layer 2)."""
    if isinstance(node, Select):
        base = _rel_base(node)
        if base is not None:
            return _leaf_access(db, node, base)[0]
    if not isinstance(node, Join):
        return _rebuilt(node, _plan_joins, db, only=_inputs(node))

    memo: dict[int, int] = {}
    factors = [_Factor.of(db, factor, memo) for factor in _flatten_join(node)]
    remaining = list(range(len(factors)))
    start = min(remaining, key=lambda i: (factors[i].cost + factors[i].rows, i))
    remaining.remove(start)
    tree = factors[start].planned
    tree_columns = factors[start].columns

    # every candidate join built for costing must outlive the loop: the
    # estimate memo keys by id(), so a freed transient's address could
    # be reused by a later node, which would then hit the stale entry
    keepalive: list[PlanNode] = []
    while remaining:
        connected = [i for i in remaining if tree_columns & factors[i].columns]
        candidates = connected or remaining  # cartesian only when forced
        tree_rows = _estimate(db, tree, memo)
        # (rows the step adds to what the plan reads, the joined node);
        # a step's work is those plus the rows it hands on
        steps = {
            i: _cheapest_join(
                db, tree, tree_rows, factors[i], tree_columns & factors[i].columns
            )
            for i in candidates
        }
        keepalive.extend(joined for __, joined in steps.values())
        # output sizes come from the same containment-of-value-sets
        # estimate the rest of the optimizer uses
        chosen = candidates[0]
        if len(candidates) > 1:
            chosen = min(
                candidates,
                key=lambda i: (steps[i][0] + _estimate(db, steps[i][1], memo), i),
            )
        remaining.remove(chosen)
        tree = steps[chosen][1]
        tree_columns = tree_columns | factors[chosen].columns

    original_columns = _columns_of(db, node)
    if _columns_of(db, tree) != original_columns:
        tree = Reorder(tree, original_columns)
    return tree


@dataclass
class _Factor:
    """One input of a join chain, as the join planner sees it."""

    #: as written — what an :class:`IndexJoin` into it probes
    logical: PlanNode
    #: with joins and access paths planned — what a hash join reads
    planned: PlanNode
    columns: set[str]
    rows: int  #: output estimate
    cost: float  #: read cost of ``planned``

    @classmethod
    def of(cls, db: SeedDatabase, node: PlanNode, memo: dict[int, int]) -> "_Factor":
        base = _rel_base(node)
        if base is not None and isinstance(node, Select):
            planned, cost = _leaf_access(db, node, base)
        else:
            planned = _plan_joins(db, node)
            cost = _read_cost(db, planned)
        return cls(
            node, planned, set(_columns_of(db, node)), _estimate(db, node, memo), cost
        )


def _cheapest_join(
    db: SeedDatabase,
    tree: PlanNode,
    tree_rows: int,
    factor: _Factor,
    shared: set[str],
) -> tuple[float, PlanNode]:
    """Join *factor* onto *tree* by the method that reads least.

    A hash join reads the factor by its cheapest access path and builds
    its left input, so the smaller estimated side goes there. When the
    factor is an association scan joined through one role column, an
    :class:`IndexJoin` reads only the edges incident to the tree's
    rows; it is taken when those are fewer than the factor's own cost
    and than half the rows its kernel would scan.
    """
    base = _rel_base(factor.logical)
    if base is not None and len(shared) == 1:
        (column,) = shared
        if column in db.schema.association(base.association).role_names():
            probed = _probe_cost(db, tree_rows, base, column)
            if probed <= factor.cost and 2 * probed < _scanned_rows(db, base):
                return probed, IndexJoin(tree, factor.logical, column)
    if factor.rows < tree_rows:
        return factor.cost, Join(factor.planned, tree)
    return factor.cost, Join(tree, factor.planned)


def _flatten_join(node: PlanNode) -> list[PlanNode]:
    if isinstance(node, Join):
        return _flatten_join(node.left) + _flatten_join(node.right)
    return [node]


# ----------------------------------------------------------------------
# read cost and access paths
# ----------------------------------------------------------------------


def _scan_base(node: PlanNode) -> PlanNode:
    """What a chain of selections selects from."""
    while isinstance(node, Select):
        node = node.child
    return node


def _rel_base(node: PlanNode) -> Optional[RelScan]:
    """The bare association scan under a chain of selections, if any."""
    base = _scan_base(node)
    return base if isinstance(base, RelScan) else None


def _scanned_rows(db: SeedDatabase, base: PlanNode) -> int:
    """Rows the kernel reads to scan *base* (a bare extent or
    association scan), whatever is selected from them."""
    if isinstance(base, ExtentScan):
        return kernel.scan_size(db, "extent", base.class_name)
    return kernel.scan_size(db, "rel", base.association)


def _probe_cost(
    db: SeedDatabase, driving_rows: int, base: RelScan, column: str
) -> float:
    """Edges an :class:`IndexJoin` fetches for *driving_rows* anchors:
    the association's average fan-out per participant of that role."""
    assoc = db.schema.association(base.association)
    position = assoc.role_names().index(column)
    participants = db.indexes.distinct_participants(assoc.name, position)
    edges = db.indexes.association_size(assoc.name)
    return driving_rows * edges / max(participants, 1)


def _read_cost(db: SeedDatabase, node: PlanNode) -> float:
    """Rows *node*'s plan reads to produce its output, in scanned-row
    units (the unit of :func:`~repro.core.query.parallel.pool_pays`).

    What a plan *reads*, not what it returns: a selection costs its
    whole input however few rows survive, a prefix extent scan costs
    its slice of the name index, a hash join both inputs, an index
    join its driving side plus the edges it fetches.
    """
    if isinstance(node, ExtentScan) and node.prefix is not None:
        return db.indexes.name_prefix_count(node.prefix)
    if isinstance(node, (ExtentScan, RelScan)):
        return _scanned_rows(db, node)
    # every other node reads what its inputs read
    cost = sum(_read_cost(db, child) for child in _inputs(node))
    if isinstance(node, IndexJoin):
        driving_rows = _estimate(db, node.drive, {})
        cost += _probe_cost(db, driving_rows, _rel_base(node.scan), node.column)
    return cost


def _leaf_access(
    db: SeedDatabase, node: Select, base: RelScan
) -> tuple[PlanNode, float]:
    """The cheaper access path of a selection chain over an association
    scan, and its read cost.

    The kernel reads the scan's whole family. ``σ role: name^=p`` can
    be read from the name index instead: the objects named ``p*`` drive
    an :class:`IndexJoin` into the association, so only their edges are
    fetched. Sound when every class the role can bind is independent
    (all of them are in the name index — the guard of the prefix extent
    scan); taken when it reads fewer than half the rows the kernel
    would.
    """
    assoc = db.schema.association(base.association)
    roles = assoc.role_names()
    scanned = _scanned_rows(db, base)
    cost, served = scanned / 2, None  # what a name-index path must beat
    current: PlanNode = node
    while isinstance(current, Select):
        predicate = current.predicate
        if isinstance(predicate, ColumnPredicate) and predicate.column in roles:
            for part in _conjuncts(predicate.predicate):
                if not isinstance(part, NamePrefix):
                    continue
                drive = _name_index_drive(assoc, predicate.column, part)
                if not _family_is_independent(db, drive):
                    continue
                named = _estimate(db, drive, {})
                path_cost = named + _probe_cost(db, named, base, predicate.column)
                if path_cost < cost:
                    cost, served = path_cost, (current, part, drive)
        current = current.child
    if served is None:
        return node, scanned
    return _name_index_path(db, node, *served), cost


def _conjuncts(predicate: Any) -> tuple:
    """The parts of an ``And``; any other predicate is its own part."""
    return predicate.parts if isinstance(predicate, And) else (predicate,)


def _name_index_drive(assoc: Any, column: str, prefix: NamePrefix) -> ExtentScan:
    """The name-index scan of the objects a role can bind named ``p*``."""
    target = assoc.role_at(assoc.role_names().index(column)).target
    return ExtentScan(target.full_name, column, prefix.prefix)


def _name_index_path(
    db: SeedDatabase,
    node: Select,
    select: Select,
    prefix: NamePrefix,
    drive: ExtentScan,
) -> PlanNode:
    """*node* with *select*'s *prefix* part served by *drive*, the scan
    of the name index.

    ``And`` parts are split as in :func:`_absorb_into_scan`: whatever
    is not the prefix — and every other selection of the chain — stays
    a filter over the fetched rows.
    """
    column = drive.column

    def without_prefix(current: Select) -> PlanNode:
        if current is not select:
            return _rebuilt(current, without_prefix)
        rest = tuple(
            part
            for part in _conjuncts(current.predicate.predicate)
            if part is not prefix
        )
        if not rest:
            return current.child
        remaining = rest[0] if len(rest) == 1 else And(rest)
        return Select(current.child, ColumnPredicate(column, remaining))

    path: PlanNode = IndexJoin(drive, without_prefix(node), column)
    columns = _columns_of(db, node)
    if _columns_of(db, path) != columns:
        path = Reorder(path, columns)
    return path


# ----------------------------------------------------------------------
# parallelization pass
# ----------------------------------------------------------------------


def _shard_spec(db: SeedDatabase, node: PlanNode) -> Optional[ShardSpec]:
    """Decompose a shardable subtree into a kernel spec, else ``None``.

    Shardable = a (possibly empty) chain of selections over a bare
    extent scan or association scan — what the fused kernel evaluates,
    in-thread or pooled. Prefix-rewritten extent scans are excluded:
    they read a bisected slice of the name index, not an id list. This
    is the only place a Select chain is peeled.
    """
    columns = _columns_of(db, node)
    cell_tests: list[tuple[int, Any]] = []
    row_tests: list[Any] = []
    while isinstance(node, Select):
        predicate = node.predicate
        if isinstance(predicate, ColumnPredicate):
            cell_tests.append(
                (columns.index(predicate.column), predicate.predicate)
            )
        else:
            row_tests.append(predicate)
        node = node.child
    cell_tests.reverse()  # bottom-up, matching the serial nesting order
    row_tests.reverse()
    if isinstance(node, ExtentScan) and node.prefix is None:
        return ShardSpec(
            kind="extent",
            name=node.class_name,
            columns=columns,
            cell_tests=tuple(cell_tests),
            row_tests=tuple(row_tests),
        )
    if isinstance(node, RelScan):
        return ShardSpec(
            kind="rel",
            name=node.association,
            columns=columns,
            cell_tests=tuple(cell_tests),
            row_tests=tuple(row_tests),
        )
    return None


def _parallelize(
    db: SeedDatabase, node: PlanNode, config: ParallelConfig
) -> PlanNode:
    """Wrap shardable subtrees whose scans pay for a pool in Parallel
    nodes; every other scan runs the same kernel in-thread."""
    if not kernel.host_can_pool():
        return node

    def wrap(current: PlanNode) -> PlanNode:
        spec = _shard_spec(db, current)
        if spec is not None:
            scanned = _scanned_rows(db, _scan_base(current))
            if kernel.pool_pays(scanned, config.shards):
                return Parallel(current, config.shards)
            return current  # the whole chain shares one base: decided
        return _rebuilt(current, wrap, only=_inputs(current))

    return wrap(node)


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------


def _plan_key(node: PlanNode) -> tuple:
    """Structural, hashable key of a logical tree (cache identity).

    Plan nodes are identity-hashed (``eq=False``), so the key folds
    their fields instead: the node type, then each field in order — a
    child by its own key, anything else by :func:`_predicate_key`.
    Raises ``TypeError`` for unhashable predicate payloads — the cache
    then bypasses itself for that plan.
    """
    key: list[Any] = [type(node)]
    for name in _shape(node)[0]:
        value = getattr(node, name)
        key.append(
            _plan_key(value) if isinstance(value, PlanNode) else _predicate_key(value)
        )
    return tuple(key)


def _predicate_key(predicate: Any) -> Any:
    """Hashable cache key of a predicate.

    Structured predicates are frozen dataclasses and key by value;
    opaque callables key by their (default, identity-based) hash, and a
    plain field value (a name, a column tuple) is its own key. The
    cache keeps a reference to every keyed predicate via the stored
    plan, so an identity key can never be reused by a new object while
    its entry lives.
    """
    if isinstance(predicate, ColumnPredicate):
        return ("column", predicate.column, _predicate_key(predicate.predicate))
    hash(predicate)  # unhashable → TypeError → caller bypasses the cache
    return predicate


#: plans one database's cache keeps (least recently used go first)
CAPACITY = 256
#: a statistic has drifted when it moved by more than DRIFT_MIN_DELTA
#: rows *and* by more than DRIFT_RATIO× (+1-smoothed); both are read at
#: call time
DRIFT_RATIO = 2.0
DRIFT_MIN_DELTA = 16


class _RecordingIndexes:
    """``db.indexes`` for the length of one optimization: every
    statistic accessor answers from the real index layer and notes
    ``(accessor, *args) -> value`` in :attr:`reads` — what the plan
    cache then watches for drift. An accessor that rejects an
    unhashable argument raises before anything is noted, so such a
    read is simply not recorded."""

    def __init__(self, indexes: Any) -> None:
        self._indexes = indexes
        self.reads: dict[tuple, float] = {}

    def __getattr__(self, accessor: str) -> Callable[..., float]:
        lookup, reads = getattr(self._indexes, accessor), self.reads

        def read(*args: Any) -> float:
            value = lookup(*args)
            reads.setdefault((accessor, *args), value)
            return value

        setattr(self, accessor, read)  # found without __getattr__ from now on
        return read


def _drifted(db: SeedDatabase, reads: dict[tuple, float]) -> bool:
    """Has any statistic in *reads* moved past the drift threshold?"""
    indexes = db.indexes
    for (accessor, *args), old in reads.items():
        new = getattr(indexes, accessor)(*args)
        if abs(new - old) <= DRIFT_MIN_DELTA:
            continue
        low, high = sorted((old, new))
        if (high + 1) / (low + 1) > DRIFT_RATIO:
            return True
    return False


class PlanCache:
    """LRU memo of optimizer output for one database, drift-aware.

    Keys are ``(structural plan key, schema epoch, parallel config)``;
    the epoch is the database's current schema version index, so
    entries cached under a pre-migration schema can never be served
    afterwards (and ``migrate_schema`` clears the cache anyway).
    Correctness does not depend on statistics: a cached plan stays
    *sound* as data changes, merely possibly non-optimal.

    Each entry keeps the statistics its optimization read; a lookup
    serves it while none of them has drifted (module docstring, layer
    4) and otherwise re-optimizes in place. Bulk-load finalize,
    compaction GC, and large check-ins thereby invalidate exactly the
    plans whose inputs they changed — no wholesale clears, small
    oscillations never thrash.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, tuple[PlanNode, dict]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.reoptimizations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached plan (schema migration)."""
        self._entries.clear()

    def optimized(
        self,
        db: SeedDatabase,
        node: PlanNode,
        parallel: Optional[ParallelConfig] = None,
    ) -> PlanNode:
        """The optimized tree for *node*, cached while statistics hold.

        The parallel config participates in the key — the same logical
        tree optimized serially and under a config are distinct entries
        (a ``ParallelConfig`` is a frozen, hashable dataclass).
        """
        try:
            key = (_plan_key(node), db.versions.current_schema_index, parallel)
        except TypeError:
            self.bypasses += 1
            return optimize(db, node, parallel)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        elif _drifted(db, entry[1]):
            self.reoptimizations += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[0]
        # the optimizer reads a database's schema and statistics, nothing
        # else: hand it the statistics through the recording seam
        indexes = _RecordingIndexes(db.indexes)
        seen = SimpleNamespace(schema=db.schema, indexes=indexes)
        result = optimize(seen, node, parallel)
        self._entries[key] = (result, indexes.reads)
        self._entries.move_to_end(key)
        if len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)
        return result


def plan_cache(db: SeedDatabase) -> PlanCache:
    """The database's plan cache, created on first use.

    Lives as an attribute on the database (the database module cannot
    import the planner — it would cycle) and is cleared by
    ``migrate_schema``.
    """
    cache = getattr(db, "_plan_cache", None)
    if cache is None:
        cache = PlanCache()
        db._plan_cache = cache  # noqa: SLF001
    return cache


# ----------------------------------------------------------------------
# streaming executor
# ----------------------------------------------------------------------

_cell_key = Relation._cell_key  # identical comparison semantics


class _Executor:
    """Generator-based evaluation of an (optimized) plan tree."""

    def __init__(self, db: SeedDatabase) -> None:
        self._db = db

    def rows(self, node: PlanNode) -> Iterator[tuple]:
        if isinstance(node, (ExtentScan, RelScan, Select)):
            spec = _shard_spec(self._db, node)
            if spec is not None:
                yield from kernel.run_in_thread(self._db, spec)
            elif isinstance(node, Select):
                yield from self._select(node)
            else:
                yield from self._scan_prefix(node)
        elif isinstance(node, Project):
            yield from self._project(node)
        elif isinstance(node, Rename):
            yield from self.rows(node.child)
        elif isinstance(node, Reorder):
            yield from self._reorder(node)
        elif isinstance(node, Join):
            yield from self._join(node)
        elif isinstance(node, IndexJoin):
            yield from self._index_join(node)
        elif isinstance(node, Parallel):
            yield from self._parallel(node)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unhandled node {type(node).__name__}")

    # -- scans ---------------------------------------------------------

    def _scan_prefix(self, node: ExtentScan) -> Iterator[tuple]:
        """The bisected name-index scan (the one scan with no id list)."""
        wanted = self._db.schema.entity_class(node.class_name)
        for obj in self._db.objects_by_name_prefix(node.prefix):
            if obj.entity_class.is_kind_of(wanted):
                yield (obj,)

    def _parallel(self, node: Parallel) -> Iterator[tuple]:
        """Fan the child's kernel over the worker pool.

        A pipeline breaker: the shards materialize before the first row
        is yielded, so no worker pool is held busy by a half-consumed
        generator.
        """
        spec = _shard_spec(self._db, node.child)
        if spec is None:  # pragma: no cover - optimizer only wraps shardable
            yield from self.rows(node.child)
            return
        yield from kernel.run_sharded(self._db, spec, shards=node.shards)

    # -- streaming operators -------------------------------------------

    def _select(self, node: Select) -> Iterator[tuple]:
        columns = _columns_of(self._db, node.child)
        predicate = node.predicate
        if isinstance(predicate, ColumnPredicate):
            index = columns.index(predicate.column)
            cell_test = predicate.predicate
            for row in self.rows(node.child):
                if cell_test(row[index]):
                    yield row
            return
        for row in self.rows(node.child):
            if predicate(dict(zip(columns, row))):
                yield row

    def _project(self, node: Project) -> Iterator[tuple]:
        child_columns = _columns_of(self._db, node.child)
        indices = [child_columns.index(column) for column in node.columns]
        seen: set[tuple] = set()
        for row in self.rows(node.child):
            key = tuple(_cell_key(row[i]) for i in indices)
            if key in seen:
                continue
            seen.add(key)
            yield tuple(row[i] for i in indices)

    def _reorder(self, node: Reorder) -> Iterator[tuple]:
        child_columns = _columns_of(self._db, node.child)
        indices = [child_columns.index(column) for column in node.columns]
        for row in self.rows(node.child):
            yield tuple(row[i] for i in indices)

    def _join(self, node: Join) -> Iterator[tuple]:
        """Hash join: materialize (build) the left input, stream (probe)
        the right. The optimizer puts the smaller estimated input on
        the left, so the pipeline breaker is the smaller side."""
        left_columns = _columns_of(self._db, node.left)
        right_columns = _columns_of(self._db, node.right)
        shared = [column for column in left_columns if column in right_columns]
        left_key = [left_columns.index(column) for column in shared]
        right_key = [right_columns.index(column) for column in shared]
        right_extra = [
            index
            for index, column in enumerate(right_columns)
            if column not in shared
        ]
        table: dict[tuple, list[tuple]] = {}
        for row in self.rows(node.left):
            key = tuple(_cell_key(row[i]) for i in left_key)
            table.setdefault(key, []).append(row)
        for row in self.rows(node.right):
            matches = table.get(tuple(_cell_key(row[i]) for i in right_key))
            if matches:
                extra = tuple(row[i] for i in right_extra)
                for match in matches:
                    yield match + extra

    def _index_join(self, node: IndexJoin) -> Iterator[tuple]:
        """Index nested-loop join: stream the drive, probe incidence.

        The scan side's peeled selections apply to the few fetched
        rows; the association itself is never scanned.
        """
        drive_columns = _columns_of(self._db, node.drive)
        scan_columns = _columns_of(self._db, node.scan)
        source = drive_columns.index(node.column)
        position = scan_columns.index(node.column)  # role columns lead
        extra = [
            index
            for index, column in enumerate(scan_columns)
            if column != node.column
        ]
        scan = _shard_spec(self._db, node.scan)
        keep = kernel.row_filter(scan)
        for row in self.rows(node.drive):
            anchor = row[source]
            if not isinstance(anchor, SeedObject):
                continue  # value cell: can never match a role
            for rel_row in self._incident_rows(scan, anchor, position):
                if keep is None or keep(rel_row):
                    yield row + tuple(rel_row[i] for i in extra)

    def _incident_rows(
        self, scan: ShardSpec, anchor: SeedObject, position: int
    ) -> Iterator[tuple]:
        """Association-scan rows whose role at *position* binds *anchor*.

        Served from the incidence index — O(degree of *anchor*) instead
        of O(association). The bound-object identity check (not a role
        lookup) keeps self-loop relationships correct; the incidence
        list names a self-loop once per end, and it is one row.
        """
        loops: set[int] = set()
        for rel in self._db.relationships_of_object(anchor, scan.name):
            if rel.bound_at(position).oid != anchor.oid:
                continue
            if rel.bound_at(1 - position).oid == anchor.oid:
                if rel.rid in loops:
                    continue
                loops.add(rel.rid)
            yield rel.endpoints()


def execute_node(db: SeedDatabase, node: PlanNode) -> Relation:
    """Materialize an arbitrary plan node against *db*.

    Runs the node exactly as given — no optimization, no cache. Used by
    benchmarks and tests to execute a previously-optimized ("pinned")
    tree against changed data, e.g. to measure what a stale cached plan
    would have cost without drift invalidation.
    """
    return Relation(_columns_of(db, node), tuple(_Executor(db).rows(node)))


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------


def _node_label(db: SeedDatabase, node: PlanNode, memo: dict[int, int]) -> str:
    estimate = _estimate(db, node, memo)
    if isinstance(node, ExtentScan):
        detail = f"ExtentScan {node.class_name} as {node.column}"
        if node.prefix is not None:
            detail += f" prefix={node.prefix!r}"
    elif isinstance(node, RelScan):
        roles = ", ".join(_columns_of(db, node))
        detail = f"RelScan {node.association} ({roles})"
    elif isinstance(node, Select):
        detail = f"Select {describe_predicate(node.predicate)}"
    elif isinstance(node, Project):
        detail = f"Project [{', '.join(node.columns)}]"
    elif isinstance(node, Rename):
        pairs = ", ".join(f"{old}->{new}" for old, new in node.renames)
        detail = f"Rename {pairs}"
    elif isinstance(node, Reorder):
        detail = f"Reorder [{', '.join(node.columns)}]"
    elif isinstance(node, Join):
        left = _columns_of(db, node.left)
        shared = [c for c in _columns_of(db, node.right) if c in left]
        detail = f"Join on [{', '.join(shared)}]" if shared else "Join cartesian"
    elif isinstance(node, IndexJoin):
        filters = []
        scan = node.scan
        while isinstance(scan, Select):
            filters.append(describe_predicate(scan.predicate))
            scan = scan.child
        detail = f"IndexJoin {scan.association}.{node.column}"
        if filters:
            detail += f" filter {' and '.join(reversed(filters))}"
    elif isinstance(node, Parallel):
        per_shard = _scanned_rows(db, _scan_base(node.child)) // node.shards
        detail = (
            f"Parallel shards={node.shards} "
            f"per-shard~{per_shard}+{kernel.DISPATCH_OVERHEAD} dispatch"
        )
    else:
        detail = type(node).__name__
    return f"{detail}  est~{estimate}"


def _render(
    db: SeedDatabase,
    node: PlanNode,
    memo: dict[int, int],
    lines: list[str],
    indent: str,
    branch: str,
    follow: str,
) -> None:
    lines.append(indent + branch + _node_label(db, node, memo))
    children = _inputs(node)
    for position, child in enumerate(children):
        last = position == len(children) - 1
        _render(
            db,
            child,
            memo,
            lines,
            indent + follow,
            "└─ " if last else "├─ ",
            "   " if last else "│  ",
        )


def explain(db: SeedDatabase, node: PlanNode) -> str:
    """Deterministic multi-line rendering of a plan tree with estimates."""
    memo: dict[int, int] = {}
    lines: list[str] = []
    _render(db, node, memo, lines, "", "", "")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the builder API (mirrors Relation)
# ----------------------------------------------------------------------


class Plan:
    """An immutable logical query plan bound to one database.

    Composes like :class:`~repro.core.query.algebra.Relation` for the
    operations queries use (``select``/``project``/``rename``/``join``)
    but builds a plan tree instead of evaluating; call
    :meth:`execute` for a materialized ``Relation``, :meth:`rows` to
    stream, or :meth:`explain` for the optimized plan tree.
    """

    def __init__(
        self,
        db: SeedDatabase,
        node: PlanNode,
        parallel: Optional[ParallelConfig] = None,
    ) -> None:
        self._db = db
        self.node = node
        #: the ParallelConfig this plan is optimized under (None =
        #: serial); every composition inherits it
        self._parallel = parallel

    # -- composition (mirrors Relation) --------------------------------

    @property
    def columns(self) -> tuple[str, ...]:
        return _columns_of(self._db, self.node)

    def select(self, predicate: Callable[[dict[str, Any]], bool]) -> "Plan":
        """Keep rows whose column dict satisfies *predicate*.

        Pass :func:`on` (a :class:`ColumnPredicate`) to give the
        optimizer pushdown and indexed-rewrite opportunities; plain
        row callables are executed as opaque filters.
        """
        if isinstance(predicate, ColumnPredicate):
            self._require_column(predicate.column)
        return Plan(self._db, Select(self.node, predicate), self._parallel)

    def project(self, *columns: str) -> "Plan":
        """Keep only *columns* (duplicate rows removed)."""
        for column in columns:
            self._require_column(column)
        if len(set(columns)) != len(columns):
            raise QueryError(f"duplicate column names: {tuple(columns)}")
        return Plan(self._db, Project(self.node, tuple(columns)), self._parallel)

    def rename(self, **renames: str) -> "Plan":
        """Rename columns: ``plan.rename(by="reader")``."""
        for old in renames:
            self._require_column(old)
        renamed = tuple(
            renames.get(column, column) for column in self.columns
        )
        if len(set(renamed)) != len(renamed):
            raise QueryError(f"duplicate column names: {renamed}")
        return Plan(
            self._db,
            Rename(self.node, tuple(sorted(renames.items()))),
            self._parallel,
        )

    def join(self, other: "Plan") -> "Plan":
        """Natural join on all shared columns (object identity)."""
        self._require_same_db(other)
        return Plan(self._db, Join(self.node, other.node), self._parallel)

    # -- evaluation ----------------------------------------------------

    def optimized(self) -> PlanNode:
        """The optimizer's output for this plan (a new node tree).

        Served from the database's :class:`PlanCache` when the logical
        tree is keyable, so persistent/repeated queries skip
        re-optimization.
        """
        return plan_cache(self._db).optimized(self._db, self.node, self._parallel)

    def explain(self, *, optimized: bool = True) -> str:
        """Deterministic plan-tree rendering with cardinality estimates.

        Example::

            >>> print(plan(db).extent("Data", column="d")
            ...          .select(on("d", name_prefix("Al")))
            ...          .explain())
            ExtentScan Data as d prefix='Al'  est~1
        """
        return explain(self._db, self.optimized() if optimized else self.node)

    def rows(self, *, optimized: bool = True) -> Iterator[tuple]:
        """Stream result rows (tuples aligned with :attr:`columns`)."""
        node = self.optimized() if optimized else self.node
        return _Executor(self._db).rows(node)

    def execute(self, *, optimized: bool = True) -> Relation:
        """Materialize the (by default optimized) plan into a Relation."""
        return Relation(self.columns, tuple(self.rows(optimized=optimized)))

    def __iter__(self) -> Iterator[dict[str, Any]]:
        columns = self.columns
        for row in self.rows():
            yield dict(zip(columns, row))

    # -- internals -----------------------------------------------------

    def _require_column(self, column: str) -> None:
        columns = self.columns
        if column not in columns:
            raise QueryError(
                f"no column {column!r} (columns: {', '.join(columns)})"
            )

    def _require_same_db(self, other: "Plan") -> None:
        if other._db is not self._db:
            raise QueryError("cannot combine plans over different databases")


class PlanBuilder:
    """Entry point producing leaf plans for one database.

    A :class:`ParallelConfig` given here is the config of every plan
    built through the builder (inherited by composition).
    """

    def __init__(
        self, db: SeedDatabase, parallel: Optional[ParallelConfig] = None
    ) -> None:
        self._db = db
        self._parallel = parallel

    def extent(self, class_name: str, *, column: Optional[str] = None) -> Plan:
        """One-column plan over a class's live instances."""
        self._db.schema.entity_class(class_name)  # validate early
        name = column or class_name.lower()
        return Plan(self._db, ExtentScan(class_name, name), self._parallel)

    def relationship(self, association: str) -> Plan:
        """Two-column plan over an association's instances."""
        self._db.schema.association(association)  # validate early
        return Plan(self._db, RelScan(association), self._parallel)


def plan(
    db: SeedDatabase, parallel: Optional[ParallelConfig] = None
) -> PlanBuilder:
    """Start building a planned query: ``plan(db).extent("Data")...``.

    With *parallel*, evaluation may use the sharded worker runtime
    where it pays and the host can run it:
    ``plan(db, ParallelConfig()).extent(...)``.
    """
    return PlanBuilder(db, parallel)
