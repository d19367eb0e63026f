"""Every function and class under ``src/repro`` is used by the product.

One walk over ``src/``, ``tests/``, ``bench/``, ``benchmarks/`` and
``examples/`` collects the identifiers each scope uses — a ``Name``, an
``Attribute``, an import alias or a keyword argument. Module-level code
of ``src/`` and everything in ``bench/``, ``benchmarks/`` and
``examples/`` always runs; ``tests/`` is kept apart. A definition under
``src/repro`` is reached when a reached scope names it; that repeats
until nothing more is reached, so a helper that only unreached code
calls is unreached too. Inside ``src/`` an import alias or an
``__all__`` string is not a use; a string in ``bench/`` is, because
``bench/layers.py`` names the functions it traces as strings. A type
annotation in a ``src/`` module under ``from __future__ import
annotations`` never runs, so it is not a use either. A
module-level function is not reached by an attribute of ``self`` or
``cls``. Dunders (Python calls them) and the ``_op_*`` wire handlers,
which ``SeedService._dispatch`` reaches through ``getattr``, are exempt.

An unreached definition that no scope names at all, not even a test, is
dead code: delete it together with its ``__all__`` entry. One that only
tests reach must be deleted with its tests, or carry a tag and a reason
in ``ALLOWED``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "bench", "benchmarks", "examples")
TESTS = "<tests>"  # the scope of everything under tests/
_WORD = re.compile(r"[A-Za-z_]\w*")

#: Definitions the product does not reach, kept on purpose: qualified
#: name (module under ``repro``, then the enclosing classes) → (tag,
#: reason). ``oracle``: a reference implementation tests compare the
#: product with. ``fault-hook``: failpoint control for the crash tests.
#: ``feature``: a public operation no entry point calls yet. ``wire``:
#: part of the service protocol's client side.
TAGS = {"oracle", "fault-hook", "feature", "wire"}
ALLOWED = {
    "core.indexes.brute_participation_distinct": (
        "oracle", "full-scan reference for IndexLayer.distinct_participants"),
    "core.indexes.brute_value_counts": (
        "oracle", "full-scan reference for the value histograms"),
    "core.versions.store.VersionStore.keys_in_version_scan": (
        "oracle", "cell-scan reference for VersionStore.keys_in_version"),
    "multiuser.server.SeedServer.closure_keys_scan": (
        "oracle", "full-scan reference for the indexed check-out closure"),
    "core.storage.serialize.encode_state": (
        "oracle", "one state's bytes; equals RecordFile.encode(state_to_dict(...))"),
    "core.faults.armed": (
        "fault-hook", "whether a FaultPlan is armed (failpoints are live)"),
    "core.faults.FaultPlan": (
        "fault-hook", "the seeded schedule of faults the crash tests arm"),
    "core.faults._Fault": (
        "fault-hook", "one scheduled fault of a FaultPlan"),
    "core.faults.arm": (
        "fault-hook", "arms a FaultPlan process-wide (failpoints go live)"),
    "core.faults.disarm": (
        "fault-hook", "disarms the active FaultPlan"),
    "core.cardinality.Cardinality.admits": (
        "feature", "whether a count meets both bounds (the final-state check)"),
    "core.cardinality.Cardinality.widens": (
        "feature", "generalization cardinality relation of figure 3, informational"),
    "core.database.SeedDatabase.restore_from_view": (
        "feature", "replaces the live state with a saved version's, base unmoved"),
    "spades.tool.SpadesTool.set_revised": (
        "feature", "stamps an item's revision date (Thing.Revised)"),
    "core.versions.history.HistoryNavigator.alternatives_of": (
        "feature", "the sibling versions of a version (figure 4)"),
    "core.versions.history.HistoryNavigator.line_of": (
        "feature", "the history line from the root to a version (figure 4)"),
    "core.versions.history.HistoryNavigator.predecessor": (
        "feature", "a version's predecessor in the version tree"),
    "core.versions.history.HistoryNavigator.diff": (
        "feature", "item-level differences between two saved versions"),
    "core.versions.history.VersionDiff": (
        "feature", "what HistoryNavigator.diff returns"),
    "core.versions.history.HistoryNavigator.versions_of_object_named": (
        "feature", "the version history of a named independent object"),
    "core.variants.VariantFamily.remove_variant": (
        "feature", "detaches a variant from its family (figure 5)"),
    "core.schema.element.SchemaElement.detach": (
        "feature", "removes an attached procedure by name"),
    "core.schema.generalization.remove_specialization": (
        "feature", "the inverse of specialize; calls schema_changed()"),
    "core.schema.generalization.common_general": (
        "feature", "the nearest common generalization of two elements"),
    "core.schema.attached.attached_procedure": (
        "feature", "decorator registering a function as an attached procedure"),
    "core.schema.attached.AttachedProcedure": (
        "feature", "a named integrity procedure a schema element can carry"),
    "core.query.algebra.Relation.union": (
        "feature", "the algebra's union operator"),
    "core.query.planner.Plan.union": (
        "feature", "the planner's union operator"),
    "core.completeness.CompletenessReport.for_item": (
        "feature", "the gaps of one item in a report"),
    "core.query.predicates.in_class": (
        "feature", "function form of the InClass predicate"),
    "multiuser.service.ServiceClient.ping": (
        "wire", "the client side of the service's ping request"),
}


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("_op_")


class _Uses(ast.NodeVisitor):
    """Collects, per scope, the names a file uses (see the module docstring).

    ``defined`` maps a qualified name to ``(name, enclosing scope, is a
    method)``; ``uses`` maps a scope — a qualified name, ``None`` for
    code that always runs, or ``TESTS`` for ``tests/`` — to ``(names,
    members)``, where ``members`` are the attributes of ``self`` and
    ``cls``.
    """

    def __init__(self, top: str, module: str, defined: dict, uses: dict, lazy: bool):
        self.in_src, self.strings = top == "src", top == "bench"
        self.lazy = self.in_src and lazy  # annotations are never evaluated
        self.defined, self.uses = defined, uses
        self.scope = TESTS if top == "tests" else None
        self.prefix, self.in_class = module, False

    def _define(self, node):
        if not self.in_src:
            return self.generic_visit(node)
        qual = f"{self.prefix}.{node.name}"
        self.defined[qual] = (node.name, self.scope, self.in_class)
        self.uses[qual] = (set(), set())
        outer = self.scope, self.prefix, self.in_class
        for field, value in ast.iter_fields(node):
            if field == "returns" and self.lazy:
                continue
            if field == "body":  # decorators, bases and defaults run outside
                self.scope, self.prefix = qual, qual
                self.in_class = isinstance(node, ast.ClassDef)
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, ast.AST):
                    self.visit(item)
            self.scope, self.prefix, self.in_class = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_arg(self, node):
        if not self.lazy:
            self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if not self.lazy:
            return self.generic_visit(node)
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Name(self, node):
        self.uses[self.scope][0].add(node.id)

    def visit_Attribute(self, node):
        on_self = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
        self.uses[self.scope][1 if on_self else 0].add(node.attr)
        self.generic_visit(node)

    def visit_keyword(self, node):
        if node.arg:
            self.uses[self.scope][0].add(node.arg)
        self.generic_visit(node)

    def visit_alias(self, node):
        if not self.in_src:
            self.uses[self.scope][0].add(node.name.rpartition(".")[2])
            if node.asname:
                self.uses[self.scope][0].add(node.asname)

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str):
            self.uses[None][0].update(_WORD.findall(node.value))


def _scan(root: Path = ROOT) -> tuple[dict, dict]:
    """One walk over every scanned directory: ``(defined, uses)``."""
    defined: dict = {}
    uses: dict = {None: (set(), set()), TESTS: (set(), set())}
    package = root / "src" / "repro"
    for top in SCANNED:
        for path, tree in _trees(root / top):
            module = ""
            if top == "src":
                module = ".".join(path.relative_to(package).with_suffix("").parts)
            lazy = any(
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
                and any(alias.name == "annotations" for alias in node.names)
                for node in tree.body
            )
            _Uses(top, module, defined, uses, lazy).visit(tree)
    return defined, uses


def _unreached_of(defined: dict, uses: dict) -> set[str]:
    live: set[str] = set()
    names, members = set(uses[None][0]), set(uses[None][1])
    grew = True
    while grew:
        grew = False
        for qual, (name, scope, method) in defined.items():
            if qual in live or (scope is not None and scope not in live):
                continue
            if _exempt(name) or name in names or (method and name in members):
                live.add(qual)
                names |= uses[qual][0]
                members |= uses[qual][1]
                grew = True
    return {
        qual
        for qual, (_, scope, _) in defined.items()
        if qual not in live and (scope is None or scope in live)
    }


def _unreached(root: Path = ROOT) -> set[str]:
    return _unreached_of(*_scan(root))


def _dead(defined: dict, uses: dict, unreached: set[str]) -> list[str]:
    """The unreached definitions that no scope names, not even a test."""
    named = set().union(*(names | members for names, members in uses.values()))
    return sorted(qual for qual in unreached if defined[qual][0] not in named)


def test_every_definition_is_reached_by_the_product():
    defined, uses = _scan()
    unreached = _unreached_of(defined, uses)
    dead = _dead(defined, uses, unreached)
    new = sorted(unreached - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - unreached)
    assert not dead, (
        "defined but never referenced anywhere; delete them:\n"
        + "\n".join(dead)
    )
    assert not new, (
        "only tests reach these; delete them with their tests, or tag them "
        "in ALLOWED:\n" + "\n".join(new)
    )
    assert not stale, (
        "ALLOWED names what the product now reaches or what is gone:\n"
        + "\n".join(stale)
    )
    assert {tag for tag, _ in ALLOWED.values()} <= TAGS


# -- the second check on small made-up trees ---------------------------------


def _unreached_in(tmp_path: Path, files: dict[str, str]) -> set[str]:
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return _unreached(tmp_path)


def test_a_helper_only_unreached_code_calls_is_unreached(tmp_path):
    # callees come first, so one pass over the definitions is not enough
    chain = "def c():\n    return 1\n\ndef b():\n    return c()\n\ndef a():\n    return b()\n"
    assert _unreached_in(tmp_path, {"src/repro/m.py": chain}) == {"m.a", "m.b", "m.c"}
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from repro.m import a\na()\n")
    assert _unreached(tmp_path) == set()


def test_what_no_scope_names_is_dead(tmp_path):
    # a test's name keeps f from being dead, an unreached caller keeps h
    files = {
        "src/repro/m.py": (
            "def f():\n    return 1\n\n"
            "def g():\n    return h()\n\n"
            "def h():\n    return 2\n"
        ),
        "tests/test_m.py": "from repro.m import f\n\ndef test_f():\n    assert f() == 1\n",
    }
    unreached = _unreached_in(tmp_path, files)
    assert unreached == {"m.f", "m.g", "m.h"}
    assert _dead(*_scan(tmp_path), unreached) == ["m.g"]


def test_an_import_or_all_entry_inside_src_is_not_a_use(tmp_path):
    assert _unreached_in(
        tmp_path,
        {
            "src/repro/m.py": "def f():\n    return 1\n",
            "src/repro/__init__.py": 'from repro.m import f\n__all__ = ["f"]\n',
        },
    ) == {"m.f"}


def test_an_import_outside_src_is_a_use(tmp_path):
    assert _unreached_in(
        tmp_path,
        {
            "src/repro/m.py": "def f():\n    return 1\n",
            "benchmarks/run.py": "from repro.m import f as run_f\n",
        },
    ) == set()


def test_a_string_names_a_definition_in_bench_only(tmp_path):
    files = {
        "src/repro/m.py": "def traced():\n    return 1\n",
        "examples/notes.py": 'NOTE = "see repro.m.traced"\n',
    }
    assert _unreached_in(tmp_path, files) == {"m.traced"}
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "layers.py").write_text('TARGETS = ["repro.m:traced"]\n')
    assert _unreached(tmp_path) == set()


def test_an_attribute_of_self_reaches_methods_not_functions(tmp_path):
    module = (
        "def helper():\n    return 1\n\n"
        "class Box:\n"
        "    def run(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 2\n"
        "    def idle(self):\n        return 3\n"
    )
    assert _unreached_in(
        tmp_path,
        {"src/repro/m.py": module, "bench/use.py": "from repro.m import Box\nBox().run()\n"},
    ) == {"m.helper", "m.Box.idle"}


def test_only_the_outermost_unreached_definition_is_reported(tmp_path):
    module = (
        "def outer():\n"
        "    def inner():\n        return 1\n"
        "    class Local:\n        pass\n"
        "    return inner, Local\n"
    )
    assert _unreached_in(tmp_path, {"src/repro/m.py": module}) == {"m.outer"}


def test_decorators_defaults_and_module_code_always_run(tmp_path):
    module = (
        "def register(fn):\n    return fn\n\n"
        "def fallback():\n    return 0\n\n"
        "def build():\n    return {}\n\n"
        "TABLE = build()\n\n"
        "@register\n"
        "def unused(x=fallback()):\n    return x\n"
    )
    assert _unreached_in(tmp_path, {"src/repro/m.py": module}) == {"m.unused"}


def test_dunders_and_wire_handlers_are_exempt(tmp_path):
    module = (
        "class Service:\n"
        "    def __repr__(self):\n        return 'Service'\n"
        "    def _op_ping(self, request):\n        return {}\n"
        "    def unused(self):\n        return None\n"
    )
    assert _unreached_in(
        tmp_path,
        {"src/repro/m.py": module, "examples/serve.py": "from repro.m import Service\n"},
    ) == {"m.Service.unused"}


def test_a_keyword_argument_is_a_use(tmp_path):
    module = (
        "class Policy:\n"
        "    def __init__(self, **limits):\n        self.limits = limits\n"
        "    def txns(self):\n        return 1\n"
    )
    assert _unreached_in(
        tmp_path,
        {
            "src/repro/m.py": module,
            "examples/use.py": "from repro.m import Policy\nPolicy(txns=8)\n",
        },
    ) == set()


def test_an_annotation_that_never_runs_is_not_a_use(tmp_path):
    # under the future import an annotation stays a string; without it,
    # Python evaluates it when the def or the assignment runs
    uses = (
        "def f(x: Arg) -> Ret:\n    return x\n\n"
        "limit: Field = 1\n"
    )
    kinds = "class Arg:\n    pass\n\nclass Ret:\n    pass\n\nclass Field:\n    pass\n"
    files = {
        "src/repro/kinds.py": kinds,
        "src/repro/m.py": "from __future__ import annotations\n" + uses,
        "examples/use.py": "from repro.m import f\nf(1)\n",
    }
    assert _unreached_in(tmp_path, files) == {"kinds.Arg", "kinds.Ret", "kinds.Field"}
    (tmp_path / "src/repro/m.py").write_text(uses, encoding="utf-8")
    assert _unreached(tmp_path) == set()
