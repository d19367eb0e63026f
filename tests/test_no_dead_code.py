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

A class must also be built. A reached class is unreached after all when
no reached scope outside ``tests/`` constructs it and no class under
``src/`` subclasses it. A construction is a call by the class's name,
``cls(...)`` inside the class, ``super().__init__(...)`` inside a
subclass, or a ``raise`` of it. Names still resolve by name alone: a
call ``x.union(...)`` reaches every ``union``, whatever ``x`` is.

An unreached definition that no scope names at all, not even a test, is
dead code: delete it together with its ``__all__`` entry. One that only
tests reach must be deleted with its tests, or carry a tag and a reason
in ``ALLOWED``.

The same walk records the defaulted parameters of every public function
and method under ``src/repro`` and every call outside ``tests/``. A
parameter is set when a call by the function's name passes it by
keyword, by position, or through ``*args`` / ``**kwargs`` forwarding;
``C(...)``, ``cls(...)`` inside ``C`` and ``super().__init__(...)``
inside a subclass of ``C`` call ``C.__init__``. A parameter no call
outside ``tests/`` sets selects nothing the product runs: delete it
with the branch it selects and the tests of that branch, or carry a
tag and a reason in ``ALLOWED_PARAMS``.
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
#: reason). ``fault-hook``: failpoint control for the crash tests.
#: ``feature``: a public operation no entry point calls yet. ``wire``:
#: part of the service protocol's client side.
TAGS = {"fault-hook", "feature", "wire"}
ALLOWED = {
    "core.faults.armed": (
        "fault-hook", "whether a FaultPlan is armed (failpoints are live)"),
    "core.faults.FaultPlan": (
        "fault-hook", "the seeded schedule of faults the crash tests arm"),
    "core.faults._Fault": (
        "fault-hook", "one scheduled fault of a FaultPlan"),
    "core.faults.TornWrite": (
        "fault-hook", "what an armed FaultPlan raises to tear a write; "
        "only the plan builds it"),
    "core.faults.arm": (
        "fault-hook", "arms a FaultPlan process-wide (failpoints go live)"),
    "core.faults.disarm": (
        "fault-hook", "disarms the active FaultPlan"),
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
    "multiuser.service.ServiceClient.ping": (
        "wire", "the client side of the service's ping request"),
}

#: Defaulted parameters of public functions no call outside ``tests/``
#: sets, kept on purpose: ``qualified.name(parameter)`` → (tag, reason).
#: ``test-seam``: lets a test replace what the product takes from the
#: environment. ``fault-hook``: failpoint scheduling. ``deployment``:
#: a setting an operator or an embedding program chooses. ``safety``:
#: a stricter mode than the default recovery. ``oracle``: selects the
#: reference path tests compare with, or belongs to a comparator that
#: leaves ``src/`` later. ``feature``: an option of a public operation
#: no entry point sets yet.
PARAM_TAGS = {"test-seam", "fault-hook", "deployment", "safety", "oracle", "feature"}
_COMPARATOR = "oracle", "a comparator; leaves src/ with repro.baselines (item 1b)"
_REGISTRY = (
    "deployment",
    "a program that keeps its attached procedures in a registry of its own",
)
ALLOWED_PARAMS = {
    "baselines.handcoded.HandCodedSpecStore.add_flow(times)": _COMPARATOR,
    "baselines.strictstore.StrictStore.__init__(name)": _COMPARATOR,
    "workloads.evolution.run_evolution(note_role)": (
        "oracle", "the evolution comparator; leaves src/ in item 1b"),
    "core.faults.FaultPlan.crash(at)": (
        "fault-hook", "which hit of the failpoint crashes"),
    "core.faults.FaultPlan.fail_io(at)": (
        "fault-hook", "which hit of the failpoint fails"),
    "core.faults.FaultPlan.fail_io(errno_code)": (
        "fault-hook", "the errno the injected OSError carries"),
    "core.faults.FaultPlan.torn_write(at)": (
        "fault-hook", "which hit of the failpoint tears its write"),
    "core.indexes.brute_objects(include_patterns)": (
        "oracle", "full-scan reference; query_mix calls it (item 1a)"),
    "core.indexes.brute_objects(include_specials)": (
        "oracle", "full-scan reference; query_mix calls it (item 1a)"),
    "core.query.planner.Plan.execute(optimized)": (
        "oracle", "the unoptimized plan the equivalence suites compare with"),
    "core.query.planner.Plan.explain(optimized)": (
        "oracle", "renders the unoptimized plan beside the optimized one"),
    "core.schema.attached.attached_procedure(registry)": _REGISTRY,
    "core.schema.builder.SchemaBuilder.attach(registry)": _REGISTRY,
    "core.storage.engine.JournaledDatabase.open(registry)": _REGISTRY,
    "core.storage.engine.load_database(registry)": _REGISTRY,
    "core.storage.engine.load_database(strict)": (
        "safety", "raise on a damaged journal instead of recovering"),
    "core.storage.recordfile.RecordFile.records(strict)": (
        "safety", "raise on a damaged frame instead of stopping before it"),
    "core.storage.engine.JournaledDatabase.enforce_budget(budget)": (
        "deployment", "a one-off bound other than the journal's byte_budget"),
    "multiuser.server.SeedServer.__init__(name)": (
        "deployment", "names an in-memory master, as open(name) names a "
        "journaled one"),
    "multiuser.server.SeedServer.open(clock)": (
        "test-seam", "the lease clock; tests drive expiry with a fake one"),
    "core.identifiers.DottedName.child(index)": (
        "feature", "the name of one sub-object of a multi-valued role"),
    "core.objects.SeedObject.add_sub_object(index)": (
        "feature", "places a sub-object at an explicit index of its role"),
    "core.objects.SeedObject.relationships(role)": (
        "feature", "narrows an object's relationships to the ones binding "
        "it in one role"),
    "core.schema.schema.Schema.copy(name)": (
        "feature", "names the evolved schema a migration binds"),
    "core.versions.history.HistoryNavigator.versions_of_object_named(beginning_with)": (
        "feature", "the history entry point of ALLOWED; item 3 calls it"),
    "spades.tool.SpadesTool.refine_flow_to_write(times)": (
        "feature", "records the number of writes a refinement learns"),
    "spades.tool.SpadesTool.refine_flow_to_write(error_handling)": (
        "feature", "records the error handling a refinement learns"),
    "spades.tool.SpadesTool.refine_to_action(description)": (
        "feature", "analyst_session sets it through its operation table, "
        "which a scan by name cannot follow"),
}


class _Found:
    """What the one walk finds.

    ``defined`` and ``uses`` feed the reach check (see ``_Uses``).
    ``params`` maps the qualified name of a public function or method
    under ``src/repro`` to ``(the name a call uses, [(parameter,
    position or None), ...])`` for its defaulted parameters; the
    position does not count ``self`` or ``cls``, and an ``__init__`` is
    called by its class's name. ``calls`` holds ``(callee names,
    positional count, any *args, keyword names)`` for every call
    outside ``tests/``, where a ``None`` keyword is ``**kwargs``.
    ``bases`` maps a class name to the names of its bases.
    ``classes`` holds the qualified names of the classes under
    ``src/repro``, ``subclassed`` the names of the bases of those
    classes, and ``constructs`` maps a scope outside ``tests/`` to the
    names of the classes it constructs.
    """

    def __init__(self):
        self.defined: dict = {}
        self.uses: dict = {None: (set(), set()), TESTS: (set(), set())}
        self.params: dict = {}
        self.calls: list = []
        self.bases: dict = {}
        self.classes: set = set()
        self.subclassed: set = set()
        self.constructs: dict = {}


def _callee(node) -> str:
    """The name a call or a base goes by: ``f``, ``x.f`` and ``f(...)`` are ``f``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


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

    def __init__(self, top: str, module: str, found: "_Found", lazy: bool):
        self.in_src, self.strings = top == "src", top == "bench"
        self.in_tests = top == "tests"
        self.lazy = self.in_src and lazy  # annotations are never evaluated
        self.found, self.defined, self.uses = found, found.defined, found.uses
        self.scope = TESTS if self.in_tests else None
        self.prefix, self.in_class = module, False
        self.public, self.klass = True, None  # klass: the enclosing class

    def _define(self, node):
        is_class = isinstance(node, ast.ClassDef)
        if is_class:
            self.found.bases.setdefault(node.name, set()).update(
                _callee(base) for base in node.bases
            )
        if not self.in_src:
            return self._walk(node, is_class, self.scope, self.prefix)
        qual = f"{self.prefix}.{node.name}"
        self.defined[qual] = (node.name, self.scope, self.in_class)
        if is_class:
            self.found.classes.add(qual)
            self.found.subclassed.update(_callee(base) for base in node.bases)
        self.uses[qual] = (set(), set())
        if not is_class and self.public and (
            node.name == "__init__" or not node.name.startswith("_")
        ):
            self._parameters(qual, node)
        self._walk(node, is_class, qual, qual)

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _walk(self, node, is_class, scope, prefix):
        outer = self.scope, self.prefix, self.in_class, self.public, self.klass
        for field, value in ast.iter_fields(node):
            if field == "returns" and self.lazy:
                continue
            if field == "body":  # decorators, bases and defaults run outside
                self.scope, self.prefix, self.in_class = scope, prefix, is_class
                if is_class:
                    self.public = self.public and not node.name.startswith("_")
                    self.klass = node.name
                else:
                    self.public = False  # what a function nests is not API
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, ast.AST):
                    self.visit(item)
            self.scope, self.prefix, self.in_class, self.public, self.klass = outer

    def _parameters(self, qual: str, node) -> None:
        """Records the defaulted parameters of a public function or method."""
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(_callee(d) == "staticmethod" for d in node.decorator_list)
        skip = 1 if self.in_class and not static else 0  # self or cls
        first = len(positional) - len(args.defaults)
        defaulted = [
            (arg.arg, index - skip)
            for index, arg in enumerate(positional)
            if index >= first
        ] + [
            (arg.arg, None)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        if defaulted:
            # an __init__ is called by its class's name
            key = qual.split(".")[-2] if node.name == "__init__" else node.name
            self.found.params[qual] = (key, defaulted)

    def visit_Call(self, node):
        if not self.in_tests:
            func, names = node.func, (_callee(node.func),)
            if isinstance(func, ast.Name) and func.id == "cls" and self.klass:
                names = (self.klass,)
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _callee(func.value.func) == "super"
                and self.klass
            ):
                names = tuple(self.found.bases[self.klass])
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            self.found.calls.append((names, len(node.args), starred, keywords))
            self._constructs(names)
        self.generic_visit(node)

    def visit_Raise(self, node):
        if not self.in_tests and isinstance(node.exc, (ast.Name, ast.Attribute)):
            self._constructs((_callee(node.exc),))  # ``raise E`` builds an E
        self.generic_visit(node)

    def _constructs(self, names) -> None:
        self.found.constructs.setdefault(self.scope, set()).update(names)

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


def _scan(root: Path = ROOT) -> _Found:
    """One walk over every scanned directory."""
    found = _Found()
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
            _Uses(top, module, found, lazy).visit(tree)
    return found


def _unreached_of(found: _Found) -> set[str]:
    """The outermost definitions no reached scope names, and the named
    classes that nothing reached builds and nothing under ``src/``
    subclasses (see the module docstring)."""
    defined, uses, constructs = found.defined, found.uses, found.constructs
    live: set[str] = set()
    names, members = set(uses[None][0]), set(uses[None][1])
    built = set(constructs.get(None, ()))
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
                built |= constructs.get(qual, set())
                grew = True
    unbuilt = {
        qual
        for qual in found.classes & live
        if defined[qual][0] not in built | found.subclassed
    }
    return unbuilt | {
        qual
        for qual, (_, scope, _) in defined.items()
        if qual not in live and (scope is None or scope in live)
    }


def _unreached(root: Path = ROOT) -> set[str]:
    return _unreached_of(_scan(root))


def _dead(defined: dict, uses: dict, unreached: set[str]) -> list[str]:
    """The unreached definitions that no scope names, not even a test."""
    named = set().union(*(names | members for names, members in uses.values()))
    return sorted(qual for qual in unreached if defined[qual][0] not in named)


def _unset_of(found: _Found) -> set[str]:
    """The defaulted public parameters no call outside ``tests/`` sets,
    as ``qualified.name(parameter)``.

    Calls resolve by name, leniently: ``x.f(...)`` and ``f(...)`` match
    every ``f``; ``C(...)``, ``cls(...)`` inside ``C`` and
    ``super().__init__(...)`` inside a subclass of ``C`` match
    ``C.__init__``, or the ``__init__`` it inherits.
    """
    by_name: dict = {}
    for qual, (key, _) in found.params.items():
        by_name.setdefault(key, []).append(qual)
    inits = {qual.split(".")[-2] for qual in found.params if qual.endswith(".__init__")}

    def targets(name: str, seen: set) -> list[str]:
        quals = list(by_name.get(name, ()))
        if name in found.bases and name not in inits and name not in seen:
            seen.add(name)
            for base in found.bases[name]:
                quals += [q for q in targets(base, seen) if q.endswith(".__init__")]
        return quals

    set_: set[str] = set()
    for names, count, starred, keywords in found.calls:
        for name in names:
            for qual in targets(name, set()):
                for param, position in found.params[qual][1]:
                    if (
                        param in keywords
                        or None in keywords
                        or (position is not None and (starred or position < count))
                    ):
                        set_.add(f"{qual}({param})")
    every = {
        f"{qual}({param})"
        for qual, (_, defaulted) in found.params.items()
        for param, _ in defaulted
    }
    return every - set_


def _unset(root: Path = ROOT) -> set[str]:
    return _unset_of(_scan(root))


def test_every_definition_is_reached_by_the_product():
    found = _scan()
    defined, uses = found.defined, found.uses
    unreached = _unreached_of(found)
    dead = _dead(defined, uses, unreached)
    new = sorted(unreached - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - unreached)
    assert not dead, (
        "defined but never referenced anywhere; delete them:\n"
        + "\n".join(dead)
    )
    assert not new, (
        "only tests reach these (or, for a class, build them); delete them "
        "with their tests, or tag them in ALLOWED:\n" + "\n".join(new)
    )
    assert not stale, (
        "ALLOWED names what the product now reaches or what is gone:\n"
        + "\n".join(stale)
    )
    assert {tag for tag, _ in ALLOWED.values()} <= TAGS


def _param_findings(unset: set[str], allowed: dict) -> tuple[list[str], list[str]]:
    """``(unset and untagged, tagged but set or gone)``."""
    return sorted(unset - allowed.keys()), sorted(allowed.keys() - unset)


def test_every_parameter_is_set_by_the_product():
    new, stale = _param_findings(_unset(), ALLOWED_PARAMS)
    assert not new, (
        "no call outside tests/ sets these parameters; delete each with the "
        "branch it selects and its tests, or tag it in ALLOWED_PARAMS:\n"
        + "\n".join(new)
    )
    assert not stale, (
        "ALLOWED_PARAMS names what a call now sets or what is gone:\n"
        + "\n".join(stale)
    )
    assert {tag for tag, _ in ALLOWED_PARAMS.values()} <= PARAM_TAGS


# -- the checks on small made-up trees -----------------------------------------


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
    found = _scan(tmp_path)
    assert _dead(found.defined, found.uses, unreached) == ["m.g"]


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
        {"src/repro/m.py": module, "examples/serve.py": "from repro.m import Service\nService()\n"},
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
    kinds = "def Arg():\n    pass\n\ndef Ret():\n    pass\n\ndef Field():\n    pass\n"
    files = {
        "src/repro/kinds.py": kinds,
        "src/repro/m.py": "from __future__ import annotations\n" + uses,
        "examples/use.py": "from repro.m import f\nf(1)\n",
    }
    assert _unreached_in(tmp_path, files) == {"kinds.Arg", "kinds.Ret", "kinds.Field"}
    (tmp_path / "src/repro/m.py").write_text(uses, encoding="utf-8")
    assert _unreached(tmp_path) == set()


def test_a_class_only_a_test_constructs_is_unreached(tmp_path):
    # the product names Shape (an isinstance test) but never builds one
    module = (
        "class Shape:\n    pass\n\n"
        "def is_shape(x):\n    return isinstance(x, Shape)\n"
    )
    files = {
        "src/repro/m.py": module,
        "examples/use.py": "from repro.m import is_shape\nis_shape(1)\n",
        "tests/test_m.py": "from repro.m import Shape, is_shape\n\n"
        "def test_shape():\n    assert is_shape(Shape())\n",
    }
    assert _unreached_in(tmp_path, files) == {"m.Shape"}
    (tmp_path / "examples/use.py").write_text(
        "from repro.m import Shape, is_shape\nis_shape(Shape())\n"
    )
    assert _unreached(tmp_path) == set()


def test_cls_in_a_reached_classmethod_builds_the_class(tmp_path):
    module = (
        "class Box:\n"
        "    @classmethod\n"
        "    def empty(cls):\n        return cls()\n"
    )
    files = {"src/repro/m.py": module, "examples/use.py": "from repro.m import Box\nBox.empty()\n"}
    assert _unreached_in(tmp_path, files) == set()


def test_a_subclassed_base_need_not_be_built(tmp_path):
    module = (
        "class Base:\n    pass\n\n"
        "class Leaf(Base):\n    pass\n\n"
        "def make():\n    return Leaf()\n"
    )
    files = {"src/repro/m.py": module, "examples/use.py": "from repro.m import make, Base\nmake()\n"}
    assert _unreached_in(tmp_path, files) == set()


def test_a_raised_exception_class_is_built(tmp_path):
    module = (
        "class Refused(Exception):\n    pass\n\n"
        "def check(ok):\n"
        "    if not ok:\n        raise Refused\n"
    )
    files = {"src/repro/m.py": module, "examples/use.py": "from repro.m import check\ncheck(True)\n"}
    assert _unreached_in(tmp_path, files) == set()
    # a raise in code the product never reaches builds nothing
    (tmp_path / "examples/use.py").write_text(
        "from repro.m import Refused\ntry:\n    pass\nexcept Refused:\n    pass\n"
    )
    assert _unreached(tmp_path) == {"m.Refused", "m.check"}


def _unset_in(tmp_path: Path, files: dict[str, str]) -> set[str]:
    _unreached_in(tmp_path, files)
    return _unset(tmp_path)


_SETTABLE = "def f(a, x=1, *, y=2):\n    return a + x + y\n"


def test_a_keyword_sets_a_parameter(tmp_path):
    files = {"src/repro/m.py": _SETTABLE, "examples/use.py": "from repro.m import f\nf(0)\n"}
    assert _unset_in(tmp_path, files) == {"m.f(x)", "m.f(y)"}
    (tmp_path / "examples/use.py").write_text("import repro.m as m\nm.f(0, y=3, x=4)\n")
    assert _unset(tmp_path) == set()


def test_a_position_sets_a_parameter_but_not_self(tmp_path):
    module = (
        _SETTABLE
        + "class Box:\n"
        + "    def put(self, item=None, spare=None):\n        return item\n"
    )
    use = "from repro.m import Box, f\nf(0, 1)\nBox().put(2)\n"
    files = {"src/repro/m.py": module, "bench/use.py": use}
    assert _unset_in(tmp_path, files) == {"m.f(y)", "m.Box.put(spare)"}


def test_forwarding_sets_every_parameter_it_can_reach(tmp_path):
    module = (
        _SETTABLE
        + "def by_keywords(**options):\n    return f(0, **options)\n\n"
        + "def by_position(*args):\n    return f(*args)\n"
    )
    files = {"src/repro/m.py": module, "examples/use.py": "import repro.m\n"}
    # **options reaches both, *args the positional one only
    assert _unset_in(tmp_path, files) == set()
    (tmp_path / "src/repro/m.py").write_text(
        _SETTABLE + "def by_position(*args):\n    return f(*args)\n"
    )
    assert _unset(tmp_path) == {"m.f(y)"}


def test_cls_and_super_call_the_class_init(tmp_path):
    module = (
        "class Base:\n"
        "    def __init__(self, size=1, tag=None):\n        self.size = size\n"
        "    @classmethod\n"
        "    def large(cls):\n        return cls(size=64)\n\n"
        "class Tagged(Base):\n"
        "    def __init__(self, label=''):\n"
        "        super().__init__(tag=label)\n\n"
        "class Plain(Base):\n    pass\n"
    )
    files = {"src/repro/m.py": module, "examples/use.py": "from repro.m import Tagged\nTagged()\n"}
    assert _unset_in(tmp_path, files) == {"m.Tagged.__init__(label)"}
    # a subclass without an __init__ of its own passes to its base's
    (tmp_path / "examples/use.py").write_text("from repro.m import Plain\nPlain(label='x')\n")
    assert _unset(tmp_path) == {"m.Tagged.__init__(label)"}
    (tmp_path / "examples/use.py").write_text("from repro.m import Tagged\nTagged('x')\n")
    assert _unset(tmp_path) == set()


def test_a_parameter_only_a_test_sets_is_reported(tmp_path):
    files = {
        "src/repro/m.py": _SETTABLE,
        "examples/use.py": "from repro.m import f\nf(0, 1)\n",
        "tests/test_m.py": "from repro.m import f\n\ndef test_f():\n    assert f(0, y=5) == 6\n",
    }
    unset = _unset_in(tmp_path, files)
    assert unset == {"m.f(y)"}
    assert _param_findings(unset, {}) == (["m.f(y)"], [])


def test_a_stale_allowed_params_entry_is_reported(tmp_path):
    files = {"src/repro/m.py": _SETTABLE, "examples/use.py": "from repro.m import f\nf(0, 1, y=2)\n"}
    unset = _unset_in(tmp_path, files)
    allowed = {"m.f(y)": ("feature", "set now"), "m.gone(z)": ("feature", "deleted")}
    assert _param_findings(unset, allowed) == ([], ["m.f(y)", "m.gone(z)"])


def test_private_and_nested_functions_are_not_api(tmp_path):
    module = (
        "def _helper(x=1):\n    return x\n\n"
        "class _Hidden:\n    def run(self, x=1):\n        return x\n\n"
        "def outer():\n"
        "    def inner(x=1):\n        return x\n"
        "    return inner() + _helper() + _Hidden().run()\n"
    )
    files = {"src/repro/m.py": module, "examples/use.py": "from repro.m import outer\nouter()\n"}
    assert _unset_in(tmp_path, files) == set()
