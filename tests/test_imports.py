"""Every module-level import in ``src/memchar`` is used or re-exported, every
module-level def, class and constant there has a reader in ``src/`` or
``bench/``, as has every class member, every name a module exports
resolves, only ``topology.py`` reads a topology's raw ``caches`` sizes,
only ``results.write_output`` (and the kernel build) writes files, and
nothing reads the environment but the deployment settings and the guard
against retired variables.  Also checks the line counter in
``tools/sloc.py``."""

import ast
import builtins
import importlib
import importlib.util
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "memchar"
# The package's re-exports are its public surface, not imports to be used.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


def test_scan_sees_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import os\nfrom typing import Optional\n__all__ = ['Optional']\n"
    assert unused_imports(source) == ["line 1: os"]


def caches_reads(source: str) -> list[int]:
    """Lines that read an attribute named ``caches``."""
    return sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr == "caches"
    )


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "topology.py"),
    ids=lambda p: p.name,
)
def test_cache_sizes_read_only_through_the_topology(path):
    # Sizes come from TopologyGraph.cache_bytes, the one KiB/MiB conversion.
    assert caches_reads(path.read_text()) == []


def test_scan_flags_a_caches_read():
    assert caches_reads("x = 1\nkib = graph.caches['l1_kib']\n") == [2]


# Where src/ may write a file: the one output writer, and the kernel build,
# which publishes its shared object with an atomic rename so that a
# half-written library is never loaded.
WRITERS = {"results.py": "write_output", "native.py": "build_kernels"}
# os.open flags that do not write; any other flag, or one the scan cannot
# name, counts as a write.
READ_FLAGS = {"O_RDONLY", "O_CLOEXEC", "O_NOFOLLOW", "O_DIRECTORY", "O_NONBLOCK", "O_PATH"}


def _argument(call, index: int, keyword: str):
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    return call.args[index] if len(call.args) > index else None


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``write_text``/``write_bytes``, an
    ``open`` whose mode writes (or cannot be read), or an ``os.open`` with a
    write flag."""
    f = call.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    module = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) else None
    if name in ("write_text", "write_bytes"):
        return True
    if name == "open" and module == "os":
        flags = _argument(call, 1, "flags")
        named = {n.attr if isinstance(n, ast.Attribute) else n.id
                 for n in ast.walk(flags) if isinstance(n, (ast.Attribute, ast.Name))}
        return not named or bool(named - READ_FLAGS - {"os"})
    if name in ("open", "fdopen"):
        # open(file, mode), io.open and os.fdopen take the mode second,
        # Path.open first.
        on_object = isinstance(f, ast.Attribute) and module not in ("io", "os")
        mode = _argument(call, 0 if on_object else 1, "mode")
        if mode is None:
            return False
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
            return True
        return bool(set(mode.value) & set("wax+"))
    return False


def file_writes(source: str, file: str) -> list[str]:
    """``file:line in scope`` of each call in ``source`` that writes a file,
    outside the writer :data:`WRITERS` allows in ``file``."""
    allowed = WRITERS.get(file)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and _writes(child):
                if not (allowed and (scope == allowed or scope.startswith(allowed + "."))):
                    found.append(f"{file}:{child.lineno} in {scope or '<module>'}")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_outputs_are_written_only_by_the_one_writer(path):
    assert file_writes(path.read_text(), path.name) == []


def test_the_writer_is_where_the_scan_finds_writes():
    # Under another file name, nothing in results.py is exempt.
    source = (SRC / "results.py").read_text()
    assert [w.partition(" in ")[2] for w in file_writes(source, "writer.py")] == [
        "write_output"
    ]


def test_scan_flags_each_kind_of_write():
    source = (
        "def f(p, fd, flags, m):\n"
        "    p.write_text('x')\n"
        "    p.write_bytes(b'x')\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a')\n"
        "    io.open(p, 'xb')\n"
        "    open(p, 'r+')\n"
        "    p.open('w')\n"
        "    os.fdopen(fd, 'wb')\n"
        "    os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "    os.open(p, flags)\n"
        "    open(p, m)\n"
        "    open(p), open(p, 'rb'), p.open(), p.open(mode='r'), io.open(p, 'r')\n"
        "    os.open(p, os.O_RDONLY | os.O_CLOEXEC)\n"
        "class C:\n"
        "    def save(self, p):\n"
        "        open(p, 'w')\n"
        "def write_output(p):\n"
        "    os.open(p, os.O_WRONLY | os.O_CREAT)\n"
        "    def inner():\n"
        "        open(p, 'a')\n"
    )
    assert file_writes(source, "results.py") == [
        *(f"results.py:{line} in f" for line in range(2, 13)), "results.py:17 in C.save",
    ]


# Where src/ may read the environment.  A run is its argv, so only
# deployment settings that leave results unchanged are read: the kernel
# cache's XDG_CACHE_HOME and the compiler's CC.  The guard reads the
# variables that once set latency options only to refuse them.
ENV_READERS = {
    "native.py": {"_cache_dir", "build_kernels"},
    "cli.py": {"_refuse_retired_variables"},
}
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _reads_env(node) -> bool:
    """Whether ``node`` is ``os.environ``/``os.getenv`` (and their bytes
    forms), or imports one of them from ``os``."""
    if isinstance(node, ast.Attribute):
        return (node.attr in _ENV_NAMES and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    return (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in _ENV_NAMES for alias in node.names))


def env_reads(source: str, file: str) -> list[str]:
    """``file:line in scope`` of each environment read in ``source`` outside
    the scopes :data:`ENV_READERS` allows in ``file``."""
    allowed = ENV_READERS.get(file, set())
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if _reads_env(child) and scope.partition(".")[0] not in allowed:
                found.append(f"{file}:{child.lineno} in {scope or '<module>'}")
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_environment_is_read_only_for_deployment_settings(path):
    assert env_reads(path.read_text(), path.name) == []


def test_the_readers_are_where_the_scan_finds_environment_reads():
    # Under another file name, nothing is exempt.
    found = {
        w.partition(" in ")[2]
        for file in ENV_READERS for w in env_reads((SRC / file).read_text(), "other.py")
    }
    assert found == set().union(*ENV_READERS.values())


def test_scan_flags_each_kind_of_environment_read():
    source = (
        "from os import environ\n"
        "def f():\n"
        "    os.environ['A']\n"
        "    os.environ.get('A', '1')\n"
        "    os.getenv('A')\n"
        "    'A' in os.environ\n"
        "    os.environb.get(b'A')\n"
        "    environ.get('A')\n"
        "    env.get('A'), self.environ, os.path.join('a')\n"
        "class C:\n"
        "    def run(self):\n"
        "        os.environ.pop('A', None)\n"
        "def _cache_dir():\n"
        "    def inner(): return os.environ.get('XDG_CACHE_HOME')\n"
        "    return os.environ.get('XDG_CACHE_HOME')\n"
    )
    assert env_reads(source, "native.py") == [
        "native.py:1 in <module>", *(f"native.py:{line} in f" for line in range(3, 8)),
        "native.py:12 in C.run",
    ]


BENCH = SRC.parent.parent / "bench"
# Module-level names that nothing in src/ or bench/ calls yet, each kept for
# the ROADMAP item that gives it a caller.  A name leaves once it has one.
RESERVED = {
    "scaling_series": "item 2: bandwidth --scaling prints the saturation series",
    "compare": "item 3: a table run is checked against the paper's fixture table",
}


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _assigned(stmt) -> set:
    """Names ``stmt`` binds if it is an assignment, else none."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _referenced_names(trees, users) -> set:
    """Every name the statements of ``trees`` and ``users`` mention: an
    identifier, an attribute, an imported name or a string
    (``bench/spans.py`` patches by name).  A def or an assignment naming
    what it binds, and ``__all__``, do not count."""
    names = set()
    for tree in [*trees, *(ast.parse(src) for src in users)]:
        for stmt in tree.body:
            if _is_all(stmt):
                continue
            found = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name):
                    found.add(n.id)
                elif isinstance(n, ast.Attribute):
                    found.add(n.attr)
                elif isinstance(n, ast.alias):
                    found.add(n.name.rpartition(".")[2])
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    found.add(n.value)
            found.discard(getattr(stmt, "name", None))
            names |= found - _assigned(stmt)
    return names


def unreferenced_defs(modules: dict, users=()) -> list[str]:
    """``file: name`` of each module-level def or class of ``modules`` (file
    name -> source) that neither those sources nor ``users`` name."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    names = _referenced_names(trees.values(), users)
    return [
        f"{file}: {stmt.name}"
        for file, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in names
    ]


def unread_constants(modules: dict, users=()) -> list[str]:
    """``file: name`` of each name a module-level assignment of ``modules``
    binds, ``__all__`` aside, that neither those sources nor ``users``
    read."""
    trees = {name: ast.parse(src) for name, src in modules.items()}
    names = _referenced_names(trees.values(), users)
    return [
        f"{file}: {name}"
        for file, tree in trees.items()
        for stmt in tree.body
        if not _is_all(stmt)
        for name in sorted(_assigned(stmt))
        if name not in names
    ]


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")
def test_every_src_def_has_a_caller_or_a_reserved_item():
    modules = {p.name: p.read_text() for p in MODULES}
    users = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    unreferenced = unreferenced_defs(modules, users)
    assert [n for n in unreferenced if n.partition(": ")[2] not in RESERVED] == []
    # A reserved name that has found a caller leaves RESERVED.
    assert sorted(n.partition(": ")[2] for n in unreferenced) == sorted(RESERVED)


# Module-level constants that nothing in src/ or bench/ reads yet, each kept
# for the ROADMAP item that reads it.  A constant leaves once it has a reader.
RESERVED_CONSTANTS = {
    "SCHEMA_VERSION": "item 7: schema v2 bumps it with the columns it appends",
}


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")
def test_every_src_constant_has_a_reader_or_a_reserved_item():
    modules = {p.name: p.read_text() for p in MODULES}
    users = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    unread = [n.partition(": ")[2] for n in unread_constants(modules, users)]
    # A reserved constant that has found a reader leaves RESERVED_CONSTANTS.
    assert sorted(unread) == sorted(RESERVED_CONSTANTS)


def test_scan_flags_a_constant_with_no_reader():
    modules = {
        "m.py": (
            "__all__ = ['A', 'B']\n"
            "A = 1\n"
            "B: int = 2\n"
            "C, D = 3, 4\n"
            "E = E_DOC = 5\n"
            "_cache = {}\n"
            "def f(): return _cache, C\n"
        ),
        "n.py": "from .m import A\n",
    }
    users = ["getattr(m, 'E')\n"]
    assert unread_constants(modules, users) == ["m.py: B", "m.py: D", "m.py: E_DOC"]


def unresolved_exports(module) -> list[str]:
    """The names in ``module.__all__`` that ``module`` does not bind."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


@pytest.mark.parametrize(
    "name", ["memchar", *(f"memchar.{p.stem}" for p in MODULES)], ids=lambda n: n,
)
def test_every_exported_name_resolves(name):
    assert unresolved_exports(importlib.import_module(name)) == []


def test_scan_flags_an_export_that_does_not_resolve():
    module = types.ModuleType("m")
    exec("__all__ = ['here', 'gone']\nhere = 1\n", module.__dict__)
    assert unresolved_exports(module) == ["gone"]


def test_scan_flags_a_def_with_no_caller():
    modules = {
        "m.py": (
            "__all__ = ['used', 'unused', 'patched', 'Lonely']\n"
            "def used(): pass\n"
            "def unused(): return unused()\n"
            "def patched(): pass\n"
            "class Lonely: pass\n"
            "class Base: pass\n"
            "class Derived(Base): pass\n"
        ),
        "n.py": "from .m import used\nused()\nx = Derived\n",
    }
    users = ["patch(m, 'patched')\n"]
    assert unreferenced_defs(modules, users) == ["m.py: unused", "m.py: Lonely"]


# Class members that nothing in src/ or bench/ reads yet, each kept for the
# ROADMAP item that reads it.  A member leaves once it has a reader.
RESERVED_MEMBERS = {
    "BandwidthSeries.saturation_label": "item 2: bandwidth --scaling prints the saturation knee",
    "CompareReport.render": "item 3: a table run prints its check against the fixture table",
    "ReadSource.supplier": "item 7: the record names the agent that supplied the data",
    "_Region.numa_bound": "item 7: the record gives the NUMA binding outcome",
    # Read only as a string by bench/spans.py, which patches it; deleted once
    # the spans wrap run_sweep instead.
    "SimulatedBackend.run_point": "item 1: the spans move to run_sweep, then it is deleted",
}


def _exception_classes(classes) -> set:
    """Names of the classes deriving, directly or through one another, from
    a built-in exception."""

    def is_exception(base, known):
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
        builtin = getattr(builtins, name, None)
        return name in known or (isinstance(builtin, type) and issubclass(builtin, BaseException))

    known = set()
    while True:
        more = {c.name for c in classes if any(is_exception(b, known) for b in c.bases)}
        if more <= known:
            return known
        known |= more


def class_members(modules: dict) -> list:
    """``(file, class, member)`` for each member of each module-level class of
    ``modules`` (file name -> source): its methods and properties, its
    annotated fields and the ``self.`` attributes its ``__init__`` sets.
    Dunder methods and the members of exception classes are left out."""
    classes = [
        (file, stmt) for file, src in modules.items() for stmt in ast.parse(src).body
        if isinstance(stmt, ast.ClassDef)
    ]
    exceptions = _exception_classes([c for _, c in classes])
    out = []
    for file, cls in classes:
        if cls.name in exceptions:
            continue
        names = []
        for stmt in cls.body:
            if isinstance(stmt, ast.FunctionDef):
                names.append(stmt.name)
                if stmt.name == "__init__":
                    names += [
                        n.attr for n in ast.walk(stmt)
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == "self"
                    ]
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.append(stmt.target.id)
        out += [
            (file, cls.name, name) for name in dict.fromkeys(names)
            if not (name.startswith("__") and name.endswith("__"))
        ]
    return out


def member_reads(sources) -> set:
    """Attribute names that ``sources`` load, or give to ``getattr`` or
    ``hasattr`` as a string."""
    reads = set()
    for src in sources:
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.add(n.attr)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id in ("getattr", "hasattr") and len(n.args) > 1
                  and isinstance(n.args[1], ast.Constant)):
                reads.add(n.args[1].value)
    return reads


def unread_members(modules: dict, users=()) -> list:
    """``file: Class.member`` of each member of ``modules`` that neither those
    sources nor ``users`` read."""
    reads = member_reads([*modules.values(), *users])
    return [
        f"{file}: {cls}.{name}" for file, cls, name in class_members(modules)
        if name not in reads
    ]


@pytest.mark.skipif(not BENCH.is_dir(), reason="no bench/ directory")
def test_every_src_member_has_a_reader_or_a_reserved_item():
    modules = {p.name: p.read_text() for p in MODULES}
    users = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    unread = [n.partition(": ")[2] for n in unread_members(modules, users)]
    # A reserved member that has found a reader leaves RESERVED_MEMBERS.
    assert sorted(unread) == sorted(RESERVED_MEMBERS)


def test_scan_flags_a_member_with_no_reader():
    modules = {
        "m.py": (
            "from dataclasses import dataclass\n"
            "class Oops(ValueError):\n"
            "    def hint(self): pass\n"
            "class Worse(Oops):\n"
            "    code: int = 2\n"
            "@dataclass\n"
            "class Point:\n"
            "    x: int\n"
            "    unread_field: int\n"
            "    def __repr__(self): return 'p'\n"
            "    def norm(self): return self.x\n"
            "    def unread_method(self): pass\n"
            "    @property\n"
            "    def by_name(self): return 1\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.size = 1\n"
            "        self.unread_attr = 2\n"
            "        self.unread_attr += 1\n"
        ),
        "n.py": "p.norm()\nprint(Box().size, getattr(p, 'by_name'))\n",
    }
    assert unread_members(modules) == [
        "m.py: Point.unread_field", "m.py: Point.unread_method", "m.py: Box.unread_attr",
    ]


def _sloc_tool():
    path = SRC.parent.parent / "tools" / "sloc.py"
    spec = importlib.util.spec_from_file_location("sloc_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sloc_counts_code_lines_only():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    y = (x +\n"
        "         1)\n"
        '    s = """text\n'
        'in a string"""\n'
        "    return y, s\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    z = 1\n"
    )
    # import, def, the two lines of y and of s, return, class, z
    assert _sloc_tool().sloc(source) == 9
