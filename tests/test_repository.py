import ast
import importlib
import importlib.util
import inspect
import re
import shlex
import shutil
import subprocess
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from fieldlens.cli import build_parser
from fieldlens.detectors import LIBRARY, RULE_IDS
from fieldlens.model import InstructionRecord

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fieldlens"


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_gitignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    inside = _git("rev-parse", "--is-inside-work-tree")
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text())


def test_every_module_parses_as_the_oldest_supported_python():
    """Syntax newer than the floor that ``pyproject.toml`` declares would
    pass unnoticed on a newer interpreter."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml declares no Python floor"
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(floor[1])))


def test_only_reports_knows_json():
    """Reading, writing and converting the stage documents is one layer."""
    importers = []
    converters = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(a.name.split(".")[0] == "json" for a in node.names):
                    importers.append(name)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "json":
                    importers.append(name)
        converters += [
            f"{name}:{node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and re.search(r"_(to_dict|from_dict|doc)$", node.name)
        ]
    assert sorted(set(importers)) == ["reports.py"]
    assert all(c.startswith("reports.py:") for c in converters), converters


def _writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``os.open``, ``Path.write_text``/``write_bytes``,
    or an ``open`` whose mode writes (a mode that is not a literal counts)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    position = 1 if isinstance(func, ast.Name) else 0  # open(path, mode), Path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position:position + 1]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return bool(set(mode.value) & set("wax+"))


def test_only_reports_opens_files_for_writing():
    """``reports.write_text`` rewrites a file in place and never truncates it
    first; a second writer would bring the truncate back."""
    writes = []
    for name, tree in _modules():
        writes += [
            (name, node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _writes_a_file(node)
        ]
        if name == "reports.py":
            (writer,) = [
                fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "write_text"
            ]
    inside = {id(node) for node in ast.walk(writer)}
    assert writes
    assert [f"{name}:{node.lineno}" for name, node in writes if id(node) not in inside] == []


def test_every_record_attribute_is_read_by_an_analysis():
    """A record attribute that only the VM writes and the interchange format
    carries is dead weight: it makes traces differ without changing a report."""
    read = {
        node.attr
        for name, tree in _modules()
        if name != "traceio.py" and not name.startswith("vm/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [name for name in InstructionRecord._fields if name not in read]
    assert unread == []


def test_offsets_are_spelt_only_as_runs():
    """A record's offsets are ``model.Offsets`` runs from the trace text to
    the detectors.  No module builds ``frozenset(range(...))`` or a
    ``frozenset`` of a field's ``.offsets``, so a second spelling of an
    offset set cannot come back."""
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "frozenset"):
                continue
            for arg in node.args:
                if (isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "range") or (
                    isinstance(arg, ast.Attribute) and arg.attr == "offsets"
                ):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_only_traceio_raises_parse_errors():
    """Interchange text is parsed in one module: no other module constructs
    a ``ParseError``."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        if name != "traceio.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "ParseError" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def test_readme_cli_examples_parse():
    """Every ``fieldlens`` command in README's CLI block parses, so a flag
    that the program no longer has cannot linger in the docs."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    commands = [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("fieldlens ")
    ]
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's CLI block does not parse: fieldlens {shlex.join(argv)}")


def test_each_rule_id_is_spelled_once():
    """The detector table is the one place that names a rule."""
    spelled = Counter(
        node.value
        for _, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in RULE_IDS
    )
    assert spelled == Counter(RULE_IDS)


def _function(fn):
    return ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]


def _loads(fn, param):
    return any(
        isinstance(node, ast.Name) and node.id == param and isinstance(node.ctx, ast.Load)
        for node in ast.walk(fn)
    )


def test_a_rule_reads_the_message_only_if_marked_as_reading_bytes():
    """A rule's trace part runs once per (shape, field), given no message:
    it takes the field, I(f) and the covering loops and nothing else.  Only
    a rule marked with a byte part (``on_bytes``) sees a message, through
    that part, which is handed what its trace part kept and the bytes it
    declares, and must read those bytes."""
    for rule in LIBRARY:
        trace_part = _function(rule.fires).args
        assert [a.arg for a in trace_part.args] == ["field", "records", "loops"], rule.id
        assert not (trace_part.vararg or trace_part.kwarg or trace_part.kwonlyargs), rule.id
        if rule.on_bytes is not None:
            byte_part = _function(rule.on_bytes.fires)
            assert len(byte_part.args.args) == 2, rule.id
            assert _loads(byte_part, byte_part.args.args[1].arg), rule.id


def test_no_module_level_name_holds_an_empty_container():
    """A module-level name bound to an empty dict, set or list is a memo
    that would outlive the call that fills it, which
    ``test_no_memo_outlives_a_call`` does not see.  Every memo lives for
    one call."""
    found = []
    for name, tree in _modules():
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            func = getattr(value, "func", None)  # ``defaultdict`` or ``collections.defaultdict``
            called = getattr(func, "id", getattr(func, "attr", None))
            empty = (
                isinstance(value, ast.Dict) and not value.keys
                or isinstance(value, ast.List) and not value.elts
                or called in ("dict", "set", "list", "OrderedDict", "Counter")
                and not value.args and not value.keywords
                # a defaultdict's one argument is its factory, not its items
                or called == "defaultdict" and len(value.args) <= 1 and not value.keywords
            )
            if empty:
                found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


PERFBENCH = ROOT / "perfbench"


def _names_used(path):
    """``(module, attribute)`` for each fieldlens name ``path`` imports, or
    reads off a fieldlens module that it imports."""
    tree = ast.parse(path.read_text())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fieldlens"):
            for alias in node.names:
                try:
                    module = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    names.add((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = module.__name__
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            names.add((modules[node.value.id], node.attr))
    return names


def test_every_name_the_benchmark_looks_up_exists():
    """The benchmark wraps and imports fieldlens names by string and by path,
    so a renamed function would otherwise surface only when it runs."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = {(module, attr) for module, attr, _ in (*tracer.SPANS, *tracer.AGGREGATES)}
    for script in ("workloads.py", "run.py"):
        wanted |= _names_used(PERFBENCH / script)
    assert {
        ("fieldlens.pipeline", "load_ground_truth"),
        ("fieldlens.evaluation", "serialize_ground_truth"),
        ("fieldlens.extraction", "intra_instruction_candidates"),
        ("fieldlens.extraction", "resolve_overlaps"),
    } <= wanted
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(wanted)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_no_memo_outlives_a_call():
    """``functools.lru_cache`` and ``functools.cache`` keep their results
    from one call to the next, so a repeated input would be served from an
    earlier call.  Every memo in the package lives for one call."""
    memos = ("lru_cache", "cache")
    found = []
    for name, tree in _modules():
        aliases = {"functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name for a in node.names if a.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{name}: {a.name}" for a in node.names if a.name in memos]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in memos
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                found.append(f"{name}: {node.value.id}.{node.attr}")
    assert found == []


def test_memos_key_by_value():
    """Equal fields and annotations give equal reports, so every memo keys
    by value: no dataclass field leaves equality with ``compare=False``, and
    the name ``id`` is read only by ``reports.encode``, whose dicts and
    lists cannot be hashed.  Any read counts, so ``map(id, xs)`` and
    ``key=id`` are found as well as ``id(x)``."""
    allowed = {("reports.py", "encode")}
    found = []
    for name, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Name)
                    and node.id == "id"
                    and isinstance(node.ctx, ast.Load)
                    and (name, getattr(top, "name", None)) not in allowed
                ):
                    found.append(f"{name}:{node.lineno}: id")
                if not isinstance(node, ast.Call):
                    continue
                found += [
                    f"{name}:{node.lineno}: compare=False"
                    for kw in node.keywords
                    if kw.arg == "compare"
                    and not (isinstance(kw.value, ast.Constant) and kw.value.value is True)
                ]
    assert found == []


#: the checked tuples, by module: each class body is the one place that may
#: build its values around the constructor
CHECKED_TUPLES = {
    "model.py": {"InstructionRecord", "Field"},
    "detectors.py": {"FieldAnnotation", "Evidence"},
}


def test_only_the_record_class_builds_records_around_a_constructor():
    """``InstructionRecord.__new__`` checks the record invariants and
    ``Field.__new__`` the range, and each class's ``_make``, and so
    ``_replace``, call it.  No module may create an object or set an
    attribute around a class's constructor this way outside the body of a
    checked tuple (``FieldAnnotation`` and ``Evidence`` are the others), so
    calling the class is the one way in."""
    modules = list(_modules())
    inside = set()
    for name, classes in CHECKED_TUPLES.items():
        bodies = [
            node for node in ast.walk(dict(modules)[name])
            if isinstance(node, ast.ClassDef) and node.name in classes
        ]
        assert sorted(node.name for node in bodies) == sorted(classes), name
        inside |= {id(node) for body in bodies for node in ast.walk(body)}
    bypasses = {"__new__", "__setattr__", "__set__", "__dict__"}
    found = []
    for name, tree in modules:
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Name) and node.id == "vars":
                found.append(f"{name}:{node.lineno}: vars")
            elif isinstance(node, ast.Attribute) and node.attr in bypasses:
                found.append(f"{name}:{node.lineno}: {node.attr}")
    assert found == []
