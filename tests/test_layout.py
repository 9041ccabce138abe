"""The library holds only what the pipeline runs.

Every top-level name of `src/annoconsist` must be reached from
`cli.entry`, `cli.run` or the benchmark harness in `pipebench/`, which
names library code as `module.name` attributes, "module.name..." strings
and ("module", "name", ...) tuples. A reached definition reaches each
name its body mentions: its own module's, `from .module import name`,
and `module.name`. Code that only tests reach belongs in
`tests/oracles.py`. Likewise every field, method and property of a
library class must be read by the library or the harness.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = {p.stem: ast.parse(p.read_text())
         for p in (ROOT / "src" / "annoconsist").glob("*.py")}


def _defs(tree):
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        for t in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(t, ast.Name) and not t.id.startswith("__"):
                out[t.id] = node
    return out


def _imports(tree):
    """local name -> (module, name), or (module, None) for a module."""
    return {a.asname or a.name: (n.module, a.name) if n.module else (a.name, None)
            for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and n.level == 1 for a in n.names}


def _mentions(mod, node):
    imports = _imports(TREES[mod])
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield imports.get(n.id, (mod, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
            target = imports.get(n.value.id, (None, ""))
            if target[1] is None:
                yield target[0], n.attr


def _pipebench_roots():
    for path in (ROOT / "pipebench").glob("*.py"):
        if path.name.startswith("test_"):
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                yield n.value.id, n.attr
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                yield tuple((n.value.split(".") + [None])[:2])
            elif isinstance(n, ast.Tuple) and len(n.elts) >= 2 and all(
                    isinstance(e, ast.Constant) for e in n.elts[:2]):
                yield n.elts[0].value, n.elts[1].value


def test_every_library_name_is_reached_from_the_pipeline():
    defs = {mod: _defs(tree) for mod, tree in TREES.items()}
    todo = [("cli", "entry"), ("cli", "run"), *_pipebench_roots()]
    seen = set()
    while todo:
        mod, name = key = todo.pop()
        if key not in seen and name in defs.get(mod, {}):
            seen.add(key)
            todo.extend(_mentions(mod, defs[mod][name]))
    unreached = sorted(f"{mod}.{name}" for mod, names in defs.items()
                       for name in names if (mod, name) not in seen)
    assert not unreached, f"reached only from tests: {unreached}"


def _read_attributes():
    """Every attribute name read (loaded) in the library and in the
    benchmark harness outside its tests."""
    paths = [*(ROOT / "src" / "annoconsist").glob("*.py"),
             *(p for p in (ROOT / "pipebench").glob("*.py")
               if not p.name.startswith("test_"))]
    return {n.attr for p in paths for n in ast.walk(ast.parse(p.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_record_field_is_read():
    """Each annotated field of a library class is read as an attribute
    somewhere in the library or the benchmark harness. The check goes by
    name only: a dead field that shares its name with a field read
    elsewhere (say, a `term_mode` next to `TrainConfig.term_mode`) passes."""
    read = _read_attributes()
    unread = sorted(
        f"{mod}.{cls.name}.{node.target.id}"
        for mod, tree in TREES.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.AnnAssign)
        and isinstance(node.target, ast.Name)
        and node.target.id not in read)
    assert not unread, f"fields nothing reads: {unread}"


def test_every_library_method_is_read():
    """Each method and property of a library class, dunders aside, is read
    as an attribute somewhere in the library or the benchmark harness. As
    for fields, the check goes by name only: a method that shares its name
    with one the harness reads (say, a `summary` next to the tracer's)
    passes."""
    read = _read_attributes()
    unread = sorted(
        f"{mod}.{cls.name}.{node.name}"
        for mod, tree in TREES.items() for cls in tree.body
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read)
    assert not unread, f"methods nothing reads: {unread}"


def _annotation_names(node):
    """Names of a string annotation, as in `-> "PreparedScene | None"`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def _unused_imports(path):
    """Names a module imports and never mentions: not as a name, not as
    the base of an attribute, not in a string annotation."""
    tree = ast.parse(path.read_text())
    imported = {}
    used = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                imported[a.asname or a.name.split(".")[0]] = n.lineno
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            for a in n.names:
                imported[a.asname or a.name] = n.lineno
        elif isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(n.annotation)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(n.returns)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


def test_no_unused_imports():
    """Every import in the library and the tests is used: code that
    deletes a function tends to leave its imports behind."""
    paths = [*sorted((ROOT / "src" / "annoconsist").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    unused = [u for p in paths for u in _unused_imports(p)]
    assert not unused, f"unused imports: {unused}"
