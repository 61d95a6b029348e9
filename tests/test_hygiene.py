"""Source hygiene of the package, checked on its syntax trees."""

import ast
from collections import defaultdict
from pathlib import Path

import clusterlab

PACKAGE = Path(clusterlab.__file__).parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    """Names listed in a literal __all__, or every public name when
    __all__ is computed (a re-exporting package __init__)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return {"*"}
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    out = []
    for name, line in sorted(_imported_names(tree).items(), key=lambda item: item[1]):
        if name in used or name in exported or ("*" in exported and not name.startswith("_")):
            continue
        out.append(f"{path.name}:{line}: {name}")
    return out


def test_no_unused_module_level_imports():
    unused = [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _unused_imports(path)]
    assert unused == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import os\nimport sys\nfrom typing import Optional\n\nprint(sys.argv)\n")
    assert _unused_imports(module) == ["sample.py:1: os", "sample.py:3: Optional"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions and classes, with their lines."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _unreferenced_private_definitions(paths) -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    referenced = set().union(*map(_references, trees.values()))
    return [
        f"{path.name}:{line}: {name}"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in referenced
    ]


def test_no_unreferenced_private_helpers():
    # a private helper nothing in the package reads is left-over code
    assert _unreferenced_private_definitions(sorted(PACKAGE.glob("*.py"))) == []


def test_the_check_sees_an_unreferenced_helper(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def _used():\n    return 1\n\n\ndef _orphan():\n    return _used()\n\n\n"
        "class _Gone:\n    pass\n\n\ndef public():\n    return 2\n"
    )
    assert _unreferenced_private_definitions([module]) == ["sample.py:5: _orphan", "sample.py:9: _Gone"]


# public definitions no CLI command or report reaches, each kept for the
# ROADMAP item whose report will reach it or for the benchmark that reads it
ALLOWED_UNREACHED = {
    ("engine", "is_algebraically_independent"): "item 6, the independence report",
    ("engine", "check_automorphism_candidate"): "item 7, the automorphism report",
    ("engine", "ExchangeGraph.node_count"): "perfbench/layers.py reads it",
}


def _is_public_method(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and assigned names, and the public
    methods of public classes as "Class.method", with their nodes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out.update((f"{node.name}.{m.name}", m) for m in node.body if _is_public_method(m))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def _own_references(node: ast.stmt) -> set[str]:
    """The names a definition reads; a public class's public methods are
    definitions of their own, so the class does not read through them."""
    if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
        return _references(node)
    parts = [*node.bases, *node.keywords, *node.decorator_list]
    parts += [stmt for stmt in node.body if not _is_public_method(stmt)]
    return set().union(*map(_references, parts))


def _reached(trees: dict[str, ast.Module], roots) -> set[tuple[str, str]]:
    """(module, name) of every definition a name walk from the roots reaches.

    A root is a (module, name) definition; the walk follows every name a
    reached definition reads into every definition of that name in any
    module, so a name shared by two modules reaches both.  A method is
    reached by its bare name, read as an attribute or a name, whatever
    object it is read from.
    """
    definitions = {
        (module, name): node for module, tree in trees.items() for name, node in _definitions(tree).items()
    }
    by_name = defaultdict(list)
    for module, name in definitions:
        by_name[name.rpartition(".")[2]].append((module, name))
    reached = set(roots)
    pending = list(reached)
    while pending:
        for name in _own_references(definitions[pending.pop()]):
            for key in by_name[name]:
                if key not in reached:
                    reached.add(key)
                    pending.append(key)
    return reached


def _unreached_public_definitions(paths, roots) -> list[str]:
    """Public functions and classes the walk misses, and the public
    methods it misses of the classes it reaches."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    reached = _reached(trees, roots)
    return [
        f"{module}.py:{node.lineno}: {name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree).items()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not name.startswith("_") and (module, name) not in reached
        and ("." not in name or (module, name.partition(".")[0]) in reached)
    ]


def _package_roots() -> list[tuple[str, str]]:
    """The CLI's commands and groups, and the report dispatcher."""
    cli = ast.parse((PACKAGE / "cli.py").read_text())
    commands = [
        ("cli", node.name) for node in cli.body
        if isinstance(node, ast.FunctionDef) and node.decorator_list
    ]
    return commands + [("verify", "run_report")]


def _package_modules() -> list[Path]:
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]


def test_every_public_definition_is_reached_from_the_cli_or_a_report():
    # a public function or class nothing but tests reaches is surface to
    # delete, unless it waits on a ROADMAP item's report
    roots = _package_roots() + list(ALLOWED_UNREACHED)
    assert _unreached_public_definitions(_package_modules(), roots) == []


def test_the_allowed_unreached_names_are_still_unreached():
    # an entry whose report now reaches it should be dropped from the list
    trees = {path.stem: ast.parse(path.read_text()) for path in _package_modules()}
    reached = _reached(trees, _package_roots())
    for module, name in ALLOWED_UNREACHED:
        assert name in _definitions(trees[module])
        assert (module, name) not in reached


def test_the_check_sees_an_unreached_definition(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "LIMIT = 3\n\n\ndef entry():\n    return helper(LIMIT)\n\n\n"
        "def helper(x):\n    return _inner(x)\n\n\ndef _inner(x):\n    return Kept(x)\n\n\n"
        "class Kept:\n    pass\n\n\ndef orphan():\n    return helper(1)\n\n\n"
        "class Gone:\n    pass\n"
    )
    assert _unreached_public_definitions([module], [("sample", "entry")]) == [
        "sample.py:20: orphan", "sample.py:24: Gone",
    ]


def test_the_check_sees_an_unreached_method(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def entry():\n    return Kept().used()\n\n\n"
        "class Kept:\n    def __init__(self):\n        self.x = 1\n\n"
        "    def used(self):\n        return self.inner()\n\n"
        "    def inner(self):\n        return self.x\n\n"
        "    def orphan(self):\n        return Other()\n\n\n"
        "class Other:\n    def also_orphan(self):\n        return 1\n"
    )
    # Other is read only by an unreached method, and its own method is
    # not listed apart from it
    assert _unreached_public_definitions([module], [("sample", "entry")]) == [
        "sample.py:15: Kept.orphan", "sample.py:19: Other",
    ]


def _bare_builtin_errors(path: Path) -> list[str]:
    """Lines that raise the builtin ValueError or AssertionError, called or not."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and isinstance(exc := getattr(node.exc, "func", node.exc), ast.Name)
        and exc.id in ("ValueError", "AssertionError")
    )
    return [f"{path.name}:{line}" for line in lines]


def test_every_module_raises_typed_errors():
    # a rejection is InvalidParameter, and a contradiction another package
    # error, which the CLI turns into its JSON envelope; a bare ValueError
    # or AssertionError is neither
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _bare_builtin_errors(path)]
    assert found == []


def test_the_check_sees_a_bare_value_error(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from errors import InvalidParameter\n\n\ndef check(x):\n    if x < 0:\n"
        "        raise ValueError('negative')\n    if x > 9:\n        raise InvalidParameter('large')\n"
        "    try:\n        return 1 / x\n    except ZeroDivisionError:\n        raise\n"
        "    assert x != 5\n    if x == 7:\n        raise AssertionError('seven')\n"
        "    raise ValueError\n"
    )
    assert _bare_builtin_errors(module) == ["sample.py:6", "sample.py:15", "sample.py:16"]
