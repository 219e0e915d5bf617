import ast
from pathlib import Path
from types import ModuleType

import rldc

# every module imports only modules before it
LAYERS = ("exact", "rng", "set_system", "daisy", "decoders", "preprocessing", "global_decoder", "harness", "cli")


def test_all_exports_names_not_modules():
    for name in rldc.__all__:
        assert not isinstance(getattr(rldc, name), ModuleType), name
    assert {"REJECT", "preprocess_pipeline", "decode_index", "verify_claims"} <= set(rldc.__all__)


def imported_modules(tree: ast.Module) -> set[str]:
    """The rldc modules a module's source imports, by their names in the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rldc."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("rldc.")}
    return found


def test_modules_import_only_earlier_layers():
    source = Path(rldc.__file__).parent
    modules = {path.stem: path for path in source.glob("*.py")}
    assert set(modules) == {"__init__", *LAYERS}  # a new module needs a place in the order
    for rank, name in enumerate(LAYERS):
        imported = imported_modules(ast.parse(modules[name].read_text()))
        later = sorted(imported - set(LAYERS[:rank]))
        assert not later, f"rldc.{name} imports {later}, which are not before it in {LAYERS}"


def unused_imports(tree: ast.Module, reexports: bool) -> list[str]:
    """The names a module imports and never reads, each with its line.  A
    name read only inside a string annotation counts as read; `__future__`
    imports, and with `reexports` the package's own names, are exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module == "__future__" or (reexports and node.level)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0]: node.lineno for alias in node.names}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    nodes = list(ast.walk(tree))
    for note in filter(None, annotations):
        for text in ast.walk(note):
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                nodes.extend(ast.walk(ast.parse(text.value, mode="eval")))
    read = {node.id for node in nodes if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in read]


def test_every_imported_name_is_read():
    source = Path(rldc.__file__).parent
    for path in sorted(source.glob("*.py")):
        unused = unused_imports(ast.parse(path.read_text()), reexports=path.name == "__init__.py")
        assert not unused, f"rldc.{path.stem} imports names it never reads: {unused}"


def test_unused_import_check_sees_string_annotations():
    tree = ast.parse("from a import B, C, D\nfrom .e import F\nx: 'B | None' = 1\ndef f(y: C) -> 'list[int]': pass")
    assert unused_imports(tree, reexports=True) == ["D (line 1)"]
    assert unused_imports(tree, reexports=False) == ["D (line 1)", "F (line 2)"]


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def top_level_names(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each top-level function, class and assigned name, with its statement."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node) for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return found


def loaded_names(node: ast.AST) -> set[str]:
    """The names a statement reads, bare or as an attribute."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
    }


def perfbench_names() -> set[str]:
    """Every name perfbench's source mentions: bare, as an attribute, or as a
    dotted part of a string (the tracer binds targets such as "Code.encode")."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_top_level_name_is_used():
    # a name only tests read belongs in the tests (tests/oracles.py holds reference semantics);
    # dunders such as __all__ and __version__ are read by Python and packaging tools
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(rldc.__file__).parent.glob("*.py"))}
    statements = [node for tree in modules.values() for node in tree.body]
    reads = {id(node): loaded_names(node) for node in statements}
    used = perfbench_names() | set(rldc.__all__)
    dead = []
    for module, tree in modules.items():
        for name, definition in top_level_names(tree):
            read = any(name in reads[id(node)] for node in statements if node is not definition)
            if not (read or name in used or name.startswith("__")):
                dead.append(f"rldc.{module}.{name}")
    assert not dead, f"names that neither rldc, perfbench nor rldc.__all__ reads: {dead}"
