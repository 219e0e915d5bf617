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
