"""The package's public surface: every public function and class has a caller in the package."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "noisyfl")

# public names no module of the package uses, each kept on purpose
ALLOWED = {
    "load_checkpoint": "the reader of final_checkpoint.bin, which tests use as the oracle of its format",
    "read_telemetry": "the reader of telemetry.csv, kept for a planned report command",
}


def _modules() -> dict[str, ast.Module]:
    modules = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":  # re-exports are not callers
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                modules[name] = ast.parse(fh.read())
    return modules


def _used_names(modules: dict[str, ast.Module], defined: dict) -> set[str]:
    """Names read, or imported by another module, anywhere outside their own definition."""
    used = set()
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                home, definition = defined.get(name, (None, None))
                inside = home == module and definition.lineno <= node.lineno <= definition.end_lineno
                if not inside:
                    used.add(name)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    defined = {
        node.name: (module, node)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = _used_names(modules, defined)
    assert sorted(set(defined) - used - set(ALLOWED)) == []
    # the allowlist holds only names that exist and are still unused
    assert sorted(name for name in ALLOWED if name not in defined or name in used) == []
