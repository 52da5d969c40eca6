"""The package's public surface: an empty root, and every public function, method and option has a caller."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "noisyfl")

# public names no module of the package uses, each kept on purpose
ALLOWED = {
    "load_checkpoint": "the reader of final_checkpoint.bin, which tests use as the oracle of its format",
    "read_telemetry": "the reader of telemetry.csv, kept for a planned report command",
}

# public methods no module of the package calls, each kept on purpose
ALLOWED_METHODS = {
    "PartitionPlan.validate": "the oracle of test_partition.py's scheme sweep for disjoint, in-bounds, non-empty plans",
}

# parameters with a default that no call in the package passes: seams that tests substitute
ALLOWED_DEFAULTS = {
    "main.argv": "tests run the command line in-process with their own arguments",
    "train_local.lam_sampler": "tests pin mixup's Beta draw",
    "partition_quantity_skew.sampler": "tests stub the Dirichlet share draw",
    "partition_label_dirichlet.sampler": "tests stub the Dirichlet share draw",
}


# parameters whose default every call in the package overrides: seams for callers outside it
ALLOWED_OVERRIDDEN = {}


def _modules() -> dict[str, ast.Module]:
    modules = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                modules[name] = ast.parse(fh.read())
    return modules


def _inside(module: str, node: ast.AST, home: str, definition: ast.AST) -> bool:
    return home == module and definition.lineno <= node.lineno <= definition.end_lineno


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
                if not _inside(module, node, home, definition):
                    used.add(name)
    return used


def _public_definitions(modules: dict[str, ast.Module]) -> dict[str, tuple[str, ast.AST]]:
    return {
        node.name: (module, node)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def test_package_root_holds_only_its_docstring_and_version():
    """``import noisyfl`` imports nothing else, and setuptools reads the version without running the module."""
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        docstring, version = ast.parse(fh.read()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value.value, str)
    assert isinstance(version, ast.Assign)
    assert [target.id for target in version.targets] == ["__version__"]
    assert isinstance(version.value, ast.Constant) and isinstance(version.value.value, str)


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    defined = _public_definitions(modules)
    used = _used_names(modules, defined)
    assert sorted(set(defined) - used - set(ALLOWED)) == []
    # the allowlist holds only names that exist and are still unused
    assert sorted(name for name in ALLOWED if name not in defined or name in used) == []


def test_every_public_method_has_a_caller_in_the_package():
    """A method counts as called when its name is read as an attribute outside its own body."""
    modules = _modules()
    methods = {
        f"{cls.name}.{node.name}": (module, node)
        for module, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    attributes = [
        (module, node) for module, tree in modules.items() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    ]
    uncalled = {
        name
        for name, (home, definition) in methods.items()
        if not any(
            node.attr == definition.name and not _inside(module, node, home, definition) for module, node in attributes
        )
    }
    assert sorted(uncalled - set(ALLOWED_METHODS)) == []
    assert sorted(name for name in ALLOWED_METHODS if name not in methods or name not in uncalled) == []


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def _passes(call: ast.Call, position: int | None, parameter: str) -> bool:
    """Whether ``call`` may give ``parameter`` a value; ``position`` is None for a keyword-only one."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):  # by name, or through **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)


def _gives(call: ast.Call, position: int | None, parameter: str) -> bool:
    """Whether ``call`` certainly gives ``parameter`` a value: by name, or at its position before any ``*args``."""
    if any(keyword.arg == parameter for keyword in call.keywords):
        return True
    if position is None or any(isinstance(arg, ast.Starred) for arg in call.args[: position + 1]):
        return False
    return len(call.args) > position


def _defaulted_parameters(modules: dict[str, ast.Module]):
    """(function, parameter, position or None, the package's calls of the function) for each defaulted parameter."""
    calls = [node for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    for name, (_, function) in _public_definitions(modules).items():
        if not isinstance(function, ast.FunctionDef):
            continue
        args = function.args
        positional = args.posonlyargs + args.args
        first_defaulted = len(positional) - len(args.defaults)
        defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first_defaulted]
        defaulted += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        mine = [call for call in calls if _callee(call) == name]
        for position, parameter in defaulted:
            yield name, parameter, position, mine


def test_every_defaulted_parameter_is_passed_by_some_caller():
    """A parameter whose callers all take its default is one value in disguise, so it should be a constant."""
    never_passed = {
        f"{name}.{parameter}"
        for name, parameter, position, calls in _defaulted_parameters(_modules())
        if not any(_passes(call, position, parameter) for call in calls)
    }
    assert sorted(never_passed - set(ALLOWED_DEFAULTS)) == []
    assert sorted(name for name in ALLOWED_DEFAULTS if name not in never_passed) == []


def test_every_default_is_taken_by_some_caller():
    """A default that every caller overrides runs only under tests, so the parameter should be required.

    A call through ``*args`` counts as not passing the parameter, since its
    arguments are not known here.
    """
    always_passed = {
        f"{name}.{parameter}"
        for name, parameter, position, calls in _defaulted_parameters(_modules())
        if calls and all(_gives(call, position, parameter) for call in calls)
    }
    assert sorted(always_passed - set(ALLOWED_OVERRIDDEN)) == []
    assert sorted(name for name in ALLOWED_OVERRIDDEN if name not in always_passed) == []
