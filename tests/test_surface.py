"""The package's public surface: an empty root, and every public function, method and option has a caller."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "noisyfl")

# public names no module of the package uses, each kept on purpose
ALLOWED = {
    "read_telemetry": "the reader of telemetry.csv, kept for a planned report command",
}

# public methods no module of the package calls, each kept on purpose
ALLOWED_METHODS = {}

# parameters with a default that no call in the package passes: seams that tests substitute
ALLOWED_DEFAULTS = {
    "main.argv": "tests run the command line in-process with their own arguments",
    "train_local.lam_sampler": "tests pin mixup's Beta draw",
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


def _calls(modules: dict[str, ast.Module]) -> list[tuple[str, ast.Call]]:
    """(name of the function called, call) for each call of a function in the package.

    A bare name is resolved through the module's ``from .x import y as z``
    aliases, and ``m.name(...)`` counts when ``m`` is a module bound by
    ``from . import m``.  Any other attribute call is a method call, which
    never counts as a call of the public function of the same name.
    """
    calls = []
    for tree in modules.values():
        aliases, submodules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:  # the package's own imports
                for alias in node.names:
                    if node.module is None:
                        submodules.add(alias.asname or alias.name)
                    else:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                calls.append((aliases.get(func.id, func.id), node))
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in submodules:
                calls.append((func.attr, node))
    return calls


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
    calls = _calls(modules)
    for name, (_, function) in _public_definitions(modules).items():
        if not isinstance(function, ast.FunctionDef):
            continue
        args = function.args
        positional = args.posonlyargs + args.args
        first_defaulted = len(positional) - len(args.defaults)
        defaulted = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first_defaulted]
        defaulted += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        mine = [call for callee, call in calls if callee == name]
        for position, parameter in defaulted:
            yield name, parameter, position, mine


def _never_passed(modules: dict[str, ast.Module]) -> set[str]:
    return {
        f"{name}.{parameter}"
        for name, parameter, position, calls in _defaulted_parameters(modules)
        if not any(_passes(call, position, parameter) for call in calls)
    }


def _private_imports(modules: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) for each private name a module takes from another module of the package.

    A name is taken by ``from .x import _name`` or read as ``x._name`` of a
    module bound by ``from . import x``; dunder names such as ``__version__`` are public.
    """
    found = []
    for module, tree in modules.items():
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
        submodules = {alias.asname or alias.name for node in imports if node.module is None for alias in node.names}
        for node in ast.walk(tree):
            if node in imports:
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in submodules:
                names = [node.attr]
            else:
                continue
            found += [(module, name) for name in names if name.startswith("_") and not name.endswith("__")]
    return found


def test_no_module_imports_another_modules_private_name():
    """A leading underscore keeps a name to its module: a second module that needs it needs a public name."""
    assert _private_imports(_modules()) == []


def test_every_defaulted_parameter_is_passed_by_some_caller():
    """A parameter whose callers all take its default is one value in disguise, so it should be a constant."""
    never_passed = _never_passed(_modules())
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


# a module that defines a public function with a default, and one that calls it
DEFINES = "def forward(x, w=None):\n    return x\n\n\ndef run(x):\n    return forward(x)\n"
CALLS = "from . import a\nfrom .a import forward as step\n\n\ndef go(work, x):\n    return {call}\n"


@pytest.mark.parametrize(
    "call, passes", [("work.forward(x, 2)", False), ("a.forward(x, 2)", True), ("step(x, 2)", True)]
)
def test_only_a_call_of_the_function_passes_its_parameter(call, passes):
    """A method of the same name is another function; a module attribute or an import alias is the same one."""
    modules = {"a.py": ast.parse(DEFINES), "b.py": ast.parse(CALLS.format(call=call))}
    assert _never_passed(modules) == (set() if passes else {"forward.w"})
