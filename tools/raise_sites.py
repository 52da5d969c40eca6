"""List the ``raise`` statements of ``src/noisyfl`` that a set of tests never reaches.

Usage:
    python tools/raise_sites.py                       # the CLI-level tests' named cases
    python tools/raise_sites.py tests/test_noise.py   # any pytest arguments

Every ``raise`` statement is found with ``ast``.  The tests then run in this
process under a ``sys.settrace`` line tracer that records the lines executed
in ``src/noisyfl``; a site counts as reached when any line of its statement
ran.  The report prints each unreached site as ``file:line  function
statement`` and ends with the count of reached and unreached sites.  It is
a probe for the review of validation code, not a test: it exits with
pytest's status, whatever it found.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "noisyfl")
DEFAULT_TESTS = ["tests/test_cli.py", "tests/test_config.py", "tests/test_golden.py", "tests/test_memory.py"]
# named cases only: the sites a Hypothesis test reaches move with its strategies and their draws
DEFAULT_ARGS = ["-m", "not hypothesis", *DEFAULT_TESTS]


def raise_sites() -> list[tuple[str, str, int, int, str]]:
    """(file, enclosing function, first line, last line, statement text) of every raise, in file order."""
    sites = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{owner}.{child.name}" if owner else child.name)
                    continue
                if isinstance(child, ast.Raise):
                    sites.append((path, owner or "<module>", child.lineno, child.end_lineno, lines[child.lineno - 1].strip()))
                visit(child, owner)

        visit(ast.parse(text, path), "")
    return sorted(sites, key=lambda s: (s[0], s[2]))


def main(argv: list[str]) -> int:
    import pytest

    sites = raise_sites()
    wanted = {path for path, *_ in sites}
    executed: dict[str, set[int]] = {path: set() for path in wanted}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or DEFAULT_ARGS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unreached = [s for s in sites if not executed[s[0]] & set(range(s[2], s[3] + 1))]
    print(f"\nunreached raise sites ({' '.join(argv or DEFAULT_ARGS)}):")
    for path, owner, first, _, text in unreached:
        print(f"  {os.path.relpath(path, ROOT)}:{first}  {owner}  {text}")
    print(f"{len(sites) - len(unreached)} of {len(sites)} raise sites reached, {len(unreached)} unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
