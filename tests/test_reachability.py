"""Every function in src/ is entered by a command, or is listed in ALLOWED with
a reason; code that only tests use belongs in tests/_helpers.py.  COMMANDS
reach the same functions as the full-size `verify all`."""

import ast
import os
import sys
from pathlib import Path

import formclass
from formclass.cli import main

COMMANDS = (
    "verify all --quick --seed 3",
    "cm -D -23 -N 5 --curve y1",
    "cm -D -23 -N 5 --curve y",
    "tower -p 3 -D -23 -n 1 --check-lift",
    "equiv 1,1,6 2,1,3 -N 5",
    "equiv 1,1,6 1,1,6 -N 5 --gamma1",
    "--format text classgroup -D -23 -N 3",
    "reduce 7,11,5",
)

ALLOWED = {
    "ideals.OIdeal.to_json": "names an ideal in the error messages of class_of_ideal",
}


def _definitions() -> dict[tuple[str, int], str]:
    """(file, first line as in co_firstlineno) -> module.Qual.name of every def."""
    out = {}

    def walk(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = f"{prefix}.{child.name}"
                walk(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")

    for path in sorted(Path(formclass.__file__).resolve().parent.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem)
    return out


def test_every_function_is_reached_or_allowed(capsys):
    # empty every cache of the package, so that earlier tests cannot hide a call
    for name, module in list(sys.modules.items()):
        for obj in vars(module).values() if name.startswith("formclass.") else ():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("formclass"):
                obj.cache_clear()
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(argv.split()) for argv in COMMANDS]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(COMMANDS)
    reached = {(os.path.realpath(path), line) for path, line in entered}
    unreached = {name for key, name in _definitions().items() if key not in reached}
    assert (sorted(unreached - set(ALLOWED)), sorted(set(ALLOWED) - unreached)) == ([], [])
