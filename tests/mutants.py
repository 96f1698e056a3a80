"""One-point mutation probe: which small defects in a module do the checks see?

    python tests/mutants.py [--tier1] src/formclass/classgroup.py ...

Each mutant changes one point of a module's syntax tree:

- a comparison swapped: == <-> !=, < <-> <=, > <-> >=;
- an arithmetic operator (also in an augmented assignment): + <-> -,
  // -> *, % -> //;
- an integer constant plus 1.

The mutant is written into a temporary copy of the repository, and
`python -m formclass verify all --quick --seed 3` is run there, for at most
VERIFY_TIMEOUT seconds (the unmutated run takes under 1 s).  The mutant
either fails a check (exit 1), raises an error (a traceback or any other
exit code), changes stdout (exit 0), times out, or survives with the same
stdout.  One line is printed per survivor, then a
tally per module.  With --tier1 each survivor also runs `pytest -x -q` in
the copy, for at most TIER1_TIMEOUT seconds (tier-1 takes about 25 s).

First, each module is re-emitted unmutated by `ast.unparse`; unless that
prints the same stdout as the module itself, the probe stops and exits 1.
It exits 0 once every mutant is classified, whatever survives.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY = ["-m", "formclass", "verify", "all", "--quick", "--seed", "3"]
PYTEST = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
VERIFY_TIMEOUT, TIER1_TIMEOUT = 20, 150
SWAPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
         ast.GtE: ast.Gt, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv}
SYMBOLS = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Add: "+", ast.Sub: "-", ast.FloorDiv: "//", ast.Mult: "*", ast.Mod: "%"}
OUTCOMES = ("failed a check", "raised an error", "changed stdout", "timed out", "survived")


def mutation_points(tree: ast.AST) -> list[tuple[str, int, str, object]]:
    """(function, line, operator, apply) for each one-point mutant of tree, in
    walk order; apply() mutates tree in place."""
    points = []

    def swap(owner, field, index=None):
        old = getattr(owner, field) if index is None else getattr(owner, field)[index]
        new = SWAPS[type(old)]()

        def apply():
            if index is None:
                setattr(owner, field, new)
            else:
                getattr(owner, field)[index] = new
        return f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}", apply

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        found = []
        if isinstance(node, ast.Compare):
            found = [swap(node, "ops", i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found = [swap(node, "op")]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found = [(f"{node.value} -> {node.value + 1}", lambda node=node: setattr(node, "value", node.value + 1))]
        points.extend((scope or "<module>", node.lineno, label, apply) for label, apply in found)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return points


def mutants(source: str):
    """(function, line, operator, text) for each mutant of source."""
    for k in range(len(mutation_points(ast.parse(source)))):
        tree = ast.parse(source)
        function, line, label, apply = mutation_points(tree)[k]
        apply()
        yield function, line, label, ast.unparse(tree)


def run(root: Path, argv: list[str], timeout: float):
    """(exit code, stdout, stderr) of python argv in root, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        out = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return out.returncode, out.stdout, out.stderr


def classify(result, reference: str) -> str:
    if result is None:
        return "timed out"
    code, stdout, stderr = result
    if "Traceback" in stderr or code not in (0, 1):
        return "raised an error"
    if code == 1:
        return "failed a check"
    return "survived" if stdout == reference else "changed stdout"


def probe(copy: Path, module: Path, tier1: bool) -> bool:
    """Classify every mutant of module (a path under ROOT); False if the
    unmutated re-emitted module does not reproduce the reference run."""
    rel = module.resolve().relative_to(ROOT)
    source = (ROOT / rel).read_text()
    target = copy / rel
    reference = run(copy, VERIFY, VERIFY_TIMEOUT)
    if reference is None or reference[0] != 0:
        print(f"{rel}: the unmutated run does not exit 0: {reference}", file=sys.stderr)
        return False
    try:
        target.write_text(ast.unparse(ast.parse(source)))
        if run(copy, VERIFY, VERIFY_TIMEOUT) != reference:
            print(f"{rel}: the module re-emitted by ast.unparse changes the run", file=sys.stderr)
            return False
        tally, tier1_tally = Counter(), Counter()
        for function, line, label, text in mutants(source):
            target.write_text(text)
            outcome = classify(run(copy, VERIFY, VERIFY_TIMEOUT), reference[1])
            tally[outcome] += 1
            if outcome != "survived":
                continue
            note = ""
            if tier1:
                result = run(copy, PYTEST, TIER1_TIMEOUT)
                verdict = "timed out" if result is None else "killed" if result[0] else "survived"
                tier1_tally[verdict] += 1
                note = f"  tier-1 {verdict}"
            print(f"survived  {rel}:{line}  {function}  {label}{note}", flush=True)
    finally:
        target.write_text(source)
    counts = ", ".join(f"{tally[o]} {o}" for o in OUTCOMES)
    print(f"{rel}: {sum(tally.values())} mutants: {counts}", flush=True)
    if tier1:
        print(f"{rel}: tier-1 on the {tally['survived']} survivors: "
              + ", ".join(f"{tier1_tally[v]} {v}" for v in ("killed", "survived", "timed out")), flush=True)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one-point mutation probe over modules of src/")
    parser.add_argument("modules", nargs="+", type=Path, help="module paths under src/")
    parser.add_argument("--tier1", action="store_true", help="also run pytest -x -q on each survivor")
    args = parser.parse_args(argv)
    for module in args.modules:
        if not module.resolve().is_relative_to(ROOT / "src") or module.suffix != ".py" or not module.is_file():
            parser.error(f"{module} is not a module under {ROOT / 'src'}")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build"))
        return 0 if all(probe(copy, module, args.tier1) for module in args.modules) else 1


if __name__ == "__main__":
    sys.exit(main())
