"""Every name that bench/tracer.py wraps resolves in the package, so a rename
fails here rather than only in the traced benchmark run."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _wrapped() -> dict[str, tuple[str, ...]]:
    """The tracer's WRAPPED table, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACER}")


def test_every_traced_name_resolves():
    wrapped = _wrapped()
    assert sum(map(len, wrapped.values())) > 0
    missing = []
    for layer, names in wrapped.items():
        module = importlib.import_module(f"formclass.{layer}")
        for qualname in names:
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name, None)
                found = isinstance(cls, type) and meth in cls.__dict__
            else:
                found = callable(getattr(module, qualname, None))
            if not found:
                missing.append(f"{layer}.{qualname}")
    assert missing == []
