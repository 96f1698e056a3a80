"""Spans around formclass's layer functions, installed from outside the package.

`Tracer.install` replaces each function named in `WRAPPED` by a wrapper that
records one span (name, start, end, parent) per call, and rebinds the name in
every loaded formclass module that imported it, so calls across modules are
seen too.  Spans stay in memory; `summary` turns them into per-function and
per-layer counts and times.  Each layer's entry points are wrapped as well
as the functions run.py reports, so that a layer's self time holds its own
code rather than landing in a caller from another layer.  Small predicates,
value-type methods such as `QuadForm.transform` and everything in `_arith`
are not wrapped: their cost is charged to the wrapped caller.
"""

from __future__ import annotations

import sys
import time
from array import array

LAYERS = ("forms", "congruence", "ideals", "classgroup", "cm", "tower", "cli")

WRAPPED = {
    "forms": ("reduce_form", "sl2_equivalent", "automorphs", "reduced_forms"),
    "congruence": ("cong_equivalent", "unsigned_class_reps", "enumerate_classes", "class_index",
                   "coset_reps", "ClassIndex.locate"),
    "ideals": ("ray_class_equal", "principal_generator", "OIdeal.__mul__", "OIdeal.inverse",
               "form_to_ideal", "residue_units", "ray_class_count"),
    "classgroup": ("compose", "class_of_ideal", "inverse_class", "same_class", "conj_class",
                   "class_group_table", "ClassGroupTable.build", "ClassGroupTable._validate",
                   "ClassGroupTable.invariant_factors", "ClassGroupTable.locate_class", "PMGroup.build"),
    "cm": ("equivalent_points", "cm_class_set"),
    "tower": ("correspondence_report", "base_point_set", "kernel_reps", "act_padic",
              "random_compliant_pair", "limits_agree"),
    "cli": ("main",),
}

# Share of calls with a useful outcome, for the functions that can waste work.
OUTCOMES = {
    "congruence.cong_equivalent": lambda w: w is not None,
    "ideals.ray_class_equal": bool,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.positive: dict[str, int] = {}
        self.caches: dict[str, object] = {}

    def install(self) -> None:
        modules = {layer: sys.modules[f"formclass.{layer}"] for layer in LAYERS}
        loaded = [m for name, m in sys.modules.items() if name == "formclass" or name.startswith("formclass.")]
        for mod in loaded:
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", "").startswith("formclass"):
                    self.caches[f"{obj.__module__.split('.')[-1]}.{attr}"] = obj
        for layer, names in WRAPPED.items():
            for qualname in names:
                span = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(modules[layer], cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        setattr(cls, meth, staticmethod(self._wrap(span, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(span, raw))
                    continue
                orig = getattr(modules[layer], qualname)
                wrapper = self._wrap(span, orig)
                for mod in loaded:
                    for attr, obj in list(vars(mod).items()):
                        if obj is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        outcome = OUTCOMES.get(span)
        if outcome is not None:
            self.positive[span] = 0
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                self.positive[span] += 1
            return result

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__qualname__ = getattr(fn, "__qualname__", span)
        traced.__doc__ = fn.__doc__
        return traced

    def summary(self) -> dict:
        """Counts and seconds per wrapped function, per layer, and every cache's state.

        `s` is inclusive time, counting only spans with no ancestor of the same
        name (or layer); `self_s` is a span's duration minus its children's.
        """
        n_spans = len(self.start)
        layer_of = [name.split(".")[0] for name in self.names]
        dur = [self.end[i] - self.start[i] for i in range(n_spans)]
        child = [0.0] * n_spans
        for i in range(n_spans):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        funcs = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        layers = {layer: {"s": 0.0, "self_s": 0.0} for layer in LAYERS}
        for i in range(n_spans):
            nid = self.name_id[i]
            name, layer = self.names[nid], layer_of[nid]
            own = dur[i] - child[i]
            f = funcs[name]
            f["calls"] += 1
            f["self_s"] += own
            layers[layer]["self_s"] += own
            outer_name = outer_layer = True
            a = self.parent[i]
            while a >= 0 and (outer_name or outer_layer):
                aid = self.name_id[a]
                outer_name = outer_name and aid != nid
                outer_layer = outer_layer and layer_of[aid] != layer
                a = self.parent[a]
            if outer_name:
                f["s"] += dur[i]
            if outer_layer:
                layers[layer]["s"] += dur[i]
        for name, count in self.positive.items():
            funcs[name]["positive"] = count
        caches = {name: cache.cache_info()._asdict() for name, cache in self.caches.items()}
        return {"funcs": funcs, "layers": layers, "caches": caches}
