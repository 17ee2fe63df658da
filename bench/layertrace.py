"""Layer tracing for the verdict benchmark, applied from outside `src/`.

`Tracer.install(package)` replaces every function and method that the
layer modules define with a counting, timing wrapper, and rebinds the
names that other modules imported with `from ... import ...`, so that
`search._set_grading_relations` or `catalog.find_graded_map` are
traced like the originals.  `uninstall()` puts every original back.

A span is opened only where a call crosses from one layer into another
(calls inside a layer are counted but not timed).  Spans are aggregated
in memory by (layer, caller layer) into a count and an inclusive time;
a layer's self time is its inclusive time minus the inclusive time of
the spans it opened in other layers.  The wrappers' own cost lands in
the caller's time; it is measured once per tracer on a no-op function
and subtracted per span and per counted call, so that a layer calling
millions of field operations is not charged for their instrumentation.
"""

import functools
import inspect
import time
import types
from collections import Counter

LAYERS = (
    "fields",
    "superalgebra",
    "linalg",
    "abelian",
    "gradings",
    "search",
    "axioms",
    "constructions",
    "catalog",
)
ROOT = "bench"  # caller layer of the benchmark's own calls

FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "div")
SEARCH_DECISIONS = (
    "find_graded_map",
    "enumerate_automorphisms",
    "enumerate_all_gradings",
    "fine_check",
)


class Tracer:
    def __init__(self):
        self.spans = {}  # (layer, caller) -> [count, inclusive seconds]
        self.calls = Counter()  # "layer.Qualname" -> calls, inside layers too
        self.stack = [ROOT]
        self.gen_spans = Counter()  # layer -> spans opened by generator resumptions
        self.gen_keys = set()
        self.axiom_pairs = 0
        self.relations_found = 0
        self.decisions = 0
        self.found = 0
        self._patched = []  # (owner, name, original value)

    # --- wrappers ----------------------------------------------------

    def _observe(self, key, result):
        """Counters read from results that cross a layer boundary."""
        layer, _, name = key.partition(".")
        if layer == "axioms":
            detail = getattr(result, "detail", None)
            if isinstance(detail, dict):
                self.axiom_pairs += detail.get("pairs", 0)
        elif key == "gradings._set_grading_relations":
            self.relations_found += result is not None
        elif layer == "search" and name in SEARCH_DECISIONS:
            self.decisions += 1
            if name == "fine_check":
                hit = result[0] == "refinable"
            elif name == "enumerate_all_gradings":
                hit = bool(result.gradings)
            else:
                hit = bool(result) if isinstance(result, list) else result is not None
            self.found += hit

    def _record(self, layer, caller, dt):
        s = self.spans.get((layer, caller))
        if s is None:
            self.spans[(layer, caller)] = [1, dt]
        else:
            s[0] += 1
            s[1] += dt

    def _wrap(self, layer, key, fn):
        calls, stack, perf = self.calls, self.stack, time.perf_counter
        record, observe = self._record, self._observe
        # every call of _set_grading_relations feeds set_grading_ratio; for
        # axioms and search only calls from other layers are verdicts
        always = key == "gradings._set_grading_relations"
        observed = always or layer == "axioms" or (
            layer == "search" and key.rpartition(".")[2] in SEARCH_DECISIONS
        )

        if inspect.isgeneratorfunction(fn):
            self.gen_keys.add(key)
            gen_spans = self.gen_spans

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    caller = stack[-1]
                    if caller == layer:
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                    else:
                        stack.append(layer)
                        t0 = perf()
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            dt = perf() - t0
                            stack.pop()
                            record(layer, caller, dt)
                            gen_spans[layer] += 1
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            caller = stack[-1]
            if caller == layer:
                if always:
                    result = fn(*args, **kwargs)
                    observe(key, result)
                    return result
                return fn(*args, **kwargs)
            stack.append(layer)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                record(layer, caller, dt)
            if observed:
                observe(key, result)
            return result

        return wrapper

    # --- install / uninstall -----------------------------------------

    def _set(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, package):
        """Wrap the layer modules of `package` (the imported compsuper)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replaced = {}  # id(original function) -> wrapper
        modules = [getattr(package, name) for name in LAYERS]
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    w = self._wrap(layer, f"{layer}.{name}", obj)
                    replaced[id(obj)] = w
                    self._set(mod, name, w)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        key = f"{layer}.{obj.__name__}.{attr}"
                        if isinstance(member, types.FunctionType):
                            self._set(obj, attr, self._wrap(layer, key, member))
                        elif isinstance(member, (staticmethod, classmethod)):
                            kind = type(member)
                            self._set(obj, attr, kind(self._wrap(layer, key, member.__func__)))
        # names bound by `from .x import y`, in every module of the package
        for mod in modules + [package]:
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj)) if isinstance(obj, types.FunctionType) else None
                if w is not None:
                    self._set(mod, name, w)

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # --- results -----------------------------------------------------

    def self_seconds(self):
        """layer -> inclusive time of its spans minus that of their
        children, minus the wrappers' cost inside them."""
        span_cost, call_cost = wrapper_costs()
        out = {layer: 0.0 for layer in LAYERS}
        inner = Counter()  # calls that stayed inside their layer
        for key, n in self.calls.items():
            if key not in self.gen_keys:
                inner[key.partition(".")[0]] += n
        for (layer, caller), (n, incl) in self.spans.items():
            out[layer] += incl
            inner[layer] -= n
            if caller in out:
                out[caller] -= incl + n * span_cost
        for layer in out:
            inner[layer] += self.gen_spans[layer]
            out[layer] -= max(inner[layer], 0) * call_cost
        return out

    def count(self, *keys):
        return sum(self.calls[k] for k in keys)

    def field_ops(self):
        return sum(
            n for k, n in self.calls.items()
            if k.startswith("fields.") and k.rpartition(".")[2] in FIELD_OPS
        )

    def summary(self):
        """Spans, self times, call counts and wrapper costs, for JSON."""
        span_cost, call_cost = wrapper_costs()
        return {
            "spans": [
                {"layer": layer, "caller": caller, "count": n, "inclusive_s": incl}
                for (layer, caller), (n, incl) in sorted(self.spans.items())
            ],
            "self_s": self.self_seconds(),
            "calls": dict(sorted(self.calls.items())),
            "wrapper_cost_s": {"per_span": span_cost, "per_counted_call": call_cost},
        }


@functools.lru_cache(maxsize=None)
def wrapper_costs(n=20000, repeats=5):
    """(per span, per counted call): seconds a wrapped call adds to its
    caller beyond what its span records, measured on a no-op function
    (best of `repeats`)."""
    perf = time.perf_counter

    def noop():
        return None

    span, call = [], []
    for _ in range(repeats):
        t = Tracer()
        w = t._wrap("probe", "probe.noop", noop)
        t0 = perf()
        for _ in range(n):
            noop()
        bare = perf() - t0
        t0 = perf()
        for _ in range(n):
            w()
        spanned = perf() - t0
        recorded = t.spans["probe", ROOT][1]
        t.stack.append("probe")
        t0 = perf()
        for _ in range(n):
            w()
        counted = perf() - t0
        span.append((spanned - recorded - bare) / n)
        call.append((counted - bare) / n)
    return max(min(span), 0.0), max(min(call), 0.0)
