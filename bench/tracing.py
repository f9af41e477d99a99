"""Spans and counters installed around symrank's public functions from outside.

A span is recorded at each call into a wrapped function: name, parent span,
command id, start and end. Spans stay in memory and are aggregated (calls,
self time) or written out when the traced pass ends. Field operations are
only counted, in a separate pass, because timing millions of scalar calls
would swamp every other span.

A wrapper is installed at every place its target is bound: on the class for
methods, and in every ``symrank`` module namespace that holds the function
(``from .linalg import kernel`` binds ``kernel`` again in each importer).
Functions that symrank imports at call time are looked up in their home
module then, so patching that module covers them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (module, attribute path); "Class.method" for methods
SPANS = {
    "linalg.elim": [("linalg", a) for a in (
        "Subspace.__init__", "rref", "kernel", "image", "solve",
        "Mat.rank", "Mat.det", "Mat.inverse")],
    "linalg.matmul": [("linalg", "Mat.matmul")],
    "linalg.apply": [("linalg", "Mat.apply")],
    "linalg.contains": [("linalg", "Subspace.contains"),
                        ("linalg", "Subspace.contains_vector")],
    "linalg.pseudo_inverse": [("linalg", "pseudo_inverse")],
    **{f"spaces.{m}": [("spaces", f"MatSpace.{m}")] for m in (
        "image_of", "preimage_of", "contains", "coordinates_of", "product",
        "generated_algebra", "commutator_space", "from_spanning")},
    **{f"wong.{f}": [("wong", f)] for f in (
        "witness_test", "first_wong", "second_wong", "verify_witness")},
    **{f"po.{f}": [("po", f)] for f in ("solve_po", "find_ell", "helpful_subspaces")},
    "smr.smr": [("smr", "smr")],
    "smr.reduce_coefficients": [("smr", "reduce_coefficients")],
    "sdit.tri_algo": [("sdit", "tri_algo")],
    "sdit.tri_test": [("sdit", "is_triangularizable_with_nonsingular")],
    "sdit.rational_sdit": [("sdit", "rational_sdit")],
    "cli.load_instance": [("cli", "load_instance")],
    "cli.verify_certificate": [("cli", "verify_certificate")],
    "cli.command": [("cli", "main")],
}

FIELD_OPS = {"prime": "PrimeField", "ext": "ExtensionField", "rational": "RationalField"}
FIELD_METRICS = [f"fields.{k}.{op}.calls" for k in FIELD_OPS
                 for op in ("mul", "inv", "addsub")]

OBSERVED = ("smr.smr", "po.solve_po", "sdit.rational_sdit")


def _observe(name, result, stats: Counter) -> None:
    """Counters read off the return values of the OBSERVED spans."""
    if name == "smr.smr":
        stats["smr.iterations"] += len(result.ranks_visited)
        stats["smr.certified"] += result.witness is not None
    elif name == "po.solve_po" and result.found:
        stats["po.found"] += 1
        stats["po.ell.sum"] += result.ell
    elif name == "sdit.rational_sdit":
        stats["sdit.primes_tried.sum"] += len(result.primes_tried)
        stats["sdit.prime_successes"] += result.outcome == "nonsingular_combination"


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "symrank" or name.startswith("symrank."))]


class Patcher:
    """Replaces attributes and puts every original back on restore()."""

    def __init__(self):
        self.saved = []  # (owner, attribute, original raw value)

    def patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        new = make(fn)
        self.saved.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        return fn

    def patch_function(self, home, attr, make):
        fn = getattr(home, attr)
        new = make(fn)
        for mod in _modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self.saved.append((mod, name, fn))
                    setattr(mod, name, new)
        return fn

    def patch(self, module: str, path: str, make):
        home = sys.modules[f"symrank.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            return self.patch_method(getattr(home, cls_name), attr, make)
        return self.patch_function(home, path, make)

    def restore(self):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()


def _still_bound(originals) -> list:
    """Names under which an unwrapped original is still reachable."""
    ids = {id(fn) for fn in originals}
    found = []
    for mod in _modules():
        for name, value in vars(mod).items():
            if id(value) in ids:
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if id(fn) in ids:
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


def _install(patcher: Patcher, targets) -> None:
    """Patch every (module, path, make) target; fail if an original stays bound."""
    originals = [patcher.patch(mod, path, make) for mod, path, make in targets]
    missed = _still_bound(originals)
    if missed:
        patcher.restore()
        raise RuntimeError(f"unwrapped bindings remain: {missed}")


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans = []   # [name, parent index, command id, start, end]
        self.stack = []
        self.command = -1
        self.stats = Counter()
        self.patcher = Patcher()

    def _wrap(self, name, fn):
        spans, stack, clock, stats = self.spans, self.stack, time.perf_counter, self.stats
        observed = name in OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.command, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observed:
                _observe(name, result, stats)
            return result
        return traced

    def install(self):
        _install(self.patcher, [(mod, path, functools.partial(self._wrap, name))
                                for name, targets in SPANS.items() for mod, path in targets])

    def restore(self):
        self.patcher.restore()

    def aggregate(self):
        """(calls, self seconds) per span name, and the total root span time."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        root = 0.0
        for i, (name, parent, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if parent < 0:
                root += end - start
        return calls, self_s, root


class FieldCounter:
    """Counts mul, inv and add/sub calls on the three field classes."""

    def __init__(self):
        self.counts = Counter()
        self.patcher = Patcher()

    def _wrap(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def install(self):
        _install(self.patcher, [
            ("fields", f"{cls}.{op}", functools.partial(
                self._wrap, f"fields.{short}.{'addsub' if op in ('add', 'sub') else op}.calls"))
            for short, cls in FIELD_OPS.items() for op in ("mul", "inv", "add", "sub")])

    def restore(self):
        self.patcher.restore()
