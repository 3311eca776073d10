"""Spans around calls into each layer of d4vgit, recorded from outside.

`install(tracer)` replaces the public functions and methods of each layer
module with wrappers (in the defining module, in every d4vgit module that
imported them, and in module-level tables such as `suites.SUITES`);
`uninstall` puts the originals back.  The program's files are not changed.

A span starts when a call crosses into a layer from a different layer (or
from the benchmark); calls inside a layer are not spans, except for the
`suites` layer, whose per-suite functions are called by `run_suite`.  Each
span records (id, name, start, end, parent id, op id).  Spans of the
`scalars` layer are too many to keep one by one, so only their count and
times are summed; every other span is kept in memory and written out at the
end of the run.  A span's self time is its duration minus its child spans.
Durations here are raw: they include the calibration kernel's pauses, which
fall on every layer in proportion to its time, so shares are unaffected.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

LAYERS = ("scalars", "gitcore", "equations", "quiver", "stability", "charts",
          "mckay", "cyclic_s3", "suites")
SUMMED_LAYERS = frozenset({"scalars"})
NESTED_LAYERS = frozenset({"suites"})
# dunder methods that are part of a layer's public surface
PUBLIC_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
})
OP_LAYER = "op"


class Tracer:
    def __init__(self):
        self.stack = [[OP_LAYER, 0.0, None]]      # frames: [layer, child time, span id]
        self.op = None
        self.next_id = 0
        self.spans = []                 # kept spans, see the module docstring
        self.layer_calls = {}           # layer -> spans started
        self.layer_self = {}            # layer -> summed self time
        self.op_time = 0.0              # summed duration of the op spans
        self.counts = {}                # counters fed by observers
        self.counting = False           # observers count only while True

    # -- ops --------------------------------------------------------------

    def run_op(self, op_id, label, fn):
        """Run fn as the root span of one op."""
        self.op = op_id
        sid = self.next_id
        self.next_id += 1
        frame = [OP_LAYER, 0.0, sid]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            d = t1 - t0
            self.op_time += d
            self.layer_self[OP_LAYER] = self.layer_self.get(OP_LAYER, 0.0) + d - frame[1]
            self.spans.append((sid, "op." + label, t0, t1, None, op_id))

    def take(self):
        """The per-layer sums gathered so far; starts a fresh set."""
        out = {"layer_calls": self.layer_calls, "layer_self": self.layer_self,
               "op_time": self.op_time}
        self.layer_calls, self.layer_self, self.op_time = {}, {}, 0.0
        return out

    def count(self, key, value=1, how="add"):
        if not self.counting:
            return
        if how == "max":
            self.counts[key] = max(self.counts.get(key, 0), value)
        else:
            self.counts[key] = self.counts.get(key, 0) + value

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, layer, name):
        if layer in SUMMED_LAYERS:
            return self._summed(fn, layer, name)
        return self._kept(fn, layer, name)

    def _summed(self, fn, layer, name):
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, None]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stack.pop()
                stack[-1][1] += d
                calls = tracer.layer_calls
                calls[layer] = calls.get(layer, 0) + 1
                selfs = tracer.layer_self
                selfs[layer] = selfs.get(layer, 0.0) + d - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def _kept(self, fn, layer, name):
        stack = self.stack
        perf = time.perf_counter
        tracer = self
        nested = layer in NESTED_LAYERS
        namer = SPAN_NAMERS.get(name)
        observer = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] is layer and not nested:
                return fn(*args, **kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [layer, 0.0, sid]
            stack.append(frame)
            error = None
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf()
                d = t1 - t0
                stack.pop()
                stack[-1][1] += d
                span = namer(name, args, kwargs, error) if namer else name
                tracer.spans.append((sid, span, t0, t1, parent[2], tracer.op))
                calls = tracer.layer_calls
                calls[layer] = calls.get(layer, 0) + 1
                selfs = tracer.layer_self
                selfs[layer] = selfs.get(layer, 0.0) + d - frame[1]
                if observer is not None and error is None:
                    observer(tracer, result)

        wrapper.__wrapped__ = fn
        return wrapper


# -- span names and observers for calls whose arguments or results matter ------


def _stabilizer_name(name, args, kwargs, error):
    fix_beta = kwargs.get("fix_beta", args[1] if len(args) > 1 else True)
    return name if fix_beta else name + ".relaxed"


def _fan_name(name, args, kwargs, error):
    if error is not None and type(error).__name__ == "WallError":
        return name + ".wall"
    return "%s.n%d" % (name, args[0])


def _count_unstable(tracer, verdict):
    if not verdict.is_stable:
        tracer.count("stability.unstable_count")


def _connect_depth(tracer, h):
    if h is not None:
        depth = max(x.field.depth for x in list(h.t) + [h.g.a, h.g.b, h.g.c, h.g.d])
        tracer.count("mckay.connect_depth.max", depth, how="max")


SPAN_NAMERS = {
    "mckay.stabilizer": _stabilizer_name,
    "cyclic_s3.an_quotient_fan": _fan_name,
}
OBSERVERS = {
    "stability.semistable_theta": _count_unstable,
    "stability.semistable_minus_theta": _count_unstable,
    "mckay.connect": _connect_depth,
}


# -- installing the wrappers ---------------------------------------------------------


def _public(name):
    return not name.startswith("_") or name in PUBLIC_DUNDERS


def install(tracer):
    """Wrap every layer's public functions and methods; returns the patches
    to hand to uninstall()."""
    patches = []            # (setter target, key, original)
    by_id = {}              # id(original function) -> wrapper
    for layer in LAYERS:
        mod = importlib.import_module("d4vgit." + layer)
        for attr, obj in list(vars(mod).items()):
            if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                if isinstance(obj, type):
                    _wrap_class(tracer, layer, obj, patches)
                elif _public(attr) and hasattr(obj, "__code__"):
                    by_id[id(obj)] = (obj, tracer.wrap(obj, layer, "%s.%s" % (layer, attr)))
    for modname, mod in list(sys.modules.items()):
        if modname != "d4vgit" and not modname.startswith("d4vgit."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in by_id and by_id[id(obj)][0] is obj:
                patches.append((mod, attr, obj))
                setattr(mod, attr, by_id[id(obj)][1])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in by_id and by_id[id(val)][0] is val:
                        patches.append((obj, key, val))
                        obj[key] = by_id[id(val)][1]
    return patches


def _wrap_class(tracer, layer, cls, patches):
    for attr, obj in list(vars(cls).items()):
        if not _public(attr):
            continue
        name = "%s.%s.%s" % (layer, cls.__name__, attr)
        if isinstance(obj, staticmethod):
            new = staticmethod(tracer.wrap(obj.__func__, layer, name))
        elif hasattr(obj, "__code__"):
            new = tracer.wrap(obj, layer, name)
        else:
            continue                        # properties, classmethods, data
        patches.append((cls, attr, obj))
        setattr(cls, attr, new)


def uninstall(patches):
    for target, key, original in reversed(patches):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)
