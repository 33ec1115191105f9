"""Span tracer that wraps the public functions of the dqptwalk layers.

Each public function of a layer module is replaced by a wrapper that records
one span (name, start, end, parent, pass id, call id, input size) per call.
The wrapper goes on the defining module and on every loaded ``dqptwalk``
module that imported the same object with ``from ... import``, so calls
through either name are seen. ``write_csv`` methods are wrapped on their
class. Spans stay in memory; ``summarize`` turns them into counts and self
times, and ``write_spans`` writes them out when the run ends.

A layer or function that no longer exists is simply not wrapped, and its
metrics read zero. The tracer assumes one thread, which holds for every
benchmark call (all of them run with ``--threads 1``).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("backend", "floquet", "quench", "analysis", "measurement",
          "svgplot", "cli")
PACKAGE = "dqptwalk"
WRAPPED_METHODS = ("write_csv",)

# span record fields
NAME, START, END, PARENT, PASS, CALL, SIZE = range(7)


def _layer_modules():
    mods = {}
    for layer in LAYERS:
        try:
            mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        except ModuleNotFoundError as err:
            if err.name != f"{PACKAGE}.{layer}":
                raise
    return mods


def _owned_functions(mod, layer_names):
    """Public functions a layer module defines, or re-exports from a private
    implementation module of the package (the kernel twins behind
    ``backend``). Names imported from another layer belong to that layer."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or inspect.isclass(obj) or inspect.ismodule(obj):
            continue
        if not callable(obj):
            continue
        origin = getattr(obj, "__module__", None) or ""
        if origin == mod.__name__ or (origin.startswith(PACKAGE + ".")
                                      and origin not in layer_names):
            yield name, obj


class Tracer:
    def __init__(self, sizers=None):
        self.sizers = dict(sizers or {})
        self.spans = []
        self.stack = []
        self.pass_id = -1
        self.call_id = ""
        self.clock = time.perf_counter
        self._patches = []      # (owner, attribute, original)

    # -- installation -----------------------------------------------------
    def install(self):
        mods = _layer_modules()
        layer_names = {m.__name__ for m in mods.values()}
        package_mods = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, mod in mods.items():
            for name, fn in list(_owned_functions(mod, layer_names)):
                wrapper = self._wrap(fn, f"{layer}.{name}")
                for owner in package_mods:
                    if vars(owner).get(name) is fn:
                        self._patch(owner, name, wrapper)
            for cname, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for meth in WRAPPED_METHODS:
                    fn = vars(cls).get(meth)
                    if inspect.isfunction(fn):
                        self._patch(cls, meth, self._wrap(fn, f"{layer}.{cname}.{meth}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, span_name):
        spans, stack, clock = self.spans, self.stack, self.clock
        sizer = self.sizers.get(span_name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size = 0
            if sizer is not None:
                try:
                    size = sizer(args, kwargs)
                except (IndexError, TypeError, AttributeError):
                    pass    # the signature changed; record no size
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.pass_id, tracer.call_id, size]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    # -- results ----------------------------------------------------------
    def summarize(self, pass_id):
        """Per span name: calls, self seconds and summed input size."""
        spans = self.spans
        child = {}
        for i, s in enumerate(spans):
            if s[PASS] == pass_id and s[PARENT] >= 0:
                child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
        out = {}
        for i, s in enumerate(spans):
            if s[PASS] != pass_id:
                continue
            dur = s[END] - s[START]
            agg = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "size": 0})
            agg["calls"] += 1
            agg["self_s"] += dur - child.get(i, 0.0)
            agg["size"] += s[SIZE]
        return out

    def counts_by_call(self, pass_id):
        """{call name: {span name: calls}} for one pass."""
        out = {}
        for s in self.spans:
            if s[PASS] == pass_id:
                per = out.setdefault(s[CALL], {})
                per[s[NAME]] = per.get(s[NAME], 0) + 1
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,pass,call,size\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},"
                         f"{s[PASS]},{s[CALL]},{s[SIZE]}\n")
