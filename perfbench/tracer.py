"""Span recorder that wraps library functions and methods from outside.

A wrapped call appends one span ``[name, start, end, parent]`` to an in-memory
list; ``parent`` is the index of the enclosing wrapped call, or -1. Self time
is a span's duration minus the durations of its direct children (calls run on
one thread, so children never overlap). Nothing in the library is edited:
``install`` rebinds attributes and ``uninstall`` puts the originals back.
"""

import contextlib
import functools
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patched = []  # (owner, attribute, original), in install order

    def reset(self):
        self.spans = []
        self.counts = {}

    def _wrap(self, name, fn, on_return):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                # counting reads library objects; its own span makes its cost
                # show as tracing overhead, not as some layer's time
                with tracer.span("trace.count"):
                    tracer.counts.update(on_return(result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self, package, targets):
        """Wrap each ``(module, attribute, span_name, on_return)`` target.

        ``attribute`` names a function of ``package.module`` or a method as
        "Class.method"; ``on_return`` maps the call's result to counts, or is
        None.
        """
        for module, attr, name, on_return in targets:
            mod = sys.modules[package + "." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self.wrap_method(getattr(mod, cls_name), meth, name, on_return)
            else:
                self.wrap_function(package, getattr(mod, attr), name, on_return)

    def wrap_function(self, package, fn, name, on_return=None):
        """Rebind ``fn`` in every loaded module of ``package`` that holds it.

        A module that did ``from .x import f`` looks ``f`` up in its own
        namespace, so wrapping only the defining module would miss its calls.
        """
        traced = self._wrap(name, fn, on_return)
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, traced)
                    found = True
        if not found:
            raise LookupError("%s is not bound in any %s module" % (name, package))

    def wrap_method(self, cls, meth, name, on_return=None):
        """Wrap a method on its class, so every instance's lookup finds it."""
        original = vars(cls)[meth]
        self._patched.append((cls, meth, original))
        setattr(cls, meth, self._wrap(name, original, on_return))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def summarize(spans):
    """{name: (calls, inclusive seconds, self seconds)} over a list of spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls, incl, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, incl + end - start, own + end - start - child[i])
    return out
