"""Outside-in tracing of the wishart_lab layers, from the benchmark's own code.

`Tracer.install()` wraps each traced callable once and rebinds that one
wrapper at every wishart_lab module that holds the original by name (so
`cdf.pfaffian`, `cdf.half_line_rule`, `skew.weight_w`, ... all record into
the same span name); methods are wrapped on their class.  A binding that is
already a wrapper is never wrapped again.  `uninstall()` restores every
original binding, so untraced iterations run the unmodified package.

Spans are (name, start, end, parent index) tuples kept in memory; a span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: the package modules that are layers, in dependency order
LAYERS = ("params", "quadrature", "laguerre", "skew", "kernels", "cdf", "sampling")

#: extra callables traced besides every public function of the layer modules:
#: span name -> (module, class or None, attribute)
EXTRA = {
    "quadrature.leggauss": ("quadrature", None, "leggauss"),
    "quadrature.cumulative": ("quadrature", "HalfLineRule", "cumulative"),
    "quadrature.cum_at": ("quadrature", "HalfLineRule", "cum_at"),
    "laguerre.eval_all": ("laguerre", "LaguerreBasis", "eval_all"),
    "skew.table_build": ("skew", "SkewProductTable", "build"),
    "kernels.bundle_build": ("kernels", "KernelBundle", "build"),
    "kernels.resolvent_trace": ("kernels", "KernelBundle", "resolvent_trace"),
    "kernels.s1": ("kernels", "KernelBundle", "s1"),
    "kernels.is1": ("kernels", "KernelBundle", "is1"),
    "kernels.ds1": ("kernels", "KernelBundle", "ds1"),
}

_MARK = "_perfbench_traced"


class Tracer:
    def __init__(self, package):
        self.package = package
        self._restore: list = []
        self.reset()

    # -------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0, time.perf_counter())

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx, name, t0, t1):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent)

    def reset(self):
        """Forget all spans and observations (the wrappers stay as they are)."""
        self.spans = []
        self._stack = []
        # per-span-name observations made at the call boundary
        self.points = Counter()
        self.leggauss_q = set()
        self.cum_at_repeats = 0
        self._last_cum_at = None

    def _observe(self, name, args, kwargs):
        if name == "quadrature.leggauss":
            self.leggauss_q.add(int(args[0] if args else kwargs["deg"]))
        elif name == "quadrature.cum_at":
            xq = np.asarray(args[2] if len(args) > 2 else kwargs["xq"], dtype=float)
            self.points[name] += xq.size
            last = self._last_cum_at
            if last is not None and last.shape == xq.shape and np.array_equal(last, xq):
                self.cum_at_repeats += 1
            self._last_cum_at = xq.copy()
        elif name == "laguerre.eval_all":
            x = args[1] if len(args) > 1 else kwargs["x"]
            self.points[name] += np.size(x)

    # ----------------------------------------------------------- wrapping
    def _wrapper(self, name, fn):
        tracer = self
        observed = name in ("quadrature.leggauss", "quadrature.cum_at", "laguerre.eval_all")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observed:
                tracer._observe(name, args, kwargs)
            idx = tracer._open()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, t0, time.perf_counter())

        setattr(traced, _MARK, True)
        return traced

    def _modules(self):
        prefix = self.package.__name__
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == prefix or k.startswith(prefix + "."))]

    def targets(self) -> dict:
        """span name -> (owner, attribute) of the defining binding."""
        pkg = self.package
        out = {}
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if callable(obj) and not isinstance(obj, type) \
                        and getattr(obj, "__module__", None) == mod.__name__:
                    out[f"{layer}.{attr}"] = (mod, attr)
        for name, (layer, cls, attr) in EXTRA.items():
            mod = getattr(pkg, layer)
            out[name] = (getattr(mod, cls) if cls else mod, attr)
        return out

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for name, (owner, attr) in self.targets().items():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if getattr(fn, _MARK, False):
                    continue
                wrapped = self._wrapper(name, fn)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)
                continue
            orig = getattr(owner, attr)
            if getattr(orig, _MARK, False):
                continue
            wrapped = self._wrapper(name, orig)
            # rebind the one wrapper wherever the original is bound by name
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # ----------------------------------------------------------- analysis
    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus its direct children's durations."""
        dur = np.array([s[2] - s[1] for s in self.spans])
        child = np.zeros(len(self.spans))
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        return dur - child

    def summary(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for s, st in zip(self.spans, self.self_times()):
            calls[s[0]] += 1
            self_s[s[0]] += float(st)
        return calls, self_s


def write_spans(path, iterations):
    """Spans of each traced iteration as JSON lines: iteration, name, start,
    end (perf_counter seconds), parent index within the iteration."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for k, spans in enumerate(iterations):
            for name, t0, t1, parent in spans:
                fh.write(json.dumps([k, name, t0, t1, parent]) + "\n")
