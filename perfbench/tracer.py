"""Layer spans recorded from outside the package.

``Tracer.install`` replaces each traced function, in every ``omrouter``
module that refers to it, with a wrapper that records a span; ``uninstall``
puts the originals back.  A layer whose module or function no longer exists
is reported as absent instead of failing the run, so that the package can
delete or move internals without an edit here.

Spans are kept in memory as tuples and reduced to per-layer figures when
the run ends.  A layer's self time is its span's duration minus the
duration of its child spans; each request is one root span, whose self
time is the benchmark's own share of the request (the remainder), so that
the self times of all layers plus the remainder add up to the request time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

ROOT_SPAN = "request"
_POINTWISE = ("reflection_R", "transmission_T", "vacuum_noise",
              "thermal_noise")

# (layer, module defining the function, attribute, modules whose references
# are replaced; None means every loaded omrouter module)
LAYERS = (
    ("cli", "omrouter.cli", "main", None),
    ("routing.routing_probabilities", "omrouter.routing",
     "routing_probabilities", None),
    ("routing.switching_contrast", "omrouter.routing", "switching_contrast",
     None),
    # only routing's own imports: the band-integral integrands
    *(("response.pointwise", "omrouter.routing", name, ("omrouter.routing",))
      for name in _POINTWISE),
    ("kernels.channel_arrays", "omrouter.kernels", "channel_arrays", None),
    ("response.output_spectra", "omrouter.response", "output_spectra", None),
    ("response.eit_scan", "omrouter.response", "eit_linewidth_scan", None),
    ("stability.assess", "omrouter.stability", "assess_stability", None),
    ("stability.max_stable_power", "omrouter.stability", "max_stable_power",
     None),
    ("operating_point.derive", "omrouter.operating_point",
     "derive_operating_point", None),
    ("empty_cavity.lorentzian_input", "omrouter.empty_cavity",
     "lorentzian_input", None),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))
# layers whose first argument is a frequency grid; its length is recorded
SIZED = {"kernels.channel_arrays", "response.output_spectra"}
WRAPPED_MARK = "__perfbench_original__"


def _omrouter_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "omrouter"
                                  or name.startswith("omrouter."))]


class Tracer:
    """Installs span-recording wrappers and collects their spans."""

    def __init__(self):
        # (request id, span id, parent span id, layer, start ns, end ns, size)
        self.spans = []
        self.absent = {}
        self._patched = []
        self._stack = []
        self._request = None
        self._next_id = 0

    # ------------------------------------------------------------ patching
    def install(self):
        present = set()
        reasons = {}
        for layer, modname, attr, scope in LAYERS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                reasons.setdefault(layer, f"{modname} is not importable")
                continue
            func = getattr(module, attr, None)
            if not callable(func):
                reasons.setdefault(layer, f"{modname}.{attr} is gone")
                continue
            targets = ([sys.modules[n] for n in scope if n in sys.modules]
                       if scope else _omrouter_modules())
            wrapper = self._wrap(layer, func)
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is func:
                        setattr(target, name, wrapper)
                        self._patched.append((target, name, func))
                        present.add(layer)
        self.absent = {layer: reasons.get(layer, "never referenced")
                       for layer in LAYER_NAMES if layer not in present}

    def uninstall(self):
        while self._patched:
            target, name, func = self._patched.pop()
            setattr(target, name, func)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, layer, func):
        tracer = self
        sized = layer in SIZED

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._request is None:
                return func(*args, **kwargs)
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                size = len(args[0]) if sized and args else 0
                tracer.spans.append((tracer._request, sid, parent, layer,
                                     start, end, size))

        setattr(wrapper, WRAPPED_MARK, func)
        return wrapper

    # ------------------------------------------------------------ requests
    @contextmanager
    def request(self, rid):
        """Record the enclosed call as one request's root span."""
        sid = self._next_id
        self._next_id += 1
        self._stack = [sid]
        self._request = rid
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._request = None
            self._stack = []
            self.spans.append((rid, sid, None, ROOT_SPAN, start, end, 0))


def leftover_wrappers():
    """Names in omrouter modules that still hold a tracing wrapper."""
    return [f"{m.__name__}.{name}" for m in _omrouter_modules()
            for name, value in vars(m).items()
            if hasattr(value, WRAPPED_MARK)]


def summarize(spans, scale=None):
    """Per-layer calls, self ns, inclusive ns and recorded size.

    ``scale`` maps a request id to a factor its span durations are
    multiplied by (default 1).  Also counts ``stability.assess`` spans that
    run inside a ``stability.max_stable_power`` span, under the key
    ``assess_in_threshold``.
    """
    scale = scale or {}
    child_ns = defaultdict(float)
    by_id = {}
    for rid, sid, parent, layer, start, end, _ in spans:
        by_id[sid] = (parent, layer)
        if parent is not None:
            child_ns[parent] += (end - start) * scale.get(rid, 1.0)
    calls, size = defaultdict(int), defaultdict(int)
    self_ns, incl_ns = defaultdict(float), defaultdict(float)
    assess_in_threshold = 0
    for rid, sid, parent, layer, start, end, n in spans:
        duration = (end - start) * scale.get(rid, 1.0)
        calls[layer] += 1
        incl_ns[layer] += duration
        self_ns[layer] += duration - child_ns[sid]
        size[layer] += n
        if layer == "stability.assess":
            up = parent
            while up is not None:
                up_parent, up_layer = by_id[up]
                if up_layer == "stability.max_stable_power":
                    assess_in_threshold += 1
                    break
                up = up_parent
    return {"calls": calls, "self_ns": self_ns, "incl_ns": incl_ns,
            "size": size, "assess_in_threshold": assess_in_threshold}
