"""In-memory span tracer that wraps the public functions of annoconsist.

The library imports most functions by name (`from .condnet import
greedy_infer`), so wrapping only the defining module would let calls made
through another module's binding escape. `Tracer.install` therefore
replaces every binding of a traced function in every loaded annoconsist
module, and labels each wrapper by the module that holds the binding: the
call site. `Tracer.uninstall` puts every original back.

Spans (name, start, end, parent) live in flat arrays while the run lasts
and are written out once at the end. A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

import array
import contextlib
import functools
import math
import sys
import time

import numpy as np

PACKAGE = "annoconsist"

# Traced functions, as (defining module, attribute, how).
#   "span"  records one span per call
#   "count" only counts calls (loss.delta runs ~10^5-10^6 times per fit)
# Call-site labels split a function's spans by the module that called it.
TARGETS = (
    ("condnet", "greedy_infer", "span"),
    ("condnet", "sample_k", "span"),
    ("condnet", "refine_stack", "span"),
    ("condnet", "refine_backward", "span"),
    ("condnet", "higher_order_feasible", "span"),
    ("kernels", "refine_forward", "span"),
    ("kernels", "refine_backward", "span"),
    ("kernels", "greedy_labels", "span"),
    ("scorer", "score_from_input", "span"),
    ("scorer", "score_vjp", "span"),
    ("scorer", "features", "span"),
    ("train", "cond_grad", "span"),
    ("train", "pred_grad", "span"),
    ("train", "_epoch_metrics", "span"),
    ("train", "prepare_records", "span"),
    ("train", "save_checkpoint", "span"),
    ("train", "load_checkpoint", "span"),
    ("disco", "div_cc", "span"),
    ("disco", "div_pc", "span"),
    ("disco", "div_pp", "span"),
    ("loss", "delta", "count"),
    ("synthgen", "make_scene", "span"),
    ("scenes", "save_dataset", "span"),
    ("scenes", "load_dataset", "span"),
    ("prednet", "predict", "span"),
    ("prednet", "decode", "span"),
    ("evaluate", "evaluate_predictions", "span"),
    ("evaluate", "map_at", "span"),
)

CALL_SITES = {
    "condnet.greedy_infer": {"train": "dlm", "condnet": "sample"},
    "condnet.sample_k": {"train": "train", "cli": "infer"},
}

WRAPPED = "__pipebench_original__"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, run_id: str = "0"):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]
        self.counters: dict = {}
        self._patches: list = []
        self._dlm = None  # draw bookkeeping of the cond_grad call in flight

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(time.perf_counter())
        self.span_end.append(math.nan)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def add(self, counter: str, n=1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    # -- wrapping --------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target in the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None
                   and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for defmod, attr, how in TARGETS:
            orig = getattr(modules[f"{PACKAGE}.{defmod}"], attr)
            base = f"{defmod}.{attr}"
            sites = CALL_SITES.get(base)
            for modname, mod in modules.items():
                for bound, value in list(vars(mod).items()):
                    if value is not orig:
                        continue
                    name = base
                    if sites is not None:
                        short = modname.rsplit(".", 1)[-1]
                        name = f"{base}.{sites.get(short, short)}"
                    wrapper = self._wrap(orig, name, how)
                    self._patches.append((mod, bound, orig))
                    setattr(mod, bound, wrapper)
        scenes = modules[f"{PACKAGE}.scenes"]
        cls = scenes.SceneRecord
        self._patches.append((cls, "geometry", cls.geometry))
        cls.geometry = self._wrap_geometry(cls.geometry)

    def uninstall(self) -> None:
        for owner, bound, orig in reversed(self._patches):
            setattr(owner, bound, orig)
        self._patches.clear()

    def _wrap(self, fn, name: str, how: str):
        if how == "count":
            return self._finish(self._wrap_count(fn, name + ".calls"), fn)
        special = {
            "condnet.greedy_infer.dlm": self._wrap_dlm,
            "scorer.features": self._wrap_features,
            "train.cond_grad": self._wrap_cond_grad,
            "train.prepare_records": self._wrap_prepare,
            "train.save_checkpoint": self._wrap_saved_bytes,
            "scenes.save_dataset": self._wrap_saved_bytes,
        }.get(name)
        if name.startswith("condnet.greedy_infer.") and special is None:
            special = self._wrap_greedy
        return self._finish((special or self._wrap_span)(fn, name), fn)

    @staticmethod
    def _finish(wrapper, fn):
        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def _wrap_span(self, fn, name):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _wrap_count(self, fn, counter):
        def wrapper(*args, **kwargs):
            self.counters[counter] = self.counters.get(counter, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_greedy(self, fn, name):
        nid = self.name_id(name)
        inference_error = sys.modules[f"{PACKAGE}.condnet"].InferenceError

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            except inference_error:
                self.add("condnet.greedy_infer.errors")
                raise
            finally:
                self.close(idx)
        return wrapper

    def _wrap_dlm(self, fn, name):
        """Loss-augmented greedy calls from cond_grad. Also counts the ones
        that return the unaugmented draw's labeling: their gradient
        contribution is exactly zero."""
        traced = self._wrap_greedy(fn, name)

        def wrapper(*args, **kwargs):
            labels = traced(*args, **kwargs)
            ctx = self._dlm
            if ctx is not None:
                k = ctx["calls"] // ctx["per_draw"]
                ctx["calls"] += 1
                if k < ctx["samples"].k and np.array_equal(
                        labels, ctx["samples"].labels[k]):
                    self.add("condnet.greedy_infer.dlm.unchanged")
            return labels
        return wrapper

    def _wrap_cond_grad(self, fn, name):
        """Tracks which draw each augmented greedy call belongs to. cond_grad
        makes, per draw, one reference call unless anchored plus K-1 pairwise
        calls when the diversity weight is on; a different call count is
        recorded as an order mismatch, which fails the traced run."""
        traced = self._wrap_span(fn, name)

        def wrapper(params, rec, samples, y_ref, train_cfg, inf_cfg, loss_cfg,
                    anchor=False):
            kk = samples.k
            pairs = (kk - 1) if (train_cfg.gamma != 0.0 and kk >= 2
                                 and not train_cfg.cond_pointwise) else 0
            per_draw = (0 if anchor else 1) + pairs
            self._dlm = {"samples": samples, "per_draw": max(per_draw, 1),
                         "calls": 0}
            try:
                return traced(params, rec, samples, y_ref, train_cfg, inf_cfg,
                              loss_cfg, anchor=anchor)
            finally:
                if self._dlm["calls"] != kk * per_draw:
                    self.add("trace.dlm_order_mismatch")
                self._dlm = None
        return wrapper

    def _wrap_features(self, fn, name):
        traced = self._wrap_span(fn, name)

        def wrapper(rec, *args, **kwargs):
            if rec._features is None:
                self.add("scorer.features.misses")
            return traced(rec, *args, **kwargs)
        return wrapper

    def _wrap_geometry(self, fn):
        def wrapper(rec):
            if rec._geom is None:
                self.add("scenes.geometry.misses")
            return fn(rec)
        return self._finish(wrapper, fn)

    def _wrap_prepare(self, fn, name):
        traced = self._wrap_span(fn, name)

        def wrapper(*args, **kwargs):
            records, skipped = traced(*args, **kwargs)
            self.add("train.prepare_records.skipped", skipped)
            return records, skipped
        return wrapper

    def _wrap_saved_bytes(self, fn, name):
        traced = self._wrap_span(fn, name)

        def wrapper(path, *args, **kwargs):
            out = traced(path, *args, **kwargs)
            with open(path, "rb") as fh:
                self.add(name + ".bytes", len(fh.read()))
            return out
        return wrapper

    # -- reading ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 run_id=np.array(self.run_id), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total s, self s and call durations in us."""
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        own = self_times(arr["parent"], arr["start"], arr["end"])
        out = {}
        for nid, name in enumerate(self.names):
            sel = arr["name"] == nid
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(own[sel].sum()),
                         "durations_us": dur[sel] * 1e6}
        return out


def self_times(parent, start, end) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span. Spans must be listed in start order, as a tracer
    records them, so each parent precedes its children."""
    parent, start, end = (np.asarray(a).tolist() for a in (parent, start, end))
    own = [e - s for s, e in zip(start, end)]
    reach = {}  # parent -> end of the covered stretch so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], start[p], reach.get(p, -math.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            reach[p] = hi
    return np.array(own, dtype=np.float64)


def is_wrapped(fn) -> bool:
    return hasattr(fn, WRAPPED)
