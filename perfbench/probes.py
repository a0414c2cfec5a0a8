"""Measurement hooks that wrap wsgat's public functions from outside the library.

``Clock`` is the untraced instrumentation used for the end-to-end metrics: it
reads one clock when the optimizer is built (end of set-up), one per
``Adam.step`` and two around the ``evaluate`` call inside ``train``. Inside
``stop_after_setup`` it ends ``train`` once set-up is done.

``Tracer`` is the traced instrumentation used for the per-layer metrics: every
wrapped call records a span (name, start, end, parent span) and counts in
memory, ``tracemalloc`` measures peak traced memory of the forward and backward
phases of the training loop, and ``per_layer_metrics`` turns the spans into the
metrics named in ``names.PER_LAYER``. Both patch module and class attributes
and restore them on ``uninstall``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import tracemalloc
from collections import defaultdict

from wsgat import autodiff, checkpoint, graph, layer, pipelines, spectral

from names import HEADS, LAYERS, OPS

# Every differentiable op is traced so that autodiff self time is complete;
# only the ops in OPS get their own metrics.
TRACED_OPS = OPS + ("add", "sub", "mul", "tanh", "sigmoid", "leaky_relu", "elu", "abs_",
                    "sign_", "log", "exp", "sum_", "mean_", "log_softmax_rows")


class _Patches:
    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()


class SetupDone(Exception):
    """Raised at the end of set-up by a ``Clock`` inside ``stop_after_setup``."""


class Clock(_Patches):
    """End-to-end hooks. ``epoch_ends`` holds the clock after each Adam.step."""

    def __init__(self):
        super().__init__()
        self.stop = False
        self.reset()

    @contextlib.contextmanager
    def stop_after_setup(self):
        """``train`` called inside returns at the end of its set-up."""
        self.stop = True
        try:
            yield
        except SetupDone:
            pass
        finally:
            self.stop = False

    def reset(self):
        self.setup_end = None
        self.epoch_ends = []
        self.eval_s = None
        self.split = None

    def install(self):
        adam_init, adam_step, evaluate = (autodiff.Adam.__init__, autodiff.Adam.step,
                                          pipelines.evaluate)
        clock = self

        def init(opt, *a, **k):
            adam_init(opt, *a, **k)
            clock.setup_end = time.perf_counter()
            if clock.stop:
                raise SetupDone

        def step(opt):
            adam_step(opt)
            clock.epoch_ends.append(time.perf_counter())

        def timed_evaluate(model, split, *a, **k):
            t0 = time.perf_counter()
            report = evaluate(model, split, *a, **k)
            clock.eval_s = time.perf_counter() - t0
            clock.split = split
            return report

        self.set(autodiff.Adam, "__init__", init)
        self.set(autodiff.Adam, "step", step)
        self.set(pipelines, "evaluate", timed_evaluate)
        return self


def self_times(spans):
    """Self time of each span: its duration minus the durations of its children.

    ``spans`` is a sequence of (name, start, end, parent_index) with parent
    index -1 for roots. Children of one span are sequential, so their
    durations add up to the part of the parent's interval they cover.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer(_Patches):
    """Per-layer spans and counters, kept in memory until ``per_layer_metrics``."""

    def __init__(self):
        super().__init__()
        self.spans = []        # [name, start, end, parent]
        self._stack = []
        self.counts = defaultdict(float)
        self.names = {}        # id(layer or head) -> display name
        self.peak = {"fwd": 0, "bwd": 0}
        self._val_start = None
        self.val_s = 0.0
        self.active = True

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced, e.g. the benchmark's own checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- spans ---------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, fn, name, count=None):
        """fn wrapped in a span; ``name`` may be a callable of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*a, **k):
            if not tracer.active:
                return fn(*a, **k)
            tracer._open(name(*a) if callable(name) else name)
            try:
                out = fn(*a, **k)
            finally:
                tracer._close()
            if count is not None:
                count(out, *a)
            return out

        return traced

    def patch(self, owners, attr, name, count=None):
        fn = owners[0].__dict__[attr]
        fn = fn.__func__ if isinstance(fn, staticmethod) else fn
        traced = self.wrap(fn, name, count)
        for owner in owners:
            is_static = isinstance(owner.__dict__[attr], staticmethod)
            self.set(owner, attr, staticmethod(traced) if is_static else traced)

    # -- install -------------------------------------------------------
    def install(self):
        t = self
        self.patch([graph, pipelines], "normalize_weights", "graph.normalize_weights")
        self.patch([graph, pipelines], "split_edges", "graph.split_edges")
        self.patch([graph], "sample_negative_edges", "graph.sample_negative_edges")
        self.patch([graph], "load_edge_list", "graph.load_edge_list")
        self.patch([graph.SignedWeightedGraph], "from_edges", "graph.from_edges")
        self.patch([spectral, pipelines], "signed_spectral_embedding", "spectral.sse")
        self.patch([spectral, pipelines], "fallback_features", "spectral.fallback_features")
        self.patch([pipelines], "roc_auc", "metrics.roc_auc")
        self.patch([pipelines], "evaluate", "pipelines.evaluate")
        self.patch([pipelines], "train", "pipelines.train")
        self.patch([checkpoint], "save_arrays", "checkpoint.save", self._file_size)
        self.patch([checkpoint], "load_arrays", "checkpoint.load")
        self.patch([autodiff], "_check_finite", "autodiff.check_finite")
        self.patch([autodiff.Adam], "step", "autodiff.adam")
        for op in TRACED_OPS:
            self.patch([autodiff], op, f"autodiff.fwd.{op}", self._count_op(op))

        backward = autodiff.backward

        def traced_backward(loss):
            t._phase_peak("fwd")
            t._open("autodiff.backward")
            try:
                return backward(loss)
            finally:
                t._close()
                t._phase_peak("bwd")

        self.set(autodiff, "backward", traced_backward)

        reset = autodiff.Tape.reset

        def traced_reset(tape):
            t._end_val()
            # tracemalloc runs only in the training loop: it makes every Python
            # allocation slower, which would inflate parsing, splitting and AUC
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
            return reset(tape)

        self.set(autodiff.Tape, "reset", traced_reset)

        step = autodiff.Adam.step

        def step_then_val(opt):
            out = step(opt)
            t._val_start = time.perf_counter()
            return out

        self.set(autodiff.Adam, "step", step_then_val)

        load_params = pipelines.TaskModel.load_parameter_arrays

        def traced_load_params(model, arrays):  # ends the training loop
            t._end_val()
            tracemalloc.stop()
            return load_params(model, arrays)

        self.set(pipelines.TaskModel, "load_parameter_arrays", traced_load_params)

        model_init = pipelines.TaskModel.__init__

        def named_model_init(model, *a, **k):
            model_init(model, *a, **k)
            for i, lay in enumerate(model.stack.layers):
                t.names[id(lay)] = f"gnn{i}"
            for head in HEADS:
                if hasattr(model, head):
                    t.names[id(getattr(model, head))] = head

        self.set(pipelines.TaskModel, "__init__", named_model_init)
        self.patch([layer.WsGatLayer], "forward",
                   lambda lay, *a: f"layer.forward.{t.names.get(id(lay), 'other')}")
        self.patch([layer.WsGatLayer], "attention_logits", "layer.attention_logits")
        self.patch([layer.WsGatLayer], "edge_arrays", "layer.edge_arrays")
        self.patch([pipelines.TaskModel], "embeddings", "pipelines.embeddings")
        self.patch([pipelines.TaskModel], "pair_input", "pipelines.pair_input")
        self.patch([pipelines.PairHead], "__call__",
                   lambda head, *a: f"pipelines.head_fwd.{t.names.get(id(head), 'other')}")
        return self

    def _count_op(self, op):
        tracer = self

        def count(out, *a):
            tracer.counts[f"out_bytes.{op}"] += out.values.nbytes
            if out._backward is not None:
                out._backward = tracer.wrap(out._backward, f"autodiff.bwd.{op}")

        return count

    def _file_size(self, out, path, arrays):
        self.counts["checkpoint.bytes"] = os.path.getsize(path)

    def _phase_peak(self, phase):
        self.peak[phase] = max(self.peak[phase], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def _end_val(self):
        if self._val_start is not None:
            self.val_s += time.perf_counter() - self._val_start
            self._val_start = None

    # -- report --------------------------------------------------------
    def per_layer_metrics(self):
        """Every PER_LAYER metric except trace.overhead_s, which needs the untraced run."""
        total, calls, self_by_layer = defaultdict(float), defaultdict(int), defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            total[name] += end - start
            calls[name] += 1
            self_by_layer[name.split(".", 1)[0]] += own
        mb = 1.0 / 2**20
        m = {
            "graph.load_edge_list_s": total["graph.load_edge_list"],
            "graph.from_edges_s": total["graph.from_edges"],
            "graph.from_edges_calls": calls["graph.from_edges"],
            "graph.normalize_weights_s": total["graph.normalize_weights"],
            "graph.split_edges_s": total["graph.split_edges"],
            "graph.sample_negative_edges_s": total["graph.sample_negative_edges"],
            "spectral.features_s": total["spectral.sse"] + total["spectral.fallback_features"],
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.peak_traced_mb.fwd": self.peak["fwd"] * mb,
            "autodiff.peak_traced_mb.bwd": self.peak["bwd"] * mb,
            "autodiff.check_finite_s": total["autodiff.check_finite"],
            "autodiff.check_finite_calls": calls["autodiff.check_finite"],
            "autodiff.adam_s": total["autodiff.adam"],
            "layer.forward_s.gnn0": total["layer.forward.gnn0"],
            "layer.forward_s.gnn1": total["layer.forward.gnn1"],
            "layer.attention_logits_s": total["layer.attention_logits"],
            "layer.edge_arrays_calls": calls["layer.edge_arrays"],
            "pipelines.embeddings_s": total["pipelines.embeddings"],
            "pipelines.embeddings_calls": calls["pipelines.embeddings"],
            "pipelines.pair_input_s": total["pipelines.pair_input"],
            "pipelines.val_s": self.val_s,
            "metrics.roc_auc_s": total["metrics.roc_auc"],
            "checkpoint.save_s": total["checkpoint.save"],
            "checkpoint.load_s": total["checkpoint.load"],
            "checkpoint.bytes": self.counts["checkpoint.bytes"],
        }
        for op in OPS:
            m[f"autodiff.fwd_s.{op}"] = total[f"autodiff.fwd.{op}"]
            m[f"autodiff.bwd_s.{op}"] = total[f"autodiff.bwd.{op}"]
            m[f"autodiff.calls.{op}"] = calls[f"autodiff.fwd.{op}"]
            m[f"autodiff.out_mb.{op}"] = self.counts[f"out_bytes.{op}"] * mb
        m["pipelines.head_fwd_s"] = sum(total[f"pipelines.head_fwd.{h}"] for h in HEADS)
        for lay in LAYERS:
            m[f"self_s.{lay}"] = self_by_layer[lay]
        return m
