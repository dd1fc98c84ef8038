"""Spans and counters for the benchmark's traced runs.

Nothing in `styletx` is edited. The tracer replaces public functions at the
names where their callers look them up (a module attribute such as
`styletx.training.compute_breakdown`, or a class attribute such as
`styletx.model.TransferModel.encode_content`) and puts the originals back
when it is uninstalled.

Two kinds of record are kept in memory:

- spans, for calls at layer boundaries: name, start, end, parent span and
  unit. A unit is one training step, one transfer batch or one set-up; all
  spans of a unit share its id.
- per-unit accumulators, for calls too frequent to span: each autodiff
  primitive (calls, forward seconds, backward seconds, computed matmul
  FLOP) and `corpus.encode` (calls, seconds). Tape ops are counted per
  unit and per step kind when a training step clears its tape.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# primitives timed forward and backward; the tape counts every primitive
PRIMS = ("matmul", "add", "sub", "mul", "sigmoid", "tanh", "concat", "reshape",
         "softmax", "take_rows", "unfold_windows", "max_along")

# "module:attribute path" -> span name
SPAN_TARGETS = {
    "styletx.training:train": "training.train",
    "styletx.training:train_step_discriminator": "training.d_step",
    "styletx.training:train_step_generator": "training.g_step",
    "styletx.training:_validation_pass": "training.val_pass",
    "styletx.training:compute_breakdown": "losses.compute_breakdown",
    "styletx.training:adam_step": "optim.adam",
    "styletx.training:clip_global_norm": "optim.clip",
    "styletx.autodiff:backward": "autodiff.backward",
    "styletx.model:Batch.from_seqs": "training.batch",
    "styletx.model:TransferModel.encode_content": "model.encode_content",
    "styletx.model:TransferModel.encode_style": "model.encode_style",
    "styletx.model:TransferModel.decode_teacher_forced": "model.decode_teacher_forced",
    "styletx.model:TransferModel.generate_soft": "model.generate_soft",
    "styletx.model:TransferModel.generate_greedy": "model.generate_greedy",
    "styletx.model:TextCnnClassifier.prob": "model.clf_prob",
    "styletx.model:transfer_sentences": "evaluation.transfer",
    "styletx.model:classify_texts": "evaluation.classify",
    "styletx.evaluation:prepare_experiment": "evaluation.prepare",
    "styletx.corpus:gen_synthetic": "corpus.gen_synthetic",
    "styletx.checkpoint:save_params": "checkpoint.save",
    "styletx.checkpoint:load_params": "checkpoint.load",
}

# modules that call `encode` by their own global name
ENCODE_CALLERS = ("styletx.training", "styletx.evaluation", "styletx.model")

# spans opened directly by the training loop that belong to the next step
STEP_SPANS = {"training.batch", "training.d_step", "training.g_step"}

MODEL_SPANS = ("encode_content", "encode_style", "decode_teacher_forced",
               "generate_soft", "clf_prob")


def _resolve(target: str):
    """'pkg.mod:Cls.attr' -> (owner object, attribute name)."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Patcher:
    """Replaces attributes and restores the originals in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original function).

        Class attributes are read from the class dict, so a classmethod is
        unwrapped, wrapped and re-wrapped rather than bound to the class.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


def _median_ms(seconds) -> float:
    seconds = list(seconds)
    return 1e3 * statistics.median(seconds) if seconds else float("nan")


def _duration(span) -> float:
    return span[2] - span[1]


def _self_time(span) -> float:
    return span[2] - span[1] - span[5]


def _matmul_flop(a, b) -> int:
    m, k = a.shape
    return 2 * m * k * b.shape[1]


class Tracer:
    """Collects spans and counters while installed; does nothing when disabled."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list = []       # [name, start, end, parent index, unit, child seconds]
        self.stack: list = []       # indices of open spans
        self.units: dict = {}       # unit id -> kind
        # unit -> name -> [calls, forward s, backward s, computed FLOP]
        self.acc = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0, 0]))
        self.tape_ops = defaultdict(int)   # (unit, enclosing span name) -> ops
        self._pending_step = None
        self._prim = None
        self._patcher = Patcher()

    # --- units and spans --------------------------------------------------
    def new_unit(self, kind: str):
        if not self.enabled:
            return None
        uid = len(self.units)
        self.units[uid] = kind
        return uid

    def _unit(self):
        return self.spans[self.stack[-1]][4] if self.stack else None

    def open(self, name: str, unit=None) -> int:
        parent = self.stack[-1] if self.stack else None
        if name == "training.train":
            self._pending_step = self.new_unit("step")
        if unit is None and parent is not None:
            parent_span = self.spans[parent]
            if name in STEP_SPANS and parent_span[0] == "training.train":
                unit = self._pending_step
            else:
                unit = parent_span[4]
        self.spans.append([name, perf_counter(), 0.0, parent, unit, 0.0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]
        if span[0] == "training.g_step":
            self._pending_step = self.new_unit("step")

    @contextmanager
    def _span(self, name: str, unit=None):
        idx = self.open(name, unit)
        try:
            yield unit
        finally:
            self.close(idx)

    def span(self, name: str, kind=None):
        """Span from the benchmark's own code; `kind` starts a new unit."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, self.new_unit(kind) if kind else None)

    # --- wrappers ---------------------------------------------------------
    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            rec = self.acc[self._unit()][name]
            rec[0] += 1
            rec[1] += perf_counter() - t0
            return out
        return counted

    def _primitive(self, name: str, fn):
        @functools.wraps(fn)
        def prim(*args, **kwargs):
            outer, self._prim = self._prim, name
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._prim = outer
            rec = self.acc[self._unit()][name]
            rec[0] += 1
            rec[1] += perf_counter() - t0
            if name == "matmul":
                rec[3] += _matmul_flop(*args[:2])
            return out
        return prim

    def _timed_backward(self, name: str, op):
        """Wrap the closure of a TapeOp a timed primitive just recorded."""
        fn = op.backward
        flop = 0
        if name == "matmul":
            a, b = op.inputs
            flop = _matmul_flop(a, b) * (int(a.requires_grad) + int(b.requires_grad))

        def backward(g):
            t0 = perf_counter()
            out = fn(g)
            rec = self.acc[self._unit()][name]
            rec[2] += perf_counter() - t0
            rec[3] += flop
            return out
        return backward

    def _tape_class(self, base):
        tracer = self

        class OpList(list):
            def append(self, op):
                if tracer._prim is not None:
                    op.backward = tracer._timed_backward(tracer._prim, op)
                list.append(self, op)

        class TracedTape(base):
            def __init__(self):
                super().__init__()
                self.ops = OpList()

            def clear(self):
                where = tracer.spans[tracer.stack[-1]][0] if tracer.stack else None
                tracer.tape_ops[(tracer._unit(), where)] += len(self.ops)
                super().clear()

        return TracedTape

    # --- install ----------------------------------------------------------
    def install(self):
        """Context manager: patch styletx for the block, restore after."""
        return self._installed() if self.enabled else nullcontext()

    @contextmanager
    def _installed(self):
        p = self._patcher
        try:
            ad = importlib.import_module("styletx.autodiff")
            p.wrap(ad, "Tape", self._tape_class)
            for name in PRIMS:
                p.wrap(ad, name, functools.partial(self._primitive, name))
            for module in ENCODE_CALLERS:
                p.wrap(importlib.import_module(module), "encode",
                       functools.partial(self._counted, "corpus.encode"))
            for target, name in SPAN_TARGETS.items():
                owner, attr = _resolve(target)
                p.wrap(owner, attr, functools.partial(self._spanned, name))
            yield self
        finally:
            p.restore()

    # --- read-out ---------------------------------------------------------
    def step_units(self) -> list:
        return sorted({s[4] for s in self.spans if s[0] == "training.g_step"})

    def units_of(self, kind: str) -> list:
        return sorted({s[4] for s in self.spans if s[4] is not None
                       and self.units.get(s[4]) == kind})

    def first_step_counters(self) -> dict:
        """Exact counts of the first training step (D step plus G step)."""
        steps = self.step_units()
        if not steps:
            raise RuntimeError("no training step was traced")
        unit = steps[0]
        acc = self.acc[unit]
        counters = {
            "autodiff.tape_ops_g": self.tape_ops[(unit, "training.g_step")],
            "autodiff.tape_ops_d": self.tape_ops[(unit, "training.d_step")],
            "autodiff.matmul_gflop": acc["matmul"][3] / 1e9,
        }
        for name in PRIMS:
            counters[f"autodiff.{name}.calls"] = acc[name][0]
        for name in MODEL_SPANS:
            counters[f"model.{name}.calls"] = sum(
                1 for s in self.spans if s[4] == unit and s[0] == f"model.{name}")
        return counters

    def _per_unit(self, units, select, measure=_duration) -> float:
        """Median over units of `measure` summed over the spans `select`
        accepts, in ms."""
        sums = dict.fromkeys(units, 0.0)
        for span in self.spans:
            if span[4] in sums and select(span):
                sums[span[4]] += measure(span)
        return _median_ms(sums.values())

    def _named(self, name: str):
        return lambda span: span[0] == name

    def _under(self, name: str, parent: str):
        return lambda span: (span[0] == name and span[3] is not None
                             and self.spans[span[3]][0] == parent)

    def _spans_ms(self, name: str) -> float:
        return _median_ms(_duration(s) for s in self.spans if s[0] == name)

    def layer_metrics(self) -> dict:
        """Per-layer timings: medians per training step, per transfer batch
        or per set-up, as each metric's layer runs in it."""
        steps = self.step_units()
        batches = self.units_of("batch")
        setups = self.units_of("setup")
        per_step = functools.partial(self._per_unit, steps)
        out = {
            "training.d_step_ms": per_step(self._named("training.d_step")),
            "training.g_step_ms": per_step(self._named("training.g_step")),
            "training.g_forward_ms": per_step(self._under("losses.compute_breakdown",
                                                          "training.g_step")),
            "training.g_backward_ms": per_step(self._under("autodiff.backward",
                                                           "training.g_step")),
            "training.batch_wait_ms": per_step(self._under("training.batch", "training.train")),
            "training.val_pass_ms": self._spans_ms("training.val_pass"),
            "autodiff.backward_ms": per_step(self._named("autodiff.backward")),
            "optim.adam_ms": per_step(self._named("optim.adam")),
            "optim.clip_ms": per_step(self._named("optim.clip")),
            "model.generate_greedy_ms": self._per_unit(batches,
                                                       self._named("model.generate_greedy")),
            "evaluation.transfer_ms": self._per_unit(batches, self._named("evaluation.transfer")),
            "evaluation.classify_ms": self._per_unit(batches, self._named("evaluation.classify")),
            "evaluation.prepare_ms": self._spans_ms("evaluation.prepare"),
            "corpus.gen_synthetic_ms": self._spans_ms("corpus.gen_synthetic"),
            "checkpoint.save_ms": self._spans_ms("checkpoint.save"),
            "checkpoint.load_ms": self._spans_ms("checkpoint.load"),
        }
        for name in MODEL_SPANS:
            out[f"model.{name}_ms"] = per_step(self._named(f"model.{name}"))

        # the loss layer's own work: its span minus its model children
        out["losses.compute_breakdown_self_ms"] = per_step(
            self._under("losses.compute_breakdown", "training.g_step"), _self_time)
        out["corpus.encode_ms"] = _median_ms(self.acc[u]["corpus.encode"][1] for u in setups)
        for name in PRIMS:
            out[f"autodiff.{name}.fwd_ms"] = _median_ms(self.acc[u][name][1] for u in steps)
            out[f"autodiff.{name}.bwd_ms"] = _median_ms(self.acc[u][name][2] for u in steps)
        mm_flop = mm_seconds = 0.0
        for u in steps:
            mm_flop += self.acc[u]["matmul"][3]
            mm_seconds += self.acc[u]["matmul"][1] + self.acc[u]["matmul"][2]
        out["autodiff.matmul_gflop_per_s"] = (mm_flop / 1e9 / mm_seconds if mm_seconds
                                              else float("nan"))
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, unit, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "unit": unit,
                                     "unit_kind": self.units.get(unit),
                                     "self": (end - start) - child}) + "\n")
