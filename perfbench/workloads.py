"""The workloads: set-up, the measured closed loop, and output checks.

Both workloads run every layer, so every metric exists on both; what
differs is where a training step spends its time:

- train-desk: desk dims, where per-op Python overhead dominates a step;
- train-wide: a quarter of the reference dims, where matmul FLOPs and
  tape-held intermediates dominate.

Between training calls each run greedy-transfers and classifies held-out
sentences, forward-only under `no_grad`, with the model reloaded from its
checkpoint. All inputs derive from the workload seed. The program only ever
sees the generated sentences.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from styletx import autodiff, checkpoint, corpus, evaluation, losses, model, training
from styletx.corpus import RESERVED

from tracing import Patcher, Tracer

MIX = (0.3, 0.7, 0.0)
TRANSFER_BATCH = 256
SETUP_REPEATS = 3
HELDOUT_SEED_OFFSET = 1_000_003   # held-out generator seed = workload seed + offset


@dataclass(frozen=True)
class Workload:
    cfg: training.TrainConfig
    n_sentences: int        # per side, before the three-way split
    heldout_batches: int    # 256-sentence batches in the held-out transfer set
    chunk_batches: int      # transfer batches after each training call and set-up


def _workloads(size: str) -> dict:
    if size == "tiny":
        tiny = training.desk_config(d_emb=8, d_z=12, d_y=5, d_maps=2, batch_size=16, epochs=1)
        return {
            "train-desk": Workload(tiny, 200, 2, 1),
            "train-wide": Workload(replace(tiny, d_z=16), 200, 2, 1),
        }
    return {
        "train-desk": Workload(training.desk_config(epochs=1), 2000, 16, 8),
        "train-wide": Workload(training.desk_config(d_emb=50, d_z=250, d_y=125, d_maps=25,
                                                    epochs=1), 2000, 12, 6),
    }


def get_workload(name: str, size: str = "full") -> Workload:
    table = _workloads(size)
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(table)}")
    return table[name]


WORKLOAD_NAMES = tuple(_workloads("full"))


# ---------------------------------------------------------------------------
# training calls and step timing: two clock reads per step


class TrainMeter:
    """Times each `training.train` call, and each D step plus G step around
    the two `train_step_*` functions; counts G steps the divergence guard
    skipped. `training.train` itself runs unchanged."""

    def __init__(self):
        self.step_seconds: list = []
        self.skipped = 0
        self.calls: list = []      # (seconds, G steps) per `training.train` call
        self.rows: list = []       # per-epoch metric rows of each call
        self._start: Optional[float] = None

    def install(self, patcher: Patcher) -> None:
        patcher.wrap(training, "train_step_discriminator", self._wrap_d)
        patcher.wrap(training, "train_step_generator", self._wrap_g)

    def _wrap_d(self, fn):
        def d_step(*args, **kwargs):
            if self._start is None:
                self._start = perf_counter()
            return fn(*args, **kwargs)
        return d_step

    def _wrap_g(self, fn):
        def g_step(*args, **kwargs):
            start = self._start if self._start is not None else perf_counter()
            out = fn(*args, **kwargs)
            self.step_seconds.append(perf_counter() - start)
            self._start = None
            if out is None:
                self.skipped += 1
            return out
        return g_step

    def steps_by_call(self) -> list:
        """Step seconds grouped by the `training.train` call they ran in."""
        out, start = [], 0
        for _, n in self.calls:
            out.append(self.step_seconds[start:start + n])
            start += n
        return out

    def train(self, cfg, exp: evaluation.ExperimentSetup) -> training.TrainResult:
        before = len(self.step_seconds)
        t0 = perf_counter()
        result = training.train(cfg, exp.corpora, exp.judge)
        self.calls.append((perf_counter() - t0, len(self.step_seconds) - before))
        self.rows.append(result.metrics)
        return result


class _FirstStepDone(Exception):
    pass


def first_step_counters(cfg, exp: evaluation.ExperimentSetup) -> dict:
    """Exact counters of the first step of `training.train` on this set-up,
    taken by a private tracer outside every timed region. The run is cut
    after its first G step."""
    tracer = Tracer()
    patcher = Patcher()

    def stop_after(fn):
        def g_step(*args, **kwargs):
            fn(*args, **kwargs)
            raise _FirstStepDone
        return g_step

    with tracer.install():
        patcher.wrap(training, "train_step_generator", stop_after)
        try:
            training.train(cfg, exp.corpora, exp.judge)
        except _FirstStepDone:
            pass
        finally:
            patcher.restore()
    return tracer.first_step_counters()


# ---------------------------------------------------------------------------
# inputs


def round_trip(params: dict, path: Path) -> tuple:
    """Save, reload and rebuild a transfer model; returns (model, bytes, ok)."""
    checkpoint.save_params(path, params)
    size = path.stat().st_size
    loaded = checkpoint.load_params(path)
    ok = (list(loaded) == list(params)
          and all(np.array_equal(loaded[k], params[k]) for k in params))
    return model.TransferModel.from_params(loaded), size, ok


def heldout_sentences(wl: Workload, seed: int, exclude) -> list:
    """Source-domain sentences from another generator seed, none of which
    occurs in the set-up corpus, cut to whole transfer batches."""
    need = wl.heldout_batches * TRANSFER_BATCH
    syn = corpus.gen_synthetic(seed + HELDOUT_SEED_OFFSET, need + need // 4, 0, MIX)
    seen = set(exclude)
    fresh = [s for s in syn.source if s not in seen]
    if len(fresh) < need:
        raise RuntimeError(f"held-out generator gave {len(fresh)} fresh sentences, need {need}")
    return fresh[:need]


def val_rec_nll(m: model.TransferModel, exp: evaluation.ExperimentSetup, cfg) -> float:
    """Sentence-weighted mean of `losses.reconstruction_loss` over the
    validation split, without dropout."""
    vocab, bs = exp.vocab, cfg.batch_size
    val_s = exp.corpora.source.val.sentences
    val_t = exp.corpora.target.val.sentences
    n = min(len(val_s), len(val_t))
    total = 0.0
    for lo in range(0, n, bs):
        hi = min(lo + bs, n)
        batch_s = model.Batch.from_sentences(val_s[lo:hi], vocab, cfg.pad_len, model.SOURCE)
        batch_t = model.Batch.from_sentences(val_t[lo:hi], vocab, cfg.pad_len, model.TARGET)
        with autodiff.no_grad():
            total += losses.reconstruction_loss(m, batch_s, batch_t).item() * (hi - lo)
    return total / n


# ---------------------------------------------------------------------------
# output checks


def grad_check_breakdown(seed: int) -> float:
    """Finite-difference check of `losses.compute_breakdown` with all four
    terms on, through the target style vector, at tiny dims. Returns the
    largest relative error."""
    rng = np.random.default_rng([seed, 17])
    syn = corpus.gen_synthetic(seed, 4, 4, MIX)
    vocab = corpus.build_vocab(syn.source + syn.target)
    m = model.TransferModel.create(rng, len(vocab), 6, 8, 5)
    d_clf = model.TextCnnClassifier.create(rng, len(vocab), 6, (1, 2, 3, 4, 5), 2)
    judge = model.TextCnnClassifier.create(rng, len(vocab), 6, (2, 3), 2)
    judge.freeze()
    batch_s = model.Batch.from_sentences(syn.source[:3], vocab, 8, model.SOURCE)
    batch_t = model.Batch.from_sentences(syn.target[:3], vocab, 8, model.TARGET)
    weights = losses.LossWeights(1.0, 1.0, 5.0)
    draw_idx = np.array([2, 0, 1])

    def total(style: autodiff.Tensor) -> autodiff.Tensor:
        saved, m.target_style = m.target_style, style
        try:
            out, _ = losses.compute_breakdown(m, d_clf, judge, batch_s, batch_t, weights,
                                              temperature=0.5, draw_idx=draw_idx)
        finally:
            m.target_style = saved
        return out

    report = autodiff.grad_check(total, autodiff.Tensor(m.target_style.data.copy()),
                                 tol=1e-4)
    return report.max_rel_err


def rows_finite(rows: list) -> bool:
    return all(np.isfinite(v) for row in rows for k, v in row.items() if k != "epoch")


def in_vocabulary(texts: list, vocab) -> bool:
    """Every transferred token is a real vocabulary token (no <unk> etc.)."""
    allowed = set(vocab.id_to_token) - set(RESERVED)
    return all(tok in allowed for text in texts for tok in text.split())


def fingerprint(rows: list, texts: list) -> str:
    blob = json.dumps({"rows": rows, "texts": texts}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def pct(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


# ---------------------------------------------------------------------------
# one run


class Run:
    """One workload run: a schedule of set-ups, `training.train` calls and
    transfer batches, and what was measured along the way.

    The machine's speed drifts over seconds, so each metric's samples are
    spread over the run: set-ups and transfer chunks are interleaved with
    the training calls. Every set-up and every training call is identical
    for a given seed.
    """

    def __init__(self, wl: Workload, seed: int, tracer: Tracer, tmpdir: Path):
        self.wl = wl
        self.cfg = replace(wl.cfg, seed=seed)
        self.tracer = tracer
        self.tmpdir = tmpdir
        self.meter = TrainMeter()
        self.setup_seconds: list = []
        self.classifier_acc: set = set()
        self.chunks: list = []         # batch seconds of each transfer chunk
        self.texts: dict = {}          # held-out batch index -> transferred sentences
        self.attempted = self.failed = 0
        self.ckpt_ok = True
        self.ckpt_bytes = 0
        self.exp: Optional[evaluation.ExperimentSetup] = None
        self.result: Optional[training.TrainResult] = None
        self.model: Optional[model.TransferModel] = None   # rebuilt from the checkpoint
        self.heldout: list = []
        self._next_batch = 0

    # --- units of work ----------------------------------------------------
    def set_up(self, timed: bool = True) -> None:
        """Seed to ready-to-train: corpus, vocab, splits, both classifiers."""
        t0 = perf_counter()
        with self.tracer.span("bench.setup", kind="setup"):
            syn = corpus.gen_synthetic(self.cfg.seed, self.wl.n_sentences,
                                       self.wl.n_sentences, MIX)
            exp = evaluation.prepare_experiment(syn.source, syn.source_styles, syn.target,
                                                self.cfg)
        if timed:
            self.setup_seconds.append(perf_counter() - t0)
        self.exp = exp
        self.classifier_acc.add((exp.judge_acc, exp.eval_acc))
        if not self.heldout:
            self.heldout = heldout_sentences(self.wl, self.cfg.seed, [
                s for part in exp.source_parts + exp.target_parts for s in part.all_sentences()])

    def train(self) -> None:
        """One `training.train` call, then the model's checkpoint round trip."""
        self.result = self.meter.train(self.cfg, self.exp)
        self.model, self.ckpt_bytes, ok = round_trip(self.result.params,
                                                     self.tmpdir / "model.ckpt")
        self.ckpt_ok &= ok

    def transfer(self, n_batches: int) -> None:
        """Greedy-transfer and classify the next n held-out batches, cycling."""
        chunk: list = []
        self.chunks.append(chunk)
        for _ in range(n_batches):
            idx = self._next_batch % self.wl.heldout_batches
            self._next_batch += 1
            sentences = self.heldout[idx * TRANSFER_BATCH:(idx + 1) * TRANSFER_BATCH]
            self.attempted += 1
            with self.tracer.span("bench.transfer_batch", kind="batch"):
                t0 = perf_counter()
                try:
                    texts = model.transfer_sentences(self.model, self.exp.vocab, sentences,
                                                     self.cfg.pad_len)
                    model.classify_texts(self.exp.eval_clf, self.exp.vocab, texts,
                                         self.cfg.pad_len)
                except Exception:  # a failed batch is counted and the run goes on
                    traceback.print_exc()
                    self.failed += 1
                    continue
                chunk.append(perf_counter() - t0)
            self.texts.setdefault(idx, texts)

    # --- the schedule -----------------------------------------------------
    def schedule(self, seconds: float) -> None:
        """Rounds of a training call and a transfer chunk, with the set-ups
        interleaved, until about `seconds` have passed: a new round starts
        while at least half of it is expected to fit."""
        chunk = self.wl.chunk_batches
        t_start = perf_counter()
        self.set_up()
        while True:
            t0 = perf_counter()
            self.train()
            self.transfer(chunk)
            if len(self.setup_seconds) < SETUP_REPEATS:
                self.set_up()
                self.transfer(chunk)
            now = perf_counter()
            if now - t_start + (now - t0) / 2 > seconds:
                break
        while len(self.setup_seconds) < SETUP_REPEATS:
            self.set_up()
            self.transfer(chunk)

    def reference(self) -> float:
        """One untraced training call, for the tracing overhead."""
        self.set_up(timed=False)
        self.train()
        return self.meter.calls[-1][0]


def run(name: str, seed: int, seconds: float, traced: bool, tmpdir: Path,
        size: str = "full") -> dict:
    """Run one workload's schedule for about `seconds`, check the outputs
    and return the report.

    Traced, one untraced `training.train` call runs before the tracer is
    installed, so that the tracing overhead can be stated.
    """
    wl = get_workload(name, size)
    tracer = Tracer(enabled=traced)
    r = Run(wl, seed, tracer, tmpdir)
    patcher = Patcher()
    r.meter.install(patcher)
    try:
        if traced:
            ref_call = r.reference()
        with tracer.install():
            r.schedule(seconds)
        rec = val_rec_nll(r.model, r.exp, r.cfg)
    finally:
        patcher.restore()

    cfg, meter = r.cfg, r.meter
    counters = first_step_counters(cfg, r.exp)
    counters["model.param_count"] = int(sum(np.asarray(v).size for v in r.result.params.values()))
    counters["checkpoint.bytes"] = r.ckpt_bytes
    grad_err = grad_check_breakdown(seed)
    texts = [t for idx in sorted(r.texts) for t in r.texts[idx]]
    checks = {
        "checkpoint_round_trip": r.ckpt_ok,
        "setup_deterministic": len(r.classifier_acc) == 1,
        "train_deterministic": all(rows == meter.rows[0] for rows in meter.rows),
        "loss_terms_finite": (all(rows_finite(rows) for rows in meter.rows)
                              and bool(np.isfinite(rec))),
        "heldout_covered": len(r.texts) == wl.heldout_batches,
        "transfer_in_vocabulary": in_vocabulary(texts, r.exp.vocab),
        "grad_check_breakdown": bool(grad_err <= 1e-4),
    }

    # Rates and tails are medians over calls and chunks: a burst of machine
    # noise then moves one sample of the median, not the whole figure.
    steps_ms = [[1e3 * s for s in call] for call in meter.steps_by_call() if call]
    chunks_ms = [[1e3 * s for s in chunk] for chunk in r.chunks if chunk]
    step_ms = [s for call in steps_ms for s in call]
    batch_ms = [b for chunk in chunks_ms for b in chunk]
    rows_per_step = 2 * cfg.batch_size
    # too few samples on train-wide for a steady 90th percentile: per-layer only;
    # a traced run's first call is the untraced reference
    tails = {
        "training.step_p90_ms": statistics.median(pct(call, 90)
                                                  for call in steps_ms[1 if traced else 0:]),
        "evaluation.batch_p90_ms": statistics.median(pct(chunk, 90) for chunk in chunks_ms),
    }
    metrics = {
        "setup_s": statistics.median(r.setup_seconds),
        "train_sent_per_s": statistics.median(n * rows_per_step / s for s, n in meter.calls),
        "step_p50_ms": pct(step_ms, 50),
        "transfer_sent_per_s": statistics.median(1e3 * TRANSFER_BATCH * len(chunk) / sum(chunk)
                                                 for chunk in chunks_ms),
        "batch_p50_ms": pct(batch_ms, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "val_rec_nll": rec,
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced, "size": size,
        "metrics": metrics,
        "tails": tails,
        "samples": {"setups": len(r.setup_seconds), "train_calls": len(meter.calls),
                    "steps": len(step_ms), "transfer_chunks": len(chunks_ms),
                    "transfer_batches": len(batch_ms)},
        "setup_seconds": r.setup_seconds,
        "train_calls": meter.calls,
        "step_ms_by_call": steps_ms,
        "batch_ms_by_chunk": chunks_ms,
        "classifier_acc": sorted(r.classifier_acc),
        "grad_check_max_rel_err": grad_err,
        "fingerprint": fingerprint(meter.rows[0], texts),
        "counters": counters,
        "checks": checks,
        "attempted": len(step_ms) + r.attempted,
        "failed": meter.skipped + r.failed,
    }
    if traced:
        traced_counts = tracer.first_step_counters()
        checks["trace_counters_match"] = all(traced_counts[k] == counters[k]
                                             for k in traced_counts)
        traced_call = statistics.median(s for s, _ in meter.calls[1:])
        layers = {**tracer.layer_metrics(), **tails}
        layers["trace.overhead_pct"] = 100.0 * (traced_call / ref_call - 1.0)
        layers["training.skipped_steps"] = meter.skipped
        report["layers"] = layers
        report["tracer"] = tracer
    return report
