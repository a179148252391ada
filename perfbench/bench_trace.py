"""The traced run: spans around every public `vistab` function, plus isolated layer probes.

`Tracer.installed()` replaces the public functions of `vistab.tensor`,
`weights`, `encoder`, `model`, `data` and `metrics` by wrappers for the
duration of a `with` block, and restores them afterwards; nothing under
`src/` is edited. Calls made inside the library (say `encoder_forward`
calling `tensor.matmul`) go through module attributes, so they are seen
too. Spans are kept in memory and written out when the run ends.

A span's self time is its duration minus the time its direct child spans
cover. Tensor-op self times are forward-only: the backward closures run
inside `tensor.backward`, which is timed as a whole.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from vistab import data as D
from vistab import encoder as enc
from vistab import metrics as MT
from vistab import model as M
from vistab import tensor as T
from vistab import weights as wio

from bench_job import (LAYER_RANGE, LEARNING_RATE, Adam, JobStats, Ledger, Workload, score,
                       train_steps)

FORWARD_OPS = ("add", "mul", "matmul", "reshape", "swap_axes", "concat", "stack", "narrow",
               "take", "expand_leading", "tsum", "tmean", "gelu", "softmax", "layer_norm",
               "cross_entropy")
OP_GROUPS = ("matmul", "gelu", "softmax", "layer_norm", "add")  # the rest is "other"
PROBE_BATCH = 16
PROBE_REPS = 5
PROBE_STEPS = 10

_STEP = "train_rows_per_s and train_step_ms_p50/p95 on frozen_train and finetune_ckpt; " \
        "no change on ingest_noenc"

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "tensor.tape_records_per_step": ("count", "lower", _STEP),
    "tensor.op_calls_per_step": ("count", "lower", _STEP),
    "tensor.backward_ms": ("ms", "lower", _STEP),
    **{f"tensor.{g}_self_ms": ("ms", "lower", _STEP) for g in OP_GROUPS + ("other",)},
    "runtime.gc_full_collections": (
        "count", "lower", "peak_rss_mb and train_step_ms_p95 on frozen_train and finetune_ckpt"),
    "runtime.gc_collected_objects": (
        "count", "lower", "peak_rss_mb and train_step_ms_p95 on frozen_train and finetune_ckpt"),
    "encoder.forward_ms": (
        "ms", "lower", "train_rows_per_s on frozen_train and finetune_ckpt"),
    "encoder.forward_untaped_ms": ("ms", "lower", "infer_rows_per_s on frozen_train"),
    "encoder.block_fwd_ms": (
        "ms", "lower", "train_rows_per_s on frozen_train and finetune_ckpt"),
    "encoder.block_bwd_input_ms": (
        "ms", "lower", "train_rows_per_s on frozen_train (input-only backward)"),
    "encoder.block_bwd_weights_ms": (
        "ms", "lower", "train_rows_per_s on finetune_ckpt (weight backward)"),
    "encoder.load_weights_ms": ("ms", "lower", "setup_s on frozen_train and finetune_ckpt"),
    "encoder.checksum_ms": ("ms", "lower", "setup_s on frozen_train and finetune_ckpt"),
    "model.adapter_fwd_ms": (
        "ms", "lower", "train_rows_per_s on ingest_noenc, where the adapter is most of the step"),
    "model.adapter_bwd_ms": (
        "ms", "lower", "train_rows_per_s on ingest_noenc, where the adapter is most of the step"),
    "model.assemble_ms": ("ms", "lower", "train_rows_per_s on frozen_train and finetune_ckpt"),
    "model.pool_head_self_ms": ("ms", "lower", "train_rows_per_s on every workload"),
    "model.checkpoint_save_ms": ("ms", "lower", "run_s on finetune_ckpt"),
    "model.checkpoint_load_ms": ("ms", "lower", "run_s on finetune_ckpt"),
    "weights.load_MB_per_s": (
        "MB/s", "higher", "setup_s on frozen_train; run_s on finetune_ckpt"),
    "weights.save_MB_per_s": ("MB/s", "higher", "run_s on finetune_ckpt"),
    "weights.bytes_read": ("bytes", "lower", "setup_s on frozen_train; run_s on finetune_ckpt"),
    "weights.bytes_written": ("bytes", "lower", "run_s on finetune_ckpt"),
    "data.load_csv_rows_per_s": (
        "rows/s", "higher", "setup_s and run_s on ingest_noenc (<1 % of frozen_train)"),
    "data.split_ms": ("ms", "lower", "setup_s and run_s on ingest_noenc"),
    "data.oversample_ms": ("ms", "lower", "setup_s and run_s on ingest_noenc"),
    "data.fit_rows_per_s": ("rows/s", "higher", "setup_s and run_s on ingest_noenc"),
    "data.transform_rows_per_s": ("rows/s", "higher", "setup_s and run_s on ingest_noenc"),
    "metrics.eval_ms": ("ms", "lower", "run_s on every workload (a small share)"),
    "bench.optimizer_ms": (
        "ms", "lower", "no user-facing metric: the harness's share of train_step_ms"),
    "bench.trace_overhead_pct": (
        "%", "lower", "no user-facing metric: the traced job's span count times the cost "
                      "of one span, over the untraced run_s"),
}


def _file_size(args, result) -> int:
    return os.path.getsize(args[0])


def _dataset_rows(args, result) -> int:
    return len(args[1])


def _result_rows(args, result) -> int:
    return len(result)


def _targets():
    """(owner, attribute, span name, size function) for every wrapped function."""
    out = [(T, op, f"tensor.{op}", None) for op in FORWARD_OPS + ("backward", "zero_grads")]
    out += [
        (wio, "save_tensors", "weights.save_tensors", _file_size),
        (wio, "load_tensors", "weights.load_tensors", _file_size),
        (enc, "encoder_forward", "encoder.encoder_forward", None),
        (enc, "load_weights", "encoder.load_weights", None),
        (enc, "bundle_from_tensors", "encoder.bundle_from_tensors", None),
        (enc.EncoderBundle, "checksum", "encoder.checksum", None),
        (M, "build_model", "model.build_model", None),
        (M, "adapter_forward", "model.adapter_forward", None),
        (M, "assemble_tabular_sequence", "model.assemble_tabular_sequence", None),
        (M, "model_forward", "model.model_forward", None),
        (M, "save_checkpoint", "model.save_checkpoint", None),
        (M, "load_checkpoint", "model.load_checkpoint", None),
        (D, "load_csv", "data.load_csv", _result_rows),
        (D, "split", "data.split", None),
        (D, "oversample", "data.oversample", None),
        (D.Preprocessor, "fit", "data.fit", _dataset_rows),
        (D.Preprocessor, "transform", "data.transform", _dataset_rows),
        (MT.ConfusionMatrix, "from_predictions", "metrics.from_predictions", None),
        (MT, "mcc", "metrics.mcc", None),
    ]
    return out


class Tracer:
    """In-memory spans: (span id, parent id, name, start, end, run id, size)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.run_id = "job"
        self._stack: list[int | None] = [None]

    def _open(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent, name: str, start: float, size) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, end, self.run_id, size)

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, None)

    def wrap(self, fn, name: str, size_of):
        def traced(*args, **kwargs):
            sid, parent = self._open(name)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(sid, parent, name, start,
                            size_of(args, result) if size_of is not None else None)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        saved = []
        try:
            for owner, attr, name, size_of in _targets():
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, size_of)))
                else:
                    setattr(owner, attr, self.wrap(raw, name, size_of))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path: Path, header: dict) -> None:
        with path.open("w") as fh:
            fh.write(json.dumps({**header, "fields": ["span_id", "parent_id", "name", "start",
                                                      "end", "run_id", "size"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """What one traced call costs beyond the same call untraced, in seconds."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "noop", None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def run_probes(w: Workload, files, seed: int, job: JobStats, work_dir: Path,
               ledger: Ledger, tracer: Tracer) -> None:
    """Time single layers in isolation on this workload's own inputs.

    Every workload probes the encoder blocks of its generated checkpoint and
    its own trained adapter. Workloads whose job writes no checkpoint save
    and reload their trained model once; the no-encoder workload also runs a
    few taped steps of the frozen-shape encoder arm, so encoder and attention
    numbers exist for it too.
    """
    rng = np.random.default_rng(seed)
    bundle = enc.load_weights(files.checkpoint, w.encoder_cfg)
    cfg = bundle.config
    x0 = rng.normal(size=(PROBE_BATCH, cfg.max_seq, cfg.dim))
    for _ in range(PROBE_REPS):
        for i in range(LAYER_RANGE.start, LAYER_RANGE.end):
            for weights_tracked, bwd in ((False, "bench.probe.block_bwd_input"),
                                         (True, "bench.probe.block_bwd_weights")):
                bundle.set_tracked(weights_tracked)
                x = T.Tensor(x0, tracked=True)
                with ledger.op("block probe"):
                    with T.Tape():
                        with tracer.span("bench.probe.block_fwd"):
                            out = enc.encoder_forward(x, bundle, enc.LayerRange(i, i + 1))
                        loss = T.tsum(out)
                    with tracer.span(bwd):
                        T.backward(loss)
                T.zero_grads(bundle.parameters())

    adapter = job.model.adapter
    rows = job.prepared.X_train[:w.batch]
    for _ in range(PROBE_REPS):
        with ledger.op("adapter probe"):
            with T.Tape():
                with tracer.span("bench.probe.adapter_fwd"):
                    out = M.adapter_forward(rows, adapter)
                loss = T.tsum(out)
            with tracer.span("bench.probe.adapter_bwd"):
                T.backward(loss)
        T.zero_grads(adapter.parameters())

    if not w.checkpoint_every_epoch:
        path = work_dir / "probe-model.f64"
        with ledger.op("checkpoint save"):
            M.save_checkpoint(job.model, path)
        with ledger.op("checkpoint load"):
            M.load_checkpoint(path)

    if not w.use_encoder:
        X, y = job.prepared.X_train, job.prepared.y_train
        arm = M.build_model(
            M.AdapterConfig(input_dim=X.shape[1], n_views=cfg.max_seq - 1, out_dim=cfg.dim),
            M.HeadConfig(in_dim=cfg.dim, n_classes=job.model.head.config.n_classes),
            bundle=bundle, layer_range=LAYER_RANGE, seed=seed)
        M.set_freeze_mode(arm, "frozen")
        stats = JobStats()
        n = PROBE_BATCH * PROBE_STEPS
        opt = Adam([p for p in arm.parameters() if p.tracked], lr=LEARNING_RATE)
        train_steps(arm, opt, X, y, PROBE_BATCH, rng.permutation(n), stats, ledger, tracer)
        score(arm, X[:n], PROBE_BATCH, stats, ledger, tracer)


class _Index:
    """Per-span durations, self times and the enclosing train step / eval batch."""

    def __init__(self, spans):
        n = len(spans)
        self.spans = spans
        self.dur = [s[4] - s[3] for s in spans]
        self.child = [0.0] * n        # time covered by direct children
        self.child_layer = [0.0] * n  # ... by direct children that are not tensor ops
        self.step: list[int | None] = [None] * n
        self.eval: list[int | None] = [None] * n
        for sid, parent, name, *_ in spans:  # a parent always opens before its children
            if parent is not None:
                self.child[parent] += self.dur[sid]
                if not name.startswith("tensor."):
                    self.child_layer[parent] += self.dur[sid]
                self.step[sid], self.eval[sid] = self.step[parent], self.eval[parent]
            if name == "bench.train_step":
                self.step[sid] = sid
            elif name == "bench.eval_batch":
                self.eval[sid] = sid

    def self_ms(self, sid: int) -> float:
        return (self.dur[sid] - self.child[sid]) * 1e3

    def select(self, name: str, run: str | None = None, where=None) -> list[int]:
        return [s[0] for s in self.spans if s[2] == name and (run is None or s[5] == run)
                and (where is None or where(s[0]))]

    def median_ms(self, sids: list[int]) -> float:
        return float(np.median([self.dur[s] for s in sids]) * 1e3) if sids else float("nan")


def per_layer_metrics(tracer: Tracer, traced: JobStats, untraced: JobStats,
                      gc_before: list[dict], gc_after: list[dict]) -> tuple[dict, set[str]]:
    """Every PER_LAYER value, and the names whose value came from the probes.

    Per-step numbers come from the job's train steps. When the job never
    calls a function in a train step or eval batch (the encoder on the
    no-encoder workload), its number comes from the probe steps instead.
    """
    ix = _Index(tracer.spans)
    from_probe: set[str] = set()
    steps = {run: ix.select("bench.train_step", run) for run in ("job", "probe")}
    in_step, in_eval = (lambda s: ix.step[s] is not None), (lambda s: ix.eval[s] is not None)

    def per_call_ms(metric: str, name: str, where) -> float:
        sids = ix.select(name, "job", where)
        if not sids:
            sids = ix.select(name, "probe", where)
            from_probe.add(metric)
        return ix.median_ms(sids)

    per_op: dict[str, dict[str, list[float]]] = {"job": defaultdict(list),
                                                 "probe": defaultdict(list)}
    for s in tracer.spans:
        op = s[2].removeprefix("tensor.")
        if s[2].startswith("tensor.") and op in FORWARD_OPS and ix.step[s[0]] is not None:
            per_op[s[5]][op if op in OP_GROUPS else "other"].append(ix.self_ms(s[0]))
    m: dict[str, float] = {}
    for group in OP_GROUPS + ("other",):
        run = "job" if per_op["job"][group] else "probe"
        if run == "probe":
            from_probe.add(f"tensor.{group}_self_ms")
        m[f"tensor.{group}_self_ms"] = sum(per_op[run][group]) / max(len(steps[run]), 1)

    n_steps = max(len(steps["job"]), 1)
    m["tensor.tape_records_per_step"] = float(np.mean(traced.tape_records))
    m["tensor.op_calls_per_step"] = sum(len(v) for v in per_op["job"].values()) / n_steps
    m["tensor.backward_ms"] = sum(
        ix.dur[s] for s in ix.select("tensor.backward", "job", in_step)) * 1e3 / n_steps
    m["bench.optimizer_ms"] = sum(
        ix.dur[s] for s in ix.select("bench.optimizer", "job")) * 1e3 / n_steps

    full_before, full_after = gc_before[-1]["collections"], gc_after[-1]["collections"]
    m["runtime.gc_full_collections"] = float(full_after - full_before)
    m["runtime.gc_collected_objects"] = float(
        sum(a["collected"] - b["collected"] for a, b in zip(gc_after, gc_before)))

    m["encoder.forward_ms"] = per_call_ms("encoder.forward_ms", "encoder.encoder_forward",
                                          in_step)
    m["encoder.forward_untaped_ms"] = per_call_ms(
        "encoder.forward_untaped_ms", "encoder.encoder_forward", in_eval)
    for probe in ("block_fwd", "block_bwd_input", "block_bwd_weights"):
        m[f"encoder.{probe}_ms"] = ix.median_ms(ix.select(f"bench.probe.{probe}"))
    m["encoder.load_weights_ms"] = ix.median_ms(ix.select("encoder.load_weights"))
    m["encoder.checksum_ms"] = ix.median_ms(ix.select("encoder.checksum"))

    m["model.adapter_fwd_ms"] = ix.median_ms(ix.select("bench.probe.adapter_fwd"))
    m["model.adapter_bwd_ms"] = ix.median_ms(ix.select("bench.probe.adapter_bwd"))
    m["model.assemble_ms"] = per_call_ms("model.assemble_ms",
                                         "model.assemble_tabular_sequence", in_step)
    forwards = ix.select("model.model_forward", "job", in_step)
    m["model.pool_head_self_ms"] = float(np.median(
        [ix.dur[s] - ix.child_layer[s] for s in forwards]) * 1e3)
    m["model.checkpoint_save_ms"] = ix.median_ms(ix.select("model.save_checkpoint"))
    m["model.checkpoint_load_ms"] = ix.median_ms(ix.select("model.load_checkpoint"))

    for kind, fn in (("load", "weights.load_tensors"), ("save", "weights.save_tensors")):
        sids = ix.select(fn)
        nbytes = sum(tracer.spans[s][6] for s in sids)
        m[f"weights.{kind}_MB_per_s"] = nbytes / 1e6 / sum(ix.dur[s] for s in sids)
    for kind, fn in (("read", "weights.load_tensors"), ("written", "weights.save_tensors")):
        m[f"weights.bytes_{kind}"] = float(sum(tracer.spans[s][6]
                                               for s in ix.select(fn, "job")))

    def rows_per_s(name: str) -> float:
        sids = ix.select(name, "job")
        return sum(tracer.spans[s][6] for s in sids) / sum(ix.dur[s] for s in sids)

    m["data.load_csv_rows_per_s"] = rows_per_s("data.load_csv")
    m["data.split_ms"] = ix.median_ms(ix.select("data.split", "job"))
    m["data.oversample_ms"] = ix.median_ms(ix.select("data.oversample", "job"))
    m["data.fit_rows_per_s"] = rows_per_s("data.fit")
    m["data.transform_rows_per_s"] = rows_per_s("data.transform")

    evals = ix.select("metrics.mcc", "job")
    eval_s = sum(ix.dur[s] for s in evals + ix.select("metrics.from_predictions", "job"))
    m["metrics.eval_ms"] = eval_s * 1e3 / max(len(evals), 1)
    job_spans = sum(1 for s in tracer.spans if s[5] == "job")
    m["bench.trace_overhead_pct"] = job_spans * span_cost_s() / untraced.run_s * 100.0
    return m, from_probe
