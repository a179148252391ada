"""Workload definitions and one whole job: CSV -> split -> preprocess -> train -> test MCC.

The job drives only the public functions of the `vistab` modules. It owns
the two pieces the library does not have yet: an Adam optimizer and a
fixed-epoch training loop. Every train step, eval batch, checkpoint
save/load and output check is one operation in the `Ledger`; a raised
error or a failed check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vistab import data as D
from vistab import encoder as enc
from vistab import metrics as MT
from vistab import model as M
from vistab import tensor as T

from bench_gen import DataShape, InputFiles

VIT_TINY = enc.EncoderConfig(depth=12, dim=192, heads=3, max_seq=17)
LAYER_RANGE = enc.LayerRange(0, 2)  # the encoder slice the model runs
LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: DataShape
    encoder_cfg: enc.EncoderConfig  # shape of the generated checkpoint
    use_encoder: bool  # False is the no-encoder ablation arm (bundle=None)
    freeze_mode: str
    n_views: int
    out_dim: int  # adapter width; equals the encoder dim when the encoder is used
    batch: int
    epochs: int
    checkpoint_every_epoch: bool
    # Validation passes per epoch. Passes spread the scoring over the whole job, so that
    # the eval batches sample the machine's fast and slow spells as the train steps do.
    # A pass is cheap on the no-encoder arm (about 0.05 s), so that arm makes many.
    valid_per_epoch: int


WORKLOADS = {w.name: w for w in (
    Workload(
        name="frozen_train",
        why="the paper's main arm: taped forward and input-only backward through a "
            "frozen ViT-Tiny slice do most of the work",
        data=DataShape(rows=2000, n_numeric=14, n_categorical=7, separation=3.0),
        encoder_cfg=VIT_TINY, use_encoder=True, freeze_mode="frozen",
        n_views=16, out_dim=VIT_TINY.dim, batch=16, epochs=2,
        checkpoint_every_epoch=False, valid_per_epoch=4),
    Workload(
        name="finetune_ckpt",
        why="same encoder with weight gradients and a checkpoint write per epoch, so a "
            "frozen-path gain that slows weight backward or checkpoint I/O shows",
        data=DataShape(rows=2000, n_numeric=14, n_categorical=7, separation=3.0),
        encoder_cfg=VIT_TINY, use_encoder=True, freeze_mode="fine_tune",
        n_views=16, out_dim=VIT_TINY.dim, batch=16, epochs=2,
        checkpoint_every_epoch=True, valid_per_epoch=4),
    Workload(
        name="ingest_noenc",
        why="no-encoder arm on a wide 100k-row CSV: the data layer does most of the "
            "work and an encoder change must leave it unchanged",
        data=DataShape(rows=100_000, n_numeric=24, n_categorical=11, separation=2.0),
        encoder_cfg=VIT_TINY, use_encoder=False, freeze_mode="frozen",
        n_views=8, out_dim=32, batch=256, epochs=1,
        checkpoint_every_epoch=False, valid_per_epoch=16),
)}


class NullTracer:
    """Stands in for `bench_trace.Tracer` when a run is not traced."""

    def span(self, name: str):
        return contextlib.nullcontext()


@dataclass
class Ledger:
    """Counts attempted and failed operations; a failed check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @contextlib.contextmanager
    def op(self, what: str):
        self.attempted += 1
        try:
            yield
        except Exception:  # one failed operation must not end the run; it is counted
            self.failed += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {what}")
        return ok


class Adam:
    """Adam over the tracked parameters; updates rebind `p.data` out of place.

    Reloaded F64 weights are read-only `np.frombuffer` views, so an in-place
    update would raise on a model that came from a checkpoint.
    """

    def __init__(self, params: list[T.Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr, (self.b1, self.b2), self.eps = lr, betas, eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.b1 ** self.t
        c2 = 1.0 - self.b2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:  # outside the encoder slice: no gradient reaches it
                continue
            self.m[i] = self.b1 * self.m[i] + (1.0 - self.b1) * p.grad
            self.v[i] = self.b2 * self.v[i] + (1.0 - self.b2) * p.grad * p.grad
            p.data = p.data - self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)
        T.zero_grads(self.params)


@dataclass
class Prepared:
    model: M.VisTabNet
    X_train: np.ndarray
    y_train: np.ndarray
    X_valid: np.ndarray
    y_valid: np.ndarray
    test: D.TabularDataset
    preprocessor: D.Preprocessor


def setup(w: Workload, files: InputFiles, seed: int) -> Prepared:
    """From the input files to a ready model: everything `setup_s` covers."""
    ds = D.load_csv(files.csv, files.schema)
    train, valid, test = D.split(ds, D.SplitSpec(seed=seed))
    pp = D.Preprocessor().fit(train)
    over = D.oversample(train, seed=seed)
    X_train, y_train = pp.transform(over), over.y
    X_valid, y_valid = pp.transform(valid), valid.y
    bundle = enc.load_weights(files.checkpoint, w.encoder_cfg) if w.use_encoder else None
    model = M.build_model(
        M.AdapterConfig(input_dim=pp.output_dim, n_views=w.n_views, out_dim=w.out_dim),
        M.HeadConfig(in_dim=w.out_dim, n_classes=ds.class_count),
        bundle=bundle, layer_range=LAYER_RANGE if bundle else None,
        seed=seed)
    if bundle is not None:
        M.set_freeze_mode(model, w.freeze_mode)
    return Prepared(model, X_train, y_train, X_valid, y_valid, test, pp)


@dataclass
class JobStats:
    setup_s: float = 0.0
    run_s: float = 0.0
    step_ms: list[float] = field(default_factory=list)
    tape_records: list[int] = field(default_factory=list)
    train_rows: int = 0
    scored_rows: int = 0
    score_rows_per_s: list[float] = field(default_factory=list)  # one per eval batch
    test_mcc: float = float("nan")
    model: M.VisTabNet | None = None
    prepared: Prepared | None = None


def train_steps(model: M.VisTabNet, opt: Adam, X: np.ndarray, y: np.ndarray, batch: int,
                order: np.ndarray, stats: JobStats, ledger: Ledger, tracer) -> None:
    """Steps over the rows `order` lists; a step's time covers forward, loss, backward, Adam."""
    for lo in range(0, len(order), batch):
        idx = order[lo:lo + batch]
        start = time.perf_counter()
        with ledger.op("train step"), tracer.span("bench.train_step"):
            with T.Tape() as tape:
                loss = T.cross_entropy(M.model_forward(X[idx], model), y[idx])
            T.backward(loss)
            with tracer.span("bench.optimizer"):
                opt.step()
            stats.tape_records.append(len(tape))
        stats.step_ms.append((time.perf_counter() - start) * 1e3)
        stats.train_rows += len(idx)


def score(model: M.VisTabNet, X: np.ndarray, batch: int, stats: JobStats, ledger: Ledger,
          tracer) -> np.ndarray:
    """Forward-only predictions in batches of `batch` rows; every logit must be finite."""
    preds = np.zeros(len(X), dtype=np.int64)
    for lo in range(0, len(X), batch):
        rows = X[lo:lo + batch]
        logits = None
        start = time.perf_counter()
        with ledger.op("eval batch"), tracer.span("bench.eval_batch"):
            logits = M.model_forward(rows, model).data
            preds[lo:lo + len(rows)] = logits.argmax(axis=1)
        stats.score_rows_per_s.append(len(rows) / (time.perf_counter() - start))
        stats.scored_rows += len(rows)
        if logits is not None:
            ledger.check(bool(np.isfinite(logits).all()), "every logit is finite")
    return preds


def evaluate_mcc(y_true: np.ndarray, preds: np.ndarray, n_classes: int, tracer) -> float:
    with tracer.span("bench.evaluate"):
        return MT.mcc(MT.ConfusionMatrix.from_predictions(y_true, preds, n_classes))


def check_checkpoint_roundtrip(model: M.VisTabNet, path: Path, probe: np.ndarray,
                               ledger: Ledger) -> M.VisTabNet:
    """Reload the last checkpoint; logits and re-saved bytes must match exactly."""
    before = M.model_forward(probe, model).data
    loaded = model
    with ledger.op("checkpoint load"):
        loaded = M.load_checkpoint(path)
    after = M.model_forward(probe, loaded).data
    ledger.check(np.array_equal(before, after), "checkpoint reload gives identical logits")
    resaved = path.with_name(path.stem + "-resaved.f64")
    with ledger.op("checkpoint save"):
        M.save_checkpoint(loaded, resaved)
    ledger.check(resaved.exists() and resaved.read_bytes() == path.read_bytes(),
                 "re-saving a reloaded checkpoint gives identical bytes")
    return loaded


def run_job(w: Workload, files: InputFiles, seed: int, work_dir: Path,
            ledger: Ledger, tracer=None) -> JobStats:
    """One whole job with a fixed number of epochs and no early stopping."""
    tracer = tracer or NullTracer()
    stats = JobStats()
    start = time.perf_counter()
    with tracer.span("bench.setup"):
        prep = setup(w, files, seed)
    stats.setup_s = time.perf_counter() - start
    model = prep.model
    n_classes = model.head.config.n_classes
    opt = Adam([p for p in model.parameters() if p.tracked], lr=LEARNING_RATE)
    rng = np.random.default_rng(seed)
    ckpt = work_dir / "model.f64"
    for _ in range(w.epochs):
        order = rng.permutation(len(prep.X_train))
        for part in np.array_split(order, w.valid_per_epoch):
            train_steps(model, opt, prep.X_train, prep.y_train, w.batch, part, stats, ledger,
                        tracer)
            evaluate_mcc(prep.y_valid, score(model, prep.X_valid, w.batch, stats, ledger, tracer),
                         n_classes, tracer)
        if w.checkpoint_every_epoch:
            with ledger.op("checkpoint save"), tracer.span("bench.checkpoint"):
                M.save_checkpoint(model, ckpt)
    if model.encoder is not None and w.freeze_mode == "frozen":
        ledger.check(model.encoder.checksum() == model.encoder.load_checksum,
                     "frozen encoder checksum unchanged by training")
    if w.checkpoint_every_epoch:
        with tracer.span("bench.checkpoint"):
            model = check_checkpoint_roundtrip(model, ckpt, prep.X_valid[:w.batch], ledger)

    ledger.check(prep.test.access_count == 0, "test partition unread before final evaluation")
    with tracer.span("bench.final_eval"):
        X_test, y_test = prep.preprocessor.transform(prep.test), prep.test.y
        stats.test_mcc = evaluate_mcc(
            y_test, score(model, X_test, w.batch, stats, ledger, tracer), n_classes, tracer)
    stats.run_s = time.perf_counter() - start
    stats.model, stats.prepared = model, prep
    return stats
