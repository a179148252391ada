"""Tests of the benchmark itself: tiny runs of every workload, generator determinism,
and BENCHMARK.json agreeing with the metrics the code emits.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench_gen  # noqa: E402
import bench_run  # noqa: E402
from bench_job import WORKLOADS, Ledger, run_job  # noqa: E402
from bench_trace import PER_LAYER, Tracer  # noqa: E402
from vistab import encoder as enc  # noqa: E402
from vistab import model as M  # noqa: E402
from vistab import tensor as T  # noqa: E402

TINY_ENCODER = enc.EncoderConfig(depth=3, dim=16, heads=2, max_seq=9)
TINY_DATA = bench_gen.DataShape(rows=240, n_numeric=5, n_categorical=3, separation=2.0)


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w, data=TINY_DATA, encoder_cfg=TINY_ENCODER, n_views=8, epochs=1,
        out_dim=TINY_ENCODER.dim if w.use_encoder else 8,
        batch=16 if w.use_encoder else 32)


@pytest.fixture
def inputs(tmp_path):
    def make(w, seed=3):
        return bench_gen.generate(tmp_path / f"in-{seed}", w.data, w.encoder_cfg, seed)
    return make


def test_generator_is_deterministic(tmp_path):
    a = bench_gen.generate(tmp_path / "a", TINY_DATA, TINY_ENCODER, seed=7)
    b = bench_gen.generate(tmp_path / "b", TINY_DATA, TINY_ENCODER, seed=7)
    c = bench_gen.generate(tmp_path / "c", TINY_DATA, TINY_ENCODER, seed=8)
    for field in ("csv", "schema", "checkpoint"):
        assert getattr(a, field).read_bytes() == getattr(b, field).read_bytes()
    assert a.csv.read_bytes() != c.csv.read_bytes()
    assert a.checkpoint.read_bytes() != c.checkpoint.read_bytes()


def test_generated_csv_has_missing_cells_and_imbalanced_classes(tmp_path):
    shape = dataclasses.replace(TINY_DATA, rows=4000)
    files = bench_gen.generate(tmp_path, shape, TINY_ENCODER, seed=1)
    lines = files.csv.read_text().splitlines()
    numeric = [row.split(",")[:shape.n_numeric] for row in lines[1:]]
    missing = sum(cell == "" for row in numeric for cell in row) / (len(numeric) * shape.n_numeric)
    assert 0.01 < missing < 0.03
    labels = [row.rsplit(",", 1)[1] for row in lines[1:]]
    shares = sorted((labels.count(c) / len(labels) for c in set(labels)), reverse=True)
    assert len(shares) == 3 and shares[0] > 0.5 and shares[2] < 0.15


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_untraced_run_passes_every_check(name, inputs, tmp_path):
    w = tiny(name)
    ledger = Ledger()
    metrics, lines = bench_run.untraced_metrics(w, inputs(w), 3, 0.0, tmp_path, ledger)
    assert ledger.failures == []
    assert ledger.attempted > 0
    assert set(metrics) == set(bench_run.END_TO_END)
    assert -1.0 <= metrics.pop("test_mcc") <= 1.0  # a tiny frozen model may not learn
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
    assert len(lines) == len(bench_run.END_TO_END)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_layer(name, inputs, tmp_path):
    w = tiny(name)
    ledger = Ledger()
    originals = {op: getattr(T, op) for op in ("add", "matmul", "backward")}
    metrics, _ = bench_run.traced_metrics(w, inputs(w), 3, tmp_path, tmp_path, ledger,
                                          {"workload": name})
    assert ledger.failures == []
    assert set(metrics) == set(PER_LAYER)
    assert all(math.isfinite(v) and v >= 0 for v in metrics.values())
    assert all(metrics[n] > 0 for n, (unit, *_) in PER_LAYER.items() if unit == "ms")
    assert {op: getattr(T, op) for op in originals} == originals  # wrappers removed
    header, *spans = (json.loads(line) for line in
                      (tmp_path / f"trace-{name}.jsonl").read_text().splitlines())
    assert header["workload"] == name and len(spans) > 0


def test_training_the_frozen_encoder_fails_the_checksum_check(inputs, tmp_path, monkeypatch):
    w = tiny("frozen_train")
    real = M.set_freeze_mode
    monkeypatch.setattr(M, "set_freeze_mode", lambda model, mode: real(model, "fine_tune"))
    ledger = Ledger()
    run_job(w, inputs(w), 3, tmp_path, ledger)
    assert ledger.failed == 1
    assert "checksum" in ledger.failures[0]


def test_lossy_checkpoint_reload_fails_both_roundtrip_checks(inputs, tmp_path, monkeypatch):
    w = tiny("finetune_ckpt")
    real = M.load_checkpoint

    def lossy(path):
        model = real(path)
        weight, _bias = model.head.layers[0]
        weight.data = weight.data + 1e-3
        return model

    monkeypatch.setattr(M, "load_checkpoint", lossy)
    ledger = Ledger()
    run_job(w, inputs(w), 3, tmp_path, ledger)
    assert ledger.failed == 2
    assert "identical logits" in ledger.failures[0] and "identical bytes" in ledger.failures[1]


def test_failed_operation_is_counted_not_raised():
    ledger = Ledger()
    with ledger.op("step"):
        raise ValueError("boom")
    with ledger.op("step"):
        pass
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_tracer_nests_spans_and_restores_functions():
    tracer = Tracer()
    original = T.add
    with tracer.installed():
        with tracer.span("bench.outer"):
            T.tmean(T.Tensor([1.0, 2.0]))
    assert T.add is original
    names = {s[2]: s for s in tracer.spans}
    assert names["tensor.tsum"][1] == names["tensor.tmean"][0]
    assert names["tensor.tmean"][1] == names["bench.outer"][0]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == \
        bench_run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {name: (unit, better) for name, (unit, better, _moves) in PER_LAYER.items()}
