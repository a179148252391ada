"""The benchmark in `perfbench/` runs the library; these tests keep the two in step.

`perfbench/bench_trace.py` replaces ``owner.__dict__[attr]`` for every
target it lists, so each must stay an attribute of that very module or
class, not one it inherits or re-exports under another name.

Each workload's job also runs here at a tiny size, untraced, with every
output check it makes (finite logits, held-out access, the frozen
encoder's checksum, the checkpoint round trip): a check that fails would
otherwise show only as a benchmark run's ``success_rate`` below 1. Traced,
each must give a finite value for every per-layer metric, as strict JSON.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from vistab import encoder as enc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_NAMES = ["finetune_ckpt", "frozen_train", "ingest_noenc"]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_traced_target_is_an_own_attribute(perfbench):
    import bench_trace

    targets = bench_trace._targets()
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert targets and not missing


def tiny(name):
    """The workload `name` at a tiny size: one epoch of 240 rows on a depth-3, dim-16
    encoder."""
    import bench_gen
    from bench_job import WORKLOADS

    assert sorted(WORKLOADS) == WORKLOAD_NAMES
    encoder_cfg = enc.EncoderConfig(depth=3, dim=16, heads=2, max_seq=9)
    return dataclasses.replace(
        WORKLOADS[name], encoder_cfg=encoder_cfg, n_views=8, epochs=1,
        data=bench_gen.DataShape(rows=240, n_numeric=5, n_categorical=3, separation=2.0),
        out_dim=encoder_cfg.dim if WORKLOADS[name].use_encoder else 8,
        batch=16 if WORKLOADS[name].use_encoder else 32)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_untraced_job_passes_every_check(perfbench, name, tmp_path):
    import bench_gen
    from bench_job import Ledger, run_job

    w = tiny(name)
    files = bench_gen.generate(tmp_path / "in", w.data, w.encoder_cfg, seed=3)
    ledger = Ledger()
    run_job(w, files, 3, tmp_path, ledger)
    assert ledger.failures == []
    assert ledger.attempted > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_traced_run_reports_strict_json(perfbench, name, tmp_path):
    # a metric with no span to take a median of reads NaN, and run.py would print
    # its report as invalid JSON
    import bench_gen
    import bench_run
    from bench_job import Ledger

    w = tiny(name)
    files = bench_gen.generate(tmp_path / "in", w.data, w.encoder_cfg, seed=3)
    ledger = Ledger()
    metrics, _ = bench_run.traced_metrics(w, files, 3, tmp_path, tmp_path, ledger,
                                          {"workload": name})
    assert ledger.failures == []
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    json.dumps(metrics, allow_nan=False)
