"""Seeded input generator: a CSV, its JSON schema and an encoder checkpoint.

The rows carry a learnable signal for three imbalanced classes: numeric
columns are shifted by a per-class mean and categorical columns favour a
per-class level, with the same signal strength for every seed. About 2 %
of numeric cells are left empty (missing). The same seed always gives
byte-identical files, so a run can be repeated exactly and two commits see
the same inputs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vistab import encoder as enc

CLASS_PRIORS = (0.6, 0.3, 0.1)
MISSING_SHARE = 0.02
CATEGORY_SIGNAL = 0.25  # share of categorical cells that take their class's preferred level


@dataclass(frozen=True)
class DataShape:
    rows: int
    n_numeric: int
    n_categorical: int
    separation: float  # distance of each class's numeric mean from the origin, in noise units


@dataclass(frozen=True)
class InputFiles:
    csv: Path
    schema: Path
    checkpoint: Path


def generate(out_dir: Path, shape: DataShape, encoder_cfg: enc.EncoderConfig,
             seed: int) -> InputFiles:
    """Write `data.csv`, `schema.json` and `encoder.f64` under `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    n, k = shape.rows, len(CLASS_PRIORS)
    # exact class counts: every seed gives the same split and oversampling sizes
    counts = np.floor(np.array(CLASS_PRIORS) * n).astype(np.int64)
    counts[0] += n - counts.sum()
    labels = rng.permutation(np.repeat(np.arange(k), counts))

    # orthonormal class directions: every seed gets the same class separation
    directions, _ = np.linalg.qr(rng.normal(size=(shape.n_numeric, k)))
    class_means = shape.separation * directions.T
    offsets = rng.normal(0.0, 5.0, shape.n_numeric)
    scales = rng.uniform(0.5, 20.0, shape.n_numeric)
    numeric = offsets + scales * (class_means[labels] + rng.normal(size=(n, shape.n_numeric)))
    missing = rng.random((n, shape.n_numeric)) < MISSING_SHARE

    # each class prefers its own level of every categorical column
    categorical = np.empty((n, shape.n_categorical), dtype=np.int64)
    for j, n_levels in enumerate(rng.integers(k, k + 4, shape.n_categorical)):
        preferred = rng.permutation(n_levels)[:k]
        uniform = rng.integers(0, n_levels, n)
        categorical[:, j] = np.where(rng.random(n) < CATEGORY_SIGNAL, preferred[labels], uniform)

    num_names = [f"num{j}" for j in range(shape.n_numeric)]
    cat_names = [f"cat{j}" for j in range(shape.n_categorical)]
    columns = num_names + cat_names + ["label"]
    files = InputFiles(out_dir / "data.csv", out_dir / "schema.json", out_dir / "encoder.f64")

    num_text = [["" if miss else f"{v:.6g}" for v, miss in zip(row, mrow)]
                for row, mrow in zip(numeric.tolist(), missing.tolist())]
    with files.csv.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for cells, cats, y in zip(num_text, categorical.tolist(), labels.tolist()):
            writer.writerow(cells + [f"L{c}" for c in cats] + [f"class{y}"])

    kinds = {c: "numeric" for c in num_names} | {c: "categorical" for c in cat_names}
    files.schema.write_text(json.dumps({"label": "label", "kinds": kinds}, sort_keys=True))
    enc.save_weights(enc.random_bundle(encoder_cfg, seed=seed), files.checkpoint)
    return files
