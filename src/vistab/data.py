"""Tabular ingestion, preprocessing, splitting, oversampling, few-shot subsets.

The split protocol is fixed at test = 5/20 of the dataset, valid = 1/5 of
the remainder, train = the rest (so 12/20, 3/20, 5/20 overall), stratified
by default. Preprocessing statistics always come from the partition the
preprocessor was fitted on, never from the partition being transformed.

Feature and label reads go through the ``X`` / ``y`` properties, which
bump ``access_count``; experiment drivers use the counter on the test
partition to prove that nothing touched held-out data before final
evaluation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, ContractError, CsvParseError, StateError,
                     StratificationError)

MISSING_TOKEN = "<missing>"

NUMERIC = "numeric"
CATEGORICAL = "categorical"


class TabularDataset:
    """N x M_raw grid of numeric / category cells with integer labels."""

    def __init__(self, X: np.ndarray, y: np.ndarray, column_kinds: list[str],
                 class_count: int, name: str = "", label_names: list[str] | None = None):
        self._X = np.asarray(X, dtype=object)
        self._y = np.asarray(y, dtype=np.int64)
        if self._X.ndim != 2 or len(self._X) != len(self._y):
            raise ContractError("feature grid and labels disagree on row count")
        if self._y.size and (self._y.min() < 0 or self._y.max() >= class_count):
            raise ContractError(f"labels must lie in [0, {class_count})")
        if len(column_kinds) != self._X.shape[1]:
            raise ContractError("column_kinds length != column count")
        self.column_kinds = list(column_kinds)
        self.class_count = class_count
        self.name = name
        self.label_names = label_names or [str(i) for i in range(class_count)]
        self.access_count = 0

    @property
    def X(self) -> np.ndarray:
        self.access_count += 1
        return self._X

    @property
    def y(self) -> np.ndarray:
        self.access_count += 1
        return self._y

    def __len__(self) -> int:
        return len(self._y)

    @property
    def n_raw_columns(self) -> int:
        return self._X.shape[1]

    def take(self, indices) -> "TabularDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return TabularDataset(self.X[idx], self.y[idx], self.column_kinds,
                              self.class_count, name=self.name,
                              label_names=self.label_names)

    def class_indices(self) -> dict[int, np.ndarray]:
        y = self.y
        return {c: np.flatnonzero(y == c) for c in range(self.class_count)}


def merge(a: TabularDataset, b: TabularDataset) -> TabularDataset:
    """Concatenate two parts of the same dataset (e.g. train + valid)."""
    if a.column_kinds != b.column_kinds or a.class_count != b.class_count:
        raise ContractError("cannot merge datasets with different schemas")
    return TabularDataset(np.concatenate([a.X, b.X]), np.concatenate([a.y, b.y]),
                          a.column_kinds, a.class_count, name=a.name,
                          label_names=a.label_names)


def _parse_cell(raw: str, kind: str, row: int, col: int):
    text = raw.strip()
    if text in ("", "?"):
        return None
    if kind == NUMERIC:
        try:
            value = float(text)
        except ValueError:
            raise CsvParseError(
                f"row {row}: column {col} expected a number, got {text!r}")
        if not math.isfinite(value):  # one NaN would turn the column's statistics into NaN
            raise CsvParseError(
                f"row {row}: column {col} expected a finite number, got {text!r}")
        return value
    return text


def load_csv(path: str | Path, schema: dict | str | Path,
             name: str | None = None) -> TabularDataset:
    """Read a CSV file with a JSON schema declaring column kinds and label.

    Schema keys: ``label`` (column name, or 0-based index when there is no
    header), ``kinds`` (name -> "numeric"/"categorical" mapping, or a list
    in file order), ``header`` (default true). Cells "" and "?" are missing.
    """
    if isinstance(schema, (str, Path)):
        schema = json.loads(Path(schema).read_text())
    if not isinstance(schema, dict) or "label" not in schema:
        raise ConfigError("schema must be a JSON object with a 'label' key")
    kinds_decl = schema.get("kinds", {})
    if not isinstance(kinds_decl, (list, dict)):
        raise ConfigError(f"schema 'kinds' must be a list or an object, got {kinds_decl!r}")
    header = schema.get("header", True)
    path = Path(path)

    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CsvParseError(f"{path}: file is empty")

    if header:
        columns = [c.strip() for c in rows[0]]
        body = rows[1:]
        first_row = 2  # 1-based file line of the first data row
    else:
        columns = [str(i) for i in range(len(rows[0]))]
        body = rows
        first_row = 1
    if not body:
        raise CsvParseError(f"{path}: no data rows")

    label = schema["label"]
    label_col = str(label) if not header else label
    if label_col not in columns:
        raise CsvParseError(f"{path}: label column {label!r} not found")
    label_idx = columns.index(label_col)

    if isinstance(kinds_decl, list):
        if len(kinds_decl) > len(columns):
            raise ConfigError(f"schema 'kinds' has {len(kinds_decl)} entries for "
                              f"{len(columns)} columns")
        kinds_by_col = dict(zip(columns, kinds_decl))
    else:
        kinds_by_col = dict(kinds_decl)
    feature_cols = [c for i, c in enumerate(columns) if i != label_idx]
    kinds = []
    for c in feature_cols:
        kind = kinds_by_col.get(c, CATEGORICAL)
        if kind not in (NUMERIC, CATEGORICAL):
            raise CsvParseError(f"{path}: column {c!r} has unknown kind {kind!r}")
        kinds.append(kind)

    grid = []
    labels_raw = []
    for offset, row in enumerate(body):
        line = first_row + offset
        if len(row) != len(columns):
            raise CsvParseError(
                f"{path}: row {line} has {len(row)} cells, expected {len(columns)}")
        cells = []
        feat_i = 0
        for col_i, raw in enumerate(row):
            if col_i == label_idx:
                labels_raw.append(raw.strip())
            else:
                cells.append(_parse_cell(raw, kinds[feat_i], line, col_i))
                feat_i += 1
        grid.append(cells)

    vocab = sorted(set(labels_raw))
    y = np.array([vocab.index(v) for v in labels_raw], dtype=np.int64)
    X = np.empty((len(grid), len(feature_cols)), dtype=object)
    for i, cells in enumerate(grid):
        X[i, :] = cells
    return TabularDataset(X, y, kinds, class_count=len(vocab),
                          name=name or path.stem, label_names=vocab)


@dataclass(frozen=True)
class SplitSpec:
    seed: int = 0
    stratified: bool = True
    # fractions are fixed by the protocol: test 5/20, valid 3/20, train 12/20


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split_sizes(n: int) -> tuple[int, int, int]:
    """(train, valid, test) sizes for the 12/20, 3/20, 5/20 protocol."""
    n_test = _round_half_up(n * 5 / 20)
    n_valid = _round_half_up((n - n_test) / 5)
    return n - n_test - n_valid, n_valid, n_test


def _largest_remainder(avail: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation proportional to `avail`, off by < 1 per class."""
    if total == 0:
        return np.zeros_like(avail)
    quota = avail * total / avail.sum()
    base = np.floor(quota).astype(np.int64)
    base = np.minimum(base, avail)
    short = total - base.sum()
    frac = quota - np.floor(quota)
    frac[base >= avail] = -1.0  # cannot take more than available
    for idx in np.argsort(-frac, kind="stable"):
        if short == 0:
            break
        if base[idx] < avail[idx]:
            base[idx] += 1
            short -= 1
    return base


def split(dataset: TabularDataset,
          spec: SplitSpec) -> tuple[TabularDataset, TabularDataset, TabularDataset]:
    """Disjoint, exhaustive (train, valid, test) parts, seeded."""
    n = len(dataset)
    n_train, n_valid, n_test = split_sizes(n)
    rng = np.random.default_rng(spec.seed)

    if not spec.stratified:
        order = rng.permutation(n)
        test_idx = order[:n_test]
        valid_idx = order[n_test:n_test + n_valid]
        train_idx = order[n_test + n_valid:]
    else:
        if n < dataset.class_count:
            raise StratificationError(
                f"{n} samples cannot cover {dataset.class_count} classes")
        per_class = dataset.class_indices()
        counts = np.array([len(per_class[c]) for c in range(dataset.class_count)])
        test_alloc = _largest_remainder(counts, n_test)
        valid_alloc = _largest_remainder(counts - test_alloc, n_valid)
        train_idx, valid_idx, test_idx = [], [], []
        for c in range(dataset.class_count):
            order = rng.permutation(per_class[c])
            a, b = test_alloc[c], test_alloc[c] + valid_alloc[c]
            test_idx.extend(order[:a])
            valid_idx.extend(order[a:b])
            train_idx.extend(order[b:])
            if len(order[b:]) == 0:
                raise StratificationError(
                    f"class {dataset.label_names[c]!r} has no training samples "
                    f"after the split")
        train_idx = np.array(train_idx, dtype=np.int64)
        valid_idx = np.array(valid_idx, dtype=np.int64)
        test_idx = np.array(test_idx, dtype=np.int64)

    return dataset.take(train_idx), dataset.take(valid_idx), dataset.take(test_idx)


def oversample(train: TabularDataset, seed: int = 0) -> TabularDataset:
    """Random oversampling with replacement up to the majority class count."""
    per_class = train.class_indices()
    counts = {c: len(idx) for c, idx in per_class.items()}
    if min(counts.values()) == 0:
        empty = [train.label_names[c] for c, k in counts.items() if k == 0]
        raise ContractError(f"cannot oversample empty classes: {empty}")
    majority = max(counts.values())
    rng = np.random.default_rng(seed)
    extra = []
    for c in range(train.class_count):
        deficit = majority - counts[c]
        if deficit:
            extra.extend(rng.choice(per_class[c], size=deficit, replace=True))
    if not extra:
        return train.take(np.arange(len(train)))
    all_idx = np.concatenate([np.arange(len(train)), np.array(extra, dtype=np.int64)])
    return train.take(all_idx)


def nshot_subsample(train: TabularDataset, shots: int, seed: int = 0) -> TabularDataset:
    """Exactly `shots` rows per class, drawn without replacement."""
    per_class = train.class_indices()
    rng = np.random.default_rng(seed)
    chosen = []
    for c in range(train.class_count):
        idx = per_class[c]
        if len(idx) < shots:
            raise ContractError(
                f"class {train.label_names[c]!r} has {len(idx)} samples, "
                f"needs {shots}")
        chosen.extend(rng.choice(idx, size=shots, replace=False))
    return train.take(np.array(chosen, dtype=np.int64))


class Preprocessor:
    """Column statistics fitted on one partition, applied to any other.

    Numeric columns standardize with the fitted mean and population std
    (floored at 1e-8); missing numerics impute the fitted median. Categorical
    columns one-hot against the fitted vocabulary; missing cells use a
    dedicated token when the fitting data had any, and unseen categories map
    to the all-zero block.
    """

    def __init__(self):
        self._fitted = False
        self.column_kinds: list[str] = []
        self.numeric_stats: dict[int, tuple[float, float, float]] = {}  # mean, std, median
        self.vocabularies: dict[int, list[str]] = {}
        self.output_dim = 0

    def fit(self, dataset: TabularDataset) -> "Preprocessor":
        self.column_kinds = list(dataset.column_kinds)
        X = dataset.X
        self.numeric_stats.clear()
        self.vocabularies.clear()
        dim = 0
        for j, kind in enumerate(self.column_kinds):
            col = X[:, j]
            if kind == NUMERIC:
                vals = np.array([v for v in col if v is not None], dtype=np.float64)
                median = float(np.median(vals)) if vals.size else 0.0
                filled = np.array([median if v is None else v for v in col],
                                  dtype=np.float64)
                mean = float(filled.mean()) if filled.size else 0.0
                std = float(filled.std())  # population std
                self.numeric_stats[j] = (mean, max(std, 1e-8), median)
                dim += 1
            else:
                tokens = sorted({v for v in col if v is not None})
                if any(v is None for v in col):
                    tokens.append(MISSING_TOKEN)
                self.vocabularies[j] = tokens
                dim += len(tokens)
        self.output_dim = dim
        self._fitted = True
        return self

    def transform(self, dataset: TabularDataset) -> np.ndarray:
        if not self._fitted:
            raise StateError("transform called before fit")
        if list(dataset.column_kinds) != self.column_kinds:
            raise ContractError("dataset schema differs from the fitted schema")
        X = dataset.X
        out = np.zeros((len(dataset), self.output_dim), dtype=np.float64)
        offset = 0
        for j, kind in enumerate(self.column_kinds):
            col = X[:, j]
            if kind == NUMERIC:
                mean, std, median = self.numeric_stats[j]
                vals = np.array([median if v is None else v for v in col],
                                dtype=np.float64)
                out[:, offset] = (vals - mean) / std
                offset += 1
            else:
                vocab = self.vocabularies[j]
                index = {tok: i for i, tok in enumerate(vocab)}
                has_missing = MISSING_TOKEN in index
                for i, v in enumerate(col):
                    if v is None:
                        if has_missing:
                            out[i, offset + index[MISSING_TOKEN]] = 1.0
                    elif v in index:
                        out[i, offset + index[v]] = 1.0
                    # unseen category: leave the zero block
                offset += len(vocab)
        return out

    def fit_transform(self, dataset: TabularDataset) -> np.ndarray:
        return self.fit(dataset).transform(dataset)
