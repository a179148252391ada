"""Tabular ingestion, preprocessing, splitting, oversampling, few-shot subsets.

A table is one float64 (N, M) grid: a numeric column holds its values, a
categorical column j each cell's index in ``categories[j]`` (the column's
names, stripped and sorted), and NaN marks a missing cell of either kind.

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
                     StratificationError, class_labels)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_MISSING = ("", "?")  # cell texts, after stripping, that mark a missing cell


class TabularDataset:
    """N x M float64 grid of numeric values and category codes, with integer labels."""

    def __init__(self, X: np.ndarray, y: np.ndarray, column_kinds: list[str],
                 class_count: int, categories: dict[int, list[str]] | None = None,
                 name: str = "", label_names: list[str] | None = None):
        self._X = np.asarray(X, dtype=np.float64)  # an object grid's None becomes NaN
        self._y = class_labels(y, class_count)
        if self._X.ndim != 2 or len(self._X) != len(self._y):
            raise ContractError("feature grid and labels disagree on row count")
        if len(column_kinds) != self._X.shape[1]:
            raise ContractError("column_kinds length != column count")
        if np.isinf(self._X).any():  # in a categorical column it is no valid code either
            raise ContractError("feature grid holds an infinite value")
        categories = categories or {}  # a column without a list can hold missing cells only
        self.categories = {j: categories.get(j, []) for j, kind in enumerate(column_kinds)
                           if kind != NUMERIC}
        for j, names in self.categories.items():
            col = self._X[:, j]
            class_labels(col[~np.isnan(col)], len(names), f"column {j} category code")
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

    def take(self, indices) -> "TabularDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return TabularDataset(self.X[idx], self.y[idx], self.column_kinds,
                              self.class_count, self.categories, name=self.name,
                              label_names=self.label_names)

    def class_indices(self) -> dict[int, np.ndarray]:
        y = self.y
        return {c: np.flatnonzero(y == c) for c in range(self.class_count)}


def _number(text: str, row: int, col: int) -> float:
    text = text.strip()
    if text in _MISSING:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(
            f"row {row}: column {col} expected a number, got {text!r}")
    if not math.isfinite(value):  # NaN would read as missing, inf would spoil the statistics
        raise CsvParseError(
            f"row {row}: column {col} expected a finite number, got {text!r}")
    return value


def load_csv(path: str | Path, schema: dict | str | Path,
             name: str | None = None) -> TabularDataset:
    """Read a CSV file with a JSON schema declaring column kinds and label.

    Schema keys: ``label`` (column name, or 0-based index when there is no
    header), ``kinds`` (name -> "numeric"/"categorical" mapping, or a list
    in file order), ``header`` (default true). Cells "" and "?" are missing.
    The file is parsed a column at a time, so with several bad cells the
    error names the first bad cell of the leftmost bad column.
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
    feature_idx = [i for i in range(len(columns)) if i != label_idx]
    kinds = [kinds_by_col.get(columns[i], CATEGORICAL) for i in feature_idx]
    for i, kind in zip(feature_idx, kinds):
        if kind not in (NUMERIC, CATEGORICAL):
            raise CsvParseError(f"{path}: column {columns[i]!r} has unknown kind {kind!r}")

    for line, row in enumerate(body, first_row):
        if len(row) != len(columns):
            raise CsvParseError(
                f"{path}: row {line} has {len(row)} cells, expected {len(columns)}")

    X = np.empty((len(body), len(feature_idx)), dtype=np.float64)
    categories = {}
    for j, (col, kind) in enumerate(zip(feature_idx, kinds)):
        if kind == NUMERIC:
            X[:, j] = [_number(row[col], line, col) for line, row in enumerate(body, first_row)]
        else:
            cells = [row[col].strip() for row in body]
            categories[j] = sorted(set(cells).difference(_MISSING))
            code = {name: i for i, name in enumerate(categories[j])}
            X[:, j] = [code.get(t, math.nan) for t in cells]
    labels = [row[label_idx].strip() for row in body]
    vocab = sorted(set(labels))
    code = {name: i for i, name in enumerate(vocab)}
    return TabularDataset(X, [code[t] for t in labels], kinds, len(vocab), categories,
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
    all_idx = np.concatenate([np.arange(len(train)), np.array(extra, dtype=np.int64)])
    return train.take(all_idx)


def nshot_subsample(train: TabularDataset, shots: int, seed: int = 0) -> TabularDataset:
    """Exactly `shots` rows per class, drawn without replacement."""
    if shots < 1:
        raise ContractError(f"shots must be at least 1, got {shots}")
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
    return train.take(chosen)


class Preprocessor:
    """Column statistics fitted on one partition, applied to any other.

    Numeric columns standardize with the fitted mean and population std
    (floored at 1e-8); missing numerics impute the fitted median. Categorical
    columns one-hot against the fitted vocabulary: the names of the categories
    the fitting rows held, plus a last slot ``None`` for missing cells when they
    held any. Codes map to slots by name, so a table with its own category
    list transforms alike; an unseen category (or a missing cell without a
    slot) keeps the all-zero block. Fitting needs at least one row.
    """

    def __init__(self):
        self._fitted = False
        self.column_kinds: list[str] = []
        self.numeric_stats: dict[int, tuple[float, float, float]] = {}  # mean, std, median
        self.vocabularies: dict[int, list[str | None]] = {}
        self.output_dim = 0

    def fit(self, dataset: TabularDataset) -> "Preprocessor":
        if len(dataset) == 0:
            raise ContractError("cannot fit a preprocessor on a dataset with no rows")
        self.column_kinds = list(dataset.column_kinds)
        X = dataset.X
        self.numeric_stats.clear()
        self.vocabularies.clear()
        dim = 0
        for j, kind in enumerate(self.column_kinds):
            col = X[:, j]
            missing = np.isnan(col)
            if kind == NUMERIC:
                present = col[~missing]
                median = float(np.median(present)) if present.size else 0.0
                filled = np.where(missing, median, col)
                std = float(filled.std())  # population std
                self.numeric_stats[j] = (float(filled.mean()), max(std, 1e-8), median)
                dim += 1
            else:
                names = dataset.categories[j]
                vocab = [names[c] for c in np.unique(col[~missing]).astype(np.int64)]
                if missing.any():
                    vocab.append(None)
                self.vocabularies[j] = vocab
                dim += len(vocab)
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
                out[:, offset] = (np.where(np.isnan(col), median, col) - mean) / std
                offset += 1
            else:
                vocab = self.vocabularies[j]
                slot = {name: i for i, name in enumerate(vocab)}
                # each of the dataset's categories, then a missing cell, to its slot or -1
                lookup = np.array([slot.get(name, -1) for name in dataset.categories[j]]
                                  + [slot.get(None, -1)], dtype=np.int64)
                hot = lookup[np.where(np.isnan(col), len(lookup) - 1, col).astype(np.int64)]
                rows = np.flatnonzero(hot >= 0)
                out[rows, offset + hot[rows]] = 1.0
                offset += len(vocab)
        return out
