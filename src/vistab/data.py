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
import itertools
import json
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (ConfigError, ContractError, CsvParseError, StateError,
                     StratificationError, class_labels)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
_MISSING = ("", "?")  # cell texts, after stripping, that mark a missing cell
_AS_NAN = dict.fromkeys(_MISSING, math.nan)  # a missing numeric cell, as np.array reads it


class TabularDataset:
    """N x M float64 grid of numeric values and category codes, with integer labels."""

    def __init__(self, X: np.ndarray, y: np.ndarray, column_kinds: list[str],
                 class_count: int, categories: dict[int, list[str]] | None = None,
                 name: str = "", label_names: list[str] | None = None):
        try:  # text is refused, not parsed; an object grid's None is NaN
            raw = np.asarray(X)
            if raw.dtype.kind in "OSU":
                for index, cell in np.ndenumerate(raw.astype(object, copy=False)):
                    if isinstance(cell, (str, bytes)):
                        raise ContractError(f"feature grid cell {index} holds text {cell!r}")
            self._X = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError) as e:  # ragged rows, or a cell such as a dict
            raise ContractError(f"feature grid is not a rectangle of numbers: {e}") from None
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
        """The rows at `indices`, a 1-D sequence of whole numbers in ``[0, len(self))``."""
        idx = np.asarray(indices)
        if idx.dtype.kind == "b":  # class_labels would read a mask as rows 1 and 0
            raise ContractError(f"row indices must be whole numbers, got dtype {idx.dtype}")
        idx = class_labels(idx, len(self), "row index")
        if idx.ndim != 1:
            raise ContractError(f"row indices must be 1-D, got shape {idx.shape}")
        return TabularDataset(self.X[idx], self.y[idx], self.column_kinds,
                              self.class_count, self.categories, name=self.name,
                              label_names=self.label_names)

    def class_indices(self) -> dict[int, np.ndarray]:
        y = self.y
        return {c: np.flatnonzero(y == c) for c in range(self.class_count)}


def _number(text: str | float, row: int, col: int) -> float:
    if isinstance(text, float):  # a missing cell the row pass already made NaN
        return text
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


def _picker(cols: list[int]):
    """A function giving a row's cells at `cols` as a tuple."""
    if len(cols) == 1:  # itemgetter gives a bare cell for one index
        col, = cols
        return lambda row: (row[col],)
    return itemgetter(*cols) if cols else lambda row: ()


def _numbers(rows: list[tuple[str | float, ...]], missing: int, cols: list[int],
             starts: list[int]) -> np.ndarray:
    """The (n, k) grid of the numeric cells `rows`, n tuples of the k file columns `cols`.

    A missing cell ``""`` or ``"?"`` is already NaN, and ``missing`` counts those cells.
    One ``np.array`` call converts the other cells with ``float()``'s rules. Its grid
    is kept only if it holds no inf and no NaN but the missing cells. Otherwise (a bad
    cell, or a padded missing cell such as ``" ? "``) ``_number`` parses each cell,
    column by column, so the error names the first bad cell of the leftmost bad
    column, at the file line ``starts`` gives for its row.
    """
    n, k = len(rows), len(cols)
    try:
        grid = np.array(rows, dtype=np.float64).reshape(n, k)
    except ValueError:
        grid = None
    if (grid is not None and not np.isinf(grid).any()
            and np.count_nonzero(np.isnan(grid)) == missing):
        return grid
    grid = np.empty((n, k))
    for j, (col, cells) in enumerate(zip(cols, zip(*rows))):
        grid[:, j] = [_number(t, line, col) for line, t in zip(starts, cells)]
    return grid


def _codes(cells: tuple[str, ...], missing: tuple[str, ...]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct stripped texts of `cells` but `missing`, and each cell's
    index among them (NaN for a missing cell)."""
    stripped = {t: t.strip() for t in set(cells)}
    names = sorted(set(stripped.values()).difference(missing))
    index = {name: i for i, name in enumerate(names)}
    code = {t: index.get(s, math.nan) for t, s in stripped.items()}
    return names, np.fromiter(map(code.__getitem__, cells), np.float64, len(cells))


def load_csv(path: str | Path, schema: dict | str | Path,
             name: str | None = None) -> TabularDataset:
    """Read a CSV file with a JSON schema declaring column kinds and label.

    Schema keys: ``label`` (column name, or 0-based index when there is no
    header), ``kinds`` (name -> "numeric"/"categorical" mapping, or a list
    in file order), ``header`` (default true). Cells "" and "?" are missing.

    ``csv.reader`` is the one tokenizer and ``float()``'s rules the one number
    grammar. One pass over its rows checks each row's width and keeps the row's
    numeric cells and its text cells (categories and label). One ``np.array``
    call then converts all numeric cells (see ``_numbers``). Only a bad cell or a
    padded missing cell sends the block through the per-cell loop, so with
    several bad cells the error names the first bad cell of the leftmost bad
    column. A row of the wrong width is reported before any bad cell. An error
    names a row by the file line on which its record starts.
    """
    if isinstance(schema, (str, Path)):
        schema = json.loads(Path(schema).read_text())
    if not isinstance(schema, dict) or "label" not in schema:
        raise ConfigError("schema must be a JSON object with a 'label' key")
    kinds_decl = schema.get("kinds", {})
    if not isinstance(kinds_decl, (list, dict)):
        raise ConfigError(f"schema 'kinds' must be a list or an object, got {kinds_decl!r}")
    header = schema.get("header", True)
    if type(header) is not bool:
        raise ConfigError(f"schema 'header' must be true or false, got {header!r}")
    path = Path(path)

    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        head = next(rows, None)
        if head is None:
            raise CsvParseError(f"{path}: file is empty")
        line = rows.line_num + 1 if header else 1  # 1-based file line a record starts on
        first = next(rows, None) if header else head
        if first is None:
            raise CsvParseError(f"{path}: no data rows")
        columns = [c.strip() for c in head] if header else [str(i) for i in range(len(head))]

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

        numeric_idx = [i for i, kind in zip(feature_idx, kinds) if kind == NUMERIC]
        text_idx = [i for i, kind in zip(feature_idx, kinds) if kind != NUMERIC] + [label_idx]
        numeric_cells, text_cells = _picker(numeric_idx), _picker(text_idx)
        numbers, texts, starts, missing = [], [], [], 0
        same = {}  # one str per distinct text: coding then reads a few objects, not one a cell
        for row in itertools.chain([first], rows):
            if len(row) != len(columns):
                raise CsvParseError(
                    f"{path}: row {line} has {len(row)} cells, expected {len(columns)}")
            starts.append(line)
            line = rows.line_num + 1  # the next record starts after this one's last line
            cells = numeric_cells(row)
            gaps = sum(map(cells.count, _MISSING))
            if gaps:
                missing += gaps
                cells = tuple(map(_AS_NAN.get, cells, cells))
            numbers.append(cells)
            cells = text_cells(row)
            texts.append(tuple(map(same.setdefault, cells, cells)))

    X = np.empty((len(texts), len(feature_idx)), dtype=np.float64)
    X[:, [j for j, kind in enumerate(kinds) if kind == NUMERIC]] = _numbers(
        numbers, missing, numeric_idx, starts)
    *category_cells, label_cells = zip(*texts)
    categories = {}
    for j, cells in zip([j for j, kind in enumerate(kinds) if kind != NUMERIC], category_cells):
        categories[j], X[:, j] = _codes(cells, _MISSING)
    vocab, y = _codes(label_cells, ())
    return TabularDataset(X, y, kinds, len(vocab), categories,
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
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ContractError(f"shots must be an integer, got {shots!r}")
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
