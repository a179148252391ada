import json
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vistab import data as D
from vistab.errors import ConfigError, ContractError, CsvParseError


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_numeric_cell_names_row_and_column(tmp_path, cell):
    csv_path, schema = tmp_path / "t.csv", tmp_path / "t.json"
    csv_path.write_text(f"a,b,label\n1.5,x,yes\n2.5,y,no\n{cell},x,yes\n")
    schema.write_text(json.dumps({"label": "label",
                                  "kinds": {"a": "numeric", "b": "categorical"}}))
    with pytest.raises(CsvParseError, match=f"row 4: column 0 .*{cell!r}"):
        D.load_csv(csv_path, schema)


def test_finite_numeric_cells_parse(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("a,label\n1e300,yes\n-0.0,no\n?,yes\n")
    ds = D.load_csv(csv_path, {"label": "label", "kinds": {"a": "numeric"}})
    assert list(ds.X[:, 0]) == [1e300, -0.0, None]


@pytest.mark.parametrize("schema, key", [
    ({"kinds": {"a": "numeric"}}, "'label'"),
    ({"label": "label", "kinds": "numeric"}, "'kinds'"),
    ({"label": "label", "kinds": ["numeric", "numeric", "numeric"]}, "'kinds'"),
    (["label"], "JSON object"),
], ids=["no_label", "kinds_not_list_or_object", "more_kinds_than_columns", "not_object"])
def test_bad_schema_raises_config_error_naming_key(tmp_path, schema, key):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("a,label\n1.0,yes\n2.0,no\n")
    with pytest.raises(ConfigError, match=key):
        D.load_csv(csv_path, schema)


@pytest.mark.parametrize("y, bad", [([0.5, 1.7], "label 0.5 "), ([0, 2], "label 2 ")],
                         ids=["fraction", "out_of_range"])
def test_dataset_labels_must_be_whole_class_indices(y, bad):
    with pytest.raises(ContractError, match=bad):
        D.TabularDataset(np.zeros((2, 1), dtype=object), y, [D.NUMERIC], class_count=2)


def test_preprocessor_refuses_to_fit_no_rows():
    empty = D.TabularDataset(np.empty((0, 2), dtype=object), [], [D.NUMERIC, D.CATEGORICAL],
                             class_count=2)
    with pytest.raises(ContractError, match="no rows"):
        D.Preprocessor().fit(empty)


def labelled(counts) -> D.TabularDataset:
    """Rows grouped by class, `counts[c]` of class c; column 0 holds the row's index."""
    y = np.repeat(np.arange(len(counts)), counts)
    return D.TabularDataset(np.arange(len(y), dtype=object).reshape(-1, 1), y,
                            [D.NUMERIC], class_count=len(counts))


def rows(part: D.TabularDataset) -> list[int]:
    return list(part.X[:, 0])


class_counts = st.lists(st.integers(4, 60), min_size=2, max_size=6)


@given(class_counts, st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_is_disjoint_exhaustive_and_protocol_sized(counts, stratified, seed):
    ds = labelled(counts)
    parts = D.split(ds, D.SplitSpec(seed=seed, stratified=stratified))
    assert tuple(len(p) for p in parts) == D.split_sizes(len(ds))
    taken = [r for p in parts for r in rows(p)]
    assert sorted(taken) == list(range(len(ds)))
    for p in parts:  # each row keeps its own label
        assert (p.y == ds.y[rows(p)]).all()


@given(class_counts, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stratified_split_gives_each_class_its_share(counts, seed):
    counts = np.array(counts)
    n = counts.sum()
    train, valid, test = D.split(labelled(counts), D.SplitSpec(seed=seed))
    per_class = [np.bincount(p.y, minlength=len(counts)) for p in (train, valid, test)]
    # test takes each class's proportional share of the test rows, rounded down or up
    assert (np.abs(per_class[2] - counts * len(test) / n) < 1).all()
    # valid does the same over the rows that test left
    left = counts - per_class[2]
    assert (np.abs(per_class[1] - left * len(valid) / left.sum()) < 1).all()
    # train keeps the rest, so the two roundings can add up
    assert (np.abs(per_class[0] - counts * len(train) / n) < 2).all()
    assert (per_class[0] > 0).all()


@given(class_counts, st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_nshot_subsample_takes_exactly_shots_per_class(counts, shots, seed):
    ds = labelled(counts)
    sub = D.nshot_subsample(ds, shots, seed=seed)
    assert np.bincount(sub.y, minlength=len(counts)).tolist() == [shots] * len(counts)
    assert len(set(rows(sub))) == len(sub)  # drawn without replacement
    assert (sub.y == ds.y[rows(sub)]).all()


@given(st.lists(st.integers(1, 60), min_size=2, max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_oversample_brings_every_class_to_the_majority(counts, seed):
    ds = labelled(counts)
    out = D.oversample(ds, seed=seed)
    assert np.bincount(out.y, minlength=len(counts)).tolist() == [max(counts)] * len(counts)
    assert rows(out)[:len(ds)] == list(range(len(ds)))  # every original row is kept
    assert (out.y == ds.y[rows(out)]).all()


def reference_transform(fit_rows, rows, kinds) -> np.ndarray:
    """The preprocessor's rules, one cell at a time, with statistics of `fit_rows` only."""
    blocks = []
    for j, kind in enumerate(kinds):
        fitted = [r[j] for r in fit_rows]
        cells = [r[j] for r in rows]
        if kind == D.NUMERIC:
            present = [v for v in fitted if v is not None]
            median = statistics.median(present) if present else 0.0
            filled = [median if v is None else v for v in fitted]
            mean = statistics.fmean(filled)
            std = max(statistics.pstdev(filled), 1e-8)
            blocks.append([[((median if v is None else v) - mean) / std] for v in cells])
        else:
            vocab = sorted({v for v in fitted if v is not None})
            if None in fitted:
                vocab.append(D.MISSING_TOKEN)
            key = [D.MISSING_TOKEN if v is None else v for v in cells]
            blocks.append([[float(k == tok) for tok in vocab] for k in key])
    return np.hstack([np.array(b, dtype=np.float64).reshape(len(rows), -1) for b in blocks])


# eighths in [-50, 50] are exact in float64, so the reference's sums carry no rounding
numeric_cells = st.one_of(st.none(), st.integers(-400, 400).map(lambda k: k / 8))
# the partition that is not fitted may hold categories the fitted one never saw
fit_categories = st.one_of(st.none(), st.sampled_from("abc"))
other_categories = st.one_of(st.none(), st.sampled_from("abcde"))


@st.composite
def fitted_and_other_partitions(draw):
    kinds = draw(st.lists(st.sampled_from([D.NUMERIC, D.CATEGORICAL]), min_size=1, max_size=4))

    def grid(n_rows, categories):
        cell = {D.NUMERIC: numeric_cells, D.CATEGORICAL: categories}
        return [[draw(cell[k]) for k in kinds] for _ in range(n_rows)]

    return (kinds, grid(draw(st.integers(1, 12)), fit_categories),
            grid(draw(st.integers(1, 12)), other_categories))


def dataset_of(grid, kinds) -> D.TabularDataset:
    X = np.empty((len(grid), len(kinds)), dtype=object)
    X[:, :] = grid
    return D.TabularDataset(X, np.zeros(len(grid), dtype=np.int64), kinds, class_count=2)


@given(fitted_and_other_partitions())
@settings(max_examples=150, deadline=None)
def test_preprocessor_statistics_come_from_the_fitted_partition_only(partitions):
    kinds, fit_grid, other_grid = partitions
    pre = D.Preprocessor().fit(dataset_of(fit_grid, kinds))
    for grid in (fit_grid, other_grid):
        got = pre.transform(dataset_of(grid, kinds))
        want = reference_transform(fit_grid, grid, kinds)
        assert got.shape == want.shape == (len(grid), pre.output_dim)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
