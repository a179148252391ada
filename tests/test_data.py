import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vistab import data as D
from vistab.errors import ConfigError, CsvParseError


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
