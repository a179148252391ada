import csv
import json
import math
import re
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vistab import data as D
from vistab.errors import ConfigError, ContractError, CsvParseError, StratificationError


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
    np.testing.assert_array_equal(ds.X[:, 0], [1e300, -0.0, np.nan])


@pytest.mark.parametrize("schema, key", [
    ({"kinds": {"a": "numeric"}}, "'label'"),
    ({"label": "label", "kinds": "numeric"}, "'kinds'"),
    ({"label": "label", "kinds": ["numeric", "numeric", "numeric"]}, "'kinds'"),
    (["label"], "JSON object"),
    ({"label": "label", "header": "false"}, "'header'"),
    ({"label": "label", "header": 0}, "'header'"),
], ids=["no_label", "kinds_not_list_or_object", "more_kinds_than_columns", "not_object",
        "header_text", "header_number"])
def test_bad_schema_raises_config_error_naming_key(tmp_path, schema, key):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("a,label\n1.0,yes\n2.0,no\n")
    with pytest.raises(ConfigError, match=key):
        D.load_csv(csv_path, schema)


@pytest.mark.parametrize("rows", [1, 5000], ids=["first_chunk", "later_chunk"])
def test_load_csv_names_a_file_it_cannot_decode(tmp_path, rows):
    csv_path = tmp_path / "t.csv"
    csv_path.write_bytes(b"a,label\n" + b"1.5,yes\n" * rows + b"2.5,n\xffo\n")
    with pytest.raises(CsvParseError, match=re.escape(f"{csv_path}: cannot be decoded as")):
        D.load_csv(csv_path, {"label": "label", "kinds": {"a": "numeric"}})


@pytest.mark.parametrize("label", ["", "?", " ? ", "\xa0"],
                         ids=["empty", "question_mark", "padded_question_mark", "padded_empty"])
def test_load_csv_names_the_row_of_a_missing_label(tmp_path, label):
    # the third record starts on file line 5: the second holds a quoted newline
    csv_path = write_csv(tmp_path / "t.csv", [["a", "label"], ["1", "x"], ["2\n", "x"],
                                              ["3", label], ["4", ""]])
    with pytest.raises(CsvParseError, match=re.escape(f"{csv_path}: row 5: label is missing")):
        D.load_csv(csv_path, {"label": "label", "kinds": {"a": "numeric"}})


def test_load_csv_names_the_kinds_the_file_lacks(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("num0,cat0,label\n1.5,x,yes\n2.5,y,no\n")
    kinds = {"nmu0": "numeric", "cat0": "categorical", "extra": "numeric"}
    with pytest.raises(ConfigError, match=re.escape("lacks: ['nmu0', 'extra']")):
        D.load_csv(csv_path, {"label": "label", "kinds": kinds})


@pytest.mark.parametrize("text", [b"{label: a}", b"\xff"], ids=["not_json", "not_text"])
def test_load_csv_names_a_schema_file_that_is_not_json(tmp_path, text):
    csv_path, schema = tmp_path / "t.csv", tmp_path / "t.json"
    csv_path.write_text("a,label\n1.5,yes\n")
    schema.write_bytes(text)
    with pytest.raises(ConfigError, match=re.escape(f"schema {schema}: not a JSON file")):
        D.load_csv(csv_path, schema)


@pytest.mark.parametrize("y, bad", [([0.5, 1.7], "label 0.5 "), ([0, 2], "label 2 ")],
                         ids=["fraction", "out_of_range"])
def test_dataset_labels_must_be_whole_class_indices(y, bad):
    with pytest.raises(ContractError, match=bad):
        D.TabularDataset(np.zeros((2, 1)), y, [D.NUMERIC], class_count=2)


@pytest.mark.parametrize("code", [0.5, -1.0, 2.0], ids=["fraction", "negative", "out_of_range"])
def test_category_codes_must_index_the_column_categories(code):
    with pytest.raises(ContractError, match=f"column 0 category code {code} "):
        D.TabularDataset(np.array([[0.0], [code]]), [0, 1], [D.CATEGORICAL], class_count=2,
                         categories={0: ["a", "b"]})


def test_categorical_column_without_a_category_list_holds_missing_cells_only():
    kinds = [D.NUMERIC, D.CATEGORICAL]
    with pytest.raises(ContractError, match=r"column 1 category code 0.0 .*\[0, 0\)"):
        D.TabularDataset(np.zeros((2, 2)), [0, 1], kinds, class_count=2)
    ds = D.TabularDataset([[0.0, np.nan], [1.0, np.nan]], [0, 1], kinds, class_count=2)
    assert ds.categories == {1: []}
    np.testing.assert_array_equal(D.Preprocessor().fit(ds).transform(ds), [[-1, 1], [1, 1]])


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_numeric_column_refuses_an_infinite_value(value):
    with pytest.raises(ContractError, match="holds an infinite value"):
        D.TabularDataset(np.array([[1.0], [value]]), [0, 1], [D.NUMERIC], class_count=2)


def test_object_grid_converts_none_to_nan():
    ds = D.TabularDataset(np.array([[1.5], [None]], dtype=object), [0, 1], [D.NUMERIC],
                          class_count=2)
    assert ds.X.dtype == np.float64
    np.testing.assert_array_equal(ds.X[:, 0], [1.5, np.nan])


@pytest.mark.parametrize("grid, cell", [
    ([["a"], [None]], "cell (0, 0) holds text 'a'"),
    (np.array([["1.5"], ["2"]]), "cell (0, 0) holds text '1.5'"),
    (np.array([[2.0], ["1.5"]], dtype=object), "cell (1, 0) holds text '1.5'"),
    ([[1.0, 2.0], [3.0]], "not a rectangle of numbers: setting an array element"),
    ([[{}], [1.0]], "not a rectangle of numbers: float() argument"),
], ids=["text_beside_none", "str_array", "text_in_object_grid", "ragged_rows", "dict_cell"])
def test_grid_holding_text_is_refused_naming_the_cell(grid, cell):
    # a grid of numbers and None still converts: test_object_grid_converts_none_to_nan;
    # a grid that is no rectangle of numbers is refused with numpy's reason
    with pytest.raises(ContractError, match=re.escape(cell)):
        D.TabularDataset(grid, [0, 1], [D.NUMERIC], class_count=2)


def test_preprocessor_refuses_to_fit_no_rows():
    empty = D.TabularDataset(np.empty((0, 2)), [], [D.NUMERIC, D.CATEGORICAL],
                             class_count=2)
    with pytest.raises(ContractError, match="no rows"):
        D.Preprocessor().fit(empty)


def labelled(counts) -> D.TabularDataset:
    """Rows grouped by class, `counts[c]` of class c; column 0 holds the row's index."""
    y = np.repeat(np.arange(len(counts)), counts)
    return D.TabularDataset(np.arange(len(y), dtype=np.float64).reshape(-1, 1), y,
                            [D.NUMERIC], class_count=len(counts))


def rows(part: D.TabularDataset) -> list[int]:
    return part.X[:, 0].astype(np.int64).tolist()


class_counts = st.lists(st.integers(4, 60), min_size=2, max_size=6)


@given(class_counts, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_is_disjoint_exhaustive_and_protocol_sized(counts, seed):
    ds = labelled(counts)
    parts = D.split(ds, D.SplitSpec(seed=seed))
    assert tuple(len(p) for p in parts) == D.split_sizes(len(ds))
    taken = [r for p in parts for r in rows(p)]
    assert sorted(taken) == list(range(len(ds)))
    for p in parts:  # each row keeps its own label
        assert (p.y == ds.y[rows(p)]).all()


@pytest.mark.parametrize("counts", [[0, 5, 5], [1, 0]],
                         ids=["empty_class", "fewer_rows_than_classes"])
def test_stratified_split_refuses_a_class_without_training_rows(counts):
    with pytest.raises(StratificationError, match="class '[01]' has no training samples"):
        D.split(labelled(counts), D.SplitSpec(seed=0))


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


@pytest.mark.parametrize("shots", [0, -1])
def test_nshot_subsample_needs_at_least_one_shot(shots):
    with pytest.raises(ContractError, match=f"at least 1, got {shots}"):
        D.nshot_subsample(labelled([4, 4]), shots)


@pytest.mark.parametrize("shots", [1.5, 2.0, "2", True])
def test_nshot_subsample_refuses_a_shot_count_that_is_not_an_integer(shots):
    with pytest.raises(ContractError, match=f"shots must be an integer, got {shots!r}"):
        D.nshot_subsample(labelled([4, 4]), shots)


def test_nshot_subsample_takes_a_numpy_integer_shot_count():
    assert len(D.nshot_subsample(labelled([4, 4]), np.int64(2))) == 4


@pytest.mark.parametrize("indices, match", [
    ([5], "row index 5 is not a whole number in \\[0, 3\\)"),
    ([0, 0.5], "row index 0.5 "),
    ([1, -1], "row index -1 "),
    ([[0, 1]], "row indices must be 1-D, got shape \\(1, 2\\)"),
    (1, "row indices must be 1-D, got shape \\(\\)"),
    ([True, False, True], "row indices must be whole numbers, got dtype bool"),
], ids=["past_end", "fraction", "negative", "2d", "0d", "mask"])
def test_take_refuses_bad_row_indices(indices, match):
    with pytest.raises(ContractError, match=match):
        labelled([2, 1]).take(indices)


def test_take_keeps_rows_in_the_order_given():
    part = labelled([2, 1]).take([2, 0, 0])
    assert rows(part) == [2, 0, 0] and part.y.tolist() == [1, 0, 0]
    assert len(labelled([2, 1]).take([])) == 0


@given(st.lists(st.integers(1, 60), min_size=2, max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_oversample_brings_every_class_to_the_majority(counts, seed):
    ds = labelled(counts)
    out = D.oversample(ds, seed=seed)
    assert np.bincount(out.y, minlength=len(counts)).tolist() == [max(counts)] * len(counts)
    assert rows(out)[:len(ds)] == list(range(len(ds)))  # every original row is kept
    assert (out.y == ds.y[rows(out)]).all()


def reference_transform(fit_rows, rows, kinds) -> np.ndarray:
    """The preprocessor's rules, one cell at a time, with statistics of `fit_rows` only.
    A cell is a number or a category name, and None when it is missing."""
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
                vocab.append(None)  # the missing-cell slot
            blocks.append([[float(v == tok) for tok in vocab] for v in cells])
    return np.hstack([np.array(b, dtype=np.float64).reshape(len(rows), -1) for b in blocks])


# eighths in [-50, 50] are exact in float64, so the reference's sums carry no rounding
numeric_cells = st.one_of(st.none(), st.integers(-400, 400).map(lambda k: k / 8))
# the partition that is not fitted may hold categories the fitted one never saw; the text
# "<missing>" is an ordinary category
fit_categories = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "<missing>"]))
other_categories = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d", "e", "<missing>"]))


@st.composite
def fitted_and_other_partitions(draw):
    kinds = draw(st.lists(st.sampled_from([D.NUMERIC, D.CATEGORICAL]), min_size=1, max_size=4))

    def grid(n_rows, categories):
        cell = {D.NUMERIC: numeric_cells, D.CATEGORICAL: categories}
        return [[draw(cell[k]) for k in kinds] for _ in range(n_rows)]

    return (kinds, grid(draw(st.integers(1, 12)), fit_categories),
            grid(draw(st.integers(1, 12)), other_categories))


def dataset_of(grid, kinds) -> D.TabularDataset:
    """Each categorical column coded against its own sorted names, so two grids disagree on
    which code is which category."""
    X = np.empty((len(grid), len(kinds)))
    categories = {}
    for j, kind in enumerate(kinds):
        cells = [r[j] for r in grid]
        if kind == D.CATEGORICAL:
            categories[j] = sorted({v for v in cells if v is not None})
            cells = [None if v is None else categories[j].index(v) for v in cells]
        X[:, j] = [math.nan if v is None else v for v in cells]
    return D.TabularDataset(X, np.zeros(len(grid), dtype=np.int64), kinds, class_count=2,
                            categories=categories)


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


def test_literal_missing_text_is_a_category_of_its_own(tmp_path):
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("c,label\n<missing>,x\n,y\na,x\n")
    ds = D.load_csv(csv_path, {"label": "label", "kinds": {"c": "categorical"}})
    pre = D.Preprocessor().fit(ds)
    assert pre.output_dim == 3
    np.testing.assert_array_equal(pre.transform(ds), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def padded(texts):
    pads = ["", " ", "  ", "\xa0", "\u3000"]
    return st.tuples(st.sampled_from(pads), texts, st.sampled_from(pads)).map("".join)


def number_texts(bad: bool):
    """Numeric cells: missing ones, plain and exotic numbers ``float()`` reads, and
    with `bad`, cells that are no finite number (each spelling ``float()`` reads as
    NaN or inf among them)."""
    cells = ["", "?", "1e3", "-2.5E-2", "1_000", "\u0661\u0662", "2\n", "\n"]
    if bad:
        cells += ["1,5", "x", "nan", "NaN", "-nan", "-inf", "+inf", "Infinity", "1e999",
                  "1e400"]
    return padded(st.one_of(st.sampled_from(cells),
                            st.integers(-400, 400).map(lambda k: repr(k / 8))))


# csv reads a NUL character only since Python 3.11
category_texts = padded(st.sampled_from(["", "?", "a", "b", "x y", "<missing>", "a,b", "x\ny",
                                         "nan"] + ["d\x00"] * (sys.version_info >= (3, 11))))
label_texts = padded(st.sampled_from(["yes", "no", "<missing>", "a,b"]))


@st.composite
def csv_tables(draw):
    """Column kinds, the label's file column and the text rows of a CSV body."""
    kinds = draw(st.lists(st.sampled_from([D.NUMERIC, D.CATEGORICAL]), min_size=1, max_size=4))
    label_at = draw(st.integers(0, len(kinds)))
    text = {D.NUMERIC: number_texts(draw(st.booleans())), D.CATEGORICAL: category_texts}
    body = []
    for _ in range(draw(st.integers(1, 10))):
        row = [draw(text[k]) for k in kinds]
        row.insert(label_at, draw(label_texts))
        body.append(row)
    return kinds, label_at, body


def write_csv(path, rows):
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


@given(csv_tables())
@settings(max_examples=150, deadline=None)
def test_load_csv_reads_each_cell_like_a_per_cell_reference(tmp_path_factory, table):
    kinds, label_at, body = table
    columns = [f"c{i}" for i in range(len(kinds) + 1)]
    csv_path = write_csv(tmp_path_factory.mktemp("load") / "t.csv", [columns] + body)
    features = [c for i, c in enumerate(columns) if i != label_at]
    schema = {"label": columns[label_at], "kinds": dict(zip(features, kinds))}

    want_X = np.empty((len(body), len(kinds)))
    want_categories = {}
    error = None  # the first bad cell of the leftmost bad column
    starts = [2]  # the file line each row starts on: a quoted newline adds one
    for row in body[:-1]:
        starts.append(starts[-1] + 1 + sum(cell.count("\n") for cell in row))
    for j, kind in enumerate(kinds):
        col = j + (j >= label_at)
        cells = [row[col].strip() for row in body]
        if kind == D.NUMERIC:
            for i, (line, t) in enumerate(zip(starts, cells)):
                try:
                    value = math.nan if t in ("", "?") else float(t)
                except ValueError:
                    error = error or f"row {line}: column {col} expected a number, got {t!r}"
                    continue
                if math.isnan(value) and t not in ("", "?") or math.isinf(value):
                    error = error or (f"row {line}: column {col} expected a finite number, "
                                      f"got {t!r}")
                want_X[i, j] = value
        else:
            names = sorted({t for t in cells if t not in ("", "?")})
            want_categories[j] = names
            want_X[:, j] = [names.index(t) if t in names else math.nan for t in cells]
    if error:
        with pytest.raises(CsvParseError) as info:
            D.load_csv(csv_path, schema)
        assert str(info.value) == error
        return
    ds = D.load_csv(csv_path, schema)
    labels = [row[label_at].strip() for row in body]
    np.testing.assert_array_equal(ds.X, want_X)
    assert ds.categories == want_categories
    assert ds.column_kinds == kinds
    assert ds.label_names == sorted(set(labels))
    assert ds.y.tolist() == [ds.label_names.index(t) for t in labels]


@pytest.mark.parametrize("rows, error", [
    ([["1", "x", "yes"], ["y", "2", "no"]], "row 3: column 0 expected a number, got 'y'"),
    ([["1", "inf", "yes"], ["nan", "2", "no"]],
     "row 3: column 0 expected a finite number, got 'nan'"),
    ([["1", "2", "yes"], ["1", "x", "no"], ["y", "2", "no"]],
     "row 4: column 0 expected a number, got 'y'"),
    ([["x", "2", "yes"], ["1", "2"]], "row 3 has 2 cells, expected 3"),
    ([["x", "y", "yes"], ["1", "2", "no", "extra"], ["1", "2"]],
     "row 3 has 4 cells, expected 3"),
    ([["1", "2\n", "yes"], ["bad", "2", "no"]], "row 4: column 0 expected a number, got 'bad'"),
    ([["1", "2\n", "yes"], ["1", "2"]], "row 4 has 2 cells, expected 3"),
    ([["1", "\n2\n", "yes"], ["2", "3", "no"], ["1e999", "4", "no"]],
     "row 6: column 0 expected a finite number, got '1e999'"),
], ids=["bad_left_column_in_a_later_row", "non_finite_left_column_in_a_later_row",
        "left_column_wins_in_a_long_file", "short_row_after_a_bad_cell",
        "first_wrong_width_row", "bad_cell_after_a_quoted_newline",
        "short_row_after_a_quoted_newline", "bad_cell_after_two_quoted_newlines"])
def test_load_csv_reports_the_first_error_in_reading_order(tmp_path, rows, error):
    csv_path = write_csv(tmp_path / "t.csv", [["a", "b", "label"]] + rows)
    with pytest.raises(CsvParseError, match=re.escape(error)):
        D.load_csv(csv_path, {"label": "label", "kinds": {"a": "numeric", "b": "numeric"}})


def test_load_csv_converts_every_cell_float_reads_without_the_per_cell_loop(tmp_path,
                                                                           monkeypatch):
    calls = []
    number = D._number
    monkeypatch.setattr(D, "_number", lambda *args: calls.append(args) or number(*args))
    csv_path = write_csv(tmp_path / "t.csv", [
        ["a", "b", "c", "label"],
        ["1_000", "\xa0+1\xa0", "-0", "yes"],
        ["\u0661\u0662", "\u30001e3\u3000", "+1", "no"],
        [" ?", "\xa0?", "", "no"],  # padded missing cells, two spellings, and a bare one
        ["2", " ?", "\xa0?", "yes"]])
    ds = D.load_csv(csv_path, {"label": "label",
                               "kinds": {"a": "numeric", "b": "numeric", "c": "numeric"}})
    assert calls == []
    np.testing.assert_array_equal(ds.X, [[1000.0, 1.0, -0.0], [12.0, 1000.0, 1.0],
                                         [np.nan] * 3, [2.0, np.nan, np.nan]])
    assert np.signbit(ds.X[0, 2])
