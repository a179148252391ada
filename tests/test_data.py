import json

import pytest

from vistab import data as D
from vistab.errors import CsvParseError


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
