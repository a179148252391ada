import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vistab import metrics as ev
from vistab.errors import ContractError
from vistab.metrics import ConfusionMatrix, ExperimentReport, ScoreTable


def literal_multiclass_mcc(c: np.ndarray) -> float:
    """Independent transcription: triple-sum covariance over the K x K grid."""
    k = c.shape[0]
    c = c.astype(float)
    cov = 0.0
    for a in range(k):
        for l in range(k):
            for m in range(k):
                cov += c[a, a] * c[l, m] - c[a, l] * c[m, a]
    denom_t = 0.0
    denom_p = 0.0
    for a in range(k):
        row_a = c[a, :].sum()
        col_a = c[:, a].sum()
        other_rows = sum(c[b, :].sum() for b in range(k) if b != a)
        other_cols = sum(c[:, b].sum() for b in range(k) if b != a)
        denom_t += row_a * other_rows
        denom_p += col_a * other_cols
    if denom_t == 0 or denom_p == 0:
        return 0.0
    return cov / (math.sqrt(denom_t) * math.sqrt(denom_p))


@pytest.mark.parametrize("y_true, y_pred, bad", [
    ([0, 1, 1], [0, 1, -1], "predicted label -1 "),
    ([0, 1, 1], [0, 1, 2], "predicted label 2 "),
    ([0, 5, 1], [0, 1, 1], "true label 5 "),
    ([-3, 1, 1], [0, 1, 1], "true label -3 "),
    # a fractional label is refused, not truncated to a class
    ([0.9, 1.2], [1.99, 0.3], "true label 0.9 "),
    ([0, 1, 1], [0, 1, 0.3], "predicted label 0.3 "),
], ids=["pred_negative", "pred_too_large", "true_too_large", "true_negative",
        "true_fraction", "pred_fraction"])
def test_out_of_range_label_is_named(y_true, y_pred, bad):
    with pytest.raises(ContractError, match=bad):
        ConfusionMatrix.from_predictions(y_true, y_pred, 2)


class TestMcc:
    def test_perfect_prediction(self):
        assert ev.mcc(ConfusionMatrix(np.diag([3, 5, 2]))) == 1.0

    def test_binary_reduction_value(self):
        # TN=4, FP=1, FN=2, TP=3
        conf = ConfusionMatrix(np.array([[4, 1], [2, 3]]))
        want = 10 / math.sqrt(600)
        assert abs(ev.mcc(conf) - 0.4082) < 1e-4
        assert abs(ev.mcc(conf) - want) < 1e-12

    def test_constant_predictor_is_zero(self):
        conf = ConfusionMatrix(np.array([[5, 0], [7, 0]]))
        assert ev.mcc(conf) == 0.0

    def test_total_disagreement_binary(self):
        conf = ConfusionMatrix(np.array([[0, 4], [6, 0]]))
        assert ev.mcc(conf) == pytest.approx(-1.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractError):
            ev.mcc(ConfusionMatrix(np.zeros((2, 2), dtype=int)))

    def test_binary_equals_classical_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tn, fp, fn, tp = rng.integers(0, 30, size=4)
            conf = np.array([[tn, fp], [fn, tp]])
            got = ev.mcc(ConfusionMatrix(conf))
            denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
            want = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
            if conf.sum() == 0:
                continue
            assert abs(got - want) < 1e-12

    def test_thousand_random_matrices_match_literal_transcription(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            conf = rng.integers(0, 20, size=(k, k))
            if conf.sum() == 0:
                conf[0, 0] = 1
            got = ev.mcc(ConfusionMatrix(conf))
            want = literal_multiclass_mcc(conf)
            assert abs(got - want) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_label_permutation_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        conf = rng.integers(0, 15, size=(k, k))
        conf[0, 0] += 1
        perm = rng.permutation(k)
        permuted = conf[np.ix_(perm, perm)]
        assert ev.mcc(ConfusionMatrix(conf)) == pytest.approx(
            ev.mcc(ConfusionMatrix(permuted)), abs=1e-12)


class TestAccuracy:
    def test_perfect(self):
        assert ev.accuracy(ConfusionMatrix(np.diag([2, 3]))) == 1.0

    def test_all_wrong_binary(self):
        assert ev.accuracy(ConfusionMatrix(np.array([[0, 5], [4, 0]]))) == 0.0

    def test_seven_of_ten(self):
        conf = ConfusionMatrix(np.array([[4, 1], [2, 3]]))
        assert ev.accuracy(conf) == pytest.approx(0.7)


class TestRankMethods:
    def test_tie_averaging(self):
        table = ScoreTable(["d"], ["A", "B", "C"], np.array([[0.9, 0.8, 0.8]]))
        out = ev.rank_methods(table)
        assert out["A"]["mean_rank"] == 1.0
        assert out["B"]["mean_rank"] == 2.5
        assert out["C"]["mean_rank"] == 2.5

    def test_distinct_scores_are_a_permutation(self):
        table = ScoreTable(["d"], ["A", "B", "C", "D"],
                           np.array([[0.1, 0.9, 0.5, 0.7]]))
        ranks = [v["mean_rank"] for v in ev.rank_methods(table).values()]
        assert sorted(ranks) == [1.0, 2.0, 3.0, 4.0]

    def test_missing_cell_named(self):
        with pytest.raises(ContractError, match=r"\(d2, B\)"):
            ScoreTable(["d1", "d2"], ["A", "B"],
                       np.array([[1.0, 2.0], [3.0, np.nan]]))

    @pytest.mark.parametrize("datasets, methods", [([], ["A", "B"]), (["d"], [])],
                             ids=["no_datasets", "no_methods"])
    def test_empty_table_refused(self, datasets, methods):
        with pytest.raises(ContractError, match="needs a dataset and a method"):
            ScoreTable(datasets, methods, np.zeros((len(datasets), len(methods))))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(4, 5))
        table = ScoreTable([f"d{i}" for i in range(4)],
                           [f"m{j}" for j in range(5)], scores)
        warped = scores.copy()
        warped[2] = np.exp(3.0 * warped[2]) + 1.0  # strictly monotone on one row
        table2 = ScoreTable(table.datasets, table.methods, warped)
        a = ev.rank_methods(table)
        b = ev.rank_methods(table2)
        for m in table.methods:
            assert a[m]["mean_rank"] == pytest.approx(b[m]["mean_rank"])


class TestReports:
    def make_report(self):
        report = ExperimentReport()
        for d in ("d1", "d2"):
            for m in ("m1", "m2"):
                for seed in range(3):
                    report.add(d, m, seed, seed, 0.5 + seed / 10, 0.8, 1.25,
                               {"dataset": d, "method": m, "lr": 1e-3})
        return report

    def test_csv_row_count_and_header(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        ev.emit_report(report, path, format="csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dataset", "method", "seed", "split_id",
                           "mcc", "accuracy", "wall_seconds", "config_hash"]
        assert len(rows) == 1 + 12

    def test_csv_full_precision_decimal_point(self, tmp_path):
        report = ExperimentReport()
        report.add("d", "m", 0, 0, 1 / 3, 2 / 3, 0.1, {"x": 1})
        path = tmp_path / "r.csv"
        ev.emit_report(report, path, format="csv")
        with path.open() as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["mcc"]) == 1 / 3
        assert "." in row["mcc"]

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        ev.emit_report(report, path, format="json")
        loaded = ev.load_report_json(path)
        assert loaded.rows == report.rows
        assert loaded.configs == report.configs

    def test_config_hash_rederives(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        ev.emit_report(report, path, format="json")
        loaded = ev.load_report_json(path)
        for row in loaded.rows:
            assert ev.config_hash(loaded.configs[row.config_hash]) == row.config_hash
