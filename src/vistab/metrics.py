"""Multiclass MCC, accuracy, cross-method rank aggregation, report emission."""

from __future__ import annotations

import csv
import hashlib
import json
import typing
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, class_labels


@dataclass
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns are predictions."""

    counts: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred, n_classes: int) -> "ConfusionMatrix":
        y_true = class_labels(y_true, n_classes, "true label")
        y_pred = class_labels(y_pred, n_classes, "predicted label")
        if y_true.shape != y_pred.shape:
            raise ContractError("true/predicted label arrays differ in length")
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(counts, (y_true, y_pred), 1)
        return cls(counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def mcc(conf: ConfusionMatrix) -> float:
    """Multiclass correlation in [-1, 1]; degenerate denominator maps to 0."""
    c = conf.counts.astype(np.float64)
    if c.shape[0] < 2 or c.shape[0] != c.shape[1]:
        raise ContractError(f"confusion matrix must be KxK with K >= 2, got {c.shape}")
    s = c.sum()
    if s == 0:
        raise ContractError("confusion matrix is empty")
    trace = np.trace(c)
    t = c.sum(axis=1)  # true-class counts
    p = c.sum(axis=0)  # predicted-class counts
    cov = trace * s - p @ t
    denom_sq = (s * s - p @ p) * (s * s - t @ t)
    if denom_sq <= 0:
        return 0.0
    return float(cov / np.sqrt(denom_sq))


def accuracy(conf: ConfusionMatrix) -> float:
    if conf.total == 0:
        raise ContractError("confusion matrix is empty")
    return float(np.trace(conf.counts) / conf.total)


@dataclass
class ScoreTable:
    """Datasets x methods score grid (no missing cells, at least one of each)."""

    datasets: list[str]
    methods: list[str]
    scores: np.ndarray  # shape (len(datasets), len(methods))

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        want = (len(self.datasets), len(self.methods))
        if 0 in want:  # a mean rank over no datasets is NaN
            raise ContractError(f"score grid needs a dataset and a method, got shape {want}")
        if self.scores.shape != want:
            raise ContractError(f"score grid shape {self.scores.shape} != {want}")
        if np.isnan(self.scores).any():
            i, j = np.argwhere(np.isnan(self.scores))[0]
            raise ContractError(
                f"missing score for ({self.datasets[i]}, {self.methods[j]})")


def rank_methods(table: ScoreTable) -> dict[str, dict[str, float]]:
    """Per-method mean rank (rank 1 = highest score, ties averaged) and mean score."""
    from scipy.stats import rankdata  # kept out of module import: it costs ~46 MB resident

    ranks = rankdata(-table.scores, method="average", axis=1)
    mean_rank = ranks.mean(axis=0)
    mean_score = table.scores.mean(axis=0)
    return {
        m: {"mean_rank": float(mean_rank[j]), "mean_score": float(mean_score[j])}
        for j, m in enumerate(table.methods)
    }


def config_hash(config: dict) -> str:
    """Stable short hash of a JSON-serializable config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class ReportRow:
    dataset: str
    method: str
    seed: int
    split_id: int
    mcc: float
    accuracy: float
    wall_seconds: float
    config_hash: str


# each ReportRow field's type, and the JSON values it takes: an int is no bool, and a
# float field takes an int too
_ROW_TYPES = typing.get_type_hints(ReportRow)
_JSON_VALUES = {str: (str,), int: (int,), float: (int, float)}


@dataclass
class ExperimentReport:
    """Per-run rows plus the configs they hash to; serializable as CSV/JSON."""

    rows: list[ReportRow] = field(default_factory=list)
    configs: dict[str, dict] = field(default_factory=dict)
    errors: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def add(self, dataset: str, method: str, seed: int, split_id: int,
            mcc_value: float, acc_value: float, wall_seconds: float,
            config: dict) -> ReportRow:
        h = config_hash(config)
        self.configs[h] = config
        row = ReportRow(dataset, method, seed, split_id,
                        float(mcc_value), float(acc_value), float(wall_seconds), h)
        self.rows.append(row)
        return row

    def record_error(self, dataset: str, method: str, seed: int, message: str) -> None:
        self.errors.append(
            {"dataset": dataset, "method": method, "seed": seed, "error": message})

    def aggregate(self) -> dict[tuple[str, str], dict[str, float]]:
        """(dataset, method) -> mean/std MCC and accuracy over seeds."""
        groups: dict[tuple[str, str], list[ReportRow]] = {}
        for r in self.rows:
            groups.setdefault((r.dataset, r.method), []).append(r)
        out = {}
        for key, rows in groups.items():
            m = np.array([r.mcc for r in rows])
            a = np.array([r.accuracy for r in rows])
            out[key] = {
                "mean_mcc": float(m.mean()), "std_mcc": float(m.std()),
                "mean_accuracy": float(a.mean()), "std_accuracy": float(a.std()),
                "n": len(rows),
            }
        return out

    def to_json_dict(self) -> dict:
        return {
            "rows": [vars(r) for r in self.rows],
            "configs": self.configs,
            "errors": self.errors,
            "extras": self.extras,
            "aggregate": {f"{d}::{m}": v for (d, m), v in self.aggregate().items()},
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ExperimentReport":
        """The report :meth:`to_json_dict` gave `payload`; raises :class:`ConfigError`
        naming the cause when `payload` is not an object, one of its entries is not of
        its kind, or a row does not hold exactly the fields of :class:`ReportRow`, each
        a value of its type (a float field takes an int too, and loads it as a float)."""
        if not isinstance(payload, dict):
            raise ConfigError(f"report is not a JSON object: {payload!r}")
        for key, kind in (("rows", list), ("configs", dict), ("errors", list),
                          ("extras", dict)):
            if not isinstance(payload.get(key, kind()), kind):
                raise ConfigError(f"report {key!r} is not a {kind.__name__}")
        report = cls()
        for i, r in enumerate(payload.get("rows", [])):
            if not isinstance(r, dict) or r.keys() != _ROW_TYPES.keys():
                raise ConfigError(f"report row {i} must hold exactly the fields "
                                  f"{sorted(_ROW_TYPES)}, got {r!r}")
            for name, kind in _ROW_TYPES.items():
                if type(r[name]) not in _JSON_VALUES[kind]:
                    raise ConfigError(f"report row {i} field {name!r} must be "
                                      f"{kind.__name__}, got {r[name]!r}")
            report.rows.append(ReportRow(**{name: kind(r[name])
                                            for name, kind in _ROW_TYPES.items()}))
        report.configs = dict(payload.get("configs", {}))
        report.errors = list(payload.get("errors", []))
        report.extras = dict(payload.get("extras", {}))
        return report


def emit_report(report: ExperimentReport, path: str | Path, format: str = "csv") -> None:
    """Write the report; `format` is "csv" (one row per run, ReportRow's fields) or "json"."""
    path = Path(path)
    if format == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)  # it writes a float as its repr
            writer.writerow(f.name for f in fields(ReportRow))
            writer.writerows(astuple(r) for r in report.rows)
    elif format == "json":
        path.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        raise ContractError(f"unknown report format {format!r}")


def load_report_json(path: str | Path) -> ExperimentReport:
    """The report :func:`emit_report` wrote as JSON to `path`; raises
    :class:`ConfigError` naming `path` and the cause when the file is not JSON or
    not such a report."""
    try:
        return ExperimentReport.from_json_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: not a JSON file: {e}") from None
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None
