"""Precision/Recall/F1 for the causal class, with cross-fold aggregation.

Zero-denominator cases are defined as 0 and flagged instead of undefined,
so degenerate few-shot runs still aggregate. The fold aggregate reports the
arithmetic mean of each metric and the population standard deviation of the
per-fold F1 scores.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .backend import PredictionRecord
from .dataset import CAUSAL, LABELS
from .errors import (
    DuplicatePredictionError,
    MissingGoldError,
    PredictionCoverageError,
    SchemaError,
    jsonl_records,
    require_fields,
)

NO_POSITIVE_PREDICTIONS = "no_positive_predictions"
NO_POSITIVE_GOLDS = "no_positive_golds"


@dataclass(frozen=True)
class Confusion:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    degenerate_flags: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FoldReport:
    per_fold: tuple[Metrics, ...]
    mean: Metrics
    f1_std: float


def confusion_from_predictions(
    preds: list[PredictionRecord], golds: dict[str, str]
) -> Confusion:
    seen: set[str] = set()
    tp = fp = fn = tn = 0
    for pred in preds:
        if pred.instance_id in seen:
            raise DuplicatePredictionError(f"duplicate prediction for {pred.instance_id!r}")
        seen.add(pred.instance_id)
        if pred.instance_id not in golds:
            raise MissingGoldError(f"no gold label for {pred.instance_id!r}")
        gold_positive = golds[pred.instance_id] == CAUSAL
        pred_positive = pred.predicted == CAUSAL
        if pred_positive and gold_positive:
            tp += 1
        elif pred_positive:
            fp += 1
        elif gold_positive:
            fn += 1
        else:
            tn += 1
    return Confusion(tp=tp, fp=fp, fn=fn, tn=tn)


def metrics_from_confusion(c: Confusion) -> Metrics:
    flags = set()
    if c.tp + c.fp == 0:
        flags.add(NO_POSITIVE_PREDICTIONS)
    if c.tp + c.fn == 0:
        flags.add(NO_POSITIVE_GOLDS)
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(precision=precision, recall=recall, f1=f1, degenerate_flags=frozenset(flags))


def compute_metrics(preds: list[PredictionRecord], golds: dict[str, str]) -> Metrics:
    """P/R/F1 with causal as the positive class."""
    return metrics_from_confusion(confusion_from_predictions(preds, golds))


def check_coverage(preds: list[PredictionRecord], expected_ids: Iterable[str], what: str) -> None:
    """Raise PredictionCoverageError unless ``preds`` hold exactly ``expected_ids``.

    ``compute_metrics`` scores whatever it is given; this is the check that
    nothing was dropped or slipped in. ``what`` names the id set in the error.
    """
    predicted = {p.instance_id for p in preds}
    expected = set(expected_ids)
    problems = []
    if expected - predicted:
        problems.append(f"no prediction for {sorted(expected - predicted)}")
    if predicted - expected:
        problems.append(f"extra predictions for {sorted(predicted - expected)}")
    if problems:
        raise PredictionCoverageError(f"{what}: " + "; ".join(problems))


def aggregate_folds(reports: list[Metrics]) -> FoldReport:
    """Arithmetic means across folds plus the population standard deviation of F1.

    A single fold yields std 0.
    """
    if not reports:
        raise ValueError("aggregate_folds needs at least one fold")
    mean = Metrics(
        precision=statistics.fmean(m.precision for m in reports),
        recall=statistics.fmean(m.recall for m in reports),
        f1=statistics.fmean(m.f1 for m in reports),
        degenerate_flags=frozenset().union(*(m.degenerate_flags for m in reports)),
    )
    return FoldReport(per_fold=tuple(reports), mean=mean, f1_std=statistics.pstdev(m.f1 for m in reports))


def read_predictions_jsonl(path: str | Path) -> list[PredictionRecord]:
    records: list[PredictionRecord] = []
    for lineno, data in jsonl_records(path):
        require_fields(data, ("instance_id", "predicted", "backend"), "prediction", lineno)
        if data["predicted"] not in LABELS:
            raise SchemaError(f"unknown label {data['predicted']!r}", line=lineno)
        records.append(
            PredictionRecord(
                instance_id=data["instance_id"],
                predicted=data["predicted"],
                score=data.get("score"),
                backend=data["backend"],
            )
        )
    return records


def format_report(report: FoldReport) -> str:
    """Aligned plain-text P/R/F1 table, one row per fold plus the mean."""
    lines = [f"{'fold':>6}  {'P':>8}  {'R':>8}  {'F1':>8}"]
    for i, m in enumerate(report.per_fold):
        lines.append(f"{i:>6}  {m.precision:>8.4f}  {m.recall:>8.4f}  {m.f1:>8.4f}")
    m = report.mean
    lines.append(f"{'mean':>6}  {m.precision:>8.4f}  {m.recall:>8.4f}  {m.f1:>8.4f}")
    lines.append(f"f1_std  {report.f1_std:.4f}")
    return "\n".join(lines) + "\n"
