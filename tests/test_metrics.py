from __future__ import annotations

import json
from random import Random

import pytest

from kgprompt.backend import PredictionRecord, write_predictions_jsonl
from kgprompt.dataset import CAUSAL, NON_CAUSAL
from kgprompt.errors import (
    DuplicatePredictionError,
    MissingGoldError,
    ParseError,
    PredictionCoverageError,
    SchemaError,
)
from kgprompt.metrics import (
    Confusion,
    Metrics,
    NO_POSITIVE_GOLDS,
    NO_POSITIVE_PREDICTIONS,
    aggregate_folds,
    check_coverage,
    compute_metrics,
    confusion_from_predictions,
    format_report,
    metrics_from_confusion,
    read_predictions_jsonl,
)

from oracles import brute_force_confusion


def records_from_pairs(pairs):
    preds = [
        PredictionRecord(instance_id=f"i{n}", predicted=predicted, backend="test")
        for n, (predicted, _gold) in enumerate(pairs)
    ]
    golds = {f"i{n}": gold for n, (_predicted, gold) in enumerate(pairs)}
    return preds, golds


def test_all_correct_is_perfect():
    pairs = [(CAUSAL, CAUSAL)] * 3 + [(NON_CAUSAL, NON_CAUSAL)] * 2
    preds, golds = records_from_pairs(pairs)
    m = compute_metrics(preds, golds)
    assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert not m.degenerate_flags


def test_hand_built_confusion_case():
    # tp=3, fp=1, fn=2
    pairs = (
        [(CAUSAL, CAUSAL)] * 3
        + [(CAUSAL, NON_CAUSAL)] * 1
        + [(NON_CAUSAL, CAUSAL)] * 2
        + [(NON_CAUSAL, NON_CAUSAL)] * 4
    )
    preds, golds = records_from_pairs(pairs)
    m = compute_metrics(preds, golds)
    assert abs(m.precision - 0.75) <= 1e-9
    assert abs(m.recall - 0.6) <= 1e-9
    assert abs(m.f1 - 2 / 3) <= 1e-9


def test_degenerate_no_positive_predictions():
    pairs = [(NON_CAUSAL, CAUSAL), (NON_CAUSAL, NON_CAUSAL)]
    preds, golds = records_from_pairs(pairs)
    m = compute_metrics(preds, golds)
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert NO_POSITIVE_PREDICTIONS in m.degenerate_flags


def test_degenerate_no_positive_golds():
    pairs = [(NON_CAUSAL, NON_CAUSAL), (NON_CAUSAL, NON_CAUSAL)]
    preds, golds = records_from_pairs(pairs)
    m = compute_metrics(preds, golds)
    assert NO_POSITIVE_GOLDS in m.degenerate_flags


def test_missing_gold_and_duplicates():
    preds = [PredictionRecord("a", CAUSAL, backend="t")]
    with pytest.raises(MissingGoldError):
        compute_metrics(preds, {"b": CAUSAL})
    preds = [PredictionRecord("a", CAUSAL, backend="t"), PredictionRecord("a", CAUSAL, backend="t")]
    with pytest.raises(DuplicatePredictionError):
        compute_metrics(preds, {"a": CAUSAL})


def test_matches_brute_force_on_random_sets():
    rng = Random(616)
    for _ in range(1000):
        n = rng.randint(1, 40)
        pairs = [
            (rng.choice((CAUSAL, NON_CAUSAL)), rng.choice((CAUSAL, NON_CAUSAL)))
            for _ in range(n)
        ]
        preds, golds = records_from_pairs(pairs)
        confusion = confusion_from_predictions(preds, golds)
        tp, fp, fn, tn = brute_force_confusion(pairs)
        assert (confusion.tp, confusion.fp, confusion.fn, confusion.tn) == (tp, fp, fn, tn)
        m = metrics_from_confusion(confusion)
        expected_p = tp / (tp + fp) if tp + fp else 0.0
        expected_r = tp / (tp + fn) if tp + fn else 0.0
        expected_f1 = (
            2 * expected_p * expected_r / (expected_p + expected_r)
            if expected_p + expected_r
            else 0.0
        )
        assert abs(m.precision - expected_p) <= 1e-9
        assert abs(m.recall - expected_r) <= 1e-9
        assert abs(m.f1 - expected_f1) <= 1e-9


def test_permutation_invariance():
    rng = Random(23)
    pairs = [(rng.choice((CAUSAL, NON_CAUSAL)), rng.choice((CAUSAL, NON_CAUSAL))) for _ in range(25)]
    preds, golds = records_from_pairs(pairs)
    base = compute_metrics(preds, golds)
    for _ in range(5):
        rng.shuffle(preds)
        assert compute_metrics(preds, golds) == base


def test_label_swap_duality():
    rng = Random(99)
    for _ in range(50):
        pairs = [
            (rng.choice((CAUSAL, NON_CAUSAL)), rng.choice((CAUSAL, NON_CAUSAL)))
            for _ in range(rng.randint(1, 30))
        ]
        preds, golds = records_from_pairs(pairs)
        c = confusion_from_predictions(preds, golds)
        flip = {CAUSAL: NON_CAUSAL, NON_CAUSAL: CAUSAL}
        swapped_pairs = [(flip[p], flip[g]) for p, g in pairs]
        swapped_preds, swapped_golds = records_from_pairs(swapped_pairs)
        s = confusion_from_predictions(swapped_preds, swapped_golds)
        assert (s.tp, s.fn) == (c.tn, c.fp)
        assert (s.tn, s.fp) == (c.tp, c.fn)


# --- aggregation ---

def metric(f1=0.5, p=0.5, r=0.5):
    return Metrics(precision=p, recall=r, f1=f1)


def test_single_fold_aggregate():
    report = aggregate_folds([metric(f1=0.8, p=0.7, r=0.9)])
    assert report.mean == report.per_fold[0]
    assert report.f1_std == 0.0


def test_two_point_aggregate_closed_form():
    report = aggregate_folds([metric(f1=0.8), metric(f1=0.6)])
    assert abs(report.mean.f1 - 0.7) <= 1e-12
    assert abs(report.f1_std - 0.1) <= 1e-12


def test_five_identical_folds_zero_std():
    report = aggregate_folds([metric(f1=0.42)] * 5)
    assert report.f1_std == 0.0


def test_aggregate_matches_direct_recomputation():
    rng = Random(4)
    folds = [metric(f1=rng.random(), p=rng.random(), r=rng.random()) for _ in range(5)]
    report = aggregate_folds(folds)
    mean_f1 = sum(m.f1 for m in folds) / 5
    var = sum((m.f1 - mean_f1) ** 2 for m in folds) / 5
    assert abs(report.mean.f1 - mean_f1) <= 1e-12
    assert abs(report.mean.precision - sum(m.precision for m in folds) / 5) <= 1e-12
    assert abs(report.f1_std - var**0.5) <= 1e-12


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate_folds([])


def test_f1_between_precision_and_recall():
    m = metrics_from_confusion(Confusion(tp=3, fp=1, fn=2, tn=0))
    assert min(m.precision, m.recall) <= m.f1 <= max(m.precision, m.recall)


# --- predictions file ---

def test_predictions_roundtrip(tmp_path):
    records = [
        PredictionRecord("a", CAUSAL, score=0.9, backend="http://x"),
        PredictionRecord("b", NON_CAUSAL, backend="mock:7"),
    ]
    path = tmp_path / "p.jsonl"
    write_predictions_jsonl(records, path)
    assert read_predictions_jsonl(path) == records


def test_predictions_empty_file(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text("", encoding="utf-8")
    assert read_predictions_jsonl(path) == []


def test_predictions_unknown_label(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"instance_id": "a", "predicted": "meh", "backend": "t"}) + "\n")
    with pytest.raises(SchemaError):
        read_predictions_jsonl(path)


@pytest.mark.parametrize(
    "content, error, message",
    [
        (b'{"instance_id": "a", "predicted": "causal", "backend": "t"}\n["b"]\n', SchemaError, "line 2: prediction must be a JSON object"),
        (b'{"instance_id": "a", "backend": "t"}\n', SchemaError, "line 1: prediction: missing field 'predicted'"),
        (b'{"instance_id": "a"\n', ParseError, "line 1: .*invalid JSON"),
        (b'{"instance_id": "a", "predicted": "causal", "backend": "t"}\n{"x": "\xff"}\n', ParseError, "line 2: .*not valid UTF-8"),
    ],
    ids=["not-an-object", "missing-field", "bad-json", "not-utf8"],
)
def test_predictions_bad_line_is_named(tmp_path, content, error, message):
    path = tmp_path / "p.jsonl"
    path.write_bytes(content)
    with pytest.raises(error, match=message):
        read_predictions_jsonl(path)


def test_report_formatting():
    report = aggregate_folds([metric(f1=0.8, p=0.75, r=0.9), metric(f1=0.6, p=0.5, r=0.7)])
    table = format_report(report)
    lines = table.strip().split("\n")
    assert lines[0].split() == ["fold", "P", "R", "F1"]
    assert "0.7000" in lines[-2]
    assert lines[-1].startswith("f1_std")


def test_coverage_check_names_dropped_and_extra_predictions():
    preds = [
        PredictionRecord(instance_id=i, predicted=CAUSAL, backend="test") for i in ("a", "c", "z")
    ]
    check_coverage(preds, ["c", "z", "a"], "fold 0")  # order does not matter
    with pytest.raises(PredictionCoverageError) as caught:
        check_coverage(preds, ["a", "b", "c"], "fold 3")
    message = str(caught.value)
    assert message.startswith("fold 3: ")
    assert "no prediction for ['b']" in message
    assert "extra predictions for ['z']" in message
    with pytest.raises(PredictionCoverageError, match=r"no prediction for \['b'\]$"):
        check_coverage(preds[:2], ["a", "b", "c"], "fold 3")
