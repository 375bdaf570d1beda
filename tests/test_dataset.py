from __future__ import annotations

import json
from collections import Counter

import pytest

from kgprompt.dataset import (
    CAUSAL,
    FewShotConfig,
    FoldPlan,
    Instance,
    NON_CAUSAL,
    Span,
    kfold_split,
    load_dataset_jsonl,
    make_fold_plan,
    sample_few_shot,
)
from kgprompt.errors import (
    ClassExhaustedError,
    LabelError,
    ParseError,
    SchemaError,
    SpanError,
    TooFewInstancesError,
)
from kgprompt.pipeline import _plain


def balanced_pool(n: int, prefix: str = "i") -> list[Instance]:
    instances = []
    for i in range(n):
        label = CAUSAL if i % 2 == 0 else NON_CAUSAL
        text = f"alpha{i} affects beta{i} in this sentence."
        e1 = f"alpha{i}"
        e2 = f"beta{i}"
        instances.append(
            Instance(
                f"{prefix}{i:03d}", text,
                Span(text.index(e1), text.index(e1) + len(e1)),
                Span(text.index(e2), text.index(e2) + len(e2)),
                label,
            )
        )
    return instances


# --- loading ---

def test_load_valid_instance(tmp_path):
    text = "FGF6 contributes to the growth of prostate cancer in several assays."
    record = {
        "instance_id": "x1",
        "text": text,
        "e1": {"start": 0, "end": 4},
        "e2": {"start": 34, "end": 49},
        "label": "causal",
    }
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (instance,) = load_dataset_jsonl(path)
    assert instance.e1 == "FGF6"
    assert instance.e2 == "prostate cancer"
    assert instance.label == CAUSAL


def test_span_out_of_bounds(tmp_path):
    record = {
        "instance_id": "x1", "text": "short", "e1": {"start": 0, "end": 2},
        "e2": {"start": 3, "end": 99}, "label": "causal",
    }
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SpanError):
        load_dataset_jsonl(path)


def test_overlapping_spans_rejected():
    with pytest.raises(SpanError):
        Instance("x", "overlapping words", Span(0, 11), Span(4, 16), CAUSAL)


def test_bad_label(tmp_path):
    record = {
        "instance_id": "x1", "text": "a likes b", "e1": {"start": 0, "end": 1},
        "e2": {"start": 8, "end": 9}, "label": "maybe",
    }
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(LabelError):
        load_dataset_jsonl(path)


def test_duplicate_instance_id(tmp_path):
    record = {
        "instance_id": "x1", "text": "a likes b", "e1": {"start": 0, "end": 1},
        "e2": {"start": 8, "end": 9}, "label": "causal",
    }
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="duplicate"):
        load_dataset_jsonl(path)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("instance_id", None), ("instance_id", True), ("instance_id", 1.5), ("instance_id", ["x1"]),
        ("text", 12345678), ("text", None), ("text", ["a likes b"]),
    ],
    ids=["id-null", "id-bool", "id-float", "id-list", "text-int", "text-null", "text-list"],
)
def test_instance_id_and_text_keep_their_json_type(tmp_path, field, bad):
    # An id is a string or an integer (not a bool), as a node id is; a text is a string.
    good = {
        "instance_id": "x1", "text": "a likes b", "e1": {"start": 0, "end": 1},
        "e2": {"start": 2, "end": 3}, "label": "causal",
    }
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: bad}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^line 2: {field} must be a string") as err:
        load_dataset_jsonl(path)
    assert err.value.line == 2


def test_integer_instance_id_reads_as_its_string(tmp_path):
    record = {
        "instance_id": 7, "text": "a likes b", "e1": {"start": 0, "end": 1},
        "e2": {"start": 8, "end": 9}, "label": "causal",
    }
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert load_dataset_jsonl(path)[0].instance_id == "7"


def test_parse_error_line_number(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_dataset_jsonl(path)
    assert err.value.line == 1


# --- folds ---

def test_ten_instances_five_folds_partition():
    instances = balanced_pool(10)
    plan = make_fold_plan(instances, n_folds=5, seed=203)
    folds = kfold_split(instances, plan)
    assert len(folds) == 5
    all_test = [tid for _train, test in folds for tid in test]
    assert sorted(all_test) == sorted(i.instance_id for i in instances)
    for _train, test in folds:
        assert len(test) == 2
    tests_sets = [set(test) for _train, test in folds]
    for i in range(5):
        for j in range(i + 1, 5):
            assert not (tests_sets[i] & tests_sets[j])


def test_fold_plan_deterministic():
    instances = balanced_pool(23)
    a = make_fold_plan(instances, n_folds=5, seed=77)
    b = make_fold_plan(instances, n_folds=5, seed=77)
    assert a == b
    assert a != make_fold_plan(instances, n_folds=5, seed=78)


def test_every_instance_in_exactly_four_training_sets():
    instances = balanced_pool(100)
    plan = make_fold_plan(instances, n_folds=5, seed=203)
    folds = kfold_split(instances, plan)
    train_appearances = Counter()
    for train, _test in folds:
        train_appearances.update(train)
    assert all(count == 4 for count in train_appearances.values())
    assert len(train_appearances) == 100


def test_fold_sizes_within_one():
    for n in (11, 13, 17, 101):
        instances = balanced_pool(n)
        plan = make_fold_plan(instances, n_folds=5, seed=3)
        sizes = Counter(plan.assignments.values())
        assert max(sizes.values()) - min(sizes.values()) <= 1


def test_stratified_fold_sizes_within_one():
    # 7 causal / 3 non-causal exercises the global fold cursor
    instances = [
        Instance(f"s{i}", f"a{i} then b{i} happens.", Span(0, 2), Span(8, 10),
                 CAUSAL if i < 7 else NON_CAUSAL)
        for i in range(10)
    ]
    plan = make_fold_plan(instances, n_folds=5, seed=1, stratified=True)
    sizes = Counter(plan.assignments.values())
    assert max(sizes.values()) - min(sizes.values()) <= 1


def test_too_few_instances_for_folds():
    with pytest.raises(TooFewInstancesError):
        make_fold_plan(balanced_pool(3), n_folds=5, seed=1)


def test_fold_plan_dict_roundtrip():
    plan = make_fold_plan(balanced_pool(10), n_folds=5, seed=203)
    assert FoldPlan(**json.loads(json.dumps(_plain(plan)))) == plan


# --- few-shot sampling ---

def test_stratified_sixteen_shot_is_eight_eight():
    instances = balanced_pool(100)
    train_ids = [i.instance_id for i in instances]
    sample = sample_few_shot(train_ids, instances, FewShotConfig(k=16, seed=203))
    assert len(sample) == 16
    labels = Counter(
        next(i.label for i in instances if i.instance_id == sid) for sid in sample
    )
    assert labels[CAUSAL] == 8
    assert labels[NON_CAUSAL] == 8


def test_seed_203_sample_reproducible():
    instances = balanced_pool(60)
    train_ids = [i.instance_id for i in instances]
    cfg = FewShotConfig(k=16, seed=203)
    assert sample_few_shot(train_ids, instances, cfg) == sample_few_shot(train_ids, instances, cfg)


def test_class_exhausted():
    instances = balanced_pool(40)
    causal_ids = [i.instance_id for i in instances if i.label == CAUSAL][:3]
    non_causal_ids = [i.instance_id for i in instances if i.label == NON_CAUSAL]
    train_ids = causal_ids + non_causal_ids
    with pytest.raises(ClassExhaustedError):
        sample_few_shot(train_ids, instances, FewShotConfig(k=16, seed=203))


def test_too_few_instances_for_sample():
    instances = balanced_pool(12)
    train_ids = [i.instance_id for i in instances]
    with pytest.raises(TooFewInstancesError):
        sample_few_shot(train_ids, instances, FewShotConfig(k=16, seed=203))


def test_unstratified_sampling():
    instances = balanced_pool(30)
    train_ids = [i.instance_id for i in instances]
    sample = sample_few_shot(train_ids, instances, FewShotConfig(k=5, seed=9, stratified=False))
    assert len(sample) == 5
    assert set(sample) <= set(train_ids)


def test_sample_never_leaks_test_ids_over_100_seeds():
    instances = balanced_pool(100)
    for seed in range(100):
        plan = make_fold_plan(instances, n_folds=5, seed=seed)
        for train_ids, test_ids in kfold_split(instances, plan):
            sample = sample_few_shot(train_ids, instances, FewShotConfig(k=16, seed=seed))
            assert set(sample) <= set(train_ids)
            assert not (set(sample) & set(test_ids))


def test_few_shot_config_validation():
    with pytest.raises(ValueError):
        FewShotConfig(k=1, stratified=True)
    with pytest.raises(ValueError):
        FewShotConfig(k=0)
    assert FewShotConfig().k == 16
    assert FewShotConfig().seed == 203
