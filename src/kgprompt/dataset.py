"""Pair-classification datasets: loading, fold plans and few-shot sampling.

An instance is a text in which a variable pair is marked by character
spans and annotated as causal or non-causal. Spans are character ranges
rather than token indices because source tokenizations differ and
character offsets are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor
from pathlib import Path
from random import Random

from .errors import (
    ClassExhaustedError,
    LabelError,
    SchemaError,
    SpanError,
    TooFewInstancesError,
    check_field_types,
    jsonl_records,
    require_fields,
    require_id,
    require_int,
    require_str,
)
from .structures import select_subset

CAUSAL = "causal"
NON_CAUSAL = "non-causal"
LABELS = (CAUSAL, NON_CAUSAL)


@dataclass(frozen=True, slots=True)
class Span:
    start: int
    end: int


@dataclass(frozen=True)
class Instance:
    instance_id: str
    text: str
    span1: Span
    span2: Span
    label: str

    def __post_init__(self) -> None:
        if not self.instance_id:
            raise SchemaError("instance_id must be non-empty")
        if self.label not in LABELS:
            raise LabelError(f"instance {self.instance_id!r}: label {self.label!r} not in {LABELS}")
        for name, span in (("e1", self.span1), ("e2", self.span2)):
            if not (0 <= span.start < span.end <= len(self.text)):
                raise SpanError(
                    f"instance {self.instance_id!r}: {name} span ({span.start}, {span.end}) "
                    f"out of bounds for text of length {len(self.text)}"
                )
        lo, hi = sorted((self.span1, self.span2), key=lambda s: s.start)
        if hi.start < lo.end:
            raise SpanError(f"instance {self.instance_id!r}: pair spans overlap")

    @property
    def e1(self) -> str:
        return self.text[self.span1.start : self.span1.end]

    @property
    def e2(self) -> str:
        return self.text[self.span2.start : self.span2.end]


@dataclass(frozen=True)
class FewShotConfig:
    k: int = 16
    seed: int = 203
    stratified: bool = True

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.stratified and self.k < 2:
            raise ValueError("stratified sampling needs k >= 2 (one instance per class)")


@dataclass(frozen=True)
class FoldPlan:
    n_folds: int
    seed: int
    assignments: dict[str, int]


def _instance_from_record(record: object, lineno: int) -> Instance:
    require_fields(record, ("instance_id", "text", "e1", "e2", "label"), "record", lineno)
    spans = []
    for name in ("e1", "e2"):
        body = require_fields(record[name], ("start", "end"), name, lineno)
        spans.append(
            Span(
                start=require_int(body["start"], f"{name}.start", lineno),
                end=require_int(body["end"], f"{name}.end", lineno),
            )
        )
    instance_id = require_id(record["instance_id"], "instance_id", lineno)
    if not instance_id:
        raise SchemaError("instance_id must be non-empty", line=lineno)
    return Instance(
        instance_id=instance_id,
        text=require_str(record["text"], "text", lineno),
        span1=spans[0],
        span2=spans[1],
        label=record["label"],
    )


def load_dataset_jsonl(path: str | Path) -> list[Instance]:
    """Load and validate instances; file order is preserved."""
    instances: list[Instance] = []
    seen_ids: set[str] = set()
    for lineno, record in jsonl_records(path):
        instance = _instance_from_record(record, lineno)
        if instance.instance_id in seen_ids:
            raise SchemaError(f"duplicate instance_id {instance.instance_id!r}", line=lineno)
        seen_ids.add(instance.instance_id)
        instances.append(instance)
    return instances


def make_fold_plan(
    instances: list[Instance], n_folds: int, seed: int, stratified: bool = False
) -> FoldPlan:
    """Seeded shuffle then round-robin fold assignment.

    Stratified mode round-robins within each class while keeping a global
    fold cursor, so fold sizes still differ by at most one.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    if len(instances) < n_folds:
        raise TooFewInstancesError(
            f"{len(instances)} instances cannot fill {n_folds} folds"
        )
    rng = Random(seed)
    ids = [inst.instance_id for inst in instances]
    rng.shuffle(ids)
    assignments: dict[str, int] = {}
    if not stratified:
        for i, instance_id in enumerate(ids):
            assignments[instance_id] = i % n_folds
    else:
        label_of = {inst.instance_id: inst.label for inst in instances}
        cursor = 0
        for label in LABELS:
            for instance_id in ids:
                if label_of[instance_id] == label:
                    assignments[instance_id] = cursor % n_folds
                    cursor += 1
    return FoldPlan(n_folds=n_folds, seed=seed, assignments=assignments)


def kfold_split(
    instances: list[Instance], plan: FoldPlan
) -> list[tuple[list[str], list[str]]]:
    """Materialize (train ids, test ids) per fold, in dataset order."""
    for inst in instances:
        if inst.instance_id not in plan.assignments:
            raise ValueError(f"fold plan does not cover instance {inst.instance_id!r}")
    folds = []
    for fold in range(plan.n_folds):
        test = [i.instance_id for i in instances if plan.assignments[i.instance_id] == fold]
        train = [i.instance_id for i in instances if plan.assignments[i.instance_id] != fold]
        folds.append((train, test))
    return folds


def sample_few_shot(
    train_ids: list[str], instances: list[Instance], cfg: FewShotConfig
) -> list[str]:
    """Draw the k-shot training sample from a fold's train ids.

    Stratified mode draws ceil(k/2) causal and floor(k/2) non-causal
    uniformly; the returned ids keep their original train order.
    """
    if len(train_ids) < cfg.k:
        raise TooFewInstancesError(
            f"need {cfg.k} training instances, pool has {len(train_ids)}"
        )
    if not cfg.stratified:
        return select_subset(train_ids, cfg.k, cfg.seed)

    rng = Random(cfg.seed)
    label_of = {inst.instance_id: inst.label for inst in instances}
    chosen: set[str] = set()
    for label, need in ((CAUSAL, ceil(cfg.k / 2)), (NON_CAUSAL, floor(cfg.k / 2))):
        pool = [tid for tid in train_ids if label_of[tid] == label]
        if len(pool) < need:
            raise ClassExhaustedError(
                f"class {label!r} has {len(pool)} training instances, need {need}"
            )
        chosen.update(pool[i] for i in rng.sample(range(len(pool)), need))
    return [tid for tid in train_ids if tid in chosen]
