"""Prompt assembly: textual context + graph context + pair clause + mask.

Two prompt shapes are produced depending on the model architecture: a
cloze form for masked LMs and a generative form for causal/seq2seq LMs.
Element order is fixed (textual context, then graph context, then the pair
clause) under every template. The mask token string is backend
configuration, since model families spell it differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .atomic import write_jsonl
from .dataset import CAUSAL, Instance, LABELS, NON_CAUSAL
from .errors import (
    BudgetTooSmallError,
    EmptyPairError,
    MaskTokenError,
    UnknownArchitectureError,
    UnknownLabelError,
    UnknownLabelWordError,
    check_field_types,
)
from .verbalize import GraphContext

DEFAULT_MASK_TOKEN = "[MASK]"

# Fixed element order: textual context, graph context, pair clause.
CLOZE_TEMPLATE = "{prefix}The pair {e1} and {e2} shows a {mask} relation."
GENERATIVE_TEMPLATE = "{prefix}The pair {e1} and {e2} shows a causal relation: {mask}."


class Architecture(str, Enum):
    MLM = "MLM"
    CLM = "CLM"
    SEQ2SEQ = "Seq2Seq"

    @property
    def generative(self) -> bool:
        return self is not Architecture.MLM

    @classmethod
    def parse(cls, value: str) -> "Architecture":
        for member in cls:
            if member.value.lower() == value.lower():
                return member
        raise UnknownArchitectureError(
            f"unknown architecture {value!r}; expected one of {[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class LabelMapping:
    """Injective map between the two class labels and model label words."""

    mode: str
    causal: str
    non_causal: str

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.causal == self.non_causal:
            raise ValueError("label words must be distinct (mapping must be injective)")
        if not (self.causal and self.non_causal):
            raise ValueError("label words must be non-empty")

    @classmethod
    def identity(cls) -> "LabelMapping":
        return cls("identity", CAUSAL, NON_CAUSAL)

    @classmethod
    def custom(cls, causal_word: str, non_causal_word: str) -> "LabelMapping":
        return cls("custom", causal_word, non_causal_word)

    def candidates(self) -> tuple[str, str]:
        # Causal first, by convention; ties downstream break on this order.
        return (self.causal, self.non_causal)

    def label_words(self) -> dict[str, str]:
        return {"causal": self.causal, "non_causal": self.non_causal}


def map_label(mapping: LabelMapping, y: str) -> str:
    for label, word in zip(LABELS, mapping.candidates()):
        if label == y:
            return word
    raise UnknownLabelError(f"unknown class label {y!r}")


def unmap_label(mapping: LabelMapping, word: str) -> str:
    for label, candidate in zip(LABELS, mapping.candidates()):
        if candidate == word:
            return label
    raise UnknownLabelWordError(f"label word {word!r} is not in the mapping range")


@dataclass(frozen=True)
class TruncationPolicy:
    """Prompt length budget; the pair clause and mask are never dropped."""

    max_units: int = 256
    unit: str = "whitespace_token"

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.max_units < 1:
            raise ValueError("max_units must be >= 1")
        if self.unit not in ("whitespace_token", "character"):
            raise ValueError(f"unknown truncation unit {self.unit!r}")

    def measure(self, text: str) -> int:
        return len(text.split()) if self.unit == "whitespace_token" else len(text)


@dataclass(frozen=True)
class PromptInstance:
    instance_id: str
    architecture: Architecture
    text: str
    graph_context: GraphContext | None
    pair: tuple[str, str]
    prompt: str
    mask_token: str
    label_words: dict[str, str] = field(default_factory=dict)
    gold_label: str | None = None
    template: str | None = None
    truncated: bool = False
    dropped_context_items: int = 0
    dropped_text_units: int = 0


def _assemble(
    text: str,
    context_text: str,
    e1: str,
    e2: str,
    architecture: Architecture,
    mask_token: str,
    template: str | None,
) -> str:
    if template is not None:
        return template.format(text=text, context=context_text, e1=e1, e2=e2, mask=mask_token)
    parts = [part for part in (text, context_text) if part]
    prefix = " ".join(parts) + " " if parts else ""
    base = GENERATIVE_TEMPLATE if architecture.generative else CLOZE_TEMPLATE
    return base.format(prefix=prefix, e1=e1, e2=e2, mask=mask_token)


def _check_mask(prompt: str, architecture: Architecture, mask_token: str, instance_id: str) -> None:
    occurrences = prompt.count(mask_token)
    if occurrences != 1:
        raise MaskTokenError(
            f"instance {instance_id!r}: prompt must contain the mask token "
            f"{mask_token!r} exactly once, found {occurrences}"
        )
    if architecture.generative and not (
        prompt.endswith(mask_token) or prompt.endswith(f"{mask_token}.")
    ):
        raise MaskTokenError(
            f"instance {instance_id!r}: generative prompts must end at the generation slot"
        )


def build_prompt(
    instance: Instance,
    graph_context: GraphContext | None,
    pair: tuple[str, str],
    architecture: Architecture,
    mapping: LabelMapping,
    mask_token: str = DEFAULT_MASK_TOKEN,
    template: str | None = None,
) -> PromptInstance:
    """Assemble the final prompt string for one instance.

    An empty (or missing) graph context omits the context slot and
    its surrounding space. ``template`` overrides the architecture default;
    it is a format string over {text}, {context}, {e1}, {e2} and {mask}.
    """
    if not isinstance(architecture, Architecture):
        raise UnknownArchitectureError(f"unknown architecture {architecture!r}")
    e1, e2 = pair
    if not e1 or not e2:
        raise EmptyPairError(f"instance {instance.instance_id!r}: pair names must be non-empty")
    context_text = "" if graph_context is None else graph_context.text
    prompt = _assemble(instance.text, context_text, e1, e2, architecture, mask_token, template)
    _check_mask(prompt, architecture, mask_token, instance.instance_id)
    return PromptInstance(
        instance_id=instance.instance_id,
        architecture=architecture,
        text=instance.text,
        graph_context=graph_context,
        pair=(e1, e2),
        prompt=prompt,
        mask_token=mask_token,
        label_words=mapping.label_words(),
        gold_label=instance.label,
        template=template,
    )


def truncate_prompt(p: PromptInstance, policy: TruncationPolicy) -> PromptInstance:
    """Shrink an over-budget prompt without touching the pair clause.

    Graph-context items are dropped one at a time from the end of the
    context's list first; if the prompt is still over budget the textual
    context is trimmed from its start. Idempotent: a prompt within budget
    is returned unchanged.
    """
    minimal = _assemble("", "", p.pair[0], p.pair[1], p.architecture, p.mask_token, p.template)
    if policy.measure(minimal) > policy.max_units:
        raise BudgetTooSmallError(
            f"budget of {policy.max_units} {policy.unit} units cannot fit the pair clause "
            f"({policy.measure(minimal)} units)"
        )
    if policy.measure(p.prompt) <= policy.max_units:
        return p

    context = p.graph_context
    text = p.text
    dropped_items = 0
    dropped_text = 0

    def current_prompt() -> str:
        context_text = "" if context is None else context.text
        return _assemble(text, context_text, p.pair[0], p.pair[1], p.architecture, p.mask_token, p.template)

    prompt = p.prompt
    while policy.measure(prompt) > policy.max_units and context is not None and context.item_count > 0:
        context = context.without_last_item()
        dropped_items += 1
        prompt = current_prompt()
    while policy.measure(prompt) > policy.max_units and text:
        if policy.unit == "whitespace_token":
            split = text.split(None, 1)
            text = split[1] if len(split) == 2 else ""
        else:
            text = text[1:]
        dropped_text += 1
        prompt = current_prompt()

    return replace(
        p,
        text=text,
        graph_context=context,
        prompt=prompt,
        truncated=True,
        dropped_context_items=p.dropped_context_items + dropped_items,
        dropped_text_units=p.dropped_text_units + dropped_text,
    )


def prompt_to_record(p: PromptInstance) -> dict:
    """Wire-format dict for the prompt JSONL schema (stable field order)."""
    record = {
        "instance_id": p.instance_id,
        "architecture": p.architecture.value,
        "prompt": p.prompt,
        "mask_token": p.mask_token,
        "pair": [p.pair[0], p.pair[1]],
        "label_words": {
            "causal": p.label_words.get("causal", CAUSAL),
            "non_causal": p.label_words.get("non_causal", NON_CAUSAL),
        },
    }
    if p.gold_label is not None:
        record["gold_label"] = p.gold_label
    record["truncated"] = p.truncated
    return record


def export_prompts_jsonl(instances: list[PromptInstance], path: str | Path) -> int:
    return write_jsonl(path, map(prompt_to_record, instances))
