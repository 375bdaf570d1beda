from __future__ import annotations

import json
from random import Random

import pytest

from kgprompt.dataset import CAUSAL, Instance, NON_CAUSAL, Span
from kgprompt.errors import (
    BudgetTooSmallError,
    EmptyPairError,
    MaskTokenError,
    UnknownArchitectureError,
    UnknownLabelError,
    UnknownLabelWordError,
)
from kgprompt.prompts import (
    Architecture,
    LabelMapping,
    TruncationPolicy,
    build_prompt,
    export_prompts_jsonl,
    map_label,
    prompt_to_record,
    truncate_prompt,
    unmap_label,
)
from kgprompt.structures import ExtractionLimits, extract_common_neighbors, enumerate_metapaths
from kgprompt.verbalize import verbalize_common_neighbors, verbalize_metapath

from conftest import DATA_DIR
from fixtures_kg import common_neighbor_graph, metapath_graph

SMOKING_GOLD = "Smoking causes cancer in adult male. It shows [MASK] relation."


def smoking_instance() -> Instance:
    text = "Smoking causes cancer in adult male."
    return Instance("smoking", text, Span(0, 7), Span(15, 21), CAUSAL)


def fgf6_instance() -> Instance:
    text = "FGF6 contributes to the growth of prostate cancer by activating FGF receptors."
    return Instance("fgf6", text, Span(0, 4), Span(34, 49), CAUSAL)


def metapath_context():
    kg = metapath_graph()
    bundle = enumerate_metapaths(kg, "M:FGF6", "M:PC", ExtractionLimits(), seed=203)
    return verbalize_metapath(kg.node("M:FGF6"), kg.node("M:PC"), bundle)


def cnn_context():
    kg = common_neighbor_graph()
    bundle = extract_common_neighbors(kg, "C:BC", "C:ERBB2", ExtractionLimits(), seed=203)
    return verbalize_common_neighbors(kg.node("C:BC"), kg.node("C:ERBB2"), bundle)


# --- assembly ---

def test_pairless_override_template_golden():
    p = build_prompt(
        smoking_instance(),
        None,
        ("Smoking", "cancer"),
        Architecture.MLM,
        LabelMapping.identity(),
        template="{text} It shows {mask} relation.",
    )
    assert p.prompt == SMOKING_GOLD


def test_cloze_element_order():
    context = metapath_context()
    instance = fgf6_instance()
    p = build_prompt(instance, context, ("FGF6", "prostate cancer"), Architecture.MLM, LabelMapping.identity())
    assert p.prompt.endswith("The pair FGF6 and prostate cancer shows a [MASK] relation.")
    assert p.prompt.index(instance.text) < p.prompt.index(context.text) < p.prompt.index("The pair FGF6")


def test_generative_suffix():
    context = metapath_context()
    for architecture in (Architecture.CLM, Architecture.SEQ2SEQ):
        p = build_prompt(
            fgf6_instance(), context, ("FGF6", "prostate cancer"), architecture,
            LabelMapping.custom("true", "false"),
        )
        assert p.prompt.endswith("shows a causal relation: [MASK].")


def test_generative_template_must_end_at_the_mask():
    for architecture in (Architecture.CLM, Architecture.SEQ2SEQ):
        with pytest.raises(MaskTokenError, match="'smoking': generative prompts must end at the generation slot"):
            build_prompt(
                smoking_instance(), None, ("Smoking", "cancer"), architecture,
                LabelMapping.custom("true", "false"), template="{text} It shows {mask} relation.",
            )


def test_empty_context_slot_omitted():
    instance = fgf6_instance()
    p = build_prompt(instance, None, ("FGF6", "prostate cancer"), Architecture.MLM, LabelMapping.identity())
    assert p.prompt == f"{instance.text} The pair FGF6 and prostate cancer shows a [MASK] relation."
    assert "  " not in p.prompt


def test_mask_uniqueness_enforced():
    instance = Instance("m", "Text mentions [MASK] already here.", Span(0, 4), Span(14, 20), CAUSAL)
    with pytest.raises(ValueError):
        build_prompt(instance, None, ("Text", "[MASK]"), Architecture.MLM, LabelMapping.identity())


def test_empty_pair_rejected():
    with pytest.raises(EmptyPairError):
        build_prompt(smoking_instance(), None, ("", "cancer"), Architecture.MLM, LabelMapping.identity())


def test_unknown_architecture_rejected():
    with pytest.raises(UnknownArchitectureError):
        build_prompt(smoking_instance(), None, ("Smoking", "cancer"), "bert", LabelMapping.identity())
    with pytest.raises(UnknownArchitectureError):
        Architecture.parse("rnn")


def test_custom_mask_token():
    p = build_prompt(
        smoking_instance(), None, ("Smoking", "cancer"), Architecture.MLM,
        LabelMapping.identity(), mask_token="<mask>",
    )
    assert p.prompt.count("<mask>") == 1
    assert "[MASK]" not in p.prompt


# --- label mapping ---

def test_map_label_custom_and_identity():
    custom = LabelMapping.custom("true", "false")
    assert map_label(custom, CAUSAL) == "true"
    assert map_label(custom, NON_CAUSAL) == "false"
    identity = LabelMapping.identity()
    assert map_label(identity, CAUSAL) == CAUSAL
    assert unmap_label(custom, "true") == CAUSAL
    assert unmap_label(identity, NON_CAUSAL) == NON_CAUSAL


def test_mapping_roundtrip_both_ways():
    mapping = LabelMapping.custom("yes", "no")
    for label in (CAUSAL, NON_CAUSAL):
        assert unmap_label(mapping, map_label(mapping, label)) == label
    for word in ("yes", "no"):
        assert map_label(mapping, unmap_label(mapping, word)) == word


def test_mapping_errors():
    mapping = LabelMapping.custom("true", "false")
    with pytest.raises(UnknownLabelError):
        map_label(mapping, "maybe")
    with pytest.raises(UnknownLabelWordError):
        unmap_label(mapping, "perhaps")
    with pytest.raises(ValueError):
        LabelMapping.custom("same", "same")


# --- truncation ---

def test_truncation_under_budget_unchanged():
    p = build_prompt(smoking_instance(), None, ("Smoking", "cancer"), Architecture.MLM, LabelMapping.identity())
    assert truncate_prompt(p, TruncationPolicy(max_units=256)) is p


def test_truncation_drops_two_context_items():
    instance = Instance(
        "t1",
        "ERBB2 amplification has been linked to breast cancer progression.",
        Span(0, 5),
        Span(39, 52),
        CAUSAL,
    )
    p = build_prompt(instance, cnn_context(), ("ERBB2", "breast cancer"), Architecture.MLM, LabelMapping.identity())
    # whitespace tokenizer oracle: 34 tokens full; each of the last two
    # names is a single token, so a budget of 32 forces exactly two drops
    assert len(p.prompt.split()) == 34
    truncated = truncate_prompt(p, TruncationPolicy(max_units=32))
    assert truncated.truncated
    assert truncated.dropped_context_items == 2
    assert truncated.graph_context.text.endswith("ADH5, mammary gland, exemestane")
    assert "TGFBR2" not in truncated.prompt and "DPYSL2" not in truncated.prompt
    assert truncated.prompt.endswith("The pair ERBB2 and breast cancer shows a [MASK] relation.")
    assert len(truncated.prompt.split()) <= 32


def test_truncation_falls_back_to_text_start():
    instance = Instance("t2", "alpha beta gamma delta epsilon", Span(0, 5), Span(11, 16), CAUSAL)
    p = build_prompt(instance, None, ("alpha", "gamma"), Architecture.MLM, LabelMapping.identity())
    truncated = truncate_prompt(p, TruncationPolicy(max_units=12))
    assert len(truncated.prompt.split()) <= 12
    assert truncated.dropped_text_units > 0
    assert truncated.prompt.endswith("The pair alpha and gamma shows a [MASK] relation.")


def test_truncation_budget_too_small():
    p = build_prompt(smoking_instance(), None, ("Smoking", "cancer"), Architecture.MLM, LabelMapping.identity())
    with pytest.raises(BudgetTooSmallError):
        truncate_prompt(p, TruncationPolicy(max_units=3))


def test_truncation_character_mode():
    instance = Instance("t3", "x" * 50 + " y" * 5, Span(0, 5), Span(51, 52), CAUSAL)
    p = build_prompt(instance, None, ("xxxxx", "y"), Architecture.MLM, LabelMapping.identity())
    policy = TruncationPolicy(max_units=60, unit="character")
    truncated = truncate_prompt(p, policy)
    assert len(truncated.prompt) <= 60
    assert truncated.prompt.endswith("shows a [MASK] relation.")


def test_truncation_idempotent_and_bounded():
    rng = Random(5150)
    mapping = LabelMapping.identity()
    for _ in range(30):
        words = [f"w{rng.randrange(100)}" for _ in range(rng.randint(5, 60))]
        text = " ".join(words)
        instance = Instance("r", text, Span(0, len(words[0])), Span(len(words[0]) + 1, len(words[0]) + 1 + len(words[1])), CAUSAL)
        p = build_prompt(instance, cnn_context(), (instance.e1, instance.e2), Architecture.MLM, mapping)
        policy = TruncationPolicy(max_units=rng.randint(14, 40))
        once = truncate_prompt(p, policy)
        assert policy.measure(once.prompt) <= policy.max_units
        assert truncate_prompt(once, policy) is once


# --- export / reload ---

def golden_prompts():
    mlm = build_prompt(
        smoking_instance(), None, ("Smoking", "cancer"), Architecture.MLM,
        LabelMapping.identity(), template="{text} It shows {mask} relation.",
    )
    mp_mlm = build_prompt(
        fgf6_instance(), metapath_context(), ("FGF6", "prostate cancer"),
        Architecture.MLM, LabelMapping.identity(),
    )
    mp_clm = build_prompt(
        fgf6_instance(), metapath_context(), ("FGF6", "prostate cancer"),
        Architecture.CLM, LabelMapping.custom("true", "false"),
    )
    return [mlm, mp_mlm, mp_clm]


def test_export_empty_list(tmp_path):
    path = tmp_path / "prompts.jsonl"
    assert export_prompts_jsonl([], path) == 0
    assert path.read_text(encoding="utf-8") == ""
    assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == []


def test_export_matches_golden_file(tmp_path):
    path = tmp_path / "prompts.jsonl"
    export_prompts_jsonl(golden_prompts(), path)
    golden = DATA_DIR / "golden_prompts.jsonl"
    assert path.read_bytes() == golden.read_bytes()


def test_exported_record_schema():
    record = prompt_to_record(golden_prompts()[2])
    assert list(record) == [
        "instance_id", "architecture", "prompt", "mask_token", "pair",
        "label_words", "gold_label", "truncated",
    ]
    assert record["architecture"] == "CLM"
    assert record["label_words"] == {"causal": "true", "non_causal": "false"}
    assert record["pair"] == ["FGF6", "prostate cancer"]
