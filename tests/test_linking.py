from __future__ import annotations

import re
import sys

import pytest

from kgprompt.dataset import CAUSAL, Instance, Span
from kgprompt.errors import OverrideConflictError
from kgprompt.linking import (
    EXACT,
    MANUAL_OVERRIDE,
    NORMALIZED,
    UNRESOLVED,
    link_pairs,
    normalize_name,
    search_lookup,
)

from fixtures_kg import make_graph


def instance_for(text: str, e1: str, e2: str) -> Instance:
    s1 = text.index(e1)
    s2 = text.index(e2)
    return Instance("i1", text, Span(s1, s1 + len(e1)), Span(s2, s2 + len(e2)), CAUSAL)


KG = make_graph(
    [("n1", "prostate cancer", "disease"), ("n2", "FGF6", "gene"), ("n3", "beta-carotene", "compound")],
    [("n2", "n1", "genetic association"), ("n3", "n1", "affects")],
)


def test_exact_match():
    instance = instance_for("FGF6 drives prostate cancer progression.", "FGF6", "prostate cancer")
    (linkage,) = link_pairs([instance], KG)
    assert (linkage.e1_node, linkage.e1_method) == ("n2", EXACT)
    assert (linkage.e2_node, linkage.e2_method) == ("n1", EXACT)


def test_normalized_match():
    instance = instance_for("Prostate Cancer is influenced by beta carotene.", "Prostate Cancer", "beta carotene")
    (linkage,) = link_pairs([instance], KG)
    assert (linkage.e1_node, linkage.e1_method) == ("n1", NORMALIZED)
    assert (linkage.e2_node, linkage.e2_method) == ("n3", NORMALIZED)


def test_unresolved_marker():
    instance = instance_for("Quizzical thing meets prostate cancer.", "Quizzical thing", "prostate cancer")
    (linkage,) = link_pairs([instance], KG)
    assert linkage.e1_node is None
    assert linkage.e1_method == UNRESOLVED
    assert linkage.e2_node == "n1"


def test_override_used_only_after_name_matching():
    instance = instance_for("P53 pathway and prostate cancer interact.", "P53 pathway", "prostate cancer")
    (linkage,) = link_pairs([instance], KG, overrides={"P53 pathway": "n2", "prostate cancer": "n3"})
    assert (linkage.e1_node, linkage.e1_method) == ("n2", MANUAL_OVERRIDE)
    # exact name match wins over the override table
    assert (linkage.e2_node, linkage.e2_method) == ("n1", EXACT)


def test_override_pointing_nowhere_conflicts():
    instance = instance_for("FGF6 drives prostate cancer progression.", "FGF6", "prostate cancer")
    with pytest.raises(OverrideConflictError):
        link_pairs([instance], KG, overrides={"anything": "ghost-node"})


def test_normalize_name():
    assert normalize_name("Beta-Carotene") == "beta carotene"
    assert normalize_name("  FGF6 ") == "fgf6"
    assert normalize_name("breast   cancer!") == "breast cancer"


def _two_pass_normalize(name: str) -> str:
    """The rule in its first form: each punctuation character to a space,
    then each whitespace run to one space."""
    return re.sub(r"\s+", " ", re.sub(r"[^\w\s]", " ", name.casefold())).strip()


@pytest.mark.parametrize("between", ["", "a"])
def test_normalize_name_is_the_two_pass_rule_on_every_code_point(between):
    every = between.join(map(chr, range(sys.maxunicode + 1)))
    chunks = (every[start:start + (1 << 16)] for start in range(0, len(every), 1 << 16))
    # compared as booleans: a diff of two 64k-character strings takes minutes
    assert [normalize_name(chunk) == _two_pass_normalize(chunk) for chunk in chunks].count(False) == 0


def test_search_lookup_cascade_resolves_each_name_once_in_order():
    answers = {
        "FGF6": [("Q1", "fgf6", "gene"), ("Q9", "FGF6", "other")],
        "Prostate cancer": [("Q2", "prostate carcinoma", "disease")],
        "smoking": [("Q3", "smoking", "habit")],
    }
    searched: list[str] = []

    def search(name: str) -> list[tuple[str, str, str]]:
        searched.append(name)
        return answers.get(name, [])

    instances = [
        instance_for("FGF6 drives Prostate cancer growth.", "FGF6", "Prostate cancer"),
        instance_for("Tar in smoking harms FGF6 carriers.", "smoking", "FGF6"),
        instance_for("Snuff may affect mystery tissue.", "Snuff", "mystery tissue"),
    ]
    linkages = link_pairs(instances, search_lookup(search), {"Snuff": "Q7", "FGF6": "Q8"})
    assert [(l.e1_node, l.e1_method, l.e2_node, l.e2_method) for l in linkages] == [
        ("Q1", EXACT, "Q2", NORMALIZED),  # a search hit wins over an override
        ("Q3", EXACT, "Q1", EXACT),
        ("Q7", MANUAL_OVERRIDE, None, UNRESOLVED),  # overrides are not checked remotely
    ]
    assert searched == ["FGF6", "Prostate cancer", "smoking", "Snuff", "mystery tissue"]
