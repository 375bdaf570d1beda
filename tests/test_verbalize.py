from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from kgprompt.errors import KindMismatchError, MissingLabelError
from kgprompt.structures import (
    ExtractionLimits,
    NeighborLink,
    StructureBundle,
    StructureKind,
    enumerate_metapaths,
    extract_common_neighbors,
    extract_neighbors,
)
from kgprompt.verbalize import (
    DEFAULT_TEMPLATES,
    ContextSegment,
    GraphContext,
    TemplateSet,
    combine_contexts,
    empty_context,
    verbalize_common_neighbors,
    verbalize_metapath,
    verbalize_neighbors,
    verbalize_neighbors_labeled,
)

from fixtures_kg import common_neighbor_graph, make_graph, metapath_graph, prostate_star_graph
from oracles import frozen_from_segments, random_graph

GOLD_NN = "prostate cancer is connected to nilutamide, cabazitaxel, urology, FSHR, F6F10"
GOLD_NN_LABELED = (
    "prostate cancer has drug or therapy used for treatment relation with "
    "nilutamide and cabazitaxel, has genetic association with FSHR and F6F10"
)
GOLD_CNN = (
    "Common neighbor nodes of breast cancer and ERBB2 are: "
    "ADH5, mammary gland, exemestane, TGFBR2, DPYSL2"
)
GOLD_MP = (
    "FGF6 is connected to prostate cancer via the following paths: "
    "FGF6 expressed in tendon, tendon expresses SQRDL, FGFR2 regulates SQRDL, "
    "FGFR2 associates with prostate cancer"
)


def nn_bundle(kg, x, max_neighbors=5, seed=203):
    return extract_neighbors(kg, x, ExtractionLimits(max_neighbors=max_neighbors), seed)


def labeled_bundle_without_urology(kg):
    # the labeled reference rendering covers the four labeled neighbors only
    payload = tuple(
        NeighborLink(node=kg.node(nid), labels=tuple(kg.relation_labels_between("Q:PC", nid)))
        for nid in ("Q:NIL", "Q:CAB", "Q:FSHR", "Q:F6F10")
    )
    return StructureBundle(
        kind=StructureKind.NN,
        pair=("Q:PC", None),
        payload=payload,
        selection_seed=203,
        candidate_count=5,
    )


def test_neighbors_golden():
    kg = prostate_star_graph()
    context = verbalize_neighbors(kg.node("Q:PC"), nn_bundle(kg, "Q:PC"))
    assert context.text == GOLD_NN
    assert not context.empty


def test_neighbors_empty_payload():
    kg = make_graph([("a", "A", "t")], [])
    context = verbalize_neighbors(kg.node("a"), nn_bundle(kg, "a"))
    assert context.empty
    assert context.text == ""
    assert context.source_nodes == ()


def test_neighbors_single_item_has_no_separator():
    kg = make_graph([("a", "a", "t"), ("b", "b", "t")], [("a", "b", "r")])
    context = verbalize_neighbors(kg.node("a"), nn_bundle(kg, "a"))
    assert context.text == "a is connected to b"


def test_neighbors_labeled_golden():
    kg = prostate_star_graph()
    context = verbalize_neighbors_labeled(kg.node("Q:PC"), labeled_bundle_without_urology(kg))
    assert context.text == GOLD_NN_LABELED


def test_neighbors_labeled_single():
    kg = make_graph([("x", "x", "t"), ("n", "n", "t")], [("x", "n", "L")])
    context = verbalize_neighbors_labeled(kg.node("x"), nn_bundle(kg, "x"))
    assert context.text == "x has L relation with n"


def test_neighbors_labeled_three_under_one_label():
    kg = make_graph(
        [("x", "x", "t"), ("p", "n1", "t"), ("q", "n2", "t"), ("r", "n3", "t")],
        [("x", "p", "L"), ("x", "q", "L"), ("x", "r", "L")],
    )
    context = verbalize_neighbors_labeled(kg.node("x"), nn_bundle(kg, "x"))
    assert context.text == "x has L relation with n1, n2 and n3"


def test_neighbors_labeled_missing_label():
    kg = prostate_star_graph()
    bundle = StructureBundle(
        kind=StructureKind.NN,
        pair=("Q:PC", None),
        payload=(NeighborLink(node=kg.node("Q:NIL"), labels=()),),
        selection_seed=0,
        candidate_count=1,
    )
    with pytest.raises(MissingLabelError):
        verbalize_neighbors_labeled(kg.node("Q:PC"), bundle)


def test_common_neighbors_golden():
    kg = common_neighbor_graph()
    bundle = extract_common_neighbors(kg, "C:BC", "C:ERBB2", ExtractionLimits(), seed=203)
    context = verbalize_common_neighbors(kg.node("C:BC"), kg.node("C:ERBB2"), bundle)
    assert context.text == GOLD_CNN


def test_common_neighbors_empty_and_singleton():
    kg = make_graph(
        [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "t")],
        [("a", "c", "r"), ("c", "b", "r")],
    )
    bundle = extract_common_neighbors(kg, "a", "b", ExtractionLimits(), seed=1)
    context = verbalize_common_neighbors(kg.node("a"), kg.node("b"), bundle)
    assert context.text == "Common neighbor nodes of A and B are: C"
    empty_bundle = StructureBundle(
        kind=StructureKind.CNN, pair=("a", "b"), payload=(), selection_seed=1, candidate_count=0
    )
    assert verbalize_common_neighbors(kg.node("a"), kg.node("b"), empty_bundle).empty


def test_metapath_golden():
    kg = metapath_graph()
    bundle = enumerate_metapaths(kg, "M:FGF6", "M:PC", ExtractionLimits(max_metapaths=1), seed=203)
    context = verbalize_metapath(kg.node("M:FGF6"), kg.node("M:PC"), bundle)
    assert context.text == GOLD_MP


def test_metapath_two_clause_render():
    kg = make_graph(
        [("a", "a", "t"), ("b", "b", "t"), ("c", "c", "t")],
        [("a", "b", "r"), ("b", "c", "s")],
    )
    bundle = enumerate_metapaths(kg, "a", "c", ExtractionLimits(), seed=1)
    context = verbalize_metapath(kg.node("a"), kg.node("c"), bundle)
    assert context.text == "a is connected to c via the following paths: a r b, b s c"


def test_metapath_empty_payload():
    kg = metapath_graph()
    bundle = StructureBundle(
        kind=StructureKind.MP, pair=("M:FGF6", "M:PC"), payload=(), selection_seed=1, candidate_count=0
    )
    assert verbalize_metapath(kg.node("M:FGF6"), kg.node("M:PC"), bundle).empty


def test_multiple_metapaths_joined_with_semicolon():
    kg = make_graph(
        [("a", "a", "t"), ("b", "b", "t"), ("c", "c", "t"), ("d", "d", "t")],
        [("a", "b", "r"), ("b", "d", "r"), ("a", "c", "r"), ("c", "d", "r")],
    )
    bundle = enumerate_metapaths(kg, "a", "d", ExtractionLimits(max_metapaths=2), seed=1)
    context = verbalize_metapath(kg.node("a"), kg.node("d"), bundle)
    assert context.text.count(";") == 1
    assert context.text.startswith("a is connected to d via the following paths: ")


def test_kind_mismatch_raises():
    kg = prostate_star_graph()
    bundle = nn_bundle(kg, "Q:PC")
    with pytest.raises(KindMismatchError):
        verbalize_common_neighbors(kg.node("Q:PC"), kg.node("Q:NIL"), bundle)
    with pytest.raises(KindMismatchError):
        verbalize_metapath(kg.node("Q:PC"), kg.node("Q:NIL"), bundle)


def _bundles_of_each_kind():
    kg = make_graph(
        [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "t")],
        [("a", "b", "r"), ("b", "c", "s"), ("a", "c", "q")],
    )
    limits = ExtractionLimits(max_hops=2)
    return kg, {
        StructureKind.NN: extract_neighbors(kg, "a", limits, 1),
        StructureKind.CNN: extract_common_neighbors(kg, "a", "c", limits, 1),
        StructureKind.MP: enumerate_metapaths(kg, "a", "c", limits, 1),
    }


RENDERERS = [
    (verbalize_neighbors, StructureKind.NN),
    (verbalize_neighbors_labeled, StructureKind.NN),
    (verbalize_common_neighbors, StructureKind.CNN),
    (verbalize_metapath, StructureKind.MP),
]


@pytest.mark.parametrize("renderer, kind", RENDERERS, ids=[r.__name__ for r, _kind in RENDERERS])
@pytest.mark.parametrize("bundle_kind", list(StructureKind), ids=[k.value for k in StructureKind])
def test_every_renderer_checks_the_kind_before_the_payload(renderer, kind, bundle_kind):
    kg, bundles = _bundles_of_each_kind()
    nodes = (kg.node("a"),) if kind is StructureKind.NN else (kg.node("a"), kg.node("c"))
    bundle = bundles[bundle_kind]
    assert bundle.payload  # items of the bundle's own kind
    if bundle_kind is not kind:
        for wrong in (bundle, replace(bundle, payload=())):
            with pytest.raises(KindMismatchError):
                renderer(*nodes, wrong)
        return
    assert not renderer(*nodes, bundle).empty
    empty = renderer(*nodes, replace(bundle, payload=()))
    assert (empty.kind, empty.text, empty.segments) == (kind, "", ())


def test_name_fidelity_and_source_nodes():
    kg = prostate_star_graph()
    context = verbalize_neighbors(kg.node("Q:PC"), nn_bundle(kg, "Q:PC"))
    for nid in context.source_nodes:
        assert kg.node(nid).name in context.text


def test_template_substitution_changes_only_that_literal():
    kg = prostate_star_graph()
    bundle = nn_bundle(kg, "Q:PC")
    base = verbalize_neighbors(kg.node("Q:PC"), bundle, DEFAULT_TEMPLATES).text
    swapped = verbalize_neighbors(
        kg.node("Q:PC"), bundle, TemplateSet(nn_connective="links to")
    ).text
    assert swapped == base.replace("is connected to", "links to")


def test_determinism_same_bundle_same_string():
    kg = common_neighbor_graph()
    bundle = extract_common_neighbors(kg, "C:BC", "C:ERBB2", ExtractionLimits(), seed=203)
    a = verbalize_common_neighbors(kg.node("C:BC"), kg.node("C:ERBB2"), bundle).text
    b = verbalize_common_neighbors(kg.node("C:BC"), kg.node("C:ERBB2"), bundle).text
    assert a == b


def test_template_fields_must_be_non_empty():
    with pytest.raises(ValueError):
        TemplateSet(list_separator="")


def test_combine_contexts_two_sides():
    kg = prostate_star_graph()
    c1 = verbalize_neighbors(kg.node("Q:PC"), nn_bundle(kg, "Q:PC", max_neighbors=2))
    kg2 = make_graph([("z", "FGF6", "gene"), ("w", "urinary bladder", "anatomy")], [("z", "w", "expressed in")])
    c2 = verbalize_neighbors(kg2.node("z"), nn_bundle(kg2, "z"))
    merged = combine_contexts([c1, c2])
    assert merged.text == f"{c1.text}; {c2.text}"
    assert merged.source_nodes == c1.source_nodes + c2.source_nodes
    assert combine_contexts([empty_context(StructureKind.NN), c2]).text == c2.text
    assert combine_contexts([]).empty


def test_without_last_item_drops_from_the_end():
    kg = common_neighbor_graph()
    bundle = extract_common_neighbors(kg, "C:BC", "C:ERBB2", ExtractionLimits(), seed=203)
    context = verbalize_common_neighbors(kg.node("C:BC"), kg.node("C:ERBB2"), bundle)
    shrunk = context.without_last_item()
    assert shrunk.text == GOLD_CNN.rsplit(", ", 1)[0]
    assert shrunk.item_count == context.item_count - 1
    drained = context
    for _ in range(context.item_count):
        drained = drained.without_last_item()
    assert drained.empty
    assert drained.without_last_item().empty


def _random_contexts(rng: Random) -> list[GraphContext]:
    """Verbalized NN (plain and labeled), CNN and MP contexts of a random
    graph, their combination, and contexts of random segments that may hold
    empty prefixes and empty item texts."""
    nodes, edges = random_graph(rng, max_nodes=15, max_edges=50)
    kg = make_graph(nodes, edges)
    ids = [nid for nid, _name, _type in nodes]
    x, y = rng.sample(ids, 2)
    limits = ExtractionLimits(max_neighbors=6, max_metapaths=3, max_hops=3)
    contexts = [
        verbalize_neighbors(kg.node(x), extract_neighbors(kg, x, limits, 1)),
        verbalize_neighbors_labeled(kg.node(y), extract_neighbors(kg, y, limits, 2)),
        verbalize_common_neighbors(kg.node(x), kg.node(y), extract_common_neighbors(kg, x, y, limits, 3)),
        verbalize_metapath(kg.node(x), kg.node(y), enumerate_metapaths(kg, x, y, limits, 4)),
    ]
    contexts.append(combine_contexts(contexts[:2]))
    words = ["", "a", "b c", "d"]
    segments = tuple(
        ContextSegment(
            prefix=rng.choice(words),
            prefix_nodes=tuple(rng.sample(ids, rng.randint(0, 2))),
            items=tuple(
                (rng.choice(words), tuple(rng.sample(ids, rng.randint(0, 2))))
                for _ in range(rng.randint(0, 3))
            ),
            separator=rng.choice([", ", "; "]),
        )
        for _ in range(rng.randint(0, 3))
    )
    contexts.append(GraphContext(StructureKind.NN, segments))
    return contexts


def test_context_is_read_off_its_populated_segments():
    rng = Random(808)
    steps = 0
    for _case in range(150):
        for context in _random_contexts(rng):
            while True:
                want = frozen_from_segments(context.kind, context.segments)
                assert context.empty == (context.text == "")
                assert (context.text, context.source_nodes, context.empty) == tuple(want.values())
                if not context.item_count:
                    break
                context = context.without_last_item()
                steps += 1
    assert steps >= 2500
