from __future__ import annotations

import importlib.util
import itertools
import math
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgprompt.errors import SamePairError
from kgprompt.structures import (
    ExtractionLimits,
    Metapath,
    StructureKind,
    derive_seed,
    enumerate_metapaths,
    extract_common_neighbors,
    extract_neighbors,
    select_subset,
)

from fixtures_kg import common_neighbor_graph, make_graph, metapath_graph, prostate_star_graph
from oracles import (
    common_neighbor_ids,
    dfs_simple_path_set,
    frozen_simple_path_sequences,
    random_graph,
    undirected_neighbor_ids,
)

PATHCOUNT_PY = Path(__file__).resolve().parent.parent / "bench" / "pathcount.py"


# --- select_subset ---

def test_select_subset_returns_all_when_m_covers():
    assert select_subset(["a", "b"], 5, seed=1) == ["a", "b"]


def test_select_subset_deterministic():
    items = list("abcdefghij")
    assert select_subset(items, 3, seed=42) == select_subset(items, 3, seed=42)


def test_select_subset_preserves_relative_order():
    items = list(range(30))
    picked = select_subset(items, 10, seed=7)
    assert picked == sorted(picked)
    assert set(picked) <= set(items)


def test_select_subset_uniformity_three_sigma():
    counts = Counter()
    for seed in range(10_000):
        counts[select_subset(["a", "b", "c", "d"], 1, seed)[0]] += 1
    sigma = math.sqrt(10_000 * 0.25 * 0.75)
    for item in "abcd":
        assert abs(counts[item] - 2500) <= 3 * sigma


@given(st.lists(st.integers(), max_size=40), st.integers(0, 50), st.integers(0, 2**32))
def test_select_subset_is_an_ordered_sublist(items, m, seed):
    picked = select_subset(items, m, seed)
    assert len(picked) == min(m, len(items))
    it = iter(items)
    assert all(any(item == candidate for candidate in it) for item in picked)


# --- neighbors ---

def test_extract_neighbors_prostate_star_all_five():
    kg = prostate_star_graph()
    bundle = extract_neighbors(kg, "Q:PC", ExtractionLimits(max_neighbors=5), seed=203)
    assert bundle.kind is StructureKind.NN
    assert [link.node.name for link in bundle.payload] == [
        "nilutamide", "cabazitaxel", "urology", "FSHR", "F6F10",
    ]
    assert bundle.candidate_count == 5


def test_extract_neighbors_isolated_node():
    kg = make_graph([("a", "A", "t")], [])
    bundle = extract_neighbors(kg, "a", ExtractionLimits(), seed=1)
    assert bundle.kind is StructureKind.NN
    assert bundle.payload == ()
    assert bundle.candidate_count == 0


def test_extract_neighbors_respects_limit_and_is_reproducible():
    nodes = [("x", "X", "t")] + [(f"n{i}", f"N{i}", "t") for i in range(10)]
    edges = [("x", f"n{i}", "r") for i in range(10)]
    kg = make_graph(nodes, edges)
    limits = ExtractionLimits(max_neighbors=4)
    b1 = extract_neighbors(kg, "x", limits, seed=11)
    b2 = extract_neighbors(kg, "x", limits, seed=11)
    assert b1 == b2
    assert len(b1.payload) == 4
    full = undirected_neighbor_ids([(e.source, e.target, e.label) for e in kg.edges], "x")
    assert {link.node.id for link in b1.payload} <= full
    assert b1.candidate_count == len(full)


def test_extract_neighbors_carries_relation_labels():
    kg = prostate_star_graph()
    bundle = extract_neighbors(kg, "Q:PC", ExtractionLimits(max_neighbors=5), seed=0)
    by_name = {link.node.name: link.labels for link in bundle.payload}
    assert by_name["nilutamide"] == (("drug or therapy used for treatment", "out"),)


# --- common neighbors ---

def test_common_neighbors_shared_five():
    kg = common_neighbor_graph()
    bundle = extract_common_neighbors(kg, "C:BC", "C:ERBB2", ExtractionLimits(), seed=203)
    assert bundle.kind is StructureKind.CNN
    assert bundle.candidate_count == 5
    assert len(bundle.payload) == 5


def test_common_neighbors_disjoint_pair():
    kg = make_graph(
        [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "t"), ("d", "D", "t")],
        [("a", "b", "r"), ("c", "d", "r")],
    )
    bundle = extract_common_neighbors(kg, "a", "c", ExtractionLimits(), seed=1)
    assert bundle.payload == ()
    assert bundle.candidate_count == 0


def test_common_neighbors_same_node_rejected():
    kg = common_neighbor_graph()
    with pytest.raises(SamePairError):
        extract_common_neighbors(kg, "C:BC", "C:BC", ExtractionLimits(), seed=1)


def test_common_neighbors_match_set_intersection_oracle():
    rng = Random(4391)
    wide = ExtractionLimits(max_common_neighbors=10_000)
    for _ in range(50):
        nodes, edges = random_graph(rng, max_nodes=50, max_edges=200)
        kg = make_graph(nodes, edges)
        x = nodes[rng.randrange(len(nodes))][0]
        y = nodes[rng.randrange(len(nodes))][0]
        if x == y:
            continue
        bundle = extract_common_neighbors(kg, x, y, wide, seed=0)
        assert {n.id for n in bundle.payload} == common_neighbor_ids(edges, x, y)


def test_common_neighbors_symmetric_full_intersection():
    rng = Random(64)
    wide = ExtractionLimits(max_common_neighbors=10_000)
    for _ in range(20):
        nodes, edges = random_graph(rng, max_nodes=30, max_edges=120)
        kg = make_graph(nodes, edges)
        x, y = nodes[0][0], nodes[1][0]
        forward = extract_common_neighbors(kg, x, y, wide, seed=5)
        backward = extract_common_neighbors(kg, y, x, wide, seed=5)
        assert {n.id for n in forward.payload} == {n.id for n in backward.payload}
        assert forward.candidate_count == backward.candidate_count


# --- metapaths ---

def test_metapath_fixture_walk():
    kg = metapath_graph()
    bundle = enumerate_metapaths(kg, "M:FGF6", "M:PC", ExtractionLimits(max_metapaths=5), seed=203)
    assert bundle.kind is StructureKind.MP
    paths = {tuple(n.id for n in p.nodes) for p in bundle.payload}
    assert ("M:FGF6", "M:TEN", "M:SQRDL", "M:FGFR2", "M:PC") in paths
    (path,) = [p for p in bundle.payload if p.length == 5]
    assert tuple(n.node_type for n in path.nodes) == ("gene", "anatomy", "gene", "gene", "disease")
    # the walk runs against the stored FGFR2->SQRDL edge
    assert path.edges[2] == ("regulates", "in")


def test_metapath_three_node_walk_with_types():
    kg = make_graph(
        [("g1", "FGF6", "gene"), ("g2", "FGFR4", "gene"), ("d1", "prostate cancer", "disease")],
        [("g1", "g2", "interacts with"), ("g2", "d1", "genetic association")],
    )
    bundle = enumerate_metapaths(kg, "g1", "d1", ExtractionLimits(), seed=1)
    assert len(bundle.payload) == 1
    assert tuple(n.node_type for n in bundle.payload[0].nodes) == ("gene", "gene", "disease")
    assert bundle.payload[0].length == 3


def test_metapath_direct_only_connection_is_empty():
    kg = make_graph([("a", "A", "t"), ("b", "B", "t")], [("a", "b", "r")])
    bundle = enumerate_metapaths(kg, "a", "b", ExtractionLimits(), seed=1)
    assert bundle.payload == ()
    assert bundle.candidate_count == 0


def test_metapath_direct_edge_does_not_block_longer_paths():
    kg = make_graph(
        [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "t")],
        [("a", "b", "direct"), ("a", "c", "r"), ("c", "b", "r")],
    )
    bundle = enumerate_metapaths(kg, "a", "b", ExtractionLimits(max_metapaths=10), seed=1)
    assert {tuple(n.id for n in p.nodes) for p in bundle.payload} == {("a", "c", "b")}


def test_metapath_requires_two_hops_budget():
    kg = metapath_graph()
    with pytest.raises(ValueError):
        enumerate_metapaths(kg, "M:FGF6", "M:PC", ExtractionLimits(max_hops=1), seed=1)


def test_metapath_same_node_rejected():
    kg = metapath_graph()
    with pytest.raises(SamePairError):
        enumerate_metapaths(kg, "M:FGF6", "M:FGF6", ExtractionLimits(), seed=1)


def test_metapath_matches_dfs_oracle_on_random_graphs():
    rng = Random(90210)
    for _ in range(40):
        nodes, edges = random_graph(rng, max_nodes=30, max_edges=90)
        kg = make_graph(nodes, edges)
        x = nodes[rng.randrange(len(nodes))][0]
        y = nodes[rng.randrange(len(nodes))][0]
        if x == y:
            continue
        max_hops = rng.randint(2, 4)
        limits = ExtractionLimits(max_hops=max_hops, max_metapaths=10**9)
        bundle = enumerate_metapaths(kg, x, y, limits, seed=3)
        got = {tuple(n.id for n in p.nodes) for p in bundle.payload}
        assert got == dfs_simple_path_set(edges, x, y, max_hops)
        assert not bundle.truncated


def test_metapath_every_hop_is_a_real_edge():
    rng = Random(31337)
    nodes, edges = random_graph(rng, max_nodes=25, max_edges=80)
    kg = make_graph(nodes, edges)
    raw = set()
    for s, t, l in edges:
        raw.add((s, t, l))
    x, y = nodes[0][0], nodes[1][0]
    bundle = enumerate_metapaths(kg, x, y, ExtractionLimits(max_metapaths=10**9), seed=9)
    for path in bundle.payload:
        assert (path.nodes[0].id, path.nodes[-1].id) == (x, y)
        for i, (label, direction) in enumerate(path.edges):
            u, v = path.nodes[i].id, path.nodes[i + 1].id
            if direction == "out":
                assert (u, v, label) in raw
            else:
                assert (v, u, label) in raw


def test_metapath_enumeration_ceiling_sets_truncated():
    # complete-ish graph around the pair so path count explodes
    n = 9
    nodes = [(f"n{i}", f"N{i}", "t") for i in range(n)]
    edges = [(f"n{i}", f"n{j}", "r") for i in range(n) for j in range(i + 1, n)]
    kg = make_graph(nodes, edges)
    limits = ExtractionLimits(max_hops=4, max_metapaths=3, max_paths_enumerated=10)
    bundle = enumerate_metapaths(kg, "n0", "n1", limits, seed=1)
    assert bundle.truncated
    assert bundle.candidate_count == 10
    assert len(bundle.payload) == 3


def _path_ids(bundle) -> list[tuple[str, ...]]:
    return [tuple(n.id for n in p.nodes) for p in bundle.payload]


def test_metapath_enumeration_keeps_plain_dfs_order_and_truncation():
    # Distance pruning must not change which paths come out, their order, or
    # where a ceiling cuts them off: compare with the frozen unpruned DFS.
    rng = Random(4242)
    truncating = 0
    for _ in range(200):
        nodes, edges = random_graph(rng, max_nodes=30, max_edges=100)
        ids = [nid for nid, _name, _type in nodes]
        # self-loops are skipped by adjacency; keep a few so both sides see them
        edges += [(nid, nid, "self") for nid in rng.sample(ids, min(3, len(ids)))]
        kg = make_graph(nodes, edges)
        x, y = rng.sample(ids, 2)
        max_hops = rng.randint(2, 5)
        ceiling = rng.choice([0, 1, 5, 40, 10_000])
        limits = ExtractionLimits(max_hops=max_hops, max_metapaths=10**9, max_paths_enumerated=ceiling)
        bundle = enumerate_metapaths(kg, x, y, limits, seed=1)
        sequences, truncated = frozen_simple_path_sequences(kg, x, y, max_hops, ceiling)
        assert _path_ids(bundle) == sequences
        assert bundle.candidate_count == len(sequences)
        assert bundle.truncated is truncated
        truncating += truncated
    assert truncating >= 20  # the truncating cases are really exercised


def test_metapath_enumeration_matches_networkx_on_larger_graphs():
    nx = pytest.importorskip("networkx")
    rng = Random(2019)
    n = 200
    nodes = [(f"n{i}", f"node {i}", "t") for i in range(n)]
    total = 0
    for case in range(12):
        edges = set()
        while len(edges) < 700:
            # the smaller of two draws skews degree toward low ids, making hubs
            source = f"n{min(rng.randrange(n), rng.randrange(n))}"
            target = f"n{rng.randrange(n)}"
            if source != target:
                edges.add((source, target, rng.choice(["binds", "treats"])))
        kg = make_graph(nodes, sorted(edges))
        graph = nx.Graph((s, t) for s, t, _label in edges)
        x = f"n{rng.randrange(10 if case % 2 else n)}"  # every other x is a hub
        y = f"n{rng.randrange(n)}"
        if x == y or not (graph.has_node(x) and graph.has_node(y)):
            continue
        max_hops = rng.randint(2, 5)
        limits = ExtractionLimits(max_hops=max_hops, max_metapaths=10**9, max_paths_enumerated=10**9)
        bundle = enumerate_metapaths(kg, x, y, limits, seed=1)
        expected = {
            tuple(path)
            for path in nx.all_simple_paths(graph, x, y, cutoff=max_hops)
            if len(path) > 2  # the direct 2-node path is never a metapath
        }
        got = _path_ids(bundle)
        assert len(got) == len(set(got))
        assert set(got) == expected
        assert not bundle.truncated
        total += len(got)
    assert total >= 100


def _metapath_case_graph(rng: Random):
    """A random graph with self-loops, parallel labels (random_graph draws
    them), a hub and often a direct edge between the pair; and the pair."""
    nodes, edges = random_graph(rng, max_nodes=24, max_edges=70)
    ids = [nid for nid, _name, _type in nodes]
    seen = set(edges)
    hub = rng.choice(ids)
    for other in rng.sample(ids, len(ids) // 2):
        if other != hub and (hub, other, "hub") not in seen:
            edges.append((hub, other, "hub"))
            seen.add((hub, other, "hub"))
    edges += [(nid, nid, "self") for nid in rng.sample(ids, min(2, len(ids)))]
    x, y = rng.sample(ids, 2)
    if rng.random() < 0.5 and (x, y, "direct") not in seen:
        edges.append((x, y, "direct"))
    return nodes, edges, x, y


def test_metapath_selection_matches_frozen_dfs_and_select_subset():
    # Counting the paths and walking only to the chosen ones must give what
    # the plain DFS followed by select_subset gave: paths, order, count and
    # truncation, for every max_hops, ceiling and max_metapaths.
    rng = Random(1010)
    ceilings = [0, 1, 5, 40, 10_000]
    metapaths = [0, 1, 3, 10**9]
    truncating = chosen = 0
    for case in range(400):
        nodes, edges, x, y = _metapath_case_graph(rng)
        kg = make_graph(nodes, edges)
        max_hops = 2 + case % 5
        ceiling = ceilings[case // 5 % 5]
        m = metapaths[case // 25 % 4]
        limits = ExtractionLimits(max_hops=max_hops, max_metapaths=m, max_paths_enumerated=ceiling)
        bundle = enumerate_metapaths(kg, x, y, limits, seed=case)
        sequences, truncated = frozen_simple_path_sequences(kg, x, y, max_hops, ceiling)
        assert _path_ids(bundle) == select_subset(sequences, m, derive_seed(case, "MP", x, y))
        assert bundle.candidate_count == len(sequences)
        assert bundle.truncated is truncated
        truncating += truncated
        chosen += len(bundle.payload)
    assert truncating >= 60 and chosen >= 1000  # both sides of every branch are exercised


def test_metapath_hops_take_the_first_stored_link():
    # Each hop reads the first link of the row between its two ints; that must
    # be the first of all labels between the two nodes, parallel ones included.
    rng = Random(4040)
    hops = parallel = 0
    for case in range(200):
        nodes, edges, x, y = _metapath_case_graph(rng)
        kg = make_graph(nodes, edges)
        limits = ExtractionLimits(max_hops=2 + case % 3, max_metapaths=10**9)
        for path in enumerate_metapaths(kg, x, y, limits, seed=case).payload:
            for i, edge in enumerate(path.edges):
                labels = kg.relation_labels_between(path.nodes[i].id, path.nodes[i + 1].id)
                assert edge == labels[0]
                hops += 1
                parallel += len(labels) > 1
    assert hops >= 5000 and parallel >= 500


def _bench_pathcount():
    spec = importlib.util.spec_from_file_location("bench_pathcount", PATHCOUNT_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_metapath_count_matches_independent_path_count():
    count_simple_paths = _bench_pathcount().count_simple_paths
    rng = Random(77)
    total = 0
    for case in range(150):
        nodes, edges, x, y = _metapath_case_graph(rng)
        kg = make_graph(nodes, edges)
        neighbors = {nid: undirected_neighbor_ids(edges, nid) for nid, _name, _type in nodes}
        max_hops = 2 + case % 3
        limits = ExtractionLimits(max_hops=max_hops, max_metapaths=1, max_paths_enumerated=10**9)
        bundle = enumerate_metapaths(kg, x, y, limits, seed=1)
        assert bundle.candidate_count == count_simple_paths(neighbors, x, y, max_hops)
        assert not bundle.truncated
        total += bundle.candidate_count
    assert total >= 2_000


def test_metapath_count_on_a_complete_graph():
    # K60 at 4 hops: 58 + 58*57 + 58*57*56 paths, counted without walking them
    n = 60
    nodes = [(f"k{i}", f"K{i}", "t") for i in range(n)]
    kg = make_graph(nodes, [(f"k{i}", f"k{j}", "r") for i in range(n) for j in range(i + 1, n)])
    limits = ExtractionLimits(max_hops=4, max_metapaths=2, max_paths_enumerated=10**9)
    bundle = enumerate_metapaths(kg, "k0", "k1", limits, seed=5)
    assert bundle.candidate_count == 188_500
    assert not bundle.truncated
    # neighbors are in ascending order, so the DFS order is lexicographic
    # by node number; the chosen paths are those at the drawn indices
    ordered = sorted(
        [0, *middle, 1]
        for hops in (2, 3, 4)
        for middle in itertools.permutations(range(2, n), hops - 1)
    )
    keep = select_subset(range(188_500), 2, derive_seed(5, "MP", "k0", "k1"))
    assert _path_ids(bundle) == [tuple(f"k{i}" for i in ordered[k]) for k in keep]


def test_metapath_type_invariants():
    kg = metapath_graph()
    with pytest.raises(ValueError):
        Metapath(nodes=(kg.node("M:FGF6"), kg.node("M:PC")), edges=(("r", "out"),))
    with pytest.raises(ValueError):
        Metapath(
            nodes=(kg.node("M:FGF6"), kg.node("M:TEN"), kg.node("M:FGF6")),
            edges=(("r", "out"), ("r", "out")),
        )


# --- bundle-level properties ---

def test_limit_compliance_across_random_graphs():
    rng = Random(808)
    limits = ExtractionLimits()  # 4 neighbors, 5 common neighbors, 1 metapath, 4 hops
    for _ in range(25):
        nodes, edges = random_graph(rng, max_nodes=40, max_edges=150)
        kg = make_graph(nodes, edges)
        x = nodes[rng.randrange(len(nodes))][0]
        y = nodes[rng.randrange(len(nodes))][0]
        assert len(extract_neighbors(kg, x, limits, seed=1).payload) <= limits.max_neighbors
        if x != y:
            cnn = extract_common_neighbors(kg, x, y, limits, seed=1)
            assert len(cnn.payload) <= limits.max_common_neighbors
            mp = enumerate_metapaths(kg, x, y, limits, seed=1)
            assert len(mp.payload) <= limits.max_metapaths
            for path in mp.payload:
                assert 3 <= path.length <= limits.max_hops + 1


def test_seed_stability_entire_bundle():
    kg = common_neighbor_graph()
    limits = ExtractionLimits(max_common_neighbors=3)
    a = extract_common_neighbors(kg, "C:BC", "C:ERBB2", limits, seed=99)
    b = extract_common_neighbors(kg, "C:BC", "C:ERBB2", limits, seed=99)
    assert a == b


def test_extraction_limits_validation():
    with pytest.raises(ValueError):
        ExtractionLimits(max_neighbors=-1)
    with pytest.raises(ValueError):
        ExtractionLimits(max_hops=0)
    limits = ExtractionLimits()
    assert (limits.max_neighbors, limits.max_common_neighbors, limits.max_metapaths, limits.max_hops) == (4, 5, 1, 4)
