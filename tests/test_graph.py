from __future__ import annotations

from array import array
from random import Random

import pytest

import kgprompt.graph as graph_module
from kgprompt.errors import DuplicateEdgeError, UnknownNodeError
from kgprompt.graph import ARRAYS, Edge, GraphBuilder, KnowledgeGraph, Node, normalize_name
from kgprompt import ingest
from kgprompt.ingest import IngestReport, export_edge_list_jsonl

from fixtures_kg import ODD_NAMES, eight_byte_ints, gene_hop_graph, make_graph, name_lookups, prostate_star_graph
from oracles import (
    FrozenKnowledgeGraph,
    bfs_hop_partition,
    random_graph,
    undirected_neighbor_ids,
)


def test_neighbors_prostate_star():
    kg = prostate_star_graph()
    names = {n.name for n in kg.neighbors("Q:PC")}
    assert names >= {"nilutamide", "cabazitaxel", "urology", "FSHR", "F6F10"}


def test_neighbors_isolated_node():
    kg = make_graph([("a", "A", "t"), ("b", "B", "t")], [])
    assert kg.neighbors("a") == []


def test_neighbors_single_edge_symmetry():
    kg = make_graph([("a", "A", "t"), ("b", "B", "t")], [("a", "b", "r")])
    assert [n.id for n in kg.neighbors("a")] == ["b"]
    assert [n.id for n in kg.neighbors("b")] == ["a"]


def test_neighbors_direction_policies():
    kg = make_graph(
        [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "t")],
        [("a", "b", "r"), ("c", "a", "s")],
    )
    assert {n.id for n in kg.neighbors("a")} == {"b", "c"}


def test_neighbors_dedup_keeps_first_edge_order():
    kg = make_graph(
        [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "t")],
        [("a", "c", "r1"), ("a", "b", "r2"), ("b", "a", "r3")],
    )
    assert [n.id for n in kg.neighbors("a")] == ["c", "b"]


def test_neighbors_unknown_node():
    kg = prostate_star_graph()
    with pytest.raises(UnknownNodeError):
        kg.neighbors("missing")


def test_k_hop_chain():
    kg = make_graph(
        [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "t")],
        [("a", "b", "r"), ("b", "c", "r")],
    )
    hops = kg.k_hop_neighbors("a", 2)
    assert [[n.id for n in hop] for hop in hops] == [["b"], ["c"]]


def test_k_hop_indirect_connection():
    kg = gene_hop_graph()
    hops = kg.k_hop_neighbors("H:FGF6", 2)
    assert "prostate cancer" in {n.name for n in hops[1]}


def test_k_hop_excludes_origin_and_is_disjoint():
    kg = gene_hop_graph()
    hops = kg.k_hop_neighbors("H:FGF6", 3)
    all_ids = [n.id for hop in hops for n in hop]
    assert "H:FGF6" not in all_ids
    assert len(all_ids) == len(set(all_ids))


def test_k_hop_matches_bfs_oracle_on_random_graphs():
    rng = Random(1387)
    for _ in range(50):
        nodes, edges = random_graph(rng, max_nodes=50, max_edges=200)
        kg = make_graph(nodes, edges)
        x = nodes[rng.randrange(len(nodes))][0]
        k = rng.randint(1, 4)
        got = [{n.id for n in hop} for hop in kg.k_hop_neighbors(x, k)]
        assert got == bfs_hop_partition(edges, x, k)


def test_hop_distances_match_bfs_oracle_on_random_graphs():
    rng = Random(2612)
    for _ in range(60):
        nodes, edges = random_graph(rng, max_nodes=40, max_edges=150)
        ids = [node[0] for node in nodes]
        loops = [(v, v, "self") for v in rng.sample(ids, rng.randint(1, len(ids)))]
        parallel = [(t, s, "also") for s, t, _ in rng.sample(edges, rng.randint(0, len(edges)))]
        edges = list(dict.fromkeys(edges + loops + parallel))
        kg = make_graph(nodes, edges)
        x, avoid = rng.sample(ids, 2)
        depth = rng.randint(0, 4)
        # avoiding a node is the same as dropping its edges
        kept = [e for e in edges if avoid not in e[:2]]
        for got, oracle_edges in (
            (kg.hop_distances(kg.index_of(x), depth), edges),
            (kg.hop_distances(kg.index_of(x), depth, avoid=kg.index_of(avoid)), kept),
        ):
            rings = bfs_hop_partition(oracle_edges, x, depth)
            expected = {x: 0, **{v: hop for hop, ring in enumerate(rings, 1) for v in ring}}
            assert {kg.node_at(j).id: d for j, d in got.items()} == expected
            assert list(got.values()) == sorted(got.values())  # breadth-first discovery order


def test_hop_distances_stop_once_nothing_new_is_reached():
    # a depth past the node count reaches nothing more; the walk must not run it out
    rng = Random(1616)
    for _ in range(20):
        nodes, edges = random_graph(rng, max_nodes=30, max_edges=80)
        kg = make_graph(nodes, edges)
        i, avoid = rng.sample(range(len(nodes)), 2)
        for skip in (-1, avoid):
            assert kg.hop_distances(i, 10**9, avoid=skip) == kg.hop_distances(i, len(nodes), avoid=skip)


def test_relation_labels_between_example():
    kg = prostate_star_graph()
    assert kg.relation_labels_between("Q:PC", "Q:NIL") == [
        ("drug or therapy used for treatment", "out")
    ]
    assert kg.relation_labels_between("Q:NIL", "Q:PC") == [
        ("drug or therapy used for treatment", "in")
    ]


def test_relation_labels_between_no_edge():
    kg = prostate_star_graph()
    assert kg.relation_labels_between("Q:NIL", "Q:CAB") == []


def test_relation_labels_between_parallel_edges_in_insertion_order():
    kg = make_graph(
        [("a", "A", "t"), ("b", "B", "t")],
        [("a", "b", "first"), ("b", "a", "second"), ("a", "b", "third")],
    )
    assert kg.relation_labels_between("a", "b") == [
        ("first", "out"),
        ("second", "in"),
        ("third", "out"),
    ]
    # independent check against a raw edge-list scan
    raw = [("a", "b", "first"), ("b", "a", "second"), ("a", "b", "third")]
    expected = [(l, "out" if s == "a" else "in") for s, t, l in raw]
    assert kg.relation_labels_between("a", "b") == expected


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        make_graph([("a", "A", "t"), ("b", "B", "t")], [("a", "b", "r"), ("a", "b", "r")])


def _builder(nodes: list[tuple[str, str, str]], edges: list[tuple[str, str, str]]) -> GraphBuilder:
    """A builder that has added these nodes and edges, as ``make_graph`` does."""
    builder = GraphBuilder()
    for node_id, name, node_type in nodes:
        assert builder.add_node(Node(node_id, name, node_type))
    for edge in edges:
        assert builder.add_edge(*edge)
    return builder


def test_loader_adds_report_duplicates_without_changing_the_graph():
    builder = GraphBuilder()
    assert builder.add_node(Node("a", "A")) and builder.add_node(Node("b", "B"))
    assert not builder.add_node(Node("a", "other name"))
    assert builder.add_edge("a", "b", "r")
    assert not builder.add_edge("a", "b", "r")
    assert builder.add_edge("b", "a", "r")
    kg = builder.freeze()
    assert kg.node("a").name == "A"
    assert kg.edges == [Edge("a", "b", "r"), Edge("b", "a", "r")]
    assert kg.relation_labels_between("a", "b") == [("r", "out"), ("r", "in")]


def test_dangling_edge_rejected():
    with pytest.raises(UnknownNodeError):
        KnowledgeGraph([Node("a", "A")], [Edge("a", "ghost", "r")])


def test_undirected_symmetry_on_random_graphs():
    rng = Random(555)
    for _ in range(20):
        nodes, edges = random_graph(rng, max_nodes=25, max_edges=80)
        kg = make_graph(nodes, edges)
        for nid, _, _ in nodes:
            for neighbor in kg.neighbors(nid):
                assert nid in {n.id for n in kg.neighbors(neighbor.id)}
            assert {n.id for n in kg.neighbors(nid)} == undirected_neighbor_ids(edges, nid)


def test_queries_after_further_adds_see_them():
    kg = make_graph([("a", "A", "t"), ("b", "B", "t")], [("a", "b", "r")])
    assert kg.neighbor_ids("a") == ["b"]
    assert len(kg.nodes) == 2
    builder = _builder([("a", "A", "t"), ("b", "B", "t")], [("a", "b", "r")])
    assert builder.add_node(Node("c", "C"))
    assert builder.add_edge("c", "a", "s")
    kg = builder.freeze()
    assert kg.neighbor_ids("a") == ["b", "c"]
    assert kg.relation_labels_between("a", "c") == [("s", "in")]
    assert list(kg.nodes) == ["a", "b", "c"]


def test_restored_graph_answers_as_the_dumped_one_and_still_dedups():
    rng = Random(77)
    for _ in range(20):
        nodes, edges = random_graph(rng, max_nodes=30, max_edges=120)
        kg = make_graph(nodes, edges)
        tables, arrays = kg.dump()
        copy = KnowledgeGraph.restore(
            {name: list(table) for name, table in tables.items()},
            {name: array(values.typecode, values) for name, values in arrays.items()},
        )
        ids = list(kg.nodes)
        assert list(copy.nodes.items()) == list(kg.nodes.items())
        assert copy.edges == kg.edges
        for x in ids:
            assert list(copy.adjacency(x)) == list(kg.adjacency(x))
            assert copy.neighbor_ids(x) == kg.neighbor_ids(x)
        source, target, label = edges[0]
        builder = _builder(nodes, edges)
        assert not builder.add_edge(source, target, label)
        assert builder.add_edge(source, target, label + " again")
        added = builder.freeze()
        assert added.edge_count == kg.edge_count + 1
        built = make_graph(nodes, [*edges, (source, target, label + " again")])  # never dumped
        assert added.edges == built.edges
        assert [list(added.adjacency(x)) for x in ids] == [list(built.adjacency(x)) for x in ids]


def test_a_restored_copy_and_its_source_share_no_mutable_state_and_neither_has_an_add():
    # restore takes the dumped arrays over without a copy, so neither graph
    # may change them: neither has an add. The adds go to builders, each
    # frozen apart, and a builder's adds after its freeze reach no graph.
    nodes = [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "u")]
    edges = [("a", "b", "r"), ("b", "c", "r")]
    kg = make_graph(nodes, edges)
    copy = KnowledgeGraph.restore(*kg.dump())
    for graph in (kg, copy):
        assert not [name for name in dir(graph) if name.startswith("add_")]
        assert not hasattr(graph, "node_index") and not hasattr(graph, "__dict__")
    for added in (("a", "c", "new in kg"), ("c", "a", "new in copy")):
        builder = _builder(nodes, edges)
        assert builder.add_edge(*added)
        graph = builder.freeze()
        assert builder.add_node(Node("d", "D")) and builder.add_edge("d", "d", "after the freeze")
        built = make_graph(nodes, [*edges, added])  # never dumped
        assert graph.edges == built.edges
        assert graph.edge_count == built.edge_count == 3
        for x in "abc":
            assert list(graph.adjacency(x)) == list(built.adjacency(x))
        assert graph.dump() == built.dump()
    for graph in (kg, copy):
        assert graph.edges == [Edge(*edge) for edge in edges]


def test_name_tables_first_node_wins_and_survive_a_restore():
    kg = make_graph(
        [("a", "Beta-Carotene", "t"), ("b", "beta carotene", "t"), ("c", "Beta-Carotene", "t")], []
    )
    names = ["Beta-Carotene", "beta carotene", "BETA CAROTENE", "  Zeta! ", "zeta"]
    found = {
        "Beta-Carotene": ("a", "a"), "beta carotene": ("b", "a"), "BETA CAROTENE": (None, "a"),
        "  Zeta! ": (None, None), "zeta": (None, None),
    }
    assert name_lookups(kg, names) == found
    assert name_lookups(KnowledgeGraph.restore(*kg.dump()), names) == found
    builder = _builder([("a", "Beta-Carotene", "t"), ("b", "beta carotene", "t"), ("c", "Beta-Carotene", "t")], [])
    assert builder.add_node(Node("d", "  Zeta! "))
    kg = builder.freeze()
    assert name_lookups(kg, names) == {**found, "  Zeta! ": ("d", "d"), "zeta": (None, "d")}


def test_name_lookup_first_node_wins_under_casefold_and_odd_characters():
    kg = make_graph([(node_id, name, "t") for node_id, name in ODD_NAMES], [])
    found = {
        "Straße": ("s1", "s1"), "STRASSE": ("s2", "s1"), "strasse": ("s3", "s1"), "STRASSE\n": (None, "s1"),
        "a\nb": ("n1", "n1"), "a b": ("n2", "n1"), "A\0B": (None, "n1"),
        "\0x": ("z1", "z1"), "x": ("z2", "z1"),
        "\ud800y": ("u1", "u1"), "y\ud800": ("u2", "u1"), "y": ("u3", "u1"),
        "!!!": ("e1", "e1"), "???": ("e2", "e1"), "\ud800": (None, "e1"),
        "strass": (None, None), "z": (None, None), "\ud800z": (None, None),
    }
    assert name_lookups(kg, list(found)) == found
    assert name_lookups(KnowledgeGraph.restore(*kg.dump()), list(found)) == found
    assert kg.first_node_normalized("\ud800") is None  # a key normalize_name never gives


def _first_by_name(nodes: list[tuple[str, str]], key) -> dict[str, str]:
    """key(name) -> the first node id with it: the whole-graph table the lookups replace."""
    return dict(zip(map(key, reversed([name for _id, name in nodes])), reversed([i for i, _name in nodes])))


def test_name_lookups_match_whole_graph_tables_on_random_names():
    rng = Random(14)
    alphabet = ["a", "B", "ß", "SS", "é", "E\u0301", " ", "-", "\n", "\0", "\ud800", "\U0001f600", "1", "_"]
    for _ in range(60):
        nodes = [(f"n{i}", "".join(rng.choices(alphabet, k=rng.randint(1, 4)))) for i in range(rng.randint(1, 40))]
        names = [name for _id, name in nodes] + ["".join(rng.choices(alphabet, k=3)) for _ in range(20)]
        exact, normalized = _first_by_name(nodes, str), _first_by_name(nodes, normalize_name)
        expected = {name: (exact.get(name), normalized.get(normalize_name(name))) for name in names}
        kg = make_graph([(node_id, name, "t") for node_id, name in nodes], [])
        assert name_lookups(kg, names) == expected
        assert name_lookups(KnowledgeGraph.restore(*kg.dump()), names) == expected


def _narrowest(typecodes: str, count: int) -> str:
    """The first of ``typecodes`` whose items take ``count``, tried one by one."""
    for typecode in typecodes:
        try:
            array(typecode, [count])
        except OverflowError:
            continue
        return typecode
    raise AssertionError(f"no typecode of {typecodes!r} takes {count}")


def _fitted_typecodes(tables: dict, arrays: dict) -> dict[str, str]:
    """Each array's typecode as its range's count gives it: bytes are "B";
    node ints take the node count, type and label codes their table's size,
    offsets the length they run up to, and the signed edge codes and loop
    positions the edge count."""
    nodes, edges = len(arrays["node_types"]), len(arrays["edge_labels"])
    unsigned = {
        "node_id_offsets": len(arrays["node_ids"]), "id_order": nodes,
        "node_name_offsets": len(arrays["node_names"]), "name_order": nodes, "node_types": len(tables["types"]),
        "edge_labels": len(tables["labels"]),
        "offsets": len(arrays["other"]), "other": nodes, "loop_nodes": nodes,
        "name_offsets": len(arrays["normalized"]), "name_nodes": nodes,
    }
    fitted = {name: _narrowest("BHIQ", count) for name, count in unsigned.items()}
    fitted.update(edge=_narrowest("bhiq", edges), loop_edges=_narrowest("bhiq", edges))
    return {name: fitted.get(name, "B") for name in arrays}


def test_dump_follows_the_one_array_layout():
    rng = Random(17)
    nodes, edges = random_graph(rng, max_nodes=30, max_edges=90)
    for kg in (make_graph(nodes, edges), KnowledgeGraph()):
        tables, arrays = kg.dump()
        assert list(arrays) == list(ARRAYS)
        assert {name: values.typecode for name, values in arrays.items()} == _fitted_typecodes(tables, arrays)


def test_dump_and_restore_share_the_tables_and_arrays_without_a_copy():
    nodes, edges = random_graph(Random(27), max_nodes=30, max_edges=90)
    tables, arrays = make_graph(nodes, edges).dump()
    got_tables, got_arrays = KnowledgeGraph.restore(tables, arrays).dump()
    assert list(got_tables) == ["types", "labels"] and list(got_arrays) == list(ARRAYS)
    assert all(got_tables[name] is tables[name] for name in tables)
    assert all(got_arrays[name] is arrays[name] for name in ARRAYS)


def test_a_frozen_graph_holds_its_two_tables_and_one_slot_per_array():
    assert sorted(KnowledgeGraph.__slots__) == sorted(["_types", "_labels", *(f"_{name}" for name in ARRAYS)])
    nodes, edges = random_graph(Random(27), max_nodes=30, max_edges=90)
    built = make_graph(nodes, edges)
    for kg in (built, KnowledgeGraph(), KnowledgeGraph.restore(*built.dump())):
        assert not hasattr(kg, "__dict__")
        tables, arrays = kg.dump()
        state = {f"_{name}": value for name, value in {**tables, **arrays}.items()}
        assert all(getattr(kg, slot) is state[slot] for slot in KnowledgeGraph.__slots__)


def test_restore_rejects_state_that_does_not_fit_together():
    tables, arrays = make_graph([("a", "A", "t"), ("b", "B", "t")], [("a", "b", "r")]).dump()
    with pytest.raises(ValueError):
        KnowledgeGraph.restore(tables, {**arrays, "node_name_offsets": arrays["node_name_offsets"][:-1]})
    with pytest.raises(ValueError):
        KnowledgeGraph.restore(tables, {**arrays, "other": arrays["other"][:-1]})
    with pytest.raises(TypeError):
        KnowledgeGraph.restore(tables, {**arrays, "other": array("q", arrays["other"])})


@pytest.mark.parametrize(
    "name, cut", [("normalized", 1), ("name_offsets", 1), ("name_nodes", 1), ("name_nodes", 2)]
)
def test_restore_rejects_a_name_index_that_does_not_fit(name, cut):
    tables, arrays = make_graph([("a", "A", "t"), ("b", "B", "t")], [("a", "b", "r")]).dump()
    with pytest.raises(ValueError):
        KnowledgeGraph.restore(tables, {**arrays, name: arrays[name][:-cut]})
    with pytest.raises(ValueError):
        KnowledgeGraph.restore(tables, {**arrays, name: arrays[name] + arrays[name][-cut:]})
    with pytest.raises(TypeError):
        KnowledgeGraph.restore(tables, {**arrays, name: array("b", arrays[name])})


# Names and ids a packed column must give back exactly: a surrogate pair
# written as two code units (not the astral character it would spell in
# UTF-16), astral characters, NUL and newline, and repeats.
_PACKED_ODD = [
    ("\ud83d\ude00", "\ud83d\ude00"), ("\U0001f600", "\U0001f600"), ("\ud83d", "\ude00\ud83d"),
    ("a\0b", "a\0b"), ("a\nb", "a\nb"), ("a", "\U0001f600"), ("a\0", "\U0001f600!"),
    ("\U0010ffff", "n1"), ("n1\0", "Straße"),
]
_ABSENT_IDS = ["", "zz", "n", "n1\n", "\U0001f600\0", "\ude00", "\U0001f601", "\ud83d\ude01", "a\0c"]


def _packed_test_graph(rng: Random) -> tuple[list[tuple[str, str, str]], list[tuple[str, str, str]]]:
    nodes, edges = random_graph(rng, max_nodes=30, max_edges=90)
    odd = [(f"odd-{node_id}", name, "odd") for node_id, name in ODD_NAMES] + [
        (node_id, name, rng.choice(["odd", "gene"])) for node_id, name in _PACKED_ODD
    ]
    nodes = nodes + odd
    rng.shuffle(nodes)
    ids = [node_id for node_id, _name, _type in nodes]
    edges = edges + [(rng.choice(ids), rng.choice(ids), "odd link") for _ in range(20)]
    return nodes, list(dict.fromkeys(edges))


def _answers(kg: KnowledgeGraph, ids: list[str], names: list[str]) -> tuple:
    """Every answer the node strings feed: node tables, lookups by id and by name."""
    return (
        list(kg.nodes.items()),
        kg.edges,
        [kg.node_at(i) for i in range(kg.node_count)],
        [kg.node(x) for x in ids],
        [kg.index_of(x) for x in ids],
        [kg.has_node(x) for x in ids + _ABSENT_IDS],
        [kg.neighbor_ids(x) for x in ids],
        [list(kg.adjacency(x)) for x in ids],
        name_lookups(kg, names),
    )


def test_packed_graphs_answer_as_built_ones():
    rng = Random(22)
    for case in range(25):
        nodes, edges = _packed_test_graph(rng)
        ids = [node_id for node_id, _name, _type in nodes]
        names = [name for _id, name, _type in nodes] + ["absent", "", "\ud83d", "\U0001f601", "STRASSE", "A\0B"]
        built = make_graph(nodes, edges)  # never dumped
        dumped = make_graph(nodes, edges)
        tables, arrays = dumped.dump()  # packs it, as a cold load's snapshot write does
        restored = KnowledgeGraph.restore(
            {name: list(table) for name, table in tables.items()},
            {name: array(values.typecode, values) for name, values in arrays.items()},
        )
        expected = _answers(built, ids, names)
        for kg in (dumped, restored):
            assert _answers(kg, ids, names) == expected, case
            for x in _ABSENT_IDS:
                with pytest.raises(UnknownNodeError):
                    kg.index_of(x)
        source, target, label = edges[0]
        builder = _builder(nodes, edges)
        assert not builder.add_node(Node(ids[-1], "another name"))
        assert not builder.add_edge(source, target, label)
        assert builder.add_edge(target, source, "added")
        assert builder.add_node(Node("\U0001f600 new", "a\0b", "new"))
        assert builder.add_edge("\U0001f600 new", ids[0], "added")
        assert not builder.add_node(Node("\U0001f600 new", "again"))
        built = make_graph(  # never dumped
            [*nodes, ("\U0001f600 new", "a\0b", "new")],
            [*edges, (target, source, "added"), ("\U0001f600 new", ids[0], "added")],
        )
        expected = _answers(built, ids + ["\U0001f600 new"], names)
        frozen = builder.freeze()
        for kg in (frozen, KnowledgeGraph.restore(*frozen.dump())):
            assert _answers(kg, ids + ["\U0001f600 new"], names) == expected, case


@pytest.mark.parametrize(
    "name", ["node_ids", "node_id_offsets", "id_order", "node_names", "node_name_offsets", "name_order", "node_types"]
)
def test_restore_rejects_node_columns_that_do_not_fit(name):
    tables, arrays = make_graph([("a", "A", "t"), ("b", "B", "u")], [("a", "b", "r")]).dump()
    with pytest.raises(ValueError):
        KnowledgeGraph.restore(tables, {**arrays, name: arrays[name][:-1]})
    with pytest.raises(ValueError):
        KnowledgeGraph.restore(tables, {**arrays, name: arrays[name] + arrays[name][-1:]})
    with pytest.raises(TypeError):
        KnowledgeGraph.restore(tables, {**arrays, name: array("b", arrays[name])})


def _edge_test_graph(rng: Random) -> tuple[list[tuple[str, str, str]], list[tuple[str, str, str]]]:
    """A random graph with self-loops, parallel labels, edges both ways
    between a pair and isolated nodes; sometimes empty, sometimes edgeless."""
    n = rng.choice([0, 1, rng.randint(2, 25)])
    nodes = [(f"n{i}", f"node {i}", rng.choice(["gene", "disease"])) for i in range(n)]
    used = rng.randint(1, n) if n else 0  # the nodes past these stay isolated
    edges = []
    for _ in range(rng.randint(0, 80) if used else 0):
        s, t = rng.randrange(used), rng.randrange(used)  # s == t is a self-loop
        edges.append((f"n{s}", f"n{t}", rng.choice(["binds", "treats", "regulates"])))
        if rng.random() < 0.2:
            edges.append((f"n{t}", f"n{s}", rng.choice(["binds", "treats"])))
    return nodes, list(dict.fromkeys(edges))


def _edge_answers(kg: KnowledgeGraph, ids: list[str], export) -> tuple:
    """Every answer the edges feed; the CSR queries first, so that a dumped
    or restored graph gives them before anything rebuilds its edge columns."""
    answers = (
        kg.edge_count,
        [list(kg.adjacency(x)) for x in ids],
        [kg.relation_labels_between(x, y) for x in ids for y in ids],
        [kg.row(i).tolist() for i in range(len(ids))],
        kg.edges,
        [kg.edge_at(e) for e in range(kg.edge_count)],
    )
    export_edge_list_jsonl(kg, export)
    return (*answers, export.read_bytes())


def _state_bytes(state: tuple[dict, dict]) -> tuple:
    """A dump as the bytes a snapshot stores of it."""
    tables, arrays = state
    return tables, [(name, values.tobytes()) for name, values in arrays.items()]


def test_dumped_and_restored_graphs_rebuild_their_edge_columns_exactly(tmp_path):
    rng = Random(25)
    export = tmp_path / "export.jsonl"
    for case in range(80):
        nodes, edges = _edge_test_graph(rng)
        ids = [node_id for node_id, _name, _type in nodes]
        built = make_graph(nodes, edges)  # never dumped
        dumped = make_graph(nodes, edges)
        state = dumped.dump()
        restored = KnowledgeGraph.restore(
            {name: list(table) for name, table in state[0].items()},
            {name: array(values.typecode, values) for name, values in state[1].items()},
        )
        assert _state_bytes(KnowledgeGraph.restore(*restored.dump()).dump()) == _state_bytes(state), case
        expected = _edge_answers(built, ids, export)
        for kg in (dumped, restored):
            assert _edge_answers(kg, ids, export) == expected, case
        if not ids:
            continue
        builder = _builder(nodes, edges)
        for edge in edges:
            assert not builder.add_edge(*edge)
        assert builder.add_edge(ids[-1], ids[0], "added")
        assert builder.add_node(Node("new", "new node"))
        assert builder.add_edge("new", "new", "added loop")
        assert builder.add_edge(ids[0], "new", "added")
        assert not builder.add_edge(ids[-1], ids[0], "added")
        built = make_graph(  # never dumped
            [*nodes, ("new", "new node", "unknown")],
            [*edges, (ids[-1], ids[0], "added"), ("new", "new", "added loop"), (ids[0], "new", "added")],
        )
        expected = _edge_answers(built, ids + ["new"], export)
        frozen = builder.freeze()
        for kg in (frozen, KnowledgeGraph.restore(*frozen.dump())):
            assert _edge_answers(kg, ids + ["new"], export) == expected, case


def test_a_dump_that_overflows_leaves_the_graph_as_it_was(monkeypatch):
    # A graph past 4-byte ints is frozen with 8-byte ones and dumps them as
    # they are; a restore then checks them against the counts.
    nodes, edges = random_graph(Random(26), max_nodes=20, max_edges=60)
    edges = [*edges, (nodes[0][0], nodes[0][0], "loop")]
    ids = [node_id for node_id, _name, _type in nodes]
    built = make_graph(nodes, edges)
    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "_typecode", eight_byte_ints)
        kg = make_graph(nodes, edges)
        builder = _builder(nodes, edges)
        tables, arrays = kg.dump()
        assert {name: values.typecode for name, values in arrays.items()} == {
            name: "B" if what == "bytes" else "q" if what == "edges" else "Q" for name, what in ARRAYS.items()
        }
        assert _state_bytes(KnowledgeGraph.restore(tables, arrays).dump()) == _state_bytes(kg.dump())
    with pytest.raises(TypeError):  # the widths are the freeze's, and these counts give narrower ones
        KnowledgeGraph.restore(tables, arrays)
    assert kg.edges == built.edges
    assert [list(kg.adjacency(x)) for x in ids] == [list(built.adjacency(x)) for x in ids]
    assert not builder.add_edge(*edges[0])
    assert builder.add_node(Node("new", "new node"))
    assert builder.add_edge("new", ids[0], "added")
    added = make_graph([*nodes, ("new", "new node", "unknown")], [*edges, ("new", ids[0], "added")])
    assert _state_bytes(builder.freeze().dump()) == _state_bytes(added.dump())


def test_a_graph_past_the_offset_limit_answers_every_query(monkeypatch, tmp_path):
    # 8-byte offsets and ints, as a graph past 4 GiB of strings has: built,
    # frozen and restored, it answers as one of the narrowest widths.
    rng = Random(27)
    export = tmp_path / "export.jsonl"
    for case in range(15):
        nodes, edges = _packed_test_graph(rng)
        ids = [node_id for node_id, _name, _type in nodes]
        names = [name for _id, name, _type in nodes] + ["absent", "", "\ud83d", "STRASSE", "A\0B"]
        built = make_graph(nodes, edges)
        expected = (_answers(built, ids, names), _edge_answers(built, ids, export))
        with monkeypatch.context() as patch:
            patch.setattr(graph_module, "_typecode", eight_byte_ints)
            wide = make_graph(nodes, edges)
            for kg in (wide, _builder(nodes, edges).freeze(), KnowledgeGraph.restore(*wide.dump())):
                assert (_answers(kg, ids, names), _edge_answers(kg, ids, export)) == expected, case
                assert kg.dump()[1]["node_id_offsets"].typecode == "Q"


def test_restore_rejects_loops_and_links_that_do_not_fit_the_edges():
    tables, arrays = make_graph(
        [("a", "A", "t"), ("b", "B", "t")], [("a", "b", "r"), ("b", "b", "r"), ("b", "a", "r")]
    ).dump()
    assert (list(arrays["loop_edges"]), list(arrays["loop_nodes"])) == ([1], [1])
    assert list(arrays["edge"]) == [0, ~2, ~0, 2]  # a's row, then b's: ~e where the node is the target
    for name in ("loop_edges", "loop_nodes", "edge_labels"):
        with pytest.raises(ValueError):
            KnowledgeGraph.restore(tables, {**arrays, name: arrays[name][:-1]})
        with pytest.raises(ValueError):
            KnowledgeGraph.restore(tables, {**arrays, name: arrays[name] + arrays[name][-1:]})
    with pytest.raises(ValueError):  # every loop moved into the CSR's count, or out of it
        KnowledgeGraph.restore(tables, {**arrays, "loop_edges": array("i"), "loop_nodes": array("i")})


def _width_case(what: str, count: int) -> tuple[list[tuple[str, str, str]], list[tuple[str, str, str]]]:
    """A graph with ``count`` nodes, each of its own type; ``count`` edge
    labels; ``count`` bytes in each string column; or ``count`` edges, as
    ``what`` says. The rest stays small."""
    if what == "bytes":  # node ids, names and normalized names of count bytes each
        long = "b" * (count - 1)
        return [("a", "a", "t"), (long, long, "t")], [("a", long, "r"), (long, long, "r")]
    if what == "nodes":  # a ring, and a chord from every 97th node
        nodes = [(f"n{i}", f"Node {i}", f"T{i}") for i in range(count)]
        edges = [(f"n{i}", f"n{(i + 1) % count}", "next") for i in range(count)]
        return nodes, edges + [(f"n{i}", f"n{i * 31 % count}", "chord") for i in range(0, count, 97)]
    if what == "labels":  # parallel edges, one per label, and a loop
        return [("a", "A", "t"), ("b", "B", "t")], [("a", "a" if k == 7 else "b", f"r{k}") for k in range(count)]
    m = 200  # what == "edges": count distinct edges over m nodes, loops among them
    pairs = [(s, t) for s in range(m) for t in range(m)]
    Random(count).shuffle(pairs)
    return [(f"n{i}", f"Node {i}", "t") for i in range(m)], [(f"n{s}", f"n{t}", "r") for s, t in pairs[:count]]


def _oracle_answers(kg, sample: list[str], positions: list[int]) -> tuple:
    """Every query the frozen oracle answers too, on a sample of the nodes
    and of the edge positions."""
    edges = kg.edges
    return (
        list(kg.nodes.items()),
        edges,
        [edges[e] for e in positions],
        [(kg.has_node(x), kg.node(x)) for x in sample],
        [list(kg.adjacency(x)) for x in sample],
        [kg.neighbor_ids(x) for x in sample],
        [kg.neighbors(x) for x in sample],
        [kg.k_hop_neighbors(x, 2) for x in sample],
        [kg.relation_labels_between(x, y) for x in sample for y in sample],
    )


def _one_width_off(typecode: str) -> list[str]:
    """The typecodes one width wider and one narrower, of the same sign, where there is one."""
    for widths in ("BHIQ", "bhiq"):
        if typecode in widths:
            k = widths.index(typecode)
            return [widths[j] for j in (k - 1, k + 1) if 0 <= j < len(widths)]
    raise AssertionError(typecode)


# The arrays whose width each case of _width_case decides.
_FOCUS = {
    "nodes": ("id_order", "name_order", "node_types", "other", "name_nodes"),
    "labels": ("edge_labels",),
    "bytes": ("node_id_offsets", "node_name_offsets", "name_offsets"),
    "edges": ("edge", "loop_edges"),
}


@pytest.mark.parametrize(
    "what, count, typecode",
    [
        (what, count, typecode)
        for what in ("nodes", "labels", "bytes")
        for count, typecode in [(255, "B"), (256, "H"), (65_535, "H"), (65_536, "I")]
    ] + [("edges", count, typecode) for count, typecode in [(127, "b"), (128, "h"), (32_767, "h"), (32_768, "i")]],
)
def test_arrays_cross_widths_at_their_counts_and_answer_as_the_oracle(tmp_path, what, count, typecode):
    nodes, edges = _width_case(what, count)
    focus = _FOCUS[what]
    oracle = FrozenKnowledgeGraph([Node(*node) for node in nodes], [Edge(*edge) for edge in edges])
    rng = Random(count)
    ids = [node_id for node_id, _name, _type in nodes]
    sample = list(dict.fromkeys([*ids[:3], *ids[250:258], *ids[-3:], *rng.sample(ids, min(len(ids), 12))]))
    positions = sorted(rng.sample(range(len(edges)), min(len(edges), 20)))
    expected = _oracle_answers(oracle, sample, positions)
    kg = make_graph(nodes, edges)
    tables, arrays = kg.dump()
    typecodes = {name: values.typecode for name, values in arrays.items()}
    assert [typecodes[name] for name in focus] == [typecode] * len(focus)
    assert typecodes == _fitted_typecodes(tables, arrays)
    assert [kg.edge_at(e) for e in positions] == [Edge(*edges[e]) for e in positions]
    snapshot = tmp_path / "graph.snapshot"
    ingest._write_snapshot(snapshot, KnowledgeGraph.restore(tables, arrays), IngestReport(nodes_loaded=len(nodes)))
    read, _report = ingest._read_snapshot(snapshot)
    for graph in (kg, read):
        assert _oracle_answers(graph, sample, positions) == expected
    assert _state_bytes(read.dump()) == _state_bytes((tables, arrays))
    assert {name: values.typecode for name, values in read.dump()[1].items()} == typecodes
    narrowed = []
    for name, values in arrays.items():
        if ARRAYS[name] == "bytes":
            continue
        for other in _one_width_off(values.typecode):
            try:
                misfit = array(other, values)
            except OverflowError:  # a narrower width that cannot hold these values
                continue
            narrowed += [name] if misfit.itemsize < values.itemsize else []
            with pytest.raises(TypeError):
                KnowledgeGraph.restore(tables, {**arrays, name: misfit})
    if count in (256, 65_536, 128, 32_768) and what != "bytes":  # the values fit one width narrower
        assert set(focus) <= set(narrowed)
