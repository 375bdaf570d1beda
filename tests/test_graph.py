from __future__ import annotations

from array import array
from random import Random

import pytest

import kgprompt.graph as graph_module
from kgprompt.errors import DuplicateEdgeError, UnknownNodeError
from kgprompt.graph import ARRAYS, Edge, KnowledgeGraph, Node, normalize_name
from kgprompt.ingest import export_edge_list_jsonl

from fixtures_kg import ODD_NAMES, gene_hop_graph, make_graph, name_lookups, prostate_star_graph
from oracles import (
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


def test_loader_adds_report_duplicates_without_changing_the_graph():
    kg = KnowledgeGraph()
    assert kg.add_node(Node("a", "A")) and kg.add_node(Node("b", "B"))
    assert not kg.add_node(Node("a", "other name"))
    assert kg.add_edge("a", "b", "r")
    assert not kg.add_edge("a", "b", "r")
    assert kg.add_edge("b", "a", "r")
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
    assert kg.add_node(Node("c", "C"))
    assert kg.add_edge("c", "a", "s")
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
        assert not copy.add_edge(source, target, label)
        assert copy.add_edge(source, target, label + " again")
        assert copy.edge_count == kg.edge_count + 1


def test_a_graph_and_its_restored_copy_take_adds_apart():
    # restore takes the dumped columns over without a copy; an add must not
    # reach the other graph
    nodes = [("a", "A", "t"), ("b", "B", "t"), ("c", "C", "u")]
    edges = [("a", "b", "r"), ("b", "c", "r")]
    kg = make_graph(nodes, edges)
    copy = KnowledgeGraph.restore(*kg.dump())
    added = {id(kg): ("a", "c", "new in kg"), id(copy): ("c", "a", "new in copy")}
    for graph in (kg, copy):
        assert graph.add_edge(*added[id(graph)])
    for graph in (kg, copy):
        built = make_graph(nodes, [*edges, added[id(graph)]])  # never dumped
        assert graph.edges == built.edges
        assert graph.edge_count == built.edge_count == 3
        for x in "abc":
            assert list(graph.adjacency(x)) == list(built.adjacency(x))
        assert graph.dump() == built.dump()


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
    assert kg.add_node(Node("d", "  Zeta! "))
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


def test_dump_follows_the_one_array_layout():
    rng = Random(17)
    nodes, edges = random_graph(rng, max_nodes=30, max_edges=90)
    for kg in (make_graph(nodes, edges), KnowledgeGraph()):
        _tables, arrays = kg.dump()
        assert [(name, values.typecode) for name, values in arrays.items()] == list(ARRAYS.items())


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
        for kg in (built, dumped, restored):
            assert not kg.add_node(Node(ids[-1], "another name"))
            assert not kg.add_edge(source, target, label)
            assert kg.add_edge(target, source, "added")
            assert kg.add_node(Node("\U0001f600 new", "a\0b", "new"))
            assert kg.add_edge("\U0001f600 new", ids[0], "added")
            assert not kg.add_node(Node("\U0001f600 new", "again"))
        expected = _answers(built, ids + ["\U0001f600 new"], names)
        for kg in (dumped, restored):
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
        for kg in (built, dumped, restored):
            for edge in edges:
                assert not kg.add_edge(*edge)
            assert kg.add_edge(ids[-1], ids[0], "added")
            assert kg.add_node(Node("new", "new node"))
            assert kg.add_edge("new", "new", "added loop")
            assert kg.add_edge(ids[0], "new", "added")
            assert not kg.add_edge(ids[-1], ids[0], "added")
        expected = _edge_answers(built, ids + ["new"], export)
        for kg in (dumped, restored):
            assert _edge_answers(kg, ids + ["new"], export) == expected, case


def test_a_dump_that_overflows_leaves_the_graph_as_it_was(monkeypatch):
    nodes, edges = random_graph(Random(26), max_nodes=20, max_edges=60)
    edges = [*edges, (nodes[0][0], nodes[0][0], "loop")]
    kg, built = make_graph(nodes, edges), make_graph(nodes, edges)

    def too_big(_nodes):
        raise OverflowError("unsigned int is greater than maximum")

    monkeypatch.setattr(graph_module, "_pack_nodes", too_big)
    with pytest.raises(OverflowError):
        kg.dump()
    monkeypatch.undo()
    ids = [node_id for node_id, _name, _type in nodes]
    assert kg.edges == built.edges
    assert [list(kg.adjacency(x)) for x in ids] == [list(built.adjacency(x)) for x in ids]
    for graph in (kg, built):
        assert not graph.add_edge(*edges[0])
        assert graph.add_node(Node("new", "new node"))
        assert graph.add_edge("new", ids[0], "added")
    assert _state_bytes(kg.dump()) == _state_bytes(built.dump())


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
