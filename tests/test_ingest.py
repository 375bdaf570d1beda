from __future__ import annotations

import gc
import itertools
import json
import os
import re
import tracemalloc
from pathlib import Path
from random import Random

import pytest

import kgprompt.graph as graph_module
import kgprompt.ingest as ingest
from kgprompt.errors import ParseError, SchemaError
from kgprompt.graph import KnowledgeGraph, normalize_name
from kgprompt.ingest import export_edge_list_jsonl, load_edge_list_jsonl, load_hetionet_json

from fixtures_kg import ODD_NAMES, name_lookups
from oracles import frozen_load_edge_list_jsonl, frozen_load_hetionet_json
from oracles import frozen_checked_load_edge_list_jsonl, frozen_checked_load_hetionet_json

HETIONET_ENV = "KGPROMPT_HETIONET_JSON"


def write_hetionet(path: Path, nodes, edges) -> Path:
    path.write_text(json.dumps({"nodes": nodes, "edges": edges}), encoding="utf-8")
    return path


def het_node(kind, identifier, name):
    return {"kind": kind, "identifier": identifier, "name": name}


def het_edge(source, target, kind, direction="forward"):
    return {"source_id": source, "target_id": target, "kind": kind, "direction": direction}


def test_hetionet_small_fixture(tmp_path):
    path = write_hetionet(
        tmp_path / "het.json",
        nodes=[
            het_node("Gene", 5468, "PPARG"),
            het_node("Disease", "DOID:9352", "type 2 diabetes mellitus"),
            het_node("Compound", "DB01132", "pioglitazone"),
        ],
        edges=[
            het_edge(["Gene", 5468], ["Disease", "DOID:9352"], "associates"),
            het_edge(["Compound", "DB01132"], ["Gene", 5468], "binds"),
        ],
    )
    kg, report = load_hetionet_json(path)
    assert report.nodes_loaded == 3
    assert report.edges_loaded == 2
    assert report.warnings == []
    assert kg.node("Gene::5468").name == "PPARG"
    assert kg.node("Disease::DOID:9352").node_type == "Disease"
    assert kg.relation_labels_between("Gene::5468", "Disease::DOID:9352") == [("associates", "out")]


def test_hetionet_both_direction_expands_to_two_edges(tmp_path):
    path = write_hetionet(
        tmp_path / "het.json",
        nodes=[het_node("Gene", 1, "A"), het_node("Gene", 2, "B")],
        edges=[het_edge(["Gene", 1], ["Gene", 2], "interacts", direction="both")],
    )
    kg, report = load_hetionet_json(path)
    assert report.edges_loaded == 1  # one dump record
    assert kg.edge_count == 2
    assert kg.relation_labels_between("Gene::1", "Gene::2") == [
        ("interacts", "out"),
        ("interacts", "in"),
    ]


def test_hetionet_dangling_edge_names_the_id(tmp_path):
    path = write_hetionet(
        tmp_path / "het.json",
        nodes=[het_node("Gene", 1, "A")],
        edges=[het_edge(["Gene", 1], ["Gene", 99], "interacts")],
    )
    with pytest.raises(SchemaError, match="Gene::99"):
        load_hetionet_json(path)


def test_hetionet_duplicate_edge_is_warning_not_error(tmp_path):
    path = write_hetionet(
        tmp_path / "het.json",
        nodes=[het_node("Gene", 1, "A"), het_node("Gene", 2, "B")],
        edges=[
            het_edge(["Gene", 1], ["Gene", 2], "interacts"),
            het_edge(["Gene", 1], ["Gene", 2], "interacts"),
        ],
    )
    kg, report = load_hetionet_json(path)
    assert kg.edge_count == 1
    assert report.duplicates_rejected == 1
    assert any("duplicate edge" in w for w in report.warnings)


def test_hetionet_invalid_json_carries_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": [}', encoding="utf-8")
    with pytest.raises(ParseError):
        load_hetionet_json(path)


def test_hetionet_missing_top_level_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": []}', encoding="utf-8")
    with pytest.raises(SchemaError, match="edges"):
        load_hetionet_json(path)


def test_hetionet_unknown_direction_marker(tmp_path):
    path = write_hetionet(
        tmp_path / "het.json",
        nodes=[het_node("Gene", 1, "A"), het_node("Gene", 2, "B")],
        edges=[het_edge(["Gene", 1], ["Gene", 2], "interacts", direction="sideways")],
    )
    with pytest.raises(SchemaError, match="sideways"):
        load_hetionet_json(path)


def test_hetionet_empty_name_or_kind_names_the_record(tmp_path):
    for nodes, edges, where in (
        ([het_node("Gene", 1, "A"), het_node("Gene", 2, "")], [], "node record 1: empty 'name'"),
        (
            [het_node("Gene", 1, "A"), het_node("Gene", 2, "B")],
            [het_edge(["Gene", 1], ["Gene", 2], "")],
            "edge record 0: empty 'kind'",
        ),
    ):
        path = write_hetionet(tmp_path / "het.json", nodes=nodes, edges=edges)
        with pytest.raises(SchemaError, match=where):
            load_hetionet_json(path)


def test_hetionet_records_must_be_objects_in_arrays(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": 5, "edges": []}', encoding="utf-8")
    with pytest.raises(SchemaError, match="'nodes' must be an array"):
        load_hetionet_json(path)
    path = write_hetionet(tmp_path / "het.json", nodes=[het_node("Gene", 1, "A")], edges=[5])
    with pytest.raises(SchemaError, match="edge record 0 must be a JSON object"):
        load_hetionet_json(path)


def test_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    kg, report = load_edge_list_jsonl(path)
    assert kg.node_count == 0
    assert kg.edge_count == 0
    assert report.nodes_loaded == 0
    assert report.edges_loaded == 0


def test_jsonl_gene_hop_fixture_queries(tmp_path):
    # 4 node lines + 4 edge lines reproducing the two-hop gene/disease figure
    lines = [
        {"node": {"id": "FGF6", "name": "FGF6", "type": "gene"}},
        {"node": {"id": "FGFR4", "name": "FGFR4", "type": "gene"}},
        {"node": {"id": "PC", "name": "prostate cancer", "type": "disease"}},
        {"node": {"id": "UB", "name": "urinary bladder", "type": "anatomy"}},
        {"edge": {"source": "FGF6", "target": "FGFR4", "label": "interacts with"}},
        {"edge": {"source": "FGFR4", "target": "PC", "label": "genetic association"}},
        {"edge": {"source": "FGF6", "target": "UB", "label": "expressed in"}},
        {"edge": {"source": "PC", "target": "UB", "label": "affects"}},
    ]
    path = tmp_path / "fig.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n", encoding="utf-8")
    kg, report = load_edge_list_jsonl(path)
    assert report.nodes_loaded == 4
    assert report.edges_loaded == 4
    hop2 = {n.name for n in kg.k_hop_neighbors("FGF6", 2)[1]}
    assert hop2 == {"prostate cancer"}
    from kgprompt.structures import ExtractionLimits, enumerate_metapaths

    bundle = enumerate_metapaths(kg, "FGF6", "PC", ExtractionLimits(max_metapaths=10), seed=1)
    assert ("FGF6", "FGFR4", "PC") in {
        tuple(n.id for n in path.nodes) for path in bundle.payload
    }


def test_jsonl_line_with_node_and_edge_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {"node": {"id": "a", "name": "A"}, "edge": {"source": "a", "target": "a", "label": "r"}}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="both"):
        load_edge_list_jsonl(path)


def test_jsonl_edge_before_node(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"edge": {"source": "a", "target": "b", "label": "r"}}) + "\n")
    with pytest.raises(SchemaError, match="unknown node"):
        load_edge_list_jsonl(path)


def test_jsonl_parse_error_has_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"node": {"id": "a", "name": "A"}}\nnot json\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_edge_list_jsonl(path)
    assert err.value.line == 2


def test_jsonl_roundtrip(tmp_path, fixture_kg_path):
    kg, _ = load_edge_list_jsonl(fixture_kg_path)
    out = tmp_path / "export.jsonl"
    export_edge_list_jsonl(kg, out)
    kg2, report2 = load_edge_list_jsonl(out)
    assert list(kg2.nodes) == list(kg.nodes)
    assert kg2.nodes == kg.nodes
    assert kg2.edges == kg.edges
    assert report2.duplicates_rejected == 0


def test_jsonl_load_is_deterministic(fixture_kg_path):
    kg1, _ = load_edge_list_jsonl(fixture_kg_path)
    kg2, _ = load_edge_list_jsonl(fixture_kg_path)
    assert list(kg1.nodes) == list(kg2.nodes)
    assert kg1.edges == kg2.edges


@pytest.mark.skipif(HETIONET_ENV not in os.environ, reason=f"set {HETIONET_ENV} to the dump path")
def test_full_hetionet_dump_counts():
    # environment-pinned fixture metadata for the v1.0 dump
    kg, report = load_hetionet_json(os.environ[HETIONET_ENV])
    assert report.nodes_loaded == 47_031
    assert report.edges_loaded == 2_250_197


def test_jsonl_empty_name_or_label_names_the_line(tmp_path):
    node_a = {"node": {"id": "a", "name": "A"}}
    node_b = {"node": {"id": "b", "name": "B"}}
    for lines, line, field in (
        ([node_a, {"node": {"id": "b", "name": ""}}], 2, "name"),
        ([{"node": {"id": "", "name": "X"}}], 1, "id"),
        ([node_a, node_b, {"edge": {"source": "a", "target": "b", "label": ""}}], 3, "label"),
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"empty '{field}'") as err:
            load_edge_list_jsonl(path)
        assert err.value.line == line


@pytest.mark.parametrize("bad", [["x"], {"x": 1}, None, True, 1.5])
def test_node_id_parts_must_be_strings_or_integers(tmp_path, bad):
    # Any other JSON value has no one spelling in a node id ("Gene::['x']").
    a, b = het_node("Gene", 1, "A"), het_node("Gene", "2", "B")
    forward = het_edge(["Gene", 1], ["Gene", "2"], "interacts")
    hetionet_cases = [
        ([het_node(bad, 1, "A")], [], "node record 0: 'kind' must be a string or an integer"),
        ([a, het_node("Gene", bad, "B")], [], "node record 1: 'identifier' must be a string or an integer"),
    ]
    for field, half in itertools.product(("source_id", "target_id"), (0, 1)):
        edge = dict(forward)
        edge[field] = list(edge[field])
        edge[field][half] = bad
        hetionet_cases.append(([a, b], [forward, edge], f"edge record 1: {field} must be a \\[kind, identifier\\] pair"))
    for nodes, edges, message in hetionet_cases:
        path = write_hetionet(tmp_path / "het.json", nodes=nodes, edges=edges)
        with pytest.raises(SchemaError, match=f"^{message}"):
            load_hetionet_json(path)

    node_a = {"node": {"id": "a", "name": "A"}}
    node_b = {"node": {"id": 2, "name": "B"}}
    for lines, line, field in (
        ([node_a, {"node": {"id": bad, "name": "X"}}], 2, "id"),
        ([node_a, node_b, {"edge": {"source": bad, "target": 2, "label": "r"}}], 3, "source"),
        ([node_a, node_b, {"edge": {"source": "a", "target": bad, "label": "r"}}], 3, "target"),
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"'{field}' must be a string or an integer") as err:
            load_edge_list_jsonl(path)
        assert err.value.line == line


@pytest.mark.parametrize("bad", [None, ["B"], {"x": 1}, 5, False], ids=["null", "list", "object", "int", "bool"])
def test_names_labels_and_types_must_be_strings(tmp_path, bad):
    # Any other JSON value would load as its Python spelling ("None", "['B']").
    a, b = het_node("Gene", 1, "A"), het_node("Gene", 2, "B")
    for nodes, edges, message in (
        ([a, het_node("Gene", 2, bad)], [], "node record 1: 'name' must be a string"),
        ([a, b], [het_edge(["Gene", 1], ["Gene", 2], bad)], "edge record 0: 'kind' must be a string"),
    ):
        path = write_hetionet(tmp_path / "het.json", nodes=nodes, edges=edges)
        with pytest.raises(SchemaError, match=f"^{message}, not {type(bad).__name__}$"):
            load_hetionet_json(path)

    node_a = {"node": {"id": "a", "name": "A"}}
    node_b = {"node": {"id": "b", "name": "B"}}
    for lines, line, field in (
        ([node_a, {"node": {"id": "b", "name": bad}}], 2, "name"),
        ([node_a, {"node": {"id": "b", "name": "B", "type": bad}}], 2, "type"),
        ([node_a, node_b, {"edge": {"source": "a", "target": "b", "label": bad}}], 3, "label"),
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
        with pytest.raises(SchemaError, match=f"'{field}' must be a string, not {type(bad).__name__}$") as err:
            load_edge_list_jsonl(path)
        assert err.value.line == line


def test_jsonl_body_must_be_an_object(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"node": {"id": "a", "name": "A"}}\n{"edge": 5}\n', encoding="utf-8")
    with pytest.raises(SchemaError, match="edge record must be a JSON object") as err:
        load_edge_list_jsonl(path)
    assert err.value.line == 2


# --- the loaders against frozen copies of the earlier graph and loaders ---


def _random_hetionet(rng: Random) -> dict:
    """A small Hetionet-format document with duplicate nodes (the same
    identifier as an int and as a string), exact duplicate edges, parallel
    labels, self-loops and every direction marker."""
    kinds = ("Gene", "Disease")
    keys = [(rng.choice(kinds), rng.randrange(12)) for _ in range(rng.randint(1, 20))]
    nodes = [het_node(kind, rng.choice((ident, str(ident))), f"{kind} {ident}") for kind, ident in keys]
    edges = []
    for _ in range(rng.randint(0, rng.choice((10, 80)))):
        if edges and rng.random() < 0.15:
            edges.append(dict(rng.choice(edges)))
            continue
        (skind, sident), (tkind, tident) = rng.choice(keys), rng.choice(keys)
        if rng.random() < 0.1:
            tkind, tident = skind, sident
        edges.append(het_edge(
            [skind, rng.choice((sident, str(sident)))],
            [tkind, rng.choice((tident, str(tident)))],
            rng.choice(("binds", "treats", "regulates")),
            direction=rng.choice(("forward", "backward", "both")),
        ))
    return {"nodes": nodes, "edges": edges}


def _random_edge_list(rng: Random) -> list[dict]:
    """The same variety as ``_random_hetionet`` in JSONL edge-list records."""
    ids = [rng.randrange(12) for _ in range(rng.randint(1, 20))]
    records = []
    for ident in ids:
        body = {"id": rng.choice((ident, str(ident))), "name": f"node {ident}"}
        if rng.random() < 0.7:
            body["type"] = rng.choice(("gene", "disease"))
        records.append({"node": body})
    edges = []
    for _ in range(rng.randint(0, rng.choice((10, 80)))):
        if edges and rng.random() < 0.15:
            edges.append({"edge": dict(rng.choice(edges)["edge"])})
            continue
        source = rng.choice(ids)
        target = source if rng.random() < 0.1 else rng.choice(ids)
        edges.append({"edge": {
            "source": rng.choice((source, str(source))),
            "target": rng.choice((target, str(target))),
            "label": rng.choice(("binds", "treats", "regulates")),
        }})
    return records + edges


def _corrupt_hetionet(rng: Random, doc: dict) -> None:
    """One seeded defect: a missing field, an unknown node, an empty label
    or name, a bad direction or a non-object record."""
    key = "edges" if doc["edges"] and rng.random() < 0.7 else "nodes"
    records = doc[key]
    i = rng.randrange(len(records))
    defect = rng.choice(("missing", "unknown", "empty", "direction", "non-object"))
    if defect == "missing":
        del records[i][rng.choice(list(records[i]))]
    elif defect == "non-object":
        records[i] = rng.choice((5, "x", [1, 2], None))
    elif key == "nodes":
        records[i]["name"] = ""
    elif defect == "unknown":
        records[i][rng.choice(("source_id", "target_id"))] = ["Gene", "ghost"]
    elif defect == "empty":
        records[i]["kind"] = ""
    else:
        records[i]["direction"] = rng.choice(("sideways", 1, None))


def _corrupt_edge_list(rng: Random, records: list) -> None:
    """One seeded defect: a missing field, an unknown node, an empty label
    or id, or a non-object record or body."""
    i = rng.randrange(len(records))
    record = records[i]
    body = record.get("edge") or record["node"]
    defect = rng.choice(("missing", "unknown", "empty", "non-object"))
    if defect == "missing":
        del body[rng.choice(list(body))]
    elif defect == "non-object":
        if rng.random() < 0.5:
            records[i] = rng.choice((5, "x", [1, 2], None))
        else:
            record[next(iter(record))] = 5
    elif "edge" in record and defect == "unknown":
        body["source"] = "ghost"
    elif "edge" in record:
        body["label"] = ""
    else:
        body["id"] = ""


def _write_edge_list(path: Path, records: list) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def _outcome(loader, path: Path):
    """Everything a load shows: the report and every graph query, or the error."""
    try:
        kg, report = loader(path)
    except Exception as exc:  # the error itself is what gets compared
        return type(exc), str(exc)
    ids = list(kg.nodes)
    return (
        report,
        list(kg.nodes.items()),
        kg.edges,
        [kg.neighbor_ids(x) for x in ids],
        [list(kg.adjacency(x)) for x in ids],
        [kg.relation_labels_between(x, y) for x in ids for y in ids],
    )


def test_loaders_match_frozen_copies_on_random_dumps(tmp_path):
    rng = Random(2024)
    het, jsonl = tmp_path / "het.json", tmp_path / "graph.jsonl"
    suppressed = 0
    for _ in range(120):
        path = write_hetionet(het, **_random_hetionet(rng))
        got = _outcome(load_hetionet_json, path)
        assert got == _outcome(frozen_load_hetionet_json, path)
        # the second load of the same bytes restores the first one's snapshot
        assert _outcome(load_hetionet_json, path) == got
        suppressed += any("further warnings suppressed" in w for w in got[0].warnings)
        path = _write_edge_list(jsonl, _random_edge_list(rng))
        assert _outcome(load_edge_list_jsonl, path) == _outcome(frozen_load_edge_list_jsonl, path)
        assert _outcome(load_edge_list_jsonl, path) == _outcome(frozen_load_edge_list_jsonl, path)
    assert suppressed  # some dumps overflow the report's warning cap


def test_loaders_raise_as_frozen_copies_on_corrupt_dumps(tmp_path):
    rng = Random(4202)
    het, jsonl = tmp_path / "het.json", tmp_path / "graph.jsonl"
    messages = []
    for _ in range(150):
        doc = _random_hetionet(rng)
        _corrupt_hetionet(rng, doc)
        path = write_hetionet(het, **doc)
        got = _outcome(load_hetionet_json, path)
        assert got == _outcome(frozen_load_hetionet_json, path)
        messages.append(got[1] if got[0] is SchemaError else "")
        records = _random_edge_list(rng)
        _corrupt_edge_list(rng, records)
        path = _write_edge_list(jsonl, records)
        got = _outcome(load_edge_list_jsonl, path)
        assert got == _outcome(frozen_load_edge_list_jsonl, path)
        messages.append(got[1] if got[0] is SchemaError else "")
    # every kind of defect was hit and raised, in both formats
    for pattern in (
        r"^edge record \d+: missing field", r"^node record \d+: missing field",
        r"^edge record \d+: unknown node id", r"^edge record \d+: empty 'kind'",
        r"^node record \d+: empty 'name'", r"^edge record \d+: unknown direction marker",
        r"^edge record \d+ must be a JSON object", r"^node record \d+ must be a JSON object",
        r"^line \d+: edge record: missing field", r"^line \d+: node record: missing field",
        r"^line \d+: edge references unknown node id", r"^line \d+: edge record: empty 'label'",
        r"^line \d+: node record: empty 'id'", r"^line \d+: record must be a JSON object",
        r"^line \d+: edge record must be a JSON object", r"^line \d+: node record must be a JSON object",
    ):
        assert any(re.search(pattern, message) for message in messages), pattern



# --- the inline record test and the per-field helpers ---

# Every function a loader may call to check or read one record; a valid
# record must reach none of them.
_RECORD_HELPERS = (
    "_id_field", "_nonempty", "_endpoint", "_node_record", "_edge_record", "_line_body", "_node_line", "_edge_line",
)


def test_valid_records_call_no_helper(tmp_path, monkeypatch):
    # int and str identifiers, every direction marker, self-loops, duplicate
    # edges (one of them half of a "both" record) and a duplicate node id
    het = write_hetionet(
        tmp_path / "het.json",
        nodes=[
            het_node("Gene", 1, "A"), het_node("Gene", "2", "B"), het_node("Disease", "DOID:9", "C"),
            het_node("Gene", "1", "A again"),
        ],
        edges=[
            het_edge(["Gene", 1], ["Gene", 2], "interacts"),
            het_edge(["Gene", "2"], ["Disease", "DOID:9"], "associates", direction="backward"),
            het_edge(["Gene", 1], ["Disease", "DOID:9"], "associates", direction="both"),
            het_edge(["Gene", 2], ["Gene", "2"], "regulates"),
            het_edge(["Gene", "1"], ["Gene", "2"], "interacts"),
            het_edge(["Disease", "DOID:9"], ["Gene", 1], "associates"),
            het_edge(["Gene", 1], ["Gene", "1"], "regulates", direction="both"),
        ],
    )
    jsonl = _write_edge_list(tmp_path / "graph.jsonl", [
        {"node": {"id": 1, "name": "A", "type": "Gene"}},
        {"node": {"id": "2", "name": "B"}},
        {"node": {"id": "DOID:9", "name": "C", "type": "Disease"}},
        {"node": {"id": "1", "name": "A again"}},
        {"edge": {"source": 1, "target": "2", "label": "interacts"}},
        {"edge": {"source": "2", "target": "DOID:9", "label": "associates"}},
        {"edge": {"source": 2, "target": 2, "label": "regulates"}},
        {"edge": {"source": "1", "target": 2, "label": "interacts"}},
    ])
    expected = {
        "hetionet": _outcome(frozen_load_hetionet_json, het),
        "jsonl": _outcome(frozen_load_edge_list_jsonl, jsonl),
    }

    def helper(*args, **kwargs):
        raise AssertionError("a valid record reached a per-field helper")

    for name in _RECORD_HELPERS:
        monkeypatch.setattr(ingest, name, helper)
    monkeypatch.setattr(KnowledgeGraph, "has_node", helper)
    for fmt, path in (("hetionet", het), ("jsonl", jsonl)):
        got = _outcome(_LOADERS[fmt], path)
        assert got == expected[fmt]
        report = got[0]
        assert report.duplicates_rejected and any("duplicate node id" in w for w in report.warnings), fmt


def _routed_hetionet_dumps() -> dict[str, tuple[list, list]]:
    """Hetionet documents, by case, with a record that the loader's inline
    test leaves to the helpers: some load, some raise."""
    a, b = het_node("Gene", 1, "A"), het_node("Gene", "2", "B")
    edge = het_edge(["Gene", 1], ["Gene", "2"], "interacts")
    # the nodes that an endpoint of another type would find if it were read
    # as a string: "ab" as "a::b", {"Gene": 1, "x": 2} as "Gene::x", true as "True"
    decoys = [a, b, het_node("a", "b", "AB"), het_node("Gene", "x", "X")]
    for spelling in ("True", "1.5"):
        decoys += [het_node(spelling, 1, spelling), het_node("Gene", spelling, spelling)]
    cases = {}
    for bad in (True, 1.5):
        cases[f"node-kind-{bad}"] = [a, het_node(bad, 3, "C")], [edge]
        cases[f"node-identifier-{bad}"] = [a, b, het_node("Gene", bad, "C")], [edge]
        cases[f"endpoint-kind-{bad}"] = decoys, [edge, het_edge([bad, 1], ["Gene", 2], "r")]
        cases[f"endpoint-identifier-{bad}"] = decoys, [edge, het_edge(["Gene", 1], ["Gene", bad], "r")]
        cases[f"edge-kind-{bad}"] = [a, b], [edge, het_edge(["Gene", 1], ["Gene", 2], bad)]
    for name, endpoint in (("string", "ab"), ("triple", ["Gene", 1, 2]), ("object", {"Gene": 1, "x": 2})):
        cases[f"source-{name}"] = decoys, [edge, het_edge(endpoint, ["Gene", 2], "r")]
        cases[f"target-{name}"] = decoys, [edge, het_edge(["Gene", 2], endpoint, "r")]
    cases["ids-collide-as-strings"] = (
        [het_node("a::b", "c", "first"), het_node("a", "b::c", "second"), a],
        [het_edge(["a::b", "c"], ["a", "b::c"], "same"), het_edge(["a", "b::c"], ["Gene", 1], "r", "both")],
    )
    cases["int-kind"] = (
        [het_node(7, 1, "seven"), het_node("7", 2, "seven too"), a],
        [het_edge([7, 1], ["7", 2], "r"), het_edge(["7", "1"], [7, "2"], "r", "backward"),
         het_edge(["Gene", 1], [7, 2], "s", "both")],
    )
    cases["empty-identifier"] = (
        [het_node("Gene", "", "E"), a, b], [het_edge(["Gene", ""], ["Gene", 1], "r", "both"), edge]
    )
    cases["extra-keys"] = (
        [{**a, "extra": [1]}, {"note": None, **b}],
        [{**edge, "weight": 2.5}, {"sources": 3, **het_edge(["Gene", 2], ["Gene", 1], "r", "both")}],
    )
    for bad in (5, None, ["A"]):
        cases[f"name-{bad!r}"] = [a, het_node("Gene", 2, bad)], []
    return cases


def _routed_edge_lists() -> dict[str, list]:
    """JSONL edge lists, by case, with a line that the loader's inline test
    leaves to the helpers: some load, some raise."""
    a, b = {"node": {"id": "a", "name": "A"}}, {"node": {"id": 2, "name": "B", "type": "Gene"}}
    edge = {"edge": {"source": "a", "target": 2, "label": "r"}}
    cases = {}
    for bad in (True, 1.5, ["a"], {"a": 1}):
        decoy = {"node": {"id": str(bad), "name": "what str() would find"}}
        cases[f"id-{bad!r}"] = [a, {"node": {"id": bad, "name": "C"}}, edge]
        cases[f"source-{bad!r}"] = [a, b, decoy, {"edge": {"source": bad, "target": 2, "label": "r"}}]
        cases[f"target-{bad!r}"] = [a, b, decoy, {"edge": {"source": "a", "target": bad, "label": "r"}}]
        cases[f"label-{bad!r}"] = [a, b, {"edge": {"source": "a", "target": 2, "label": bad}}]
        cases[f"type-{bad!r}"] = [a, {"node": {"id": "c", "name": "C", "type": bad}}]
    cases["ids-collide-as-strings"] = [
        a, b, {"node": {"id": "2", "name": "B again"}}, edge, {"edge": {"source": "a", "target": "2", "label": "r"}},
    ]
    cases["int-type"] = [a, {"node": {"id": "c", "name": "C", "type": 3}}]
    cases["empty-id"] = [a, {"node": {"id": "", "name": "E"}}]
    cases["extra-keys"] = [
        {"node": {"id": "a", "name": "A", "extra": 1}}, {"meta": None, **b},
        {"edge": {"source": "a", "target": 2, "label": "r", "weight": 2.5}}, {"line": 4, **edge},
        {"edge": {"source": 2, "target": "a", "label": "r"}, "note": "x"},
    ]
    cases["both-bodies"] = [a, {"node": {"id": "c", "name": "C"}, "edge": edge["edge"]}]
    cases["null-bodies"] = [a, {"node": None}]
    cases["null-edge"] = [a, {"edge": None}]
    for bad in (5, None, ["A"], ""):
        cases[f"name-{bad!r}"] = [a, {"node": {"id": "c", "name": bad}}]
    return cases


def test_records_left_to_the_helpers_load_or_raise_as_frozen_checked_loaders(tmp_path):
    outcomes = []
    for case, (nodes, edges) in _routed_hetionet_dumps().items():
        path = write_hetionet(tmp_path / f"het-{len(outcomes)}.json", nodes, edges)
        got = _outcome(load_hetionet_json, path)
        assert got == _outcome(frozen_checked_load_hetionet_json, path), case
        outcomes.append(got[0])
    for case, records in _routed_edge_lists().items():
        path = _write_edge_list(tmp_path / f"graph-{len(outcomes)}.jsonl", records)
        got = _outcome(load_edge_list_jsonl, path)
        assert got == _outcome(frozen_checked_load_edge_list_jsonl, path), case
        outcomes.append(got[0])
    # both kinds of outcome occur: loads with their reports, and schema errors
    assert SchemaError in outcomes and any(isinstance(outcome, ingest.IngestReport) for outcome in outcomes)


# --- the GC pause and the released records ---


def _small_dump(tmp_path: Path, fmt: str, broken: bool) -> Path:
    target = 99 if broken else 2
    if fmt == "hetionet":
        return write_hetionet(
            tmp_path / "het.json",
            nodes=[het_node("Gene", 1, "A"), het_node("Gene", 2, "B")],
            edges=[het_edge(["Gene", 1], ["Gene", target], "interacts")],
        )
    return _write_edge_list(tmp_path / "graph.jsonl", [
        {"node": {"id": "1", "name": "A"}},
        {"node": {"id": "2", "name": "B"}},
        {"edge": {"source": "1", "target": str(target), "label": "interacts"}},
    ])


_LOADERS = {"hetionet": load_hetionet_json, "jsonl": load_edge_list_jsonl}


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
@pytest.mark.parametrize("broken", [False, True], ids=["loads", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_loaders_leave_the_gc_state_as_they_found_it(tmp_path, fmt, broken, enabled):
    path = _small_dump(tmp_path, fmt, broken)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if broken:
            with pytest.raises(SchemaError, match="unknown node id"):
                _LOADERS[fmt](path)
        else:
            _LOADERS[fmt](path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
def test_loaders_run_no_gc_pass(tmp_path, fmt):
    nodes = [het_node("Gene", i, f"gene {i}") for i in range(3000)]
    edges = [het_edge(["Gene", i], ["Gene", (i * 7 + 1) % 3000], "interacts") for i in range(3000)]
    if fmt == "hetionet":
        path = write_hetionet(tmp_path / "het.json", nodes, edges)
    else:
        path = _write_edge_list(tmp_path / "graph.jsonl", [
            *({"node": {"id": str(n["identifier"]), "name": n["name"]}} for n in nodes),
            *({"edge": {"source": str(e["source_id"][1]), "target": str(e["target_id"][1]),
                        "label": e["kind"]}} for e in edges),
        ])
    passes = []
    callback = lambda phase, info: passes.append(info["generation"]) if phase == "start" else None
    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(callback)
    try:
        kg, _ = _LOADERS[fmt](path)
    finally:
        gc.callbacks.remove(callback)
        (gc.enable if was_enabled else gc.disable)()
    assert kg.edge_count == 3000
    assert len(passes) <= 1  # the one pass due once the GC is back on


def test_hetionet_loader_releases_each_record(tmp_path, monkeypatch):
    path = write_hetionet(
        tmp_path / "het.json",
        nodes=[het_node("Gene", 1, "A"), het_node("Gene", 2, "B")],
        edges=[het_edge(["Gene", 1], ["Gene", 2], "interacts", direction="both")],
    )
    documents = []
    real_load = json.load
    monkeypatch.setattr(json, "load", lambda fh: documents.append(real_load(fh)) or documents[-1])
    kg, _ = load_hetionet_json(path)
    assert kg.edge_count == 2
    (doc,) = documents
    assert doc["nodes"] == [None, None] and doc["edges"] == [None]


def test_jsonl_non_utf8_line_counts_every_kind_of_line_break(tmp_path):
    path = tmp_path / "graph.jsonl"
    data = (
        b'{"node": {"id": "a", "name": "A"}}\r\n'
        b'{"node": {"id": "b", "name": "B"}}\r'
        b' \n'
        b'{"node": {"id": "c", "name": "\xff"}}\n'
    )
    path.write_bytes(data.replace(b"\xff", b"C"))
    with path.open(encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 4  # text-mode reading sees four lines
    path.write_bytes(data)
    where = f"^line 4: {re.escape(str(path))}: not valid UTF-8 at byte {data.index(0xFF)} "
    with pytest.raises(ParseError, match=where) as err:
        load_edge_list_jsonl(path)
    assert err.value.line == 4


# --- snapshots ---

_FROZEN = {"hetionet": frozen_load_hetionet_json, "jsonl": frozen_load_edge_list_jsonl}
_PARSERS = {"hetionet": "_parse_hetionet_json", "jsonl": "_parse_edge_list_jsonl"}


def _random_dump(tmp_path: Path, fmt: str, seed: int) -> Path:
    rng = Random(seed)
    if fmt == "hetionet":
        return write_hetionet(tmp_path / "het.json", **_random_hetionet(rng))
    return _write_edge_list(tmp_path / "graph.jsonl", _random_edge_list(rng))


def _count_parses(monkeypatch, fmt: str) -> list:
    """The paths ``fmt``'s loader parses from now on (a snapshot hit parses none)."""
    parses = []
    parse = getattr(ingest, _PARSERS[fmt])
    monkeypatch.setattr(ingest, _PARSERS[fmt], lambda path: parses.append(path) or parse(path))
    return parses


def _damage(snapshot: Path, damage: str) -> None:
    data = bytearray(snapshot.read_bytes())
    header = ingest._SNAPSHOT_HEADER.size
    if damage == "truncated":
        del data[header + (len(data) - header) // 2:]
    elif damage == "flipped-byte":
        data[header + (len(data) - header) // 2] ^= 0x01
    elif damage == "wrong-version":
        data[8:12] = (ingest._SNAPSHOT_VERSION + 1).to_bytes(4, "little")
    elif damage == "header-only":
        del data[header - 1:]
    elif damage == "wrong-count":  # one more item of the last array than the payload holds
        end = header + ingest._SNAPSHOT_SIZES.size
        sizes = list(ingest._SNAPSHOT_SIZES.unpack(data[header:end]))
        sizes[-1] += 1
        data[header:end] = ingest._SNAPSHOT_SIZES.pack(*sizes)
    snapshot.write_bytes(bytes(data))


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
@pytest.mark.parametrize("damage", ["truncated", "flipped-byte", "wrong-version", "header-only", "wrong-count"])
def test_damaged_snapshot_is_rebuilt_not_trusted(tmp_path, graph_cache, monkeypatch, fmt, damage):
    path = _random_dump(tmp_path, fmt, seed=808)
    expected = _outcome(_FROZEN[fmt], path)
    parses = _count_parses(monkeypatch, fmt)
    assert _outcome(_LOADERS[fmt], path) == expected
    assert _outcome(_LOADERS[fmt], path) == expected
    assert len(parses) == 1  # the second load restored the snapshot
    (snapshot,) = (graph_cache / "kgprompt" / "graphs").iterdir()
    _damage(snapshot, damage)
    assert _outcome(_LOADERS[fmt], path) == expected
    assert len(parses) == 2  # parsed again
    assert _outcome(_LOADERS[fmt], path) == expected
    assert len(parses) == 2  # and the rewritten snapshot restored


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
def test_changed_dump_is_parsed_again(tmp_path, graph_cache, monkeypatch, fmt):
    path = _random_dump(tmp_path, fmt, seed=1)
    _LOADERS[fmt](path)
    parses = _count_parses(monkeypatch, fmt)
    path = _random_dump(tmp_path, fmt, seed=2)  # other bytes at the same path
    assert _outcome(_LOADERS[fmt], path) == _outcome(_FROZEN[fmt], path)
    assert parses == [path]
    assert len(list((graph_cache / "kgprompt" / "graphs").iterdir())) == 2


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
def test_snapshot_of_other_code_is_replaced_in_place(tmp_path, graph_cache, monkeypatch, caplog, fmt):
    path = _random_dump(tmp_path, fmt, seed=10)
    expected = _outcome(_FROZEN[fmt], path)
    _LOADERS[fmt](path)
    parses = _count_parses(monkeypatch, fmt)
    other_code = ingest._code_sha256()[::-1]  # another digest of the same form
    monkeypatch.setattr(ingest, "_code_sha256", lambda: other_code)
    with caplog.at_level("WARNING", logger="kgprompt.ingest"):
        assert _outcome(_LOADERS[fmt], path) == expected
    assert parses == [path]
    (snapshot,) = (graph_cache / "kgprompt" / "graphs").iterdir()
    assert [r.getMessage() for r in caplog.records] == [
        f"graph snapshot {snapshot} is not usable (not a version {ingest._SNAPSHOT_VERSION} graph snapshot"
        " of this code); parsing the dump again"
    ]
    assert _outcome(_LOADERS[fmt], path) == expected
    assert parses == [path]  # the replaced snapshot restored


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
def test_cold_load_drops_the_duplicate_check_set_like_a_restore(tmp_path, fmt):
    path = _random_dump(tmp_path, fmt, seed=6)
    for load in ("cold", "warm"):
        kg, _report = _LOADERS[fmt](path)
        assert kg._keys is None, load
        count, edge = kg.edge_count, kg.edges[0]
        assert kg.add_edge(edge.source, edge.target, edge.label) is False  # the set is rebuilt
        assert kg.edge_count == count


def _odd_names_dump(tmp_path: Path, fmt: str) -> Path:
    """A dump whose node names are ``ODD_NAMES``, node i holding the i-th."""
    if fmt == "hetionet":
        return write_hetionet(
            tmp_path / "het.json", [het_node("Gene", i, name) for i, (_id, name) in enumerate(ODD_NAMES)], []
        )
    return _write_edge_list(
        tmp_path / "graph.jsonl", [{"node": {"id": str(i), "name": name}} for i, (_id, name) in enumerate(ODD_NAMES)]
    )


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
def test_snapshot_carries_the_normalized_names(tmp_path, monkeypatch, fmt):
    (tmp_path / "random").mkdir()
    (tmp_path / "odd").mkdir()
    paths = [_random_dump(tmp_path / "random", fmt, seed=5), _odd_names_dump(tmp_path / "odd", fmt)]
    parsed = [_LOADERS[fmt](path)[0] for path in paths]
    parses = _count_parses(monkeypatch, fmt)
    questions = []
    for kg in parsed:
        names = [node.name for node in kg.nodes.values()] + ["NODE 3", "gene 3", "STRASSE", "A\0B", "?"]
        questions.append((names, [normalize_name(name) for name in names]))  # normalized while it still may
    expected = [name_lookups(kg, *question) for kg, question in zip(parsed, questions)]
    node_id = "Gene::{}".format if fmt == "hetionet" else str
    assert expected[1]["STRASSE"] == (node_id(1), node_id(0))  # ODD_NAMES' s2, then s1

    def not_again(name: str) -> str:
        raise AssertionError(f"normalized {name!r} again")

    monkeypatch.setattr(graph_module, "normalize_name", not_again)
    restored = [_LOADERS[fmt](path)[0] for path in paths]
    assert parses == []
    assert [name_lookups(kg, *question) for kg, question in zip(restored, questions)] == expected


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
@pytest.mark.parametrize("name", ["normalized", "name_offsets", "name_nodes"])
def test_snapshot_with_a_name_index_that_does_not_fit_is_parsed_again(
    tmp_path, graph_cache, monkeypatch, caplog, fmt, name
):
    path = _random_dump(tmp_path, fmt, seed=909)
    expected = _outcome(_FROZEN[fmt], path)
    dump = KnowledgeGraph.dump

    def cut_dump(graph: KnowledgeGraph):
        tables, arrays = dump(graph)
        return tables, {**arrays, name: arrays[name][:-1]}

    monkeypatch.setattr(KnowledgeGraph, "dump", cut_dump)
    _LOADERS[fmt](path)  # parses and saves a snapshot whose index is one item short
    monkeypatch.setattr(KnowledgeGraph, "dump", dump)
    parses = _count_parses(monkeypatch, fmt)
    with caplog.at_level("WARNING", logger="kgprompt.ingest"):
        assert _outcome(_LOADERS[fmt], path) == expected
    assert parses == [path]
    (snapshot,) = (graph_cache / "kgprompt" / "graphs").iterdir()
    assert [r.getMessage() for r in caplog.records] == [
        f"graph snapshot {snapshot} is not usable (graph state: tables and arrays do not match);"
        " parsing the dump again"
    ]
    assert _outcome(_LOADERS[fmt], path) == expected
    assert parses == [path]  # and the rewritten snapshot restored


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
@pytest.mark.parametrize(
    "name", ["node_ids", "node_id_offsets", "id_order", "node_names", "node_name_offsets", "name_order", "node_types"]
)
@pytest.mark.parametrize("extend", [False, True], ids=["cut", "extended"])
def test_snapshot_with_node_columns_that_do_not_fit_is_parsed_again(
    tmp_path, graph_cache, monkeypatch, fmt, name, extend
):
    path = _random_dump(tmp_path, fmt, seed=922)
    expected = _outcome(_FROZEN[fmt], path)
    dump = KnowledgeGraph.dump

    def misfit_dump(graph: KnowledgeGraph):
        tables, arrays = dump(graph)
        values = arrays[name]
        return tables, {**arrays, name: values + values[-1:] if extend else values[:-1]}

    monkeypatch.setattr(KnowledgeGraph, "dump", misfit_dump)
    assert _outcome(_LOADERS[fmt], path) == expected  # parses, and saves a snapshot that does not fit
    monkeypatch.setattr(KnowledgeGraph, "dump", dump)
    parses = _count_parses(monkeypatch, fmt)
    assert _outcome(_LOADERS[fmt], path) == expected
    assert parses == [path]
    assert _outcome(_LOADERS[fmt], path) == expected
    assert parses == [path]  # the rewritten snapshot restored


# Bytes a warm load of the graph below may hold per node. A restore that makes
# per-node Python objects (an id and a name str each, their list slots and an
# id -> int dict entry) holds about 290; the packed columns hold about 140.
_WARM_BYTES_PER_NODE = 200


def test_warm_load_holds_no_per_node_objects(tmp_path, graph_cache):
    rng = Random(20)
    n = 20_000
    kinds = ["Gene", "Disease", "Compound", "Anatomy", "Pathway"]
    nodes = [het_node(kinds[i % 5], i, f"Entity {i}") for i in range(n)]
    ends = [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    edges = [het_edge([kinds[s % 5], s], [kinds[t % 5], t], "links") for s, t in ends]
    path = write_hetionet(tmp_path / "het.json", nodes, edges)
    del nodes, ends, edges
    load_hetionet_json(path)  # parses and saves the snapshot
    gc.collect()
    tracemalloc.start()
    try:
        kg, _report = load_hetionet_json(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (kg.node_count, kg.node(f"Gene::{n - 5}").name) == (n, f"Entity {n - 5}")
    assert held / n < _WARM_BYTES_PER_NODE


# Bytes a warm load of the graph below may hold per edge. Edge source and
# target columns beside the CSR, with 8-byte offsets, hold about 30.5; the CSR
# alone, with signed edge codes and 4-byte offsets, holds about 22.
_WARM_BYTES_PER_EDGE = 24


def test_warm_load_stores_each_edge_once(tmp_path):
    rng = Random(25)
    n, m = 2_000, 60_000
    nodes = [{"node": {"id": f"n{i}", "name": f"Entity {i}", "type": f"T{i % 5}"}} for i in range(n)]
    ends = dict.fromkeys((rng.randrange(n), rng.randrange(n), rng.randrange(8)) for _ in range(m))
    edges = [{"edge": {"source": f"n{s}", "target": f"n{t}", "label": f"R{r}"}} for s, t, r in ends]
    path = _write_edge_list(tmp_path / "graph.jsonl", nodes + edges)
    del nodes, edges
    load_edge_list_jsonl(path)  # parses and saves the snapshot
    gc.collect()
    tracemalloc.start()
    try:
        kg, _report = load_edge_list_jsonl(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kg.edge_count == len(ends) > 0.99 * m
    assert held / kg.edge_count < _WARM_BYTES_PER_EDGE


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
def test_graph_too_big_for_the_snapshot_offsets_loads_without_a_snapshot(
    tmp_path, graph_cache, monkeypatch, caplog, fmt
):
    path = _random_dump(tmp_path, fmt, seed=25)
    expected = _outcome(_FROZEN[fmt], path)

    def overflow(_graph: KnowledgeGraph):
        raise OverflowError("unsigned int is greater than maximum")

    monkeypatch.setattr(KnowledgeGraph, "dump", overflow)
    with caplog.at_level("WARNING", logger="kgprompt.ingest"):
        assert _outcome(_LOADERS[fmt], path) == expected
    assert [r.getMessage() for r in caplog.records] == [
        "graph snapshot not saved (unsigned int is greater than maximum); the next load parses the dump again"
    ]
    assert not list(graph_cache.rglob("*.graph"))


@pytest.mark.parametrize("fmt", sorted(_LOADERS))
def test_unwritable_cache_still_loads_with_one_warning(tmp_path, monkeypatch, caplog, fmt):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    path = _random_dump(tmp_path, fmt, seed=3)
    with caplog.at_level("WARNING", logger="kgprompt.ingest"):
        assert _outcome(_LOADERS[fmt], path) == _outcome(_FROZEN[fmt], path)
    assert [r.getMessage().startswith("graph snapshot not saved") for r in caplog.records] == [True]


@pytest.mark.parametrize("value", ["rel", "", None], ids=["relative", "empty", "unset"])
def test_snapshot_ignores_a_cache_home_that_is_not_absolute(tmp_path, monkeypatch, value):
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.setenv("HOME", str(home))
    if value is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", value)
    monkeypatch.chdir(cwd)
    load_edge_list_jsonl(_random_dump(tmp_path, "jsonl", seed=4))
    assert len(list((home / ".cache" / "kgprompt" / "graphs").iterdir())) == 1
    assert not any(cwd.iterdir())
