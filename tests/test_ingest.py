from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from kgprompt.errors import ParseError, SchemaError
from kgprompt.ingest import export_edge_list_jsonl, load_edge_list_jsonl, load_hetionet_json

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


def test_jsonl_body_must_be_an_object(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"node": {"id": "a", "name": "A"}}\n{"edge": 5}\n', encoding="utf-8")
    with pytest.raises(SchemaError, match="edge record must be a JSON object") as err:
        load_edge_list_jsonl(path)
    assert err.value.line == 2
