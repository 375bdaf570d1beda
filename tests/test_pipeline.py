from __future__ import annotations

import json
import shutil
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgprompt.ingest as ingest
from kgprompt.errors import ConfigError, StageError
from kgprompt.linking import PairLinkage
from kgprompt.pipeline import (
    ExperimentConfig,
    _bundle_record,
    _LocalSource,
    _verbalize_bundles,
    run_experiment,
    validate_config,
)

from conftest import DATA_DIR
from fixtures_kg import make_graph
from oracles import frozen_bundle_record, frozen_from_segments, random_graph


def base_config_dict(out_dir: Path, **overrides) -> dict:
    config = {
        "dataset": str(DATA_DIR / "fixture_dataset.jsonl"),
        "kg": {"kind": "jsonl", "path": str(DATA_DIR / "fixture_kg.jsonl")},
        "structure": "NN",
        "limits": {"max_neighbors": 4, "max_common_neighbors": 5, "max_metapaths": 1, "max_hops": 4},
        "architecture": "MLM",
        "label_mapping": {"mode": "identity"},
        "few_shot": {"k": 4, "seed": 203, "stratified": True},
        "folds": {"n_folds": 5, "seed": 203},
        "truncation": {"max_units": 256, "unit": "whitespace_token"},
        "backend": {"kind": "mock", "seed": 203},
        "out_dir": str(out_dir),
    }
    config.update(overrides)
    return config


def write_config(tmp_path: Path, **overrides) -> Path:
    config = base_config_dict(tmp_path / "run", **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


EXPECTED_TOP_LEVEL = {
    "ingest_report.json",
    "linkage.jsonl",
    "bundles.jsonl",
    "contexts.jsonl",
    "prompts.jsonl",
    "fold_plan.json",
    "report.json",
    "report.txt",
    "manifest.json",
}


def test_run_produces_complete_artifact_set(tmp_path):
    config = ExperimentConfig.from_dict(base_config_dict(tmp_path / "run"))
    out = run_experiment(config)
    names = {p.name for p in out.iterdir() if p.is_file()}
    assert names == EXPECTED_TOP_LEVEL
    for fold in range(5):
        fold_dir = out / "folds" / f"fold_{fold}"
        assert (fold_dir / "few_shot.jsonl").exists()
        assert (fold_dir / "test_prompts.jsonl").exists()
        assert (fold_dir / "predictions.jsonl").exists()
        assert (fold_dir / "metrics.json").exists()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["seeds"]["fold_seed"] == 203
    assert manifest["seeds"]["mock_seed"] == 203
    assert "manifest.json" not in manifest["artifacts"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["per_fold"]) == 5
    assert 0.0 <= report["mean"]["f1"] <= 1.0


def test_rerun_is_byte_identical(tmp_path):
    config_a = ExperimentConfig.from_dict(base_config_dict(tmp_path / "run"))
    out_a = run_experiment(config_a)
    first = tree_bytes(out_a)
    out_b = run_experiment(ExperimentConfig.from_dict(base_config_dict(tmp_path / "run")))
    assert tree_bytes(out_b) == first


def test_manifest_hashes_match_artifacts(tmp_path):
    import hashlib

    out = run_experiment(ExperimentConfig.from_dict(base_config_dict(tmp_path / "run")))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for rel, digest in manifest["artifacts"].items():
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest


def test_no_test_leakage_into_few_shot(tmp_path):
    out = run_experiment(ExperimentConfig.from_dict(base_config_dict(tmp_path / "run")))
    for fold in range(5):
        fold_dir = out / "folds" / f"fold_{fold}"
        sample_ids = {p["instance_id"] for p in read_jsonl(fold_dir / "few_shot.jsonl")}
        test_ids = {p["instance_id"] for p in read_jsonl(fold_dir / "test_prompts.jsonl")}
        assert not (sample_ids & test_ids)
        assert len(test_ids) == 2


def test_unresolved_pairs_degrade_to_empty_context(tmp_path):
    dataset = tmp_path / "data.jsonl"
    record = {
        "instance_id": "u1",
        "text": "Mystery substance affects unknown target badly.",
        "e1": {"start": 0, "end": 17},
        "e2": {"start": 26, "end": 40},
        "label": "causal",
    }
    dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
    config = ExperimentConfig.from_dict(
        base_config_dict(tmp_path / "run", dataset=str(dataset), backend=None)
    )
    out = run_experiment(config, until="build-prompts")
    (context,) = [json.loads(l) for l in (out / "contexts.jsonl").read_text().splitlines()]
    assert context["empty"] is True
    (prompt,) = read_jsonl(out / "prompts.jsonl")
    assert prompt["prompt"] == (
        "Mystery substance affects unknown target badly. "
        "The pair Mystery substance and unknown target shows a [MASK] relation."
    )


def test_structure_variants_produce_contexts(tmp_path):
    for structure, marker in (
        ("CNN", "Common neighbor nodes of ERBB2 and breast cancer are:"),
        ("MP", "via the following paths:"),
    ):
        config = ExperimentConfig.from_dict(
            base_config_dict(tmp_path / f"run-{structure}", structure=structure, backend=None)
        )
        out = run_experiment(config, until="verbalize")
        contexts = [json.loads(l) for l in (out / "contexts.jsonl").read_text().splitlines()]
        assert any(marker in c["text"] for c in contexts), structure


def test_nn_label_variant(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config_dict(tmp_path / "run", nn_include_labels=True, backend=None)
    )
    out = run_experiment(config, until="verbalize")
    contexts = [json.loads(l) for l in (out / "contexts.jsonl").read_text().splitlines()]
    assert any(" relation with " in c["text"] for c in contexts)


def test_mp_with_one_hop_budget_is_config_error(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config_dict(
            tmp_path / "run",
            structure="MP",
            limits={"max_hops": 1},
        )
    )
    with pytest.raises(ConfigError, match="max_hops"):
        validate_config(config)
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_k16_on_ten_instances_is_stage_error(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config_dict(tmp_path / "run", few_shot={"k": 16, "seed": 203})
    )
    with pytest.raises(StageError) as err:
        run_experiment(config)
    assert err.value.stage == "split"


def test_missing_dataset_is_config_error(tmp_path):
    config = ExperimentConfig.from_dict(base_config_dict(tmp_path / "run", dataset="nope.jsonl"))
    with pytest.raises(ConfigError):
        run_experiment(config)


def test_remote_source_requires_nn_and_cache(tmp_path):
    config = ExperimentConfig.from_dict(
        base_config_dict(
            tmp_path / "run",
            kg={"kind": "remote", "cache_dir": str(tmp_path / "cache")},
            structure="CNN",
        )
    )
    with pytest.raises(ConfigError, match="NN"):
        validate_config(config, check_paths=False)
    config2 = ExperimentConfig.from_dict(
        base_config_dict(tmp_path / "run", kg={"kind": "remote"})
    )
    with pytest.raises(ConfigError, match="cache_dir"):
        validate_config(config2, check_paths=False)


def test_remote_nn_pipeline_with_stub(tmp_path, wiki_server):
    wiki_server.search["FGF6"] = [("Q14865053", "FGF6", "human gene")]
    wiki_server.search["prostate cancer"] = [("Q181257", "prostate cancer", "disease")]
    wiki_server.labels["Q14865053"] = "FGF6"
    wiki_server.labels["Q181257"] = "prostate cancer"
    wiki_server.neighbors[("Q14865053", "out")] = [
        ("P2888", "exact match", "Q20970726", "fibroblast growth factor 6"),
    ]
    wiki_server.neighbors[("Q181257", "out")] = [
        ("P2176", "drug or therapy used for treatment", "Q412415", "nilutamide"),
    ]
    wiki_server.neighbors[("Q181257", "in")] = [
        ("P2293", "genetic association", "Q14865813", "FSHR"),
    ]

    dataset = tmp_path / "data.jsonl"
    record = {
        "instance_id": "r1",
        "text": "FGF6 contributes to the growth of prostate cancer in assays.",
        "e1": {"start": 0, "end": 4},
        "e2": {"start": 34, "end": 49},
        "label": "causal",
    }
    dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
    config = ExperimentConfig.from_dict(
        base_config_dict(
            tmp_path / "run",
            dataset=str(dataset),
            kg={
                "kind": "remote",
                "cache_dir": str(tmp_path / "cache"),
                "sparql_url": wiki_server.sparql_url,
                "entity_api_url": wiki_server.api_url,
            },
            limits={"max_neighbors": 4, "max_hops": 1},
            backend=None,
        )
    )
    out = run_experiment(config, until="verbalize")
    (context,) = [json.loads(l) for l in (out / "contexts.jsonl").read_text().splitlines()]
    assert "FGF6 is connected to fibroblast growth factor 6" in context["text"]
    assert "prostate cancer is connected to" in context["text"]

    # warmed cache: the same run replays offline with the server gone
    wiki_server.stop()
    out2 = run_experiment(config, offline=True, until="verbalize")
    (context2,) = [json.loads(l) for l in (out2 / "contexts.jsonl").read_text().splitlines()]
    assert context2 == context


def test_eval_fails_when_predictions_do_not_cover_the_fold(tmp_path, monkeypatch):
    from kgprompt import pipeline

    real_write = pipeline.write_predictions_jsonl

    def drop_first(records, path):
        return real_write(records[1:], path)

    monkeypatch.setattr(pipeline, "write_predictions_jsonl", drop_first)
    config = ExperimentConfig.from_dict(base_config_dict(tmp_path / "run"))
    with pytest.raises(StageError) as caught:
        run_experiment(config)
    assert caught.value.stage == "eval"
    assert "fold 0: no prediction for [" in str(caught.value)
    assert not (tmp_path / "run" / "report.json").exists()


def test_stage_slicing_writes_prefix_artifacts(tmp_path):
    config = ExperimentConfig.from_dict(base_config_dict(tmp_path / "run"))
    out = run_experiment(config, until="link")
    names = {p.name for p in out.iterdir() if p.is_file()}
    assert names == {"ingest_report.json", "linkage.jsonl", "manifest.json"}


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_section_keys = st.sampled_from(
    ["kind", "path", "seed", "mode", "causal", "non_causal", "n_folds", "stratified", "k",
     "max_hops", "max_neighbors", "max_units", "unit", "base_url", "timeout", "max_in_flight",
     "cache_dir", "sparql_url", "entity_api_url", "max_retries", "backoff"]
)
_config_values = _json_values | st.dictionaries(_section_keys, _json_values, max_size=4)


@settings(max_examples=100, deadline=None)
@given(
    base=st.fixed_dictionaries(
        {},
        optional={
            "dataset": st.just("data.jsonl") | _json_values,
            "kg": st.just({"kind": "jsonl", "path": "kg.jsonl"}) | _config_values,
            "out_dir": st.just("out") | _json_values,
        },
    ),
    extra=st.dictionaries(
        st.sampled_from(
            ["structure", "limits", "templates", "architecture", "label_mapping", "few_shot",
             "folds", "selection_seed", "truncation", "mask_token", "nn_include_labels",
             "backend", "overrides"]
        ),
        _config_values,
        max_size=4,
    ),
)
def test_from_dict_lets_only_config_errors_escape(base, extra):
    try:
        ExperimentConfig.from_dict({**base, **extra})
    except ConfigError:
        pass



# --- graph snapshots across runs ---


def _fixture_kg_as_hetionet(path: Path) -> Path:
    """The fixture graph as a Hetionet dump, plus a duplicate, a "both" and a
    "backward" edge record."""
    nodes, edges, kind_of = [], [], {}
    for line in (DATA_DIR / "fixture_kg.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "node" in record:
            node = record["node"]
            kind_of[node["id"]] = node["type"]
            nodes.append({"kind": node["type"], "identifier": node["id"], "name": node["name"]})
        else:
            edge = record["edge"]
            edges.append({
                "source_id": [kind_of[edge["source"]], edge["source"]],
                "target_id": [kind_of[edge["target"]], edge["target"]],
                "kind": edge["label"],
                "direction": "forward",
            })
    edges.append(dict(edges[0]))
    edges.append(dict(edges[1], kind="co-occurs with", direction="both"))
    edges.append(dict(edges[2], kind="reported with", direction="backward"))
    path.write_text(json.dumps({"nodes": nodes, "edges": edges}), encoding="utf-8")
    return path


def _parse_fails(path):
    raise AssertionError(f"{path} was parsed, not restored from its snapshot")


@pytest.mark.parametrize("structure", ["NN", "CNN", "MP"])
@pytest.mark.parametrize("kg_kind", ["jsonl", "hetionet_json"])
def test_warm_run_restores_the_graph_and_writes_the_cold_runs_bytes(
    tmp_path, monkeypatch, kg_kind, structure
):
    path = DATA_DIR / "fixture_kg.jsonl"
    if kg_kind == "hetionet_json":
        path = _fixture_kg_as_hetionet(tmp_path / "het.json")
    config = ExperimentConfig.from_dict(
        base_config_dict(tmp_path / "run", structure=structure, kg={"kind": kg_kind, "path": str(path)})
    )
    cold = tree_bytes(run_experiment(config))
    assert "manifest.json" in cold
    shutil.rmtree(tmp_path / "run")
    monkeypatch.setattr(ingest, "_parse_hetionet_json", _parse_fails)
    monkeypatch.setattr(ingest, "_parse_edge_list_jsonl", _parse_fails)
    assert tree_bytes(run_experiment(config)) == cold


def test_unwritable_graph_cache_gives_the_same_artifacts(tmp_path, monkeypatch):
    config = ExperimentConfig.from_dict(base_config_dict(tmp_path / "run"))
    expected = tree_bytes(run_experiment(config))
    shutil.rmtree(tmp_path / "run")
    blocker = tmp_path / "cache-is-a-file"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert tree_bytes(run_experiment(config)) == expected


def test_bundle_records_and_contexts_match_the_frozen_writers():
    # One rule writes every payload kind, and a context is read off its
    # segments; both must give what the per-kind writers gave, on random
    # graphs with parallel labels, self-loops and pairs linked to one node.
    rng = Random(2311)
    kinds = {"NN": 0, "CNN": 0, "MP": 0}
    for case in range(240):
        nodes, edges = random_graph(rng, max_nodes=20, max_edges=70)
        ids = [nid for nid, _name, _type in nodes]
        edges += [(nid, nid, "self") for nid in rng.sample(ids, min(2, len(ids)))]
        kg = make_graph(nodes, edges)
        structure = ("NN", "CNN", "MP")[case % 3]
        config = ExperimentConfig.from_dict({
            "dataset": "data.jsonl",
            "kg": {"kind": "jsonl", "path": "kg.jsonl"},
            "out_dir": "out",
            "structure": structure,
            "nn_include_labels": case % 2 == 0,
            "limits": {
                "max_neighbors": rng.choice([0, 1, 4, 100]),
                "max_common_neighbors": rng.choice([0, 1, 5, 100]),
                "max_metapaths": rng.choice([0, 1, 3, 10**9]),
                "max_hops": rng.choice([2, 3, 4]),
                "max_paths_enumerated": rng.choice([5, 10_000]),
            },
        })
        e1 = rng.choice(ids + [None])
        e2 = e1 if case % 7 == 0 else rng.choice(ids + [None])
        linkage = PairLinkage(f"i{case}", e1, e2)
        source = _LocalSource(kg)
        bundles = source.extract(linkage, config)
        for side, bundle in bundles:
            assert _bundle_record(linkage.instance_id, side, bundle) == frozen_bundle_record(
                linkage.instance_id, side, bundle
            )
            kinds[structure] += bool(bundle.payload)
        context = _verbalize_bundles(source, linkage, bundles, config)
        want = frozen_from_segments(context.kind, context.segments)
        assert (context.text, context.source_nodes, context.empty) == tuple(want.values())
    assert min(kinds.values()) >= 20  # every kind wrote non-empty payloads
