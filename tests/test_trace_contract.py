"""The names the benchmark's tracer wraps still exist, and the pipeline calls them.

``bench/trace.py`` replaces functions of :mod:`kgprompt.pipeline`,
:mod:`kgprompt.backend`, :mod:`kgprompt.cli` and :mod:`kgprompt.remote` by
name, and a name it cannot find only drops that layer's metrics. So a
rename in ``src/`` fails here instead of zeroing a per-layer metric, and so
does a pipeline that stops calling a name through its module global.
"""

from __future__ import annotations

import functools
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import kgprompt.backend as backend
import kgprompt.cli as cli
import kgprompt.pipeline as pipeline
import kgprompt.remote as remote
from kgprompt.pipeline import ExperimentConfig, run_experiment

TRACE_PY = Path(__file__).resolve().parent.parent / "bench" / "trace.py"
DATA_DIR = Path(__file__).parent / "data"

# Names the tracer still lists and reports as not traced: _link_remote went
# when the remote source started linking through link_pairs, and
# graph_from_remote_neighbors when remote NN started picking neighbors
# straight from each entity's fetched links.
KNOWN_ABSENT = {"_link_remote", "graph_from_remote_neighbors"}


def _trace_module():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_pipeline_name_exists():
    names = set(_trace_module().PIPELINE_NAMES)
    assert KNOWN_ABSENT <= names
    missing = sorted(name for name in names - KNOWN_ABSENT if not hasattr(pipeline, name))
    assert missing == []


def test_every_traced_method_and_function_exists():
    assert callable(pipeline._LocalSource.extract)
    assert callable(pipeline._RemoteSource.extract)
    assert callable(backend.predict_http)
    assert callable(cli.run_experiment)
    assert callable(remote.QueryCache.load)


def test_neither_source_class_inherits_from_the_other():
    # The tracer wraps each class's extract once; a subclass would inherit the
    # wrapped method and wrap it again, nesting two pair spans per extraction.
    assert not issubclass(pipeline._LocalSource, pipeline._RemoteSource)
    assert not issubclass(pipeline._RemoteSource, pipeline._LocalSource)


# Per fixture run: its config overrides, the extract function and the one
# renderer it must call.
RUNS = {
    "NN": ({"structure": "NN"}, "extract_neighbors", "verbalize_neighbors"),
    "NN-labeled": (
        {"structure": "NN", "nn_include_labels": True}, "extract_neighbors", "verbalize_neighbors_labeled"
    ),
    "CNN": ({"structure": "CNN"}, "extract_common_neighbors", "verbalize_common_neighbors"),
    "MP": ({"structure": "MP"}, "enumerate_metapaths", "verbalize_metapath"),
}
RENDERERS = {render for _overrides, _extract, render in RUNS.values()}


def _counting(name, fn, calls: Counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("run", sorted(RUNS))
def test_the_pipeline_calls_the_traced_names_while_it_runs(tmp_path, monkeypatch, run):
    # The tracer rebinds module globals, so the pipeline must look each name up
    # when it calls it; a table of functions captured at import would bypass it.
    overrides, extract, render = RUNS[run]
    calls: Counter = Counter()
    for name in _trace_module().PIPELINE_NAMES:
        fn = getattr(pipeline, name, None)
        if fn is not None:
            monkeypatch.setattr(pipeline, name, _counting(name, fn, calls))
    config = {
        "dataset": str(DATA_DIR / "fixture_dataset.jsonl"),
        "kg": {"kind": "jsonl", "path": str(DATA_DIR / "fixture_kg.jsonl")},
        "architecture": "MLM",
        "label_mapping": {"mode": "identity"},
        "backend": None,
        "out_dir": str(tmp_path / "run"),
        **overrides,
    }
    run_experiment(ExperimentConfig.from_dict(config), until="verbalize")
    assert calls["load_edge_list_jsonl"] == 1 and calls["link_pairs"] == 1
    assert calls[extract] > 0
    assert {name for name in RENDERERS if calls[name]} == {render}


def test_a_remote_run_calls_the_traced_fetches(tmp_path, monkeypatch, wiki_server):
    # The remote layer's time is what these three calls take, as the tracer
    # sees them through the pipeline's globals.
    wiki_server.search["FGF6"] = [("Q14865053", "FGF6", "human gene")]
    wiki_server.search["prostate cancer"] = [("Q181257", "prostate cancer", "disease")]
    wiki_server.labels["Q181257"] = "prostate cancer"
    wiki_server.neighbors[("Q181257", "out")] = [
        ("P2176", "drug or therapy used for treatment", "Q412415", "nilutamide"),
    ]
    calls: Counter = Counter()
    for name in ("resolve_entity", "fetch_entity_label", "fetch_neighbors_remote", "link_pairs"):
        monkeypatch.setattr(pipeline, name, _counting(name, getattr(pipeline, name), calls))
    config = {
        "dataset": str(DATA_DIR / "fixture_dataset.jsonl"),
        "kg": {
            "kind": "remote",
            "cache_dir": str(tmp_path / "cache"),
            "sparql_url": wiki_server.sparql_url,
            "entity_api_url": wiki_server.api_url,
        },
        "architecture": "MLM",
        "label_mapping": {"mode": "identity"},
        "backend": None,
        "out_dir": str(tmp_path / "run"),
    }
    run_experiment(ExperimentConfig.from_dict(config), until="verbalize")
    assert calls["link_pairs"] == 1
    assert calls["resolve_entity"] > 0
    assert calls["fetch_entity_label"] == calls["fetch_neighbors_remote"] == 2  # once per linked entity
