"""Pinned canonical configurations: parsing must not move a config's hash.

Each case runs from a working directory holding copies of the fixture data
under relative names, so the canonical config (and with it ``config_hash``
and the manifest) does not depend on where the test runs. The pinned values
were taken before the config sections became typed objects; a deliberate
change to the canonical form must update them and say why.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import shutil
from pathlib import Path
from random import Random

import pytest

from kgprompt.backend import HttpEndpoint
from kgprompt.cli import main
from kgprompt.errors import ConfigError, KgPromptError
from kgprompt.pipeline import ExperimentConfig, FoldConfig, KgSource, MockBackend, run_experiment
from kgprompt.remote import RemoteEndpoint
from kgprompt.verbalize import TemplateSet

from conftest import DATA_DIR
from oracles import frozen_config_from_dict, frozen_to_canonical_dict

UNREACHABLE = "http://127.0.0.1:9"

FIXTURE_NN_MOCK = {
    "dataset": "data.jsonl",
    "kg": {"kind": "jsonl", "path": "kg.jsonl"},
    "structure": "NN",
    "limits": {"max_neighbors": 4, "max_common_neighbors": 5, "max_metapaths": 1, "max_hops": 4},
    "architecture": "MLM",
    "label_mapping": {"mode": "identity"},
    "few_shot": {"k": 4, "seed": 203, "stratified": True},
    "folds": {"n_folds": 5, "seed": 203},
    "truncation": {"max_units": 256, "unit": "whitespace_token"},
    "backend": {"kind": "mock", "seed": 203},
    "out_dir": "out",
}
MINIMAL = {"dataset": "data.jsonl", "kg": {"kind": "jsonl", "path": "kg.jsonl"}, "out_dir": "out"}
# The backend section as bench/gen.py writes it; the benchmark adds base_url.
HTTP_BENCH = {
    "kind": "http",
    "max_in_flight": 2,
    "backoff": 0.005,
    "max_retries": 3,
    "timeout": 10.0,
    "base_url": UNREACHABLE,
}
REMOTE = {"kind": "remote", "cache_dir": "cache"}

# name -> (config, last stage); no case reaches the network.
CASES = {
    "fixture-nn-mock": (FIXTURE_NN_MOCK, "eval"),
    "minimal": (MINIMAL, "build-prompts"),
    "http-bench": ({**FIXTURE_NN_MOCK, "backend": HTTP_BENCH}, "build-prompts"),
    "http-int-timeout": (
        {**FIXTURE_NN_MOCK, "backend": {"kind": "http", "base_url": UNREACHABLE, "timeout": 10, "backoff": 1}},
        "build-prompts",
    ),
    "remote-urls": (
        {
            **FIXTURE_NN_MOCK,
            "kg": {**REMOTE, "sparql_url": f"{UNREACHABLE}/sparql", "entity_api_url": f"{UNREACHABLE}/api"},
        },
        "ingest",
    ),
    "remote-bare": ({**FIXTURE_NN_MOCK, "kg": REMOTE}, "ingest"),
}

GOLDEN_HASHES = {
    "fixture-nn-mock": "e4a3452cf34f0626c857ea4562683112e7e42828e9d136fe266f95f34cd21813",
    "minimal": "a75d0f3b62eb03779b85c1593aeafde32ca30901d3c147846b57360abb8f1c96",
    "http-bench": "2026d7cfe39f3c6affdf9385ed77d7868309e6c21116a53d83498114ca3c0d87",
    "http-int-timeout": "e845a1d25584b960509e7813598c53be10eb5a933764c593741badf5659e96db",
    "remote-urls": "a9389e4b112ff74b318289cbb69055199e7161f135f5a7be40e6f0ee52236557",
    "remote-bare": "29856b8881e83be6be4de70cd766cc5ba92fdd34391638c9edb8449d49c7b1cb",
    "cli-seed-out-cache": "a08b0d394a2b6fda5f3d7ef7aebe1003e5b120aefe1b706cac9b3d02843b9d9c",
}
SEEDS_203 = {"fold_seed": 203, "few_shot_seed": 203, "selection_seed": 203}


@pytest.fixture
def workdir(tmp_path, monkeypatch) -> Path:
    shutil.copy(DATA_DIR / "fixture_dataset.jsonl", tmp_path / "data.jsonl")
    shutil.copy(DATA_DIR / "fixture_kg.jsonl", tmp_path / "kg.jsonl")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_manifest(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    canonical = json.dumps(manifest["config"], sort_keys=True, ensure_ascii=False)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == manifest["config_hash"]
    return manifest


@pytest.mark.parametrize("name", sorted(CASES))
def test_canonical_config_is_pinned(workdir, name):
    data, until = CASES[name]
    config = ExperimentConfig.from_dict(json.loads(json.dumps(data)))
    assert config.config_hash() == GOLDEN_HASHES[name]
    manifest = read_manifest(run_experiment(config, until=until))
    assert manifest["config_hash"] == GOLDEN_HASHES[name]
    with_mock = data.get("backend", {}).get("kind") == "mock"
    assert manifest["seeds"] == {**SEEDS_203, **({"mock_seed": 203} if with_mock else {})}


def test_canonical_dict_covers_every_field():
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    full = {
        **FIXTURE_NN_MOCK,
        "templates": {"nn_connective": "borders"},
        "selection_seed": 7,
        "mask_token": "<mask>",
        "nn_include_labels": True,
        "backend": HTTP_BENCH,
        "overrides": "overrides.json",
    }
    assert set(full) == names  # every top-level key is given
    for data in (MINIMAL, full):
        assert set(ExperimentConfig.from_dict(data).to_canonical_dict()) == names


def test_every_remote_setting_has_a_kg_key():
    # a RemoteEndpoint field that the kg section lacks is a setting no configuration reaches
    remote = {f.name for f in dataclasses.fields(RemoteEndpoint)}
    assert remote - {f.name for f in dataclasses.fields(KgSource)} == set()


def test_integer_http_settings_are_stored_as_floats(workdir):
    data, until = CASES["http-int-timeout"]
    manifest = read_manifest(run_experiment(ExperimentConfig.from_dict(data), until=until))
    backend = manifest["config"]["backend"]
    assert (backend["timeout"], backend["backoff"]) == (10.0, 1.0)
    assert isinstance(backend["timeout"], float) and isinstance(backend["backoff"], float)


def test_cli_seed_out_cache_flags_are_pinned(workdir, capsys):
    Path("config.json").write_text(json.dumps(FIXTURE_NN_MOCK), encoding="utf-8")
    argv = ["run", "--config", "config.json", "--seed", "7", "--out", "X", "--cache", "Y"]
    assert main(argv) == 0
    capsys.readouterr()
    manifest = read_manifest(Path("X"))
    assert manifest["config_hash"] == GOLDEN_HASHES["cli-seed-out-cache"]
    assert manifest["config"]["kg"]["cache_dir"] == "Y"
    assert manifest["seeds"] == {"fold_seed": 7, "few_shot_seed": 7, "selection_seed": 7, "mock_seed": 7}


@pytest.mark.parametrize(
    "section, value",
    [
        ("kg", {"kind": "jsonl", "path": "kg.jsonl", "pth": "typo"}),
        ("folds", {"n_folds": 5, "sede": 1}),
        ("backend", {"kind": "mock", "seed": 1, "timeout": 3}),
        ("backend", {"kind": "http", "base_url": UNREACHABLE, "seed": 1}),
        ("backend", {"seed": 1}),
        ("templates", {"nn_conective": "borders"}),
    ],
)
def test_unknown_section_keys_are_rejected(section, value):
    with pytest.raises(ConfigError, match=section):
        ExperimentConfig.from_dict({**MINIMAL, section: value})


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("kg", {"kind": "remote", "cache_dir": "c", "sparql_url": 5}, "sparql_url must be a string"),
        ("kg", {"kind": "remote", "cache_dir": "c", "entity_api_url": "ftp://x"}, "entity_api_url must be an http"),
        ("kg", {"kind": "graphml", "path": "kg.xml"}, "unknown kind 'graphml'"),
        ("folds", {"n_folds": 1}, "n_folds must be >= 2"),
        ("backend", {"kind": "http"}, "base_url"),
        ("backend", {"kind": "http", "base_url": "localhost:8080"}, "base_url must be an http"),
        ("backend", {"kind": "http", "base_url": UNREACHABLE, "backoff": -1}, "backoff must be >= 0"),
        ("backend", {"kind": "grpc"}, "unknown backend kind 'grpc'"),
        ("backend", {"kind": "http", "base_url": "http://[::1"}, "base_url must be an http"),
        ("backend", {"kind": "http", "base_url": "http://"}, "base_url must be an http"),
        ("backend", {"kind": "http", "base_url": "http://h:99999"}, "base_url must be an http"),
        ("kg", {"kind": "remote", "cache_dir": "c", "entity_api_url": "https://[::1"}, "entity_api_url must be an http"),
        ("kg", {"kind": "remote", "cache_dir": "c", "entity_api_url": "https:///w/api.php"}, "entity_api_url must be an http"),
        ("kg", {"kind": "remote", "cache_dir": "c", "sparql_url": "http://h:port/sparql"}, "sparql_url must be an http"),
    ],
)
def test_section_values_are_checked_when_parsed(section, value, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_dict({**MINIMAL, section: value})


def test_empty_mask_token_is_config_error():
    with pytest.raises(ConfigError, match="mask_token must be non-empty"):
        ExperimentConfig.from_dict({**MINIMAL, "mask_token": ""})


def test_sections_parse_into_stage_objects():
    config = ExperimentConfig.from_dict(
        {
            **MINIMAL,
            "kg": {**REMOTE, "sparql_url": f"{UNREACHABLE}/sparql"},
            "templates": {"nn_connective": "borders"},
            "folds": {"n_folds": 3, "stratified": True},
            "backend": HTTP_BENCH,
        }
    )
    assert config.templates == TemplateSet(nn_connective="borders")
    assert config.kg.endpoint().sparql_url == f"{UNREACHABLE}/sparql"
    assert config.folds == FoldConfig(n_folds=3, seed=203, stratified=True)
    assert config.backend == HttpEndpoint(base_url=UNREACHABLE, timeout=10, max_retries=3, backoff=0.005, max_in_flight=2)
    assert ExperimentConfig.from_dict({**MINIMAL, "backend": {"kind": "mock"}}).backend == MockBackend(seed=203)
    assert ExperimentConfig.from_dict({**MINIMAL, "backend": {}}).backend is None


def _random_config(rng: Random) -> dict:
    """A configuration with each section present (some of its keys), absent
    or null, both backends, both label-mapping modes and the scalar keys
    present or absent."""
    kgs = [
        {"kind": "jsonl", "path": "kg.jsonl"},
        {"kind": "hetionet_json", "path": "het.json"},
        {"kind": "remote", "cache_dir": "cache"},
        {"kind": "remote", "cache_dir": "cache", "sparql_url": f"{UNREACHABLE}/sparql"},
    ]
    sections = {
        "limits": {"max_neighbors": 2, "max_common_neighbors": 0, "max_metapaths": 3,
                   "max_hops": 5, "max_paths_enumerated": 40},
        "templates": {"nn_connective": "borders", "list_separator": " / ", "final_conjunction": "&"},
        "few_shot": {"k": 4, "seed": 9, "stratified": False},
        "folds": {"n_folds": 3, "seed": 11, "stratified": True},
        "truncation": {"max_units": 64, "unit": "character"},
    }
    data = {"dataset": "data.jsonl", "kg": rng.choice(kgs), "out_dir": "out"}
    for name, keys in sections.items():
        draw = rng.random()
        if draw < 0.6:
            data[name] = {k: v for k, v in keys.items() if rng.random() < 0.5}
        elif draw < 0.8:
            data[name] = None
    data["label_mapping"] = rng.choice([
        {"mode": "identity"}, {"mode": "custom", "causal": "yes", "non_causal": "no"}, None, "absent",
    ])
    data["backend"] = rng.choice([
        {"kind": "mock"}, {"kind": "mock", "seed": 5}, HTTP_BENCH,
        {"kind": "http", "base_url": UNREACHABLE, "timeout": 3}, {}, None, "absent",
    ])
    scalars = {
        "structure": ["NN", "CNN", "MP"],
        "architecture": ["MLM", "clm", "Seq2Seq"],
        "selection_seed": [0, 7],
        "mask_token": ["<mask>", "[MASK]"],
        "nn_include_labels": [True, False],
        "overrides": ["overrides.json", None],
    }
    for name, values in scalars.items():
        if rng.random() < 0.5:
            data[name] = rng.choice(values)
    return {k: v for k, v in data.items() if v != "absent"}


def _parsed(parse, data: dict) -> object:
    try:
        return parse(data)
    except (KgPromptError, KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def test_config_parse_and_canonical_form_match_the_frozen_copies():
    rng = Random(1111)
    outcomes = set()
    for case in range(600):
        data = _random_config(rng)
        if case % 25 == 0:  # a broken key the two parsers must reject alike
            data.update(rng.choice([{"kg": None}, {"mask_token": ""}, {"structure": "XX"}, {"folds": []}]))
        if case % 100 == 0:
            del data["dataset"]
        got = _parsed(ExperimentConfig._from_dict, data)
        want = _parsed(functools.partial(frozen_config_from_dict, ExperimentConfig), data)
        assert got == want
        if isinstance(got, ExperimentConfig):
            canonical = got.to_canonical_dict()
            assert list(canonical.items()) == list(frozen_to_canonical_dict(got).items())
            outcomes.add((canonical["backend"] or {}).get("kind"))
            outcomes.add(canonical["label_mapping"]["mode"])
        else:
            outcomes.add(got[0])
    assert {None, "mock", "http", "identity", "custom", ConfigError} <= outcomes
