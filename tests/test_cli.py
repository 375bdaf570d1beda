from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import kgprompt
from kgprompt.cli import main
from kgprompt.pipeline import STAGES

from conftest import DATA_DIR
from stubs import score_response


def write_config(tmp_path: Path, **overrides) -> Path:
    config = {
        "dataset": str(DATA_DIR / "fixture_dataset.jsonl"),
        "kg": {"kind": "jsonl", "path": str(DATA_DIR / "fixture_kg.jsonl")},
        "structure": "NN",
        "architecture": "MLM",
        "few_shot": {"k": 4, "seed": 203},
        "backend": {"kind": "mock", "seed": 203},
        "out_dir": str(tmp_path / "run"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def test_run_succeeds(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    out = Path(capsys.readouterr().out.strip())
    assert (out / "report.json").exists()
    assert (out / "manifest.json").exists()


def test_each_stage_command_runs(tmp_path):
    config = write_config(tmp_path)
    for command, artifact in (
        ("ingest", "ingest_report.json"),
        ("link", "linkage.jsonl"),
        ("extract", "bundles.jsonl"),
        ("verbalize", "contexts.jsonl"),
        ("build-prompts", "prompts.jsonl"),
        ("split", "fold_plan.json"),
        ("predict", "folds/fold_0/predictions.jsonl"),
        ("eval", "report.txt"),
    ):
        assert main([command, "--config", str(config)]) == 0, command
        assert (tmp_path / "run" / artifact).exists(), command


def test_validation_error_exit_code_2(tmp_path):
    config = write_config(tmp_path, structure="MP", limits={"max_hops": 1})
    assert main(["run", "--config", str(config)]) == 2


def test_missing_dataset_exit_code_2(tmp_path):
    config = write_config(tmp_path, dataset=str(tmp_path / "missing.jsonl"))
    assert main(["run", "--config", str(config)]) == 2


def test_unreadable_config_exit_code_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2


def test_stage_failure_exit_code_3(tmp_path):
    # k=16 cannot be sampled from an 8-instance training fold
    config = write_config(tmp_path, few_shot={"k": 16, "seed": 203})
    assert main(["run", "--config", str(config)]) == 3


def test_seed_flag_overrides_all_seeds(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--seed", "7", "--out", str(tmp_path / "other")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "other" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seeds"] == {
        "fold_seed": 7,
        "few_shot_seed": 7,
        "selection_seed": 7,
        "mock_seed": 7,
    }


def test_out_flag_redirects_artifacts(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "elsewhere")]) == 0
    assert (tmp_path / "elsewhere" / "report.json").exists()


def test_console_entry_point(tmp_path):
    config = write_config(tmp_path)
    src = Path(kgprompt.__file__).parent.parent  # found without an install, too
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "kgprompt.cli", "run", "--config", str(config)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr


def test_cli_import_loads_no_thread_pool_http_or_tls_module():
    # each costs every process, and a mock-backend run uses none of them
    src = Path(kgprompt.__file__).parent.parent
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    probe = "import sys, kgprompt.cli; print(sorted(m for m in ARGS if m in sys.modules))"
    modules = ("concurrent.futures", "http.client", "ssl")
    result = subprocess.run(
        [sys.executable, "-c", probe.replace("ARGS", repr(modules))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_metapaths_longer_than_the_recursion_limit(tmp_path, capsys):
    # a 1,200-node chain from FGF6 to prostate cancer holds one 1,199-hop path
    n = 1200
    names = ["FGF6", *(f"link {i}" for i in range(1, n - 1)), "prostate cancer"]
    lines = [{"node": {"id": f"c{i}", "name": name, "type": "t"}} for i, name in enumerate(names)]
    lines += [{"edge": {"source": f"c{i}", "target": f"c{i + 1}", "label": "r"}} for i in range(n - 1)]
    kg = tmp_path / "chain.jsonl"
    kg.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    config = write_config(tmp_path, kg={"kind": "jsonl", "path": str(kg)}, structure="MP",
                          limits={"max_hops": 1500})
    assert main(["run", "--config", str(config)]) == 0
    out = Path(capsys.readouterr().out.strip())
    bundles = [json.loads(line) for line in (out / "bundles.jsonl").read_text().splitlines()]
    assert [b["candidate_count"] for b in bundles if b["instance_id"] == "d001"] == [1]


def test_non_object_config_sections_exit_code_2(tmp_path, capsys):
    for section, value in (("backend", "mock"), ("folds", "x")):
        config = write_config(tmp_path, **{section: value})
        assert main(["run", "--config", str(config)]) == 2, section
        assert f"{section} must be an object" in capsys.readouterr().err


def test_malformed_override_table_exit_code_3(tmp_path, capsys):
    overrides = tmp_path / "overrides.json"
    overrides.write_text('{"a": ', encoding="utf-8")
    config = write_config(tmp_path, overrides=str(overrides))
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "stage 'link'" in err and str(overrides) in err


# http(s) URLs that urlsplit or http.client cannot use: an unclosed IPv6
# bracket, no host, a port past 65535.
_URLS_HTTP_CLIENT_REJECTS = ("http://[::1", "http://", "http://h:99999")
# http(s) URLs holding a character no request line may hold; urlsplit drops
# tab, CR and LF, which would send the request to another path.
_URLS_WITH_BAD_CHARACTERS = {
    "space": "http://127.0.0.1:9/a b",
    "tab": "http://127.0.0.1:9/a\tb",
    "cr": "http://127.0.0.1:9/a\rb",
    "lf": "http://127.0.0.1:9/a\nb",
    "nul": "http://127.0.0.1:9/a\0b",
    "del": "http://127.0.0.1:9/a\x7fb",
    "non-ascii": "http://127.0.0.1:9/\u00e9",
}
_NO_SERVER = "http://127.0.0.1:9"  # the discard port: nothing listens there


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"kg": {"kind": "jsonl", "path": 5}}, "kg: path must be a string, not int"),
        ({"overrides": 5}, "overrides must be a string, not int"),
        (
            {"backend": {"kind": "http", "base_url": "http://127.0.0.1:9", "timeout": 0}},
            "backend: timeout must be > 0",
        ),
        (
            {"kg": {"kind": "remote", "cache_dir": "cache", "sparql_url": "ftp://x", "entity_api_url": _NO_SERVER}},
            "kg: sparql_url must be an http(s) URL",
        ),
        ({"limits": {"max_neighbors": 2.5}}, "limits: max_neighbors must be an integer, not float"),
        ({"few_shot": {"k": 4.5}}, "few_shot: k must be an integer, not float"),
        ({"structure": "MP", "limits": {"max_hops": 2.5}}, "limits: max_hops must be an integer, not float"),
        ({"folds": {"n_folds": 2.7}}, "folds: n_folds must be an integer, not float"),
        ({"selection_seed": True}, "selection_seed must be an integer, not bool"),
        ({"nn_include_labels": "no"}, "nn_include_labels must be true or false, not str"),
        ({"out_dir": 5}, "out_dir must be a string, not int"),
        (
            {"label_mapping": {"mode": "custom", "causal": 1, "non_causal": 2}},
            "label_mapping: causal must be a string, not int",
        ),
        ({"templates": {"nn_connective": 5}}, "templates: nn_connective must be a string, not int"),
        (
            {"label_mapping": {"mode": "weird", "causal": "yes", "non_causal": "no"}},
            "label_mapping: unknown mode 'weird'; expected 'identity' or 'custom'",
        ),
        ({"label_mapping": {"mode": "custom"}}, "label_mapping: mode 'custom' needs 'causal'"),
        (
            {"label_mapping": {"mode": "identity", "non_causal": "no"}},
            "label_mapping: mode 'identity' takes no label words, but 'non_causal' is given",
        ),
        ({"strucutre": "MP"}, "unknown configuration key 'strucutre'"),
        (None, "configuration must be an object, not NoneType"),
        (["dataset"], "configuration must be an object, not list"),
        *(
            ({"backend": {"kind": "http", "base_url": url}}, "backend: base_url must be an http(s) URL")
            for url in _URLS_HTTP_CLIENT_REJECTS
        ),
        *(
            ({"backend": {"kind": "http", "base_url": _NO_SERVER + tail}},
             "backend: base_url must be an http(s) URL without a query or fragment")
            for tail in ("/api#frag", "/api?key=abc", "/api?")
        ),
        *(
            ({"kg": {"kind": "remote", "cache_dir": "cache", "sparql_url": url, "entity_api_url": _NO_SERVER}},
             "kg: sparql_url must be an http(s) URL")
            for url in _URLS_HTTP_CLIENT_REJECTS
        ),
        ({"kg": {"kind": "jsonl"}}, "local kg sources need kg.path"),
        *(
            ({key: f"{key}\ud800"}, f"{key} cannot be encoded as a file name")
            for key in ("dataset", "out_dir", "overrides")
        ),
        ({"kg": {"kind": "jsonl", "path": "kg\ud800.jsonl"}}, "kg.path cannot be encoded as a file name"),
        (
            {"kg": {"kind": "remote", "cache_dir": "ca\ud800che", "sparql_url": _NO_SERVER, "entity_api_url": _NO_SERVER}},
            "kg.cache_dir cannot be encoded as a file name",
        ),
        ({"out_dir": "r\0un"}, "out_dir contains a NUL byte"),
        (
            {"kg": {"kind": "remote", "cache_dir": "ca\0che", "sparql_url": _NO_SERVER, "entity_api_url": _NO_SERVER}},
            "kg.cache_dir contains a NUL byte",
        ),
        ({"dataset": "data\0set.jsonl"}, "dataset contains a NUL byte"),
        ({"backend": {"kind": "http", "base_url": _NO_SERVER, "timeout": 1e10}}, "backend: timeout must be at most"),
        (
            {"backend": {"kind": "http", "base_url": _NO_SERVER, "timeout": float("inf")}},
            "backend: timeout must be at most",
        ),
        (
            {"backend": {"kind": "http", "base_url": _NO_SERVER, "max_retries": 1, "backoff": 1e10}},
            "backend: backoff * 2**(max_retries - 1) must be at most",
        ),
        (
            {"backend": {"kind": "http", "base_url": _NO_SERVER, "max_retries": 1,
                         "backoff": threading.TIMEOUT_MAX - 1000}},
            "backend: backoff * 2**(max_retries - 1) must be at most",
        ),
    ],
    ids=["kg-path-int", "overrides-int", "http-timeout-0", "remote-ftp-url", "max-neighbors-float",
         "few-shot-k-float", "mp-max-hops-float", "n-folds-float", "selection-seed-bool",
         "nn-include-labels-str", "out-dir-int", "label-words-int", "template-word-int",
         "label-mode-unknown", "custom-mode-without-words", "identity-mode-with-words",
         "unknown-top-level-key", "config-null", "config-list",
         "http-url-bad-ipv6", "http-url-no-host", "http-url-port-out-of-range",
         "http-url-fragment", "http-url-query", "http-url-empty-query",
         "remote-url-bad-ipv6", "remote-url-no-host", "remote-url-port-out-of-range",
         "kg-path-missing", "dataset-unencodable", "out-dir-unencodable", "overrides-unencodable",
         "kg-path-unencodable", "cache-dir-unencodable",
         "out-dir-nul", "cache-dir-nul", "dataset-nul", "http-timeout-past-limit", "http-timeout-infinity",
         "http-backoff-past-limit", "http-backoff-near-limit"],
)
def test_bad_config_values_exit_code_2_before_any_artifact(tmp_path, capsys, overrides, message):
    if isinstance(overrides, dict):
        config = write_config(tmp_path, **overrides)
    else:  # the whole configuration is this value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert message in capsys.readouterr().err
    out_dir = tmp_path / "run"
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("url", list(_URLS_WITH_BAD_CHARACTERS.values()), ids=list(_URLS_WITH_BAD_CHARACTERS))
@pytest.mark.parametrize("key", ["backend.base_url", "kg.sparql_url", "kg.entity_api_url"])
def test_url_with_a_bad_character_exit_code_2_naming_the_key(tmp_path, capsys, key, url):
    section, name = key.split(".")
    if section == "backend":
        config = write_config(tmp_path, backend={"kind": "http", "base_url": url})
    else:
        kg = {"kind": "remote", "cache_dir": "cache", "sparql_url": _NO_SERVER, "entity_api_url": _NO_SERVER}
        config = write_config(tmp_path, kg={**kg, name: url})
    assert main(["run", "--config", str(config)]) == 2
    assert f"{section}: {name} must be an http(s) URL without spaces, controls or non-ASCII" in capsys.readouterr().err
    out_dir = tmp_path / "run"
    assert not out_dir.exists() or not any(out_dir.iterdir())


def _with_bad_line(source: Path, target: Path, index: int, bad_line: str) -> Path:
    lines = source.read_text(encoding="utf-8").splitlines()
    lines.insert(index, bad_line)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


_SPAN_NOT_INT = json.dumps(
    {"instance_id": "x1", "text": "a b", "e1": {"start": "x", "end": 1}, "e2": {"start": 2, "end": 3},
     "label": "causal"}
)


@pytest.mark.parametrize(
    "input_file, bad_line, message",
    [
        ("dataset", "5", "line 2: record must be a JSON object"),
        ("dataset", _SPAN_NOT_INT, "line 2: e1.start must be an integer, not str"),
        ("kg", '{"edge": 5}', "line 2: edge record must be a JSON object"),
        ("kg", '{"x": 1}', "line 2: record has neither 'node' nor 'edge' key"),
    ],
    ids=["dataset-line-not-object", "dataset-span-not-int", "graph-edge-not-object", "graph-record-no-kind"],
)
def test_bad_input_records_exit_code_3_naming_the_line(tmp_path, capsys, input_file, bad_line, message):
    fixture = DATA_DIR / ("fixture_dataset.jsonl" if input_file == "dataset" else "fixture_kg.jsonl")
    bad = _with_bad_line(fixture, tmp_path / fixture.name, 1, bad_line)
    if input_file == "dataset":
        config = write_config(tmp_path, dataset=str(bad))
    else:
        config = write_config(tmp_path, kg={"kind": "jsonl", "path": str(bad)})
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "stage 'ingest'" in err and message in err


def test_mask_token_in_dataset_text_exit_code_3_naming_the_instance(tmp_path, capsys):
    line = json.dumps(
        {"instance_id": "masked", "text": "x [MASK] y", "e1": {"start": 0, "end": 1},
         "e2": {"start": 9, "end": 10}, "label": "causal"}
    )
    dataset = _with_bad_line(DATA_DIR / "fixture_dataset.jsonl", tmp_path / "dataset.jsonl", 1, line)
    config = write_config(tmp_path, dataset=str(dataset))
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "stage 'build-prompts'" in err and "'masked'" in err and "exactly once" in err
    assert not (tmp_path / "run" / "prompts.jsonl").exists()


@pytest.mark.parametrize("field", ["dataset", "kg.path", "overrides"])
def test_directory_as_input_file_exit_code_2_before_any_artifact(tmp_path, capsys, field):
    folder = tmp_path / "folder"
    folder.mkdir()
    overrides = {
        "dataset": {"dataset": str(folder)},
        "kg.path": {"kg": {"kind": "jsonl", "path": str(folder)}},
        "overrides": {"overrides": str(folder)},
    }[field]
    config = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(config)]) == 2
    assert f"is not a file: {folder}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("inside", [False, True], ids=["out-dir-is-file", "parent-is-file"])
def test_file_as_out_dir_exit_code_2_before_any_artifact(tmp_path, capsys, inside):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n", encoding="utf-8")
    out_dir = blocker / "run" if inside else blocker
    config = write_config(tmp_path, out_dir=str(out_dir))
    assert main(["run", "--config", str(config)]) == 2
    assert f"cannot create out_dir {out_dir}" in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]


@pytest.mark.parametrize("input_file", ["dataset", "jsonl-graph", "hetionet-dump"])
def test_non_utf8_input_exit_code_3_naming_the_file(tmp_path, capsys, input_file):
    bad_byte_line = b'{"node": {"id": "x", "name": "caf\xe9"}}'
    if input_file == "hetionet-dump":
        bad = tmp_path / "dump.json"
        bad.write_bytes(b'{"nodes": [{"kind": "Gene", "identifier": 1, "name": "caf\xe9"}], "edges": []}')
        config = write_config(tmp_path, kg={"kind": "hetionet_json", "path": str(bad)})
        where = f"line 1: {bad}: not valid UTF-8 at byte {bad.read_bytes().index(0xE9)}"
    else:
        fixture = DATA_DIR / ("fixture_dataset.jsonl" if input_file == "dataset" else "fixture_kg.jsonl")
        bad = tmp_path / fixture.name
        lines = fixture.read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join([lines[0], bad_byte_line + b"\n", *lines[1:]]))
        field = {"dataset": str(bad)} if input_file == "dataset" else {"kg": {"kind": "jsonl", "path": str(bad)}}
        config = write_config(tmp_path, **field)
        where = f"line 2: {bad}: not valid UTF-8 at byte {bad.read_bytes().index(0xE9)}"
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "stage 'ingest'" in err and where in err and "Traceback" not in err


@pytest.mark.parametrize(
    "blocked, failure",
    [("folds", "stage 'split'"), ("linkage.jsonl", "stage 'link'"), ("manifest.json", "cannot write the manifest")],
    ids=["folds-is-a-file", "linkage-is-a-directory", "manifest-is-a-directory"],
)
def test_artifact_that_cannot_be_written_exit_code_3_naming_it(tmp_path, capsys, blocked, failure):
    config = write_config(tmp_path)
    blocker = tmp_path / "run" / blocked
    if blocked == "folds":
        blocker.parent.mkdir()
        blocker.write_text("", encoding="utf-8")
    else:
        blocker.mkdir(parents=True)
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert failure in err and str(blocker) in err and ".tmp" not in err and "Traceback" not in err


def remote_http_config(tmp_path: Path, wiki_server, predict_server) -> Path:
    """A remote-KG run with the HTTP backend, both served by the stubs."""
    wiki_server.search["FGF6"] = [("Q14865053", "FGF6", "human gene")]
    wiki_server.search["prostate cancer"] = [("Q181257", "prostate cancer", "disease")]
    wiki_server.labels["Q181257"] = "prostate cancer"
    wiki_server.neighbors[("Q181257", "out")] = [
        ("P2176", "drug or therapy used for treatment", "Q412415", "nilutamide"),
    ]
    return write_config(
        tmp_path,
        kg={
            "kind": "remote",
            "cache_dir": str(tmp_path / "cache"),
            "sparql_url": wiki_server.sparql_url,
            "entity_api_url": wiki_server.api_url,
        },
        limits={"max_neighbors": 4, "max_hops": 1},
        backend={"kind": "http", "base_url": predict_server.base_url, "max_retries": 1,
                 "backoff": 0.01, "max_in_flight": 2},
    )


def test_remote_http_run_succeeds_without_requests(
    tmp_path, capsys, monkeypatch, wiki_server, predict_server
):
    monkeypatch.setitem(sys.modules, "requests", None)  # any `import requests` fails
    predict_server.default = {
        "status": 200, "body": score_response({"causal": 0.7, "non-causal": 0.3})
    }
    config = remote_http_config(tmp_path, wiki_server, predict_server)
    assert main(["run", "--config", str(config)]) == 0
    assert (Path(capsys.readouterr().out.strip()) / "report.json").exists()
    assert len(predict_server.requests) == 10  # one per test prompt over the five folds
    assert wiki_server.request_count > 0


def test_remote_http_run_loads_no_http_client_email_or_tls_module(tmp_path, wiki_server, predict_server):
    # the transport speaks HTTP/1.1 over plain sockets; ssl is for https only
    predict_server.default = {"status": 200, "body": score_response({"causal": 0.7, "non-causal": 0.3})}
    config = remote_http_config(tmp_path, wiki_server, predict_server)
    src = Path(kgprompt.__file__).parent.parent
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys; from kgprompt.cli import main; code = main(['run', '--config', CONFIG]); "
        "print(code, sorted(m for m in sys.modules if m in ('http.client', 'ssl') or m.split('.')[0] == 'email'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe.replace("CONFIG", repr(str(config)))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 []"
    assert len(predict_server.requests) == 10 and wiki_server.request_count > 0


def test_mock_and_plain_http_runs_load_no_openssl(tmp_path, wiki_server, predict_server):
    # digests come from the interpreter's built-in hash modules; OpenSSL is for https only
    predict_server.default = {"status": 200, "body": score_response({"causal": 0.7, "non-causal": 0.3})}
    (tmp_path / "mock").mkdir()
    (tmp_path / "remote").mkdir()
    mock = write_config(tmp_path / "mock")
    remote = remote_http_config(tmp_path / "remote", wiki_server, predict_server)
    src = Path(kgprompt.__file__).parent.parent
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys; from kgprompt.cli import main; code = main(['run', '--config', CONFIG]); "
        "print(code, sorted(m for m in ('_hashlib', 'ssl', '_ssl') if m in sys.modules))"
    )
    for config in (mock, mock, remote):  # the second mock run restores the graph snapshot
        result = subprocess.run(
            [sys.executable, "-c", probe.replace("CONFIG", repr(str(config)))],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 []", config
    assert len(predict_server.requests) == 10 and wiki_server.request_count > 0


@pytest.mark.parametrize("fault", ["truncate", "bad_status", "drop"])
def test_broken_http_response_exit_code_3_without_traceback(
    tmp_path, capsys, wiki_server, predict_server, fault
):
    predict_server.default = {"fault": fault}
    config = remote_http_config(tmp_path, wiki_server, predict_server)
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "stage 'predict'" in err and "failed after 2 attempts" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("offline", [False, True], ids=["run", "offline"])
def test_file_as_cache_dir_exit_code_2_before_any_artifact(
    tmp_path, capsys, wiki_server, predict_server, offline
):
    config = remote_http_config(tmp_path, wiki_server, predict_server)
    blocker = tmp_path / "cache"
    blocker.write_text("keep\n", encoding="utf-8")
    assert main(["run", "--config", str(config), *(["--offline"] if offline else [])]) == 2
    err = capsys.readouterr().err
    assert f"kg.cache_dir is not a directory: {blocker}" in err and "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "keep\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("offline", [False, True], ids=["run", "offline"])
def test_file_as_cache_shard_exit_code_3_naming_the_entry(
    tmp_path, capsys, wiki_server, predict_server, offline
):
    config = remote_http_config(tmp_path, wiki_server, predict_server)
    segment = tmp_path / "cache" / "x.jsonl"
    segment.mkdir(parents=True)  # a directory where a segment file belongs
    assert main(["run", "--config", str(config), *(["--offline"] if offline else [])]) == 3
    err = capsys.readouterr().err
    assert "stage 'link'" in err and f"cannot read cache segment {segment}: " in err
    assert "Traceback" not in err


def test_remote_run_adds_one_cache_file_holding_every_miss(tmp_path, wiki_server, predict_server):
    predict_server.default = {"status": 200, "body": score_response({"causal": 0.7, "non-causal": 0.3})}
    config = remote_http_config(tmp_path, wiki_server, predict_server)
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    assert main(["run", "--config", str(config)]) == 0
    misses = wiki_server.request_count
    (segment,) = cache_dir.iterdir()
    *entries, seal = segment.read_bytes().splitlines()  # sealed when the run ended
    assert misses > 1 and len(entries) == misses and seal == b'{"sealed": true}'
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "rerun")]) == 0
    assert wiki_server.request_count == misses  # every lookup hits
    assert list(cache_dir.iterdir()) == [segment]  # a run that stores nothing makes no segment


# Deeper than the JSON decoder can follow.
_NESTED = "[" * 100_000


def test_nested_json_config_exit_code_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(_NESTED, encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: JSON nested too deeply" in err and "Traceback" not in err


def test_non_utf8_config_exit_code_2_naming_the_byte(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"dataset": "\xff"}')
    assert main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"line 1: {config}: not valid UTF-8 at byte 13" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("input_file", ["dataset", "jsonl-graph", "hetionet-dump", "overrides"])
def test_nested_json_input_exit_code_3_naming_the_file(tmp_path, capsys, input_file):
    if input_file in ("dataset", "jsonl-graph"):
        fixture = DATA_DIR / ("fixture_dataset.jsonl" if input_file == "dataset" else "fixture_kg.jsonl")
        bad = _with_bad_line(fixture, tmp_path / fixture.name, 1, _NESTED)
        where = f"line 2: {bad}: JSON nested too deeply"
    else:
        bad = tmp_path / "nested.json"
        bad.write_text(_NESTED, encoding="utf-8")
        where = f"{bad}: JSON nested too deeply"
    field = {
        "dataset": {"dataset": str(bad)},
        "jsonl-graph": {"kg": {"kind": "jsonl", "path": str(bad)}},
        "hetionet-dump": {"kg": {"kind": "hetionet_json", "path": str(bad)}},
        "overrides": {"overrides": str(bad)},
    }[input_file]
    config = write_config(tmp_path, **field)
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    stage = "link" if input_file == "overrides" else "ingest"
    assert f"stage '{stage}'" in err and where in err and "Traceback" not in err


def test_empty_instance_id_exit_code_3_naming_the_line(tmp_path, capsys):
    line = json.dumps(
        {"instance_id": "", "text": "a b", "e1": {"start": 0, "end": 1}, "e2": {"start": 2, "end": 3},
         "label": "causal"}
    )
    dataset = _with_bad_line(DATA_DIR / "fixture_dataset.jsonl", tmp_path / "dataset.jsonl", 1, line)
    config = write_config(tmp_path, dataset=str(dataset))
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "stage 'ingest'" in err and "line 2: instance_id must be non-empty" in err
    assert "Traceback" not in err


def _dataset_with_unlinked_name(tmp_path: Path) -> Path:
    """The fixture dataset plus one instance whose first name no graph node
    carries, exactly or normalized."""
    text = "Tendon sheath injury precedes FGF6 loss."
    line = json.dumps(
        {"instance_id": "x1", "text": text, "e1": {"start": 0, "end": 13},
         "e2": {"start": 30, "end": 34}, "label": "causal"}
    )
    return _with_bad_line(DATA_DIR / "fixture_dataset.jsonl", tmp_path / "dataset.jsonl", 0, line)


def test_override_table_links_a_name_as_manual_override(tmp_path):
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps({"Tendon sheath": "A:TEN"}), encoding="utf-8")
    config = write_config(tmp_path, dataset=str(_dataset_with_unlinked_name(tmp_path)), overrides=str(overrides))
    assert main(["link", "--config", str(config)]) == 0
    lines = (tmp_path / "run" / "linkage.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {
        "instance_id": "x1", "e1_node": "A:TEN", "e2_node": "G:FGF6",
        "e1_method": "manual_override", "e2_method": "exact",
    }
    assert all(json.loads(line)["e1_method"] != "manual_override" for line in lines[1:])


@pytest.mark.parametrize(
    "table", [["Tendon sheath", "A:TEN"], {"Tendon sheath": 5}], ids=["list", "non-string-id"]
)
def test_override_table_of_wrong_shape_exit_code_3_naming_it(tmp_path, capsys, table):
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps(table), encoding="utf-8")
    config = write_config(tmp_path, dataset=str(_dataset_with_unlinked_name(tmp_path)), overrides=str(overrides))
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "stage 'link'" in err and f"override table {overrides} must map" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entity_id", ["Q5\n", "Q\u0663"], ids=["trailing-newline", "arabic-indic-digit"])
def test_override_to_an_invalid_entity_id_exit_code_3_before_any_request_for_it(
    tmp_path, capsys, wiki_server, predict_server, entity_id
):
    config = remote_http_config(tmp_path, wiki_server, predict_server)
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps({"Smoking": entity_id}), encoding="utf-8")
    data = json.loads(config.read_text(encoding="utf-8"))
    config.write_text(json.dumps({**data, "overrides": str(overrides)}), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert f"{entity_id!r} is not a valid entity id" in err and "Traceback" not in err
    assert not any(entity_id in value for params in wiki_server.params for value in params.values())


@pytest.mark.parametrize("setup", ["mock", "no-backend", "remote-http"])
def test_manifest_lists_exactly_the_files_each_command_wrote(
    tmp_path, capsys, wiki_server, predict_server, setup
):
    if setup == "remote-http":  # no ingest_report.json
        predict_server.default = {"status": 200, "body": score_response({"causal": 0.7, "non-causal": 0.3})}
        config = remote_http_config(tmp_path, wiki_server, predict_server)
    else:  # without a backend, the run stops before predict
        config = write_config(tmp_path, **({"backend": None} if setup == "no-backend" else {}))
    for command in (*STAGES, "run"):
        out = tmp_path / command  # a fresh out_dir per command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0, command
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert files - {"manifest.json"} == set(manifest["artifacts"]), command


# A lone surrogate: JSON reads "\ud800" without its pair, strict UTF-8 cannot write it.
_LONE = "\ud800"


def _jsonl_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _write_jsonl_records(path: Path, records: list[dict]) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")  # escapes as \uXXXX
    return path


def _fixture_kg_renaming(tmp_path: Path, old: str, new: str, hetionet: bool) -> dict:
    """The ``kg`` section of the fixture graph with node ``old`` named ``new``,
    as a JSONL graph or as a Hetionet dump."""
    records = _jsonl_records(DATA_DIR / "fixture_kg.jsonl")
    nodes = [r["node"] for r in records if "node" in r]
    for node in nodes:
        node["name"] = new if node["name"] == old else node["name"]
    if not hetionet:
        return {"kind": "jsonl", "path": str(_write_jsonl_records(tmp_path / "kg.jsonl", records))}
    kind_of = {node["id"]: node["type"] for node in nodes}
    dump = {
        "nodes": [{"kind": n["type"], "identifier": n["id"], "name": n["name"]} for n in nodes],
        "edges": [
            {"source_id": [kind_of[e["source"]], e["source"]], "target_id": [kind_of[e["target"]], e["target"]],
             "kind": e["label"], "direction": "forward"}
            for e in (r["edge"] for r in records if "edge" in r)
        ],
    }
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    return {"kind": "hetionet_json", "path": str(path)}


def _surrogate_input(tmp_path: Path, case: str, odd: str) -> tuple[dict, str, str]:
    """(config overrides, artifact, the text it must carry) for ``odd`` in one input."""
    if case == "dataset-text":
        records = _jsonl_records(DATA_DIR / "fixture_dataset.jsonl")
        records[0]["text"] = records[0]["text"].replace("activating", f"activ{odd}ating")
        dataset = _write_jsonl_records(tmp_path / "dataset.jsonl", records)
        return {"dataset": str(dataset)}, "prompts.jsonl", f"activ{odd}ating"
    if case == "mask-token":
        return {"mask_token": f"[M{odd}]"}, "prompts.jsonl", f"[M{odd}]"
    if case == "template-word":
        return {"templates": {"nn_connective": f"is {odd} connected to"}}, "contexts.jsonl", f"is {odd} connected to"
    kg = _fixture_kg_renaming(tmp_path, "FGFR4", f"FGFR{odd}4", hetionet=case == "hetionet-node-name")
    return {"kg": kg}, "contexts.jsonl", f"FGFR{odd}4"


@pytest.mark.parametrize(
    "case", ["dataset-text", "mask-token", "template-word", "jsonl-node-name", "hetionet-node-name"]
)
def test_lone_surrogate_is_written_as_its_escape_and_reads_back(tmp_path, capsys, case):
    overrides, artifact, expected = _surrogate_input(tmp_path, case, _LONE)
    config = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(config)]) == 0
    out = tmp_path / "run"
    raw = (out / artifact).read_bytes()
    assert b"\\ud800" in raw and "\\ud800" in raw.decode("utf-8")  # valid UTF-8 throughout
    strings = [value for record in _jsonl_records(out / artifact) for value in record.values()]
    assert any(isinstance(value, str) and expected in value for value in strings)
    first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}  # config_hash included
    shutil.rmtree(out)
    assert main(["run", "--config", str(config)]) == 0
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first


def test_surrogate_pair_from_json_escapes_is_written_as_utf8(tmp_path, capsys):
    overrides, artifact, _expected = _surrogate_input(tmp_path, "jsonl-node-name", "\U0001F600")
    assert b"FGFR\\ud83d\\ude004" in Path(overrides["kg"]["path"]).read_bytes()  # the input holds the pair
    assert main(["run", "--config", str(write_config(tmp_path, **overrides))]) == 0
    raw = (tmp_path / "run" / artifact).read_bytes()
    assert "FGFR\U0001F6004".encode("utf-8") in raw and b"\\ud83d" not in raw


def test_remote_name_with_a_lone_surrogate_links_as_unresolved(tmp_path, capsys, wiki_server, predict_server):
    predict_server.default = {"status": 200, "body": score_response({"causal": 0.7, "non-causal": 0.3})}
    config = remote_http_config(tmp_path, wiki_server, predict_server)
    records = _jsonl_records(DATA_DIR / "fixture_dataset.jsonl")
    assert records[0]["text"].startswith("FGF6 ")
    records[0]["text"] = f"FG{_LONE}F6" + records[0]["text"][4:]
    records[0]["e2"] = {key: at + 1 for key, at in records[0]["e2"].items()}
    records[0]["e1"]["end"] += 1
    dataset = _write_jsonl_records(tmp_path / "dataset.jsonl", records)
    data = json.loads(config.read_text(encoding="utf-8"))
    config.write_text(json.dumps({**data, "dataset": str(dataset)}), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert "FG\\ud800F6" in {params.get("search") for params in wiki_server.params}  # sent as its escape
    linkage = {r["instance_id"]: r for r in _jsonl_records(tmp_path / "run" / "linkage.jsonl")}
    assert linkage[records[0]["instance_id"]]["e1_method"] == "unresolved"
