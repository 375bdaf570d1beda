"""The whole-file JSON reader and the JSONL reader every loader uses: each
failure to read or decode a file is a ParseError naming it."""

from __future__ import annotations

import re

import pytest

from kgprompt.dataset import load_dataset_jsonl
from kgprompt.errors import ConfigError, ParseError, jsonl_records, read_json, require_http_url
from kgprompt.ingest import load_edge_list_jsonl, load_hetionet_json
from kgprompt.linking import load_overrides
from kgprompt.pipeline import ExperimentConfig


def test_read_json_names_the_file_and_line(tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{\n  "a": ,\n}', encoding="utf-8")
    with pytest.raises(ParseError, match=f"^line 2: {re.escape(str(path))}: invalid JSON at column 8: ") as err:
        read_json(path)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "load", [jsonl_records, load_dataset_jsonl, load_edge_list_jsonl], ids=["jsonl_records", "dataset", "edge-list"]
)
def test_jsonl_line_that_is_not_json_names_the_file_and_line(tmp_path, load):
    path = tmp_path / "lines.jsonl"
    path.write_text('\n{"node": \n', encoding="utf-8")  # line 1 is blank
    with pytest.raises(ParseError, match=f"^line 2: {re.escape(str(path))}: invalid JSON: Expecting value$") as err:
        list(load(path))
    assert err.value.line == 2


@pytest.mark.parametrize("reader", [read_json, lambda path: list(jsonl_records(path))], ids=["json", "jsonl"])
def test_nesting_deeper_than_the_decoder_is_a_parse_error(tmp_path, reader):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(ParseError, match=f"{re.escape(str(path))}: JSON nested too deeply"):
        reader(path)


@pytest.mark.parametrize(
    "load",
    [read_json, load_dataset_jsonl, load_edge_list_jsonl, load_hetionet_json, load_overrides],
    ids=["read_json", "dataset", "edge-list", "hetionet", "overrides"],
)
def test_unreadable_file_is_a_parse_error_naming_it(tmp_path, load):
    # a directory stands in for a file removed or replaced after the config check
    with pytest.raises(ParseError, match=f"^cannot read {re.escape(str(tmp_path))}: ") as err:
        load(tmp_path)
    assert isinstance(err.value.__cause__, OSError)


def test_unreadable_config_is_a_config_error(tmp_path):
    missing = tmp_path / "none.json"
    with pytest.raises(ConfigError, match=f"^cannot read configuration: cannot read {re.escape(str(missing))}: "):
        ExperimentConfig.from_json(missing)


@pytest.mark.parametrize(
    "url", ["http://localhost", "https://example.org:8443/sparql", "http://[::1]:80/", "http://127.0.0.1:9"]
)
def test_http_url_rule_accepts(url):
    require_http_url(url, "url")
