from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from kgprompt.cli import main

from conftest import DATA_DIR


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
    result = subprocess.run(
        [sys.executable, "-m", "kgprompt.cli", "run", "--config", str(config)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


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
