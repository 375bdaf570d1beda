from __future__ import annotations

import pytest

from kgprompt.atomic import write_atomic


def test_write_replaces_the_file_in_one_step(tmp_path):
    target = tmp_path / "sub" / "artifact.jsonl"
    with write_atomic(target) as fh:
        fh.write("first\n")
    with write_atomic(target) as fh:
        fh.write("second\n")
        assert target.read_text(encoding="utf-8") == "first\n"  # not yet replaced
    assert target.read_text(encoding="utf-8") == "second\n"
    assert [p.name for p in target.parent.iterdir()] == ["artifact.jsonl"]


def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with write_atomic(target) as fh:
            fh.write("half of the new")
            raise RuntimeError("interrupted")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_binary_write_replaces_bytes_and_a_failed_one_keeps_the_old_file(tmp_path):
    target = tmp_path / "snapshot.bin"
    with write_atomic(target, mode="wb") as fh:
        fh.write(b"\x00old\xff")
    assert target.read_bytes() == b"\x00old\xff"
    with pytest.raises(RuntimeError):
        with write_atomic(target, mode="wb") as fh:
            fh.write(b"half of the new")
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"\x00old\xff"
    assert [p.name for p in tmp_path.iterdir()] == ["snapshot.bin"]
