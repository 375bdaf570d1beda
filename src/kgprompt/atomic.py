"""Atomic file writes: write a temporary file beside the target, then rename
it over the target, so a reader (or a resumed run) sees the old file or the
whole new one, never a partial write."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Literal

# kgprompt writes and hashes text as UTF-8. A lone surrogate (say, a JSON
# "\ud800" without its pair) has no UTF-8 form, so it is written as that
# escape, which reads back as the same string; valid text is unchanged.
TEXT_ERRORS = "backslashreplace"


@contextmanager
def write_atomic(path: str | Path, mode: Literal["w", "wb"] = "w") -> Iterator[IO]:
    """Open a file that replaces ``path`` when the block succeeds: UTF-8 text
    (``TEXT_ERRORS``) for ``mode="w"``, bytes for ``mode="wb"``.

    The temporary file lives in ``path``'s directory, so ``os.replace`` is a
    rename within one file system. On an error it is removed and ``path``
    keeps its old content. Missing parent directories are created.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"mode must be 'w' or 'wb', not {mode!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        binary = mode == "wb"
        with tmp.open("xb") if binary else tmp.open("x", encoding="utf-8", errors=TEXT_ERRORS) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:  # after a successful os.replace there is no temporary file left
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[object]) -> int:
    """Write each record as one JSON line (``json.dumps`` separators, non-ASCII
    kept as is) through ``write_atomic``; returns the number of lines written."""
    count = 0
    with write_atomic(path) as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count
