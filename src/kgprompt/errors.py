"""Exception hierarchy shared across the package, and the reading, record
and URL checks every loader of outside input and every endpoint applies."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Iterable, Iterator
from urllib.parse import urlsplit


class KgPromptError(Exception):
    """Base class for every error raised by this package."""


# --- graph ---

class UnknownNodeError(KgPromptError):
    def __init__(self, node_id: str):
        super().__init__(f"unknown node: {node_id!r}")
        self.node_id = node_id


class DuplicateEdgeError(KgPromptError):
    pass


class SamePairError(KgPromptError):
    pass


# --- file ingestion / serialization ---

class ParseError(KgPromptError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


class SchemaError(ParseError):
    """A decoded record breaks its format's rules."""


def require_fields(record: object, fields: Iterable[str], what: str, line: int | None = None) -> dict:
    """``record`` itself if it is a JSON object holding every one of ``fields``."""
    if not isinstance(record, dict):
        raise SchemaError(f"{what} must be a JSON object", line=line)
    for name in fields:
        if name not in record:
            raise SchemaError(f"{what}: missing field {name!r}", line=line)
    return record


def require_int(value: object, what: str, line: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, not {type(value).__name__}", line=line)
    return value


def require_str(value: object, what: str, line: int | None = None) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, not {type(value).__name__}", line=line)
    return value


_NOT_IN_URL = re.compile("[\x00-\x20\x7f]")


def require_http_url(url: str, what: str) -> None:
    """Raise ValueError unless ``url`` is an http(s) URL naming a host, whose
    host and port ``urlsplit`` can read, made of ASCII characters other than
    space and the controls (``urlsplit`` would drop tab, CR and LF)."""
    try:
        parts = urlsplit(url)
        parts.port  # ValueError for a port that is not a number in 0..65535
    except ValueError:
        parts = None
    if not (parts and parts.hostname and url.startswith(("http://", "https://"))):
        raise ValueError(f"{what} must be an http(s) URL")
    if not url.isascii() or _NOT_IN_URL.search(url):
        raise ValueError(f"{what} must be an http(s) URL without spaces, controls or non-ASCII")


# The only JSON values with one obvious spelling inside an id (a bool is not
# an int here).
ID_TYPES = (str, int)


def require_id(value: object, what: str, line: int | None = None) -> str:
    """An id, or a part of one, as a string."""
    if type(value) not in ID_TYPES:
        raise SchemaError(
            f"{what} must be a string or an integer, not {type(value).__name__}", line=line
        )
    return str(value)


# field annotation -> (accepted types, what the error says is expected)
_FIELD_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string"),
}


def check_field_types(obj: object) -> None:
    """Raise TypeError unless each field of the dataclass ``obj`` annotated
    with a type of ``_FIELD_TYPES`` holds a value of that type; a bool is not
    a number here. A ``float`` field stores an integer as a float."""
    for f in dataclasses.fields(obj):
        name = getattr(f.type, "__name__", f.type)  # a string under postponed annotations
        if name not in _FIELD_TYPES:
            continue
        accepted, expected = _FIELD_TYPES[name]
        value = getattr(obj, f.name)
        if not isinstance(value, accepted) or (isinstance(value, bool) and name != "bool"):
            raise TypeError(f"{f.name} must be {expected}, not {type(value).__name__}")
        if name == "float":
            object.__setattr__(obj, f.name, float(value))


def read_json(path: str | Path) -> object:
    """The JSON value of a whole UTF-8 file; any failure is a ParseError naming
    the file, and the line where known (an OSError is its ``__cause__``)."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at column {exc.colno}: {exc.msg}", line=exc.lineno) from exc
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def jsonl_records(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, parsed value) for each non-blank line of a UTF-8 JSONL file."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=lineno) from exc
                except RecursionError:
                    raise ParseError(f"{path}: JSON nested too deeply", line=lineno) from None
                yield lineno, record
    except UnicodeDecodeError:
        raise utf8_error(path) from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def utf8_error(path: Path) -> ParseError:
    """The error for a file that does not decode as UTF-8.

    It names the file, the offset of its first bad byte and the line holding
    that byte, counting line breaks as text-mode reading does (``\\n``,
    ``\\r\\n`` or ``\\r``).
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ParseError(f"{path}: not valid UTF-8 at byte {exc.start} ({exc.reason})", line=line)
    return ParseError(f"{path}: not valid UTF-8")


# --- remote access ---

class NetworkError(KgPromptError):
    pass


class RateLimitedError(NetworkError):
    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class MalformedResponseError(KgPromptError):
    pass


class UnknownEntityError(KgPromptError):
    pass


class CacheError(KgPromptError):
    """A remote cache segment, or its directory, cannot be read or written."""


# --- verbalization ---

class KindMismatchError(KgPromptError):
    pass


class MissingLabelError(KgPromptError):
    pass


# --- prompt assembly ---

class EmptyPairError(KgPromptError):
    pass


class UnknownArchitectureError(KgPromptError):
    pass


class BudgetTooSmallError(KgPromptError):
    pass


class UnknownLabelError(KgPromptError):
    pass


class UnknownLabelWordError(KgPromptError):
    pass


class MaskTokenError(KgPromptError, ValueError):
    """A prompt does not hold the mask token exactly once, at its slot."""


# --- datasets ---

class SpanError(KgPromptError):
    pass


class LabelError(KgPromptError):
    pass


class TooFewInstancesError(KgPromptError):
    pass


class ClassExhaustedError(KgPromptError):
    pass


# --- inference backends ---

class ProtocolError(KgPromptError):
    pass


class UnmappableOutputError(KgPromptError):
    pass


# --- evaluation ---

class MissingGoldError(KgPromptError):
    pass


class DuplicatePredictionError(KgPromptError):
    pass


class PredictionCoverageError(KgPromptError):
    """Predictions do not cover exactly the ids they are scored against."""


# --- pipeline / cli ---

class ConfigError(KgPromptError):
    """Experiment configuration failed validation."""


class OverrideConflictError(KgPromptError):
    pass


class StageError(KgPromptError):
    """A pipeline stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage
