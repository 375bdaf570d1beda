"""Exception hierarchy shared across the package, and the record checks
every loader of line- or record-structured input applies."""

from __future__ import annotations

from typing import Iterable


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


class SchemaError(KgPromptError):
    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


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
