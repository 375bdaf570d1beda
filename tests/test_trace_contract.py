"""The names the benchmark's tracer wraps still exist.

``bench/trace.py`` replaces functions of :mod:`kgprompt.pipeline`,
:mod:`kgprompt.backend`, :mod:`kgprompt.cli` and :mod:`kgprompt.remote` by
name, and a name it cannot find only drops that layer's metrics. So a
rename in ``src/`` fails here instead of zeroing a per-layer metric.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import kgprompt.backend as backend
import kgprompt.cli as cli
import kgprompt.pipeline as pipeline
import kgprompt.remote as remote

TRACE_PY = Path(__file__).resolve().parent.parent / "bench" / "trace.py"

# Removed when the remote source started linking through link_pairs; the
# tracer still lists it and reports it as not traced.
KNOWN_ABSENT = {"_link_remote"}


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
