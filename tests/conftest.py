from __future__ import annotations

from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def graph_cache(tmp_path, monkeypatch) -> Path:
    """A per-test ``XDG_CACHE_HOME``: every test starts with no graph
    snapshot, and none reaches the user's cache."""
    cache = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache


@pytest.fixture
def fixture_dataset_path() -> Path:
    return DATA_DIR / "fixture_dataset.jsonl"


@pytest.fixture
def fixture_kg_path() -> Path:
    return DATA_DIR / "fixture_kg.jsonl"


@pytest.fixture
def predict_server():
    from stubs import StubPredictServer

    server = StubPredictServer().start()
    yield server
    server.stop()


@pytest.fixture
def wiki_server():
    from stubs import StubWikiServer

    server = StubWikiServer().start()
    yield server
    server.stop()


@pytest.fixture
def remote_timing(monkeypatch):
    """Sets the remote source's request timing for one test, by keyword:
    ``timeout``, ``max_retries`` or ``backoff``."""
    from kgprompt import remote

    def set_timing(**values: float) -> None:
        for name, value in values.items():
            monkeypatch.setattr(remote, name.upper(), value)

    return set_timing
