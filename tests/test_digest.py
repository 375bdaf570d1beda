"""The built-in hash modules against hashlib, and the digests that reach an
artifact, a seed or a cache key, pinned as the values they had under hashlib."""

from __future__ import annotations

import hashlib
import importlib
import sys

from hypothesis import given
from hypothesis import strategies as st

from kgprompt import _digest
from kgprompt.backend import InferenceRequest, predict_mock
from kgprompt.dataset import CAUSAL
from kgprompt.prompts import Architecture, LabelMapping
from kgprompt.remote import QueryCache
from kgprompt.structures import derive_seed


def _chunks(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = sorted(cut % (len(data) + 1) for cut in cuts)
    return [data[a:b] for a, b in zip([0, *bounds], [*bounds, len(data)])]


def _digests(sha256, blake2b, data: bytes, cuts: list[int]) -> list[str]:
    """Each digest whole and fed in chunks."""
    fed = [sha256(), blake2b(digest_size=32)]
    for chunk in _chunks(data, cuts):
        for digest in fed:
            digest.update(chunk)
    whole = [sha256(data), blake2b(data, digest_size=32)]
    return [digest.hexdigest() for digest in whole + fed]


@given(st.binary(max_size=2048), st.lists(st.integers(min_value=0), max_size=8))
def test_shim_digests_equal_hashlib(data, cuts):
    assert _digests(_digest.sha256, _digest.blake2b, data, cuts) == _digests(
        hashlib.sha256, hashlib.blake2b, data, cuts
    )


def test_shim_falls_back_to_hashlib_without_the_builtin_modules(monkeypatch):
    data, cuts = bytes(range(256)) * 40, [7, 64, 4000]
    builtin = _digests(_digest.sha256, _digest.blake2b, data, cuts)
    for name in ("_sha2", "_sha256", "_blake2"):
        monkeypatch.setitem(sys.modules, name, None)  # any import of it fails
    try:
        fallback = importlib.reload(_digest)
        assert (fallback.sha256, fallback.blake2b) == (hashlib.sha256, hashlib.blake2b)
        assert _digests(fallback.sha256, fallback.blake2b, data, cuts) == builtin
    finally:
        monkeypatch.undo()
        importlib.reload(_digest)
    assert _digest.sha256 is not hashlib.sha256


# The literals below were computed with hashlib's sha256, before the shim: an
# old remote cache still hits, and no seed or mock prediction moves.


def test_cache_keys_are_pinned():
    assert QueryCache.key_for("search\nsearch=prostate cancer") == (
        "b59bd7ce1dedaf55f10a1997a52290e70794b05e80a23e31133d4a362ef6fc88"
    )
    assert QueryCache.key_for("search\nsearch=Sjögren syndrome 干燥综合征 — café") == (
        "edd2e6d3da98bb6cb7df2b17875f5d2944c4dce574c43f573b0667424ceabd82"
    )


def test_derived_seeds_are_pinned():
    assert derive_seed(7, "NN", "Q181257") == 7325016359348808090
    assert derive_seed(7, "MP", "FGF6", "prostate cancer") == 15533613932568086991


def test_mock_predictions_are_pinned():
    mapping = LabelMapping.identity()
    pinned = {
        "The pair FGF6 and prostate cancer shows a [MASK] relation.": "NCNCCNCNNCNNNCNN",
        "Le couple café et « 干燥综合征 » \ud800 montre une relation [MASK].": "NNNNNNNCCCCNNNNC",
    }
    for prompt, labels in pinned.items():
        request = InferenceRequest(prompt, "[MASK]", mapping.candidates(), Architecture.MLM, "r1")
        predicted = [predict_mock(request, mapping, seed).predicted for seed in range(len(labels))]
        assert "".join("C" if label == CAUSAL else "N" for label in predicted) == labels, prompt
