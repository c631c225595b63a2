"""The Ray private-API patch (context.py hash-shuffle empty blocks) must
fail loudly, naming the missing symbol and the Ray version, when a Ray
upgrade moves what it patches — never run silently unpatched."""
from __future__ import annotations

import pytest


def test_hash_shuffle_patch_names_missing_method(monkeypatch):
    import ray
    from ray.data._internal.execution.operators import hash_shuffle as hs

    from ocr_ray.context import _patch_hash_shuffle_empty_blocks

    monkeypatch.delattr(hs, "_ocr_ray_empty_block_patch", raising=False)
    monkeypatch.delattr(hs.HashShufflingOperatorBase, "_do_add_input_inner")
    with pytest.raises(RuntimeError, match="_do_add_input_inner") as e:
        _patch_hash_shuffle_empty_blocks()
    assert ray.__version__ in str(e.value)


def test_hash_shuffle_patch_names_missing_class(monkeypatch):
    import ray
    from ray.data._internal.execution.operators import hash_shuffle as hs

    from ocr_ray.context import _patch_hash_shuffle_empty_blocks

    monkeypatch.delattr(hs, "_ocr_ray_empty_block_patch", raising=False)
    monkeypatch.delattr(hs, "HashShufflingOperatorBase")
    with pytest.raises(RuntimeError, match="HashShufflingOperatorBase") as e:
        _patch_hash_shuffle_empty_blocks()
    assert ray.__version__ in str(e.value)
