"""The Ray private-API patches (context.py hash-shuffle empty blocks,
stages/checkpoint.py thread-safe HTTP-filesystem probe) must fail loudly,
naming the missing symbol and the Ray version, when a Ray upgrade moves
what they patch — never run silently unpatched."""
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


def test_http_probe_patch_names_missing_probe(monkeypatch):
    import ray
    import ray.data.datasource.path_util as pu

    from ocr_ray.stages.checkpoint import _patch_http_fs_probe_for_threads

    monkeypatch.delattr(pu, "_is_http_filesystem")
    with pytest.raises(RuntimeError, match="_is_http_filesystem") as e:
        _patch_http_fs_probe_for_threads()
    assert ray.__version__ in str(e.value)


def test_http_probe_patch_names_missing_module(monkeypatch):
    import sys

    import ray
    import ray.data.datasource as ds_pkg

    from ocr_ray.stages.checkpoint import _patch_http_fs_probe_for_threads

    monkeypatch.setitem(sys.modules, "ray.data.datasource.path_util", None)
    monkeypatch.delattr(ds_pkg, "path_util", raising=False)
    with pytest.raises(RuntimeError, match="path_util") as e:
        _patch_http_fs_probe_for_threads()
    assert ray.__version__ in str(e.value)
