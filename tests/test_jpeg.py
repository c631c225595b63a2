"""Baseline JPEG codec (kernels/jpeg.py): decode of REAL
libjpeg-encoded fixtures (CPython / IPython / rust-book test assets —
4:2:0, grayscale partial-MCU, 4:4:4 with restart markers), the
progressive error path, encoder round-trips, and the DecodeMedia /
dhash integration. No Ray needed except the integration test."""
from __future__ import annotations

import pathlib

import numpy as np
import pytest

FIX = pathlib.Path(__file__).parent / "fixtures" / "jpeg"


def _read(name: str) -> bytes:
    return (FIX / name).read_bytes()


def test_is_jpeg_and_dims():
    from ocr_ray.kernels.jpeg import is_jpeg, jpeg_dims

    d = _read("baseline_420_16x16.jpg")
    assert is_jpeg(d) and not is_jpeg(b"\x89PNG")
    assert jpeg_dims(d) == (16, 16)
    assert jpeg_dims(_read("baseline_gray_2x2.jpg")) == (2, 2)
    assert jpeg_dims(_read("baseline_444_dri_720x477.jpg")) == (720, 477)
    # header dims work for progressive too (no entropy decode)
    assert jpeg_dims(_read("progressive_720x477.jpg")) == (720, 477)
    with pytest.raises(ValueError, match="corrupt JPEG"):
        jpeg_dims(d[:4])


def test_decode_baseline_420_against_known_content():
    """python.jpg is libjpeg-encoded CPython test data: the Python
    logo — blue snake top-left, yellow snake bottom-right. Decoding a
    REAL libjpeg stream with the right colors in the right corners
    pins the zigzag order, 4:2:0 upsampling, YCbCr matrix and IDCT
    orientation all at once (a transposed/reordered decode scrambles
    the quadrant colors)."""
    from ocr_ray.kernels.jpeg import decode_jpeg

    img = decode_jpeg(_read("baseline_420_16x16.jpg")).astype(float)
    assert img.shape == (16, 16, 3)
    tl = img[:8, :8].reshape(-1, 3).mean(axis=0)
    br = img[8:, 8:].reshape(-1, 3).mean(axis=0)
    assert tl[2] > tl[0] + 40  # blue dominant top-left
    assert br[0] > br[2] + 60 and br[1] > br[2] + 40  # yellow bottom-right


def test_decode_gray_partial_mcu():
    from ocr_ray.kernels.jpeg import decode_jpeg

    img = decode_jpeg(_read("baseline_gray_2x2.jpg"))
    assert img.shape == (2, 2) and img.dtype == np.uint8


def test_decode_444_with_restart_markers():
    from ocr_ray.kernels.jpeg import decode_jpeg

    img = decode_jpeg(_read("baseline_444_dri_720x477.jpg"))
    assert img.shape == (477, 720, 3)
    # a real photo, not garbage: meaningful variance, full range use
    assert 10 < img.std() < 100
    assert img.min() < 30 and img.max() > 200


def test_progressive_raises_not_implemented():
    from ocr_ray.kernels.jpeg import decode_jpeg

    with pytest.raises(NotImplementedError, match="progressive"):
        decode_jpeg(_read("progressive_720x477.jpg"))


def test_roundtrip_rgb_gradient():
    """Smooth content at q95 must survive the lossy cycle within a few
    code levels. The asymmetric pattern (horizontal + vertical
    gradients + an offset block) also kills the zigzag-cancellation
    failure mode a symmetric round-trip can hide."""
    from ocr_ray.kernels.jpeg import decode_jpeg, encode_jpeg

    img = np.zeros((40, 56, 3), np.uint8)
    img[:, :, 0] = np.linspace(0, 255, 56, dtype=np.uint8)[None, :]
    img[:, :, 1] = np.linspace(0, 255, 40, dtype=np.uint8)[:, None]
    img[10:30, 20:40, 2] = 200
    dec = decode_jpeg(encode_jpeg(img, quality=95))
    assert dec.shape == img.shape
    err = np.abs(dec.astype(float) - img.astype(float))
    assert err.mean() < 2.0 and err.max() <= 24


def test_roundtrip_flat_is_exact():
    """A flat image is DC-only: quantization cannot lose anything, so
    the round trip must be EXACT — catches off-by-one level shifts and
    DC predictor bugs."""
    from ocr_ray.kernels.jpeg import decode_jpeg, encode_jpeg

    for v in (0, 97, 128, 255):
        img = np.full((24, 40, 3), v, np.uint8)
        dec = decode_jpeg(encode_jpeg(img, quality=90))
        assert np.array_equal(dec, img), v
    g = np.full((17, 9), 200, np.uint8)  # partial MCUs
    assert np.array_equal(decode_jpeg(encode_jpeg(g)), g)


def test_roundtrip_noise_psnr():
    from ocr_ray.kernels.jpeg import decode_jpeg, encode_jpeg

    rng = np.random.RandomState(3)
    img = (rng.rand(32, 48, 3) * 255).astype(np.uint8)
    dec = decode_jpeg(encode_jpeg(img, quality=95))
    mse = np.mean((dec.astype(float) - img.astype(float)) ** 2)
    psnr = 10 * np.log10(255.0**2 / max(mse, 1e-12))
    assert psnr > 28.0, psnr  # noise is worst-case content; q95 holds


def test_decode_any_image_jpeg_and_progressive_none():
    from ocr_ray.ops.multimodal import decode_any_image

    jpeg = _read("baseline_420_16x16.jpg")
    img = decode_any_image(jpeg)
    assert img is not None and img.shape == (16, 16, 3)
    assert decode_any_image(_read("progressive_720x477.jpg")) is None
    # truncated inside the first segment header: corrupt, not a crash
    assert decode_any_image(jpeg[:4]) is None


def test_decode_media_jpeg_paths(ray_session):
    """DecodeMedia: metadata mode reads SOF dims without entropy
    decode; real_codecs transcodes baseline JPEG to RAWI so the pixel
    kernels (resize/deskew/CLAHE/enhance/dhash) run on real compressed
    payloads; progressive raises only in real mode."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.ops.multimodal import DecodeMedia, decode_raw_image

    rows = pa.table(
        {
            "media_id": pa.array([1, 2], pa.int64()),
            "payload": pa.array(
                [_read("baseline_420_16x16.jpg"),
                 _read("progressive_720x477.jpg")],
                pa.binary(),
            ),
        }
    )
    meta = (
        rd.from_arrow(rows)
        .map_batches(DecodeMedia, batch_format="pyarrow",
                     concurrency=1)
        .to_pandas()
        .sort_values("media_id")
    )
    assert meta["width"].tolist() == [16, 720]
    assert meta["height"].tolist() == [16, 477]
    assert meta["media_type"].tolist() == ["image", "image"]

    real = (
        rd.from_arrow(rows.slice(0, 1))
        .map_batches(
            DecodeMedia,
            fn_constructor_kwargs={"real_codecs": True},
            batch_format="pyarrow",
            concurrency=1,
        )
        .to_pandas()
    )
    img = decode_raw_image(real["payload"][0])
    assert img.shape == (16, 16, 3)


def test_dhash_pipeline_on_jpeg_payloads(ray_session):
    """The media near-dup family runs on real JPEG payloads end to end:
    JPEG-encoded pages decode inside the pipeline (decode_any_image)
    and the planted near-dup pair is found, as with RAWI/PNG."""
    import pyarrow as pa
    import ray.data as rd

    from ocr_ray.kernels.jpeg import decode_jpeg, encode_jpeg
    from ocr_ray.ops.multimodal import (
        dhash64,
        media_dhash_pairs,
        render_text_page,
    )

    pages = [render_text_page(96, 64, seed=i) for i in range(5)]
    near = pages[0].copy()
    near[5, 5] ^= 1
    imgs = pages + [near]
    # the lossy cycle moves dhash by at most a few bits on text pages
    for img in imgs:
        a = dhash64(img)
        b = dhash64(decode_jpeg(encode_jpeg(img, quality=95)))
        assert bin(a ^ b).count("1") <= 6

    tbl = pa.table(
        {
            "media_id": pa.array(list(range(5)) + [100], pa.int64()),
            "payload": pa.array(
                [encode_jpeg(i, quality=95) for i in imgs], pa.binary()
            ),
        }
    )
    pairs = media_dhash_pairs(rd.from_arrow(tbl)).to_pandas()
    assert {(0, 100)} <= set(
        zip(pairs["media_a"], pairs["media_b"])
    )
