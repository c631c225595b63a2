"""Stdlib PNG codec (kernels/png.py): round-trips over every scanline
filter, the literal bytes of a filter-0 scanline, CRC and signature
detection."""
from __future__ import annotations

import numpy as np
import pytest

from ocr_ray.kernels.png import decode_png, encode_png, is_png


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4, "mixed"])
@pytest.mark.parametrize(
    "shape", [(5, 3), (7, 4, 3), (16, 16, 4), (33, 9, 2), (1, 1)]
)
def test_round_trip_all_filters(shape, filter_type):
    rng = np.random.default_rng(hash((shape, str(filter_type))) % 2**32)
    img = rng.integers(0, 256, shape, dtype=np.uint8)
    back = decode_png(encode_png(img, filter_type=filter_type))
    want = img if img.ndim == 2 or img.shape[2] > 1 else img[:, :, 0]
    assert back.shape == want.shape
    assert np.array_equal(back, want)


def test_gradient_round_trip():
    # smooth content — the case filters 1-4 actually compress
    g = np.tile(np.arange(256, dtype=np.uint8), (40, 1))
    img = np.stack([g, g, 255 - g], axis=-1)
    for ft in (1, 3, 4):
        assert np.array_equal(decode_png(encode_png(img, filter_type=ft)), img)


def test_known_bytes_filter0():
    # hand-checked 2×1 grey PNG, filter 0: IDAT scanline = b"\x00\x05\xfa"
    img = np.array([[5, 250]], dtype=np.uint8)
    data = encode_png(img, filter_type=0)
    import zlib

    # locate the IDAT body and confirm the literal scanline bytes
    i = data.index(b"IDAT") + 4
    import struct

    (length,) = struct.unpack(">I", data[i - 8 : i - 4])
    assert zlib.decompress(data[i : i + length]) == b"\x00\x05\xfa"
    assert np.array_equal(decode_png(data), img)


def test_crc_and_format_errors():
    img = np.zeros((4, 4, 3), np.uint8)
    data = bytearray(encode_png(img))
    data[20] ^= 0x55
    with pytest.raises(ValueError, match="CRC"):
        decode_png(bytes(data))
    with pytest.raises(ValueError, match="signature"):
        decode_png(b"nope")
    assert not is_png(b"nope") and is_png(encode_png(img))
