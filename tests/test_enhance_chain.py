"""M6 enhance chain (reference preprocess_gambar, ocr_service.py:
145-223) — step-level kernel tests and the whole chain on a synthetic
page."""
from __future__ import annotations

import numpy as np
import pytest
from synth_pages import render_text_page

import ocr_ray.kernels.pixels as px


def test_thicken_text_spreads_dark_down_right():
    # single dark pixel on white: the 2×2 dilation (anchor at kernel
    # center) spreads the INVERTED max over {self, top, left, top-left},
    # i.e. darkness extends one pixel DOWN and RIGHT
    g = np.full((5, 5), 255, np.uint8)
    g[2, 2] = 0
    t = px.thicken_text(g)
    dark = {(y, x) for y, x in zip(*np.where(t == 0))}
    assert dark == {(2, 2), (3, 2), (2, 3), (3, 3)}


def test_thicken_text_preserves_flat():
    g = np.full((4, 6), 200, np.uint8)
    assert np.array_equal(px.thicken_text(g), g)


def test_gaussian_kernel_matches_cv2_rule():
    k = px._gaussian_kernel1d(2.0)
    assert len(k) == 13  # round(2*3*2+1)|1
    assert k.sum() == pytest.approx(1.0)
    assert np.argmax(k) == 6 and k[0] == k[-1]


def test_gaussian_blur_preserves_mean_flat():
    g = np.full((20, 30), 77, np.uint8)
    assert np.array_equal(px.gaussian_blur_u8(g), g)
    # blur smooths a step edge monotonically
    step = np.zeros((20, 40), np.uint8)
    step[:, 20:] = 200
    b = px.gaussian_blur_u8(step).astype(int)
    row = b[10]
    assert (np.diff(row) >= 0).all()
    assert row[0] == 0 and row[-1] == 200


def test_unsharp_increases_edge_contrast():
    step = np.zeros((20, 40), np.uint8)
    step[:, 20:] = 200
    s = px.unsharp_mask(step).astype(int)
    # overshoot on the bright side of the edge, undershoot on the dark
    assert s[10, 25] > 200 or s[10, 22] > 200
    assert (s[10, :15] == 0).all()
    # flat regions: 1.8·v − 0.8·v = v
    flat = np.full((16, 16), 120, np.uint8)
    assert np.array_equal(px.unsharp_mask(flat), flat)


def test_contrast_scale_abs_quirk():
    g = np.array([[0, 10, 100, 200, 255]], np.uint8)
    out = px.contrast_scale_abs(g, alpha=1.3, beta=-30.0)
    # cv2 convertScaleAbs takes |α·v+β|: v=0 → |−30| = 30 (brightens!)
    assert out[0, 0] == 30
    assert out[0, 1] == 17  # |13−30| = 17
    assert out[0, 2] == 100  # 130−30
    assert out[0, 3] == 230
    assert out[0, 4] == 255  # saturates (301.5 → 255)


def test_enhance_chain_darkens_and_thickens_text():
    page = render_text_page(128, 96, n_lines=5, yellow=True, seed=3)
    out = px.enhance_chain(page)
    assert out.shape == page.shape and out.dtype == np.uint8
    # grayscale output: all three channels equal
    assert np.array_equal(out[:, :, 0], out[:, :, 1])
    # text mass grows: more dark pixels than the input's gray had
    gin = px.to_gray(page)
    gout = out[:, :, 0]
    assert (gout < 100).sum() > (gin < 100).sum()
