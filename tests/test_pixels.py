"""Pure-numpy pixel kernels (kernels/pixels.py).

Resize / deskew / background-neutralize are REAL pixel transforms on
synthetic pages — these tests pin the reference semantics (ocr_service.py:19-122): max-dimension resize
guard, Otsu + skip-small-content + skip-small-angle deskew with expanded
bounds, LAB a/b neutralization with CLAHE-enhanced L.
"""
from __future__ import annotations

import numpy as np
from synth_pages import render_text_page

from ocr_ray.kernels import pixels as px


# ----------------------------------------------------------------- resize


def test_bilinear_resize_dims_and_constant():
    img = np.full((40, 60, 3), 137, dtype=np.uint8)
    out = px.bilinear_resize(img, 23, 17)
    assert out.shape == (17, 23, 3)
    # bilinear interpolation of a constant field is that constant
    assert (out == 137).all()


def test_bilinear_resize_grayscale_and_gradient():
    # horizontal ramp: downsampled ramp must stay monotone nondecreasing
    img = np.tile(np.linspace(0, 255, 64, dtype=np.uint8), (16, 1))
    out = px.bilinear_resize(img, 16, 8)
    assert out.shape == (8, 16)
    assert (np.diff(out[0].astype(int)) >= 0).all()
    assert out[0, 0] < 40 and out[0, -1] > 215


def test_resize_if_needed_guard_semantics():
    small = np.zeros((50, 80, 3), dtype=np.uint8)
    # under the cap: exact same object back (the reference's early return)
    assert px.resize_if_needed(small, 100) is small
    big = np.zeros((100, 400, 3), dtype=np.uint8)
    out = px.resize_if_needed(big, 200)
    # ratio = 200/400 = 0.5 applied to BOTH dims, truncating int
    assert out.shape == (50, 200, 3)


# ------------------------------------------------------------------- otsu


def test_otsu_separates_bimodal():
    gray = np.concatenate(
        [np.full(500, 30, np.uint8), np.full(500, 200, np.uint8)]
    ).reshape(20, 50)
    t = px.otsu_threshold(gray)
    assert 30 <= t < 200
    mask = gray <= t
    assert mask.sum() == 500  # exactly the dark half


# ----------------------------------------------------------------- deskew


def test_estimate_skew_recovers_known_rotation():
    page = render_text_page(128, 128, n_lines=6)
    for true_angle in (-7.0, -3.0, 4.0, 8.5):
        rotated = px.rotate_expand(page, true_angle)
        est = px.estimate_skew(rotated)
        assert abs(est - true_angle) <= 1.0, (true_angle, est)


def test_deskew_straightens_and_skips():
    page = render_text_page(128, 128, n_lines=6)
    rotated = px.rotate_expand(page, 6.0)
    straight, angle = px.deskew(rotated, min_angle=0.5)
    assert abs(angle - 6.0) <= 1.0
    # residual skew of the corrected image is below the action threshold
    assert abs(px.estimate_skew(straight)) < 1.0
    # already-straight page: below min_angle -> unchanged, angle 0.0
    same, a0 = px.deskew(page, min_angle=0.5)
    assert a0 == 0.0 and same is page


def test_deskew_skips_sparse_content():
    # fewer than MIN_CONTENT_PIXELS dark pixels: reference skips deskew
    img = np.full((64, 64), 250, dtype=np.uint8)
    img[3:5, 10:30] = 0  # 40 dark pixels
    assert px.estimate_skew(img) == 0.0


def test_rotate_expand_bounds_and_identity():
    img = np.arange(48, dtype=np.uint8).reshape(4, 12)
    out = px.rotate_expand(img, 90.0)
    assert out.shape == (12, 4)
    ident = px.rotate_expand(img, 0.0)
    assert ident.shape == img.shape
    assert (ident == img).all()


# ------------------------------------------------------------ LAB / CLAHE


def test_lab_round_trip():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    back = px.lab_to_rgb(px.rgb_to_lab(img))
    assert np.abs(back.astype(int) - img.astype(int)).max() <= 3


def test_lab_neutral_axis():
    gray = np.full((8, 8, 3), 128, dtype=np.uint8)
    lab = px.rgb_to_lab(gray)
    # a/b of a gray pixel sit at the neutral 128 (8-bit convention)
    assert np.abs(lab[:, :, 1] - 128).max() < 1.5
    assert np.abs(lab[:, :, 2] - 128).max() < 1.5
    yellow = np.zeros((8, 8, 3), dtype=np.uint8)
    yellow[:, :] = (235, 220, 160)
    lab_y = px.rgb_to_lab(yellow)
    # aged paper: b channel well above neutral (yellow direction)
    assert lab_y[:, :, 2].mean() > 140


def test_clahe_improves_low_contrast():
    # low-contrast plane squeezed into 100..140
    rng = np.random.default_rng(3)
    gray = rng.integers(100, 141, size=(64, 64), dtype=np.uint8)
    out = px.clahe(gray)
    assert out.shape == gray.shape
    assert out.std() > gray.std()  # contrast expanded
    # uniform plane stays (nearly) uniform — clip limit bounds the slope
    flat = np.full((64, 64), 90, dtype=np.uint8)
    outf = px.clahe(flat)
    assert outf.std() < 5.0


def test_neutralize_background_removes_yellow_keeps_text():
    page = render_text_page(96, 96, n_lines=5, yellow=True)
    out = px.neutralize_background(page)
    lab_out = px.rgb_to_lab(out)
    # chroma neutralized: a/b near 128 everywhere
    assert np.abs(lab_out[:, :, 1] - 128).mean() < 4.0
    assert np.abs(lab_out[:, :, 2] - 128).mean() < 4.0
    # text/background luminance contrast preserved (text still darker)
    gray = px.to_gray(out)
    t = px.otsu_threshold(gray)
    dark = gray[gray <= t].mean()
    light = gray[gray > t].mean()
    assert light - dark > 60
