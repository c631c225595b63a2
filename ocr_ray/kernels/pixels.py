"""Pure-numpy image kernels (SURVEY §2.2 rows M3-M6).

These reimplement the reference's image preprocessing semantics
(reference app/services/ocr_service.py):

- ``resize_if_needed`` — the max-dimension resize guard
  (``resize_gambar_kalau_perlu``, ocr_service.py:19-39): only resize
  when a dimension exceeds the cap, aspect preserved via truncating
  int scaling. The reference uses PIL LANCZOS; this kernel uses
  bilinear (documented deviation — no PIL in this container, and the
  downstream consumer is OCR, not display).
- ``estimate_skew`` / ``rotate_expand`` — deskew (``_deskew_image``,
  ocr_service.py:42-89): Otsu inverse threshold for the content mask,
  skip under 100 content pixels, skip |angle| < 0.5°, rotate with
  expanded bounds and replicated borders. The reference derives the
  angle from ``cv2.minAreaRect``; this kernel uses projection-profile
  variance maximization (Postl's method — published, more robust on
  multi-line text than minAreaRect, which keys on the hull of ALL
  content). Same correction convention: rotating by the returned angle
  (CCW-positive, as in ``cv2.getRotationMatrix2D``) straightens the
  text.
- ``neutralize_background`` — yellow/aged-paper removal
  (``_remove_yellow_background``, ocr_service.py:93-122): convert to
  LAB, CLAHE on L (clip 3.0, 8x8 tiles), force a/b to neutral, convert
  back. CLAHE and the LAB round-trip are implemented here in numpy;
  values follow the 8-bit convention (L,a,b in 0..255, neutral
  a=b=128) so the reference's "neutral = 128" semantics carry over.

Everything operates on ``np.ndarray`` images — (H, W) grayscale or
(H, W, 3) RGB, dtype uint8 — and is vectorized per image (the image is
the batch unit; no per-pixel Python).
"""
from __future__ import annotations

import numpy as np

# --------------------------------------------------------------- resize


def resize_if_needed(img: np.ndarray, max_dimension: int) -> np.ndarray:
    """Cap the max dimension, preserving aspect ratio; no-op when the
    image is already small enough (reference ocr_service.py:19-39)."""
    h, w = img.shape[:2]
    if w <= max_dimension and h <= max_dimension:
        return img
    ratio = max_dimension / (w if w > h else h)
    return bilinear_resize(img, int(w * ratio), int(h * ratio))


def bilinear_resize(img: np.ndarray, new_w: int, new_h: int) -> np.ndarray:
    """Vectorized bilinear resample to (new_h, new_w)."""
    h, w = img.shape[:2]
    new_w, new_h = max(1, new_w), max(1, new_h)
    # sample at pixel centers (align half-pixel, the standard convention)
    xs = (np.arange(new_w) + 0.5) * (w / new_w) - 0.5
    ys = (np.arange(new_h) + 0.5) * (h / new_h) - 0.5
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = np.clip(xs - x0, 0.0, 1.0)
    fy = np.clip(ys - y0, 0.0, 1.0)

    arr = img.astype(np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    top = arr[y0][:, x0] * (1 - fx)[None, :, None] + arr[y0][:, x1] * fx[None, :, None]
    bot = arr[y1][:, x0] * (1 - fx)[None, :, None] + arr[y1][:, x1] * fx[None, :, None]
    out = top * (1 - fy)[:, None, None] + bot * fy[:, None, None]
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out[:, :, 0] if img.ndim == 2 else out


# ----------------------------------------------------------------- otsu


def otsu_threshold(gray: np.ndarray) -> int:
    """Otsu's global threshold on a uint8 grayscale image: the level
    maximizing between-class variance of the histogram. Convention:
    class 0 (content/dark) is ``gray <= t`` (matches cv2 THRESH_OTSU,
    where pixels > t become the background class)."""
    hist = np.bincount(gray.reshape(-1), minlength=256).astype(np.float64)
    total = hist.sum()
    if total == 0:
        return 0
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    w1 = total - w0
    sum0 = np.cumsum(hist * levels)
    sum_all = sum0[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = sum0 / w0
        mu1 = (sum_all - sum0) / w1
        between = w0 * w1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = -1.0
    return int(np.argmax(between))


def to_gray(img: np.ndarray) -> np.ndarray:
    """Luma grayscale (ITU-R BT.601 weights, the cv2 default)."""
    if img.ndim == 2:
        return img
    f = img.astype(np.float32)
    return np.clip(
        np.rint(0.299 * f[:, :, 0] + 0.587 * f[:, :, 1] + 0.114 * f[:, :, 2]),
        0, 255,
    ).astype(np.uint8)


# --------------------------------------------------------------- deskew

MIN_CONTENT_PIXELS = 100  # reference ocr_service.py:53


def estimate_skew(
    img: np.ndarray,
    max_angle: float = 15.0,
    coarse_step: float = 0.5,
    fine_step: float = 0.1,
) -> float:
    """Estimate text-line skew in degrees via projection-profile
    variance maximization (Postl's method): the rotation angle whose
    row-projection of the content mask has maximal variance is the
    angle at which text lines are horizontal.

    Returns the angle (CCW-positive) by which the content is currently
    rotated; rotating the image by ``-angle`` straightens it — i.e.
    pass the NEGATED value to :func:`rotate_expand` to correct, or
    equivalently ``rotate_expand(img, correction)`` with
    ``correction = -estimate_skew(img)`` (the reference's minAreaRect
    angle has the same magnitude and its rotation call absorbs the
    sign). Returns 0.0 when there is too little content
    (< MIN_CONTENT_PIXELS, reference ocr_service.py:53-54).
    """
    gray = to_gray(img)
    thresh = otsu_threshold(gray)
    ys, xs = np.nonzero(gray <= thresh)  # dark content on light paper
    if ys.size < MIN_CONTENT_PIXELS:
        return 0.0
    yc = ys.astype(np.float64) - gray.shape[0] / 2.0
    xc = xs.astype(np.float64) - gray.shape[1] / 2.0
    n_bins = gray.shape[0] + gray.shape[1]

    def profile_var(angle_deg: float) -> float:
        t = np.deg2rad(angle_deg)
        # y-coordinate after undoing a rotate_expand(angle) — the sign
        # pairs with rotate_expand's convention so that an image
        # produced by rotate_expand(page, a) estimates as a
        yr = yc * np.cos(t) + xc * np.sin(t)
        rows = np.clip(
            (yr + n_bins / 2).astype(np.int64), 0, n_bins - 1
        )
        counts = np.bincount(rows, minlength=n_bins).astype(np.float64)
        return float(counts.var())

    coarse = np.arange(-max_angle, max_angle + coarse_step / 2, coarse_step)
    best = max(coarse, key=profile_var)
    fine = np.arange(
        best - coarse_step, best + coarse_step + fine_step / 2, fine_step
    )
    return float(max(fine, key=profile_var))


def rotate_expand(img: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate CCW by ``angle_deg`` about the center with bounds expanded
    to hold the whole rotated image and borders replicated — the
    reference's warpAffine geometry (ocr_service.py:69-85), bilinear
    sampling (reference uses INTER_CUBIC; documented deviation)."""
    h, w = img.shape[:2]
    t = np.deg2rad(angle_deg)
    cos, sin = np.cos(t), np.sin(t)
    new_w = int(h * abs(sin) + w * abs(cos))
    new_h = int(h * abs(cos) + w * abs(sin))
    # inverse map: for each destination pixel, source coordinate
    dx = np.arange(new_w) - new_w / 2.0 + 0.5
    dy = np.arange(new_h) - new_h / 2.0 + 0.5
    gx, gy = np.meshgrid(dx, dy)
    # inverse rotation (CW by angle) back into source frame
    sx = gx * cos - gy * sin + w / 2.0 - 0.5
    sy = gx * sin + gy * cos + h / 2.0 - 0.5
    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = sx - x0
    fy = sy - y0
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)

    arr = img.astype(np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    fxe = fx[:, :, None]
    fye = fy[:, :, None]
    top = arr[y0c, x0c] * (1 - fxe) + arr[y0c, x1c] * fxe
    bot = arr[y1c, x0c] * (1 - fxe) + arr[y1c, x1c] * fxe
    out = np.clip(np.rint(top * (1 - fye) + bot * fye), 0, 255).astype(np.uint8)
    return out[:, :, 0] if img.ndim == 2 else out


def deskew(
    img: np.ndarray, min_angle: float = 0.5
) -> tuple[np.ndarray, float]:
    """Full deskew pass (reference _deskew_image semantics): estimate
    the skew; below ``min_angle`` degrees return the input unchanged
    with angle 0.0; otherwise return the straightened image and the
    measured angle."""
    angle = estimate_skew(img)
    if abs(angle) < min_angle:
        return img, 0.0
    return rotate_expand(img, -angle), angle


# ------------------------------------------------------------------ LAB


def rgb_to_lab(img: np.ndarray) -> np.ndarray:
    """sRGB (uint8) → CIE LAB in the 8-bit convention: L,a,b scaled to
    0..255 with a=b=128 neutral (matches the reference's cv2 usage)."""
    f = img.astype(np.float64) / 255.0
    # sRGB companding → linear
    lin = np.where(f <= 0.04045, f / 12.92, ((f + 0.055) / 1.055) ** 2.4)
    r, g, b = lin[:, :, 0], lin[:, :, 1], lin[:, :, 2]
    # D65 sRGB matrix
    x = 0.4124564 * r + 0.3575761 * g + 0.1804375 * b
    y = 0.2126729 * r + 0.7151522 * g + 0.0721750 * b
    z = 0.0193339 * r + 0.1191920 * g + 0.9503041 * b
    xn, yn, zn = 0.95047, 1.0, 1.08883
    def fband(v):
        return np.where(v > 0.008856, np.cbrt(v), 7.787 * v + 16.0 / 116.0)
    fx, fy, fz = fband(x / xn), fband(y / yn), fband(z / zn)
    L = 116.0 * fy - 16.0          # 0..100
    a = 500.0 * (fx - fy)          # ~-128..127
    bb = 200.0 * (fy - fz)
    out = np.empty_like(f)
    out[:, :, 0] = L * 255.0 / 100.0
    out[:, :, 1] = a + 128.0
    out[:, :, 2] = bb + 128.0
    return np.clip(out, 0.0, 255.0)


def lab_to_rgb(lab: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rgb_to_lab` (8-bit-convention LAB → sRGB uint8)."""
    L = lab[:, :, 0] * 100.0 / 255.0
    a = lab[:, :, 1] - 128.0
    bb = lab[:, :, 2] - 128.0
    fy = (L + 16.0) / 116.0
    fx = fy + a / 500.0
    fz = fy - bb / 200.0
    def inv(fv):
        v3 = fv ** 3
        return np.where(v3 > 0.008856, v3, (fv - 16.0 / 116.0) / 7.787)
    xn, yn, zn = 0.95047, 1.0, 1.08883
    x, y, z = inv(fx) * xn, inv(fy) * yn, inv(fz) * zn
    r = 3.2404542 * x - 1.5371385 * y - 0.4985314 * z
    g = -0.9692660 * x + 1.8760108 * y + 0.0415560 * z
    b = 0.0556434 * x - 0.2040259 * y + 1.0572252 * z
    lin = np.stack([r, g, b], axis=2)
    lin = np.clip(lin, 0.0, 1.0)
    srgb = np.where(
        lin <= 0.0031308, lin * 12.92, 1.055 * lin ** (1 / 2.4) - 0.055
    )
    return np.clip(np.rint(srgb * 255.0), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------- CLAHE


def clahe(
    gray: np.ndarray, clip_limit: float = 3.0, tiles: int = 8
) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization on a uint8
    plane — the reference's createCLAHE(clipLimit=3.0, tileGridSize=
    (8,8)) step. Per-tile clipped histograms with excess redistributed,
    CDF lookup tables, and bilinear interpolation between the four
    neighboring tile mappings (the standard CLAHE construction)."""
    g = np.asarray(gray, dtype=np.uint8)
    h, w = g.shape
    ty = max(1, min(tiles, h))
    tx = max(1, min(tiles, w))
    # tile edges (cover the full image; last tile absorbs the remainder)
    ye = np.linspace(0, h, ty + 1).astype(np.int64)
    xe = np.linspace(0, w, tx + 1).astype(np.int64)
    luts = np.empty((ty, tx, 256), dtype=np.float32)
    for i in range(ty):
        for j in range(tx):
            tile = g[ye[i]:ye[i + 1], xe[j]:xe[j + 1]]
            n = tile.size
            hist = np.bincount(tile.reshape(-1), minlength=256).astype(
                np.float64
            )
            # cv2-style clip limit: scaled by tile size
            climit = max(1.0, clip_limit * n / 256.0)
            excess = np.maximum(hist - climit, 0.0).sum()
            hist = np.minimum(hist, climit) + excess / 256.0
            cdf = np.cumsum(hist)
            cdf_min = cdf[np.argmax(cdf > 0)] if n else 0.0
            denom = max(n - cdf_min, 1.0)
            luts[i, j] = np.clip(
                (cdf - cdf_min) / denom * 255.0, 0.0, 255.0
            ).astype(np.float32)

    # bilinear blend of the four surrounding tile LUTs at each pixel
    cy = (ye[:-1] + ye[1:]) / 2.0  # tile centers
    cx = (xe[:-1] + xe[1:]) / 2.0
    yy = np.arange(h, dtype=np.float64)
    xx = np.arange(w, dtype=np.float64)
    iy = np.clip(np.searchsorted(cy, yy) - 1, 0, ty - 2) if ty > 1 else np.zeros(h, np.int64)
    ix = np.clip(np.searchsorted(cx, xx) - 1, 0, tx - 2) if tx > 1 else np.zeros(w, np.int64)
    if ty > 1:
        wy = np.clip((yy - cy[iy]) / np.maximum(cy[iy + 1] - cy[iy], 1e-9), 0, 1)
        iy1 = iy + 1
    else:
        wy = np.zeros(h)
        iy1 = iy
    if tx > 1:
        wx = np.clip((xx - cx[ix]) / np.maximum(cx[ix + 1] - cx[ix], 1e-9), 0, 1)
        ix1 = ix + 1
    else:
        wx = np.zeros(w)
        ix1 = ix

    v = g.astype(np.int64)
    iy_g = iy[:, None]
    iy1_g = iy1[:, None]
    ix_g = ix[None, :]
    ix1_g = ix1[None, :]
    t00 = luts[iy_g, ix_g, v]
    t01 = luts[iy_g, ix1_g, v]
    t10 = luts[iy1_g, ix_g, v]
    t11 = luts[iy1_g, ix1_g, v]
    wyg = wy[:, None]
    wxg = wx[None, :]
    out = (
        t00 * (1 - wyg) * (1 - wxg)
        + t01 * (1 - wyg) * wxg
        + t10 * wyg * (1 - wxg)
        + t11 * wyg * wxg
    )
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def neutralize_background(img: np.ndarray) -> np.ndarray:
    """Yellow/aged-paper removal (reference _remove_yellow_background,
    ocr_service.py:93-122): LAB split, CLAHE on L, a/b forced to the
    neutral 128, merge, convert back to RGB."""
    lab = rgb_to_lab(img)
    L = clahe(np.clip(np.rint(lab[:, :, 0]), 0, 255).astype(np.uint8))
    out = np.empty_like(lab)
    out[:, :, 0] = L
    out[:, :, 1] = 128.0
    out[:, :, 2] = 128.0
    return lab_to_rgb(out)


# ---------------------------------------------------------- M6 enhance

def thicken_text(gray: np.ndarray) -> np.ndarray:
    """Morphological text thickening (reference preprocess_gambar step
    3, ocr_service.py:191-198): invert (text → white), dilate with a
    2×2 ones kernel, invert back. OpenCV's default anchor for a 2×2
    kernel is its center index (1, 1), so the dilation maximum runs
    over {self, top, left, top-left}; out-of-bounds neighbors
    contribute nothing (cv2 uses -inf border for dilate)."""
    g = np.asarray(gray, dtype=np.uint8)
    inv = 255 - g
    p = np.zeros((g.shape[0] + 1, g.shape[1] + 1), np.uint8)
    p[1:, 1:] = inv
    dil = np.maximum.reduce(
        [p[1:, 1:], p[:-1, 1:], p[1:, :-1], p[:-1, :-1]]
    )
    return (255 - dil).astype(np.uint8)


def _gaussian_kernel1d(sigma: float) -> np.ndarray:
    """cv2.GaussianBlur's automatic kernel for 8-bit input and
    ksize=(0,0): ksize = round(sigma·3·2 + 1) | 1, weights
    exp(-(i-c)²/2σ²) normalized (getGaussianKernel)."""
    k = int(round(sigma * 3 * 2 + 1)) | 1
    c = (k - 1) / 2.0
    x = np.arange(k, dtype=np.float64)
    w = np.exp(-((x - c) ** 2) / (2.0 * sigma * sigma))
    return w / w.sum()


def gaussian_blur_u8(gray: np.ndarray, sigma: float = 2.0) -> np.ndarray:
    """Separable Gaussian blur with reflect-101 borders (cv2's
    BORDER_DEFAULT: edge pixel not repeated — numpy pad mode
    'reflect'), rounded half-to-even back to uint8."""
    k = _gaussian_kernel1d(sigma)
    r = len(k) // 2
    g = np.asarray(gray, dtype=np.float64)
    w = g.shape[1]
    p = np.pad(g, ((0, 0), (r, r)), mode="reflect")
    h = np.zeros_like(g)
    for i, kv in enumerate(k):  # one vectorized add per tap (13 taps)
        h += kv * p[:, i : i + w]
    rows = g.shape[0]
    p2 = np.pad(h, ((r, r), (0, 0)), mode="reflect")
    v = np.zeros_like(g)
    for i, kv in enumerate(k):
        v += kv * p2[i : i + rows, :]
    return np.clip(np.rint(v), 0, 255).astype(np.uint8)


def unsharp_mask(
    gray: np.ndarray,
    sigma: float = 2.0,
    sharp_weight: float = 1.8,
    blur_weight: float = -0.8,
) -> np.ndarray:
    """Unsharp masking (step 4, ocr_service.py:200-203):
    addWeighted(src, 1.8, GaussianBlur(src, σ=2), −0.8, 0), saturated
    uint8 with round-half-even (cvRound)."""
    g = np.asarray(gray, dtype=np.float64)
    b = gaussian_blur_u8(gray, sigma).astype(np.float64)
    return np.clip(
        np.rint(sharp_weight * g + blur_weight * b), 0, 255
    ).astype(np.uint8)


def contrast_scale_abs(
    gray: np.ndarray, alpha: float = 1.3, beta: float = -30.0
) -> np.ndarray:
    """Final contrast boost (step 5, ocr_service.py:205-210):
    convertScaleAbs = saturate(round(|α·v + β|)) — note cv2 takes the
    ABSOLUTE value, so very dark pixels brighten slightly rather than
    clamping at 0 (β=−30, v=0 → 30); mirrored exactly."""
    v = np.asarray(gray, dtype=np.float64) * alpha + beta
    return np.clip(np.rint(np.abs(v)), 0, 255).astype(np.uint8)


def enhance_chain(img: np.ndarray) -> np.ndarray:
    """The COMPLETE 5-step preprocess chain (reference
    preprocess_gambar, ocr_service.py:145-223) on an (H, W, 3) uint8
    RGB page, all numpy:

    1. LAB neutralize (kill aged-paper yellow) → grayscale
    2. CLAHE, clipLimit 4.0, 8×8 tiles (the stronger per-chain limit —
       _remove_yellow_background's own CLAHE uses 3.0)
    3. 2×2 morphological dilation text thickening
    4. unsharp masking (σ=2, 1.8/−0.8)
    5. convertScaleAbs contrast (α=1.3, β=−30)

    Returns the enhanced page re-expanded to (H, W, 3) RGB, matching
    the reference's final ``Image.fromarray(final).convert('RGB')``."""
    neutral = neutralize_background(np.asarray(img, dtype=np.uint8))
    gray = to_gray(neutral)
    g = clahe(gray, clip_limit=4.0, tiles=8)
    g = thicken_text(g)
    g = unsharp_mask(g)
    g = contrast_scale_abs(g)
    return np.repeat(g[:, :, None], 3, axis=2)
