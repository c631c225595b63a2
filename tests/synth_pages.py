"""Synthetic document pages for the pixel-kernel tests (kernels/pixels.py)."""
from __future__ import annotations

import hashlib

import numpy as np


def render_text_page(
    width: int = 96,
    height: int = 96,
    n_lines: int = 6,
    yellow: bool = False,
    seed: int = 0,
) -> np.ndarray:
    """Deterministic synthetic document page: dark horizontal text-line
    stripes (with per-line jittered extents, so the content mask is not
    degenerate) on a light — optionally yellow-aged — background.
    Gives the deskew / background kernels realistic structure without
    any image library."""
    img = np.full((height, width, 3), 245, dtype=np.uint8)
    if yellow:
        # aged-paper tint: strong in R/G, weak in B
        img[:, :] = (235, 220, 160)
    rng_bytes = hashlib.sha256(f"page|{seed}".encode()).digest()
    margin_y = height // 8
    margin_x = width // 10
    band = max(2, (height - 2 * margin_y) // (2 * n_lines))
    for i in range(n_lines):
        top = margin_y + i * 2 * band
        if top + band > height - margin_y:
            break
        jitter = rng_bytes[i % len(rng_bytes)] % max(1, width // 6)
        left = margin_x + (jitter // 2)
        right = width - margin_x - (jitter - jitter // 2)
        if right > left:
            img[top:top + band, left:right] = (40, 35, 30)
    return img
