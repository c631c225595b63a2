"""Deterministic fuzzy dictionary matching.

Reimplements what the reference gets from rapidfuzz (not available here):
``fuzz.ratio`` is the normalized InDel similarity
``100 * 2*LCS(a,b) / (len(a)+len(b))`` and ``process.extractOne(..,
score_cutoff=t)`` picks the best-scoring candidate (reference:
app/services/dictionary_corrector.py:670-708).

The reference iterates a Python *set*, so ties are resolved in hash order —
nondeterministic across processes. This engine freezes a deterministic spec
instead: candidates are scanned in sorted order and the FIRST strict
improvement wins, i.e. ties resolve to the lexicographically smallest
candidate (SURVEY.md §7.3 item 2).
"""
from __future__ import annotations

import functools

import numpy as np

from ocr_ray import data


def indel_ratio(a: str, b: str) -> float:
    """Normalized InDel similarity in [0, 100] (rapidfuzz fuzz.ratio)."""
    if not a and not b:
        return 100.0
    total = len(a) + len(b)
    if total == 0:
        return 100.0
    return 200.0 * _lcs_len(a, b) / total


def _lcs_len(a: str, b: str) -> int:
    """Longest-common-subsequence length, O(len(a)*len(b)) with a rolling row."""
    if not a or not b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        append = cur.append
        best = 0
        for j, cb in enumerate(b):
            if ca == cb:
                best = prev[j] + 1
            elif prev[j + 1] > best:
                best = prev[j + 1]
            append(best)
        prev = cur
    return prev[-1]


@functools.lru_cache(maxsize=1)
def _kamus_char_index():
    """Vectorized pruning structures: per-candidate length vector and a
    (128 × n_candidates) ASCII character-count matrix, one row per
    character. Since the LCS is a common subsequence of both strings,
    ``LCS(a,b) ≤ Σ_c min(count_a(c), count_b(c))``, giving a cheap upper
    bound on the indel ratio for the whole kamus in one numpy pass. Only
    the characters of the word contribute to that sum, so the pass reads
    just their rows."""
    cands = data.kamus_sorted()
    lengths = np.array([len(c) for c in cands], dtype=np.float64)
    counts = np.zeros((len(cands), 128), dtype=np.int16)
    for i, cand in enumerate(cands):
        b = np.frombuffer(cand.encode("ascii", "replace"), dtype=np.uint8)
        counts[i] = np.bincount(b & 0x7F, minlength=128)
    return cands, lengths, np.ascontiguousarray(counts.T)


def _ratio_bound(word_lower: str) -> np.ndarray:
    """The character-count upper bound on ``indel_ratio(word_lower, c)``
    for every kamus candidate ``c``, in ``kamus_sorted()`` order."""
    _, lengths, by_char = _kamus_char_index()
    wb = np.frombuffer(word_lower.encode("ascii", "replace"), dtype=np.uint8)
    wcounts = np.bincount(wb & 0x7F, minlength=128).astype(np.int16)
    chars = np.flatnonzero(wcounts)
    common = np.minimum(by_char[chars], wcounts[chars, None]).sum(axis=0)
    return 200.0 * common / (lengths + len(word_lower))


@functools.lru_cache(maxsize=65536)
def best_dictionary_match(word_lower: str, threshold: int = 65) -> str | None:
    """Best kamus entry with similarity ≥ threshold, or None.

    Mirrors the reference's extractOne call (dictionary_corrector.py:691-696)
    with the deterministic tie-break described above. Words already in the
    kamus return None ("no correction needed", reference :687-688).

    Hot-path engineering (semantics unchanged): candidates are pruned by
    the character-count LCS upper bound (one numpy pass over the kamus),
    so only a handful of near-miss candidates pay the O(|a|·|b|) LCS;
    results are LRU-cached per process (OCR noise repeats heavily).
    """
    if word_lower in data.kamus():
        return None

    cands = _kamus_char_index()[0]
    bound = _ratio_bound(word_lower)
    viable = np.flatnonzero(bound >= threshold)

    best: str | None = None
    best_score = -1.0
    for i in viable:
        if bound[i] < best_score:
            continue
        cand = cands[i]
        score = indel_ratio(word_lower, cand)
        if score < threshold:
            continue
        if score > best_score or (score == best_score and cand < best):
            best, best_score = cand, score
    return best
