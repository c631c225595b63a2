"""Dictionary-based OCR text correction.

Reproduces the reference's correction chain byte-for-byte (reference:
app/services/dictionary_corrector.py):

1. multi-word phrase corrections, longest key first, whitespace-tolerant,
   case-preserving with ``str.title()`` for First-upper matches (:1132-1174);
2. per-token correction: exact single-word phrase table with
   ``str.capitalize()`` case style (:711-741 — note the deliberate
   title()/capitalize() asymmetry with step 1), then fuzzy kamus match for
   valid words (:651-708);
3. glued digit+word splitting (``11Septenbor`` → ``11 September``,
   :1247-1264) and symbol-delimited sub-token fallback (:1277-1293),
   whitespace preserved exactly via the ``\\S+|\\s+`` token scan (:1200).
"""
from __future__ import annotations

import functools
import re

from ocr_ray import data
from ocr_ray.kernels.fuzzy import best_dictionary_match

_TOKEN_SCAN = re.compile(r"\S+|\s+")
_NUM_THEN_WORD = re.compile(r"^(\d+)([a-zA-Z]{3,})$")
_WORD_THEN_NUM = re.compile(r"^([a-zA-Z]{3,})(\d+)$")
_AFFIXED_WORD = re.compile(r"^([^\w]*)([\w\-\']+)([^\w]*)$")
_SUBTOKEN_SPLIT = re.compile(r"([^\w\-\']+)")
_WORDLIKE = re.compile(r"^[\w\-\']+$")


def _is_correctable_word(word: str) -> bool:
    """Valid fuzzy-correction target: ≥3 chars, no digits, alphabetic
    (allowing - and ') — reference _is_valid_word (:651-667)."""
    if not word or len(word) < 3:
        return False
    if any(c.isdigit() for c in word):
        return False
    return word.replace("-", "").replace("'", "").isalpha()


@functools.lru_cache(maxsize=1 << 17)
def correct_word(word: str) -> str:
    """Correct one token via the exact phrase table, else fuzzy kamus match.

    Case style of the original is preserved: ALL-CAPS → upper, leading
    capital → ``str.capitalize()`` (reference :729-734, :701-706).

    Memoized per exact token (word repetition is Zipfian, hit rates are
    ~99% on real text); the cache is cleared whenever the run dictionary
    changes (``data.set_runtime_extra_words``).
    """
    if not word:
        return word
    lower = word.lower()

    fixed = data.phrase_corrections().get(lower)
    if fixed is not None:
        if word.isupper():
            return fixed.upper()
        if word[0].isupper():
            return fixed.capitalize()
        return fixed

    if not _is_correctable_word(word):
        return word
    match = best_dictionary_match(lower)
    if match is None:
        return word
    if word.isupper():
        return match.upper()
    if word[0].isupper():
        return match.capitalize()
    return match


@functools.lru_cache(maxsize=1)
def _multi_word_patterns() -> tuple[tuple[str, re.Pattern, str], ...]:
    """Precompiled (key, pattern, replacement) triples, longest key
    first.

    Spaces in keys match any whitespace run (incl. newlines) — the
    reference builds ``re.escape(key)`` then turns spaces into ``\\s+``
    (:1148), compiled case-insensitive. Compiled once per process (the
    reference recompiles all 277 per call — a deliberate improvement).
    Because the pattern is exactly the escaped key with flexible
    whitespace and case, "pattern can match ``text``" is EQUIVALENT to
    "key is a substring of the whitespace-normalized lowercased text",
    once the non-ASCII characters that case-fold onto ASCII letters are
    folded — the prefilter in ``apply_multi_word_corrections`` relies on
    that.
    """
    table = data.multi_word_corrections()
    out = []
    for wrong in sorted(table, key=len, reverse=True):
        pattern_str = re.escape(wrong).replace(r"\ ", " ").replace(" ", r"\s+")
        out.append((wrong, re.compile(pattern_str, re.IGNORECASE), table[wrong]))
    return tuple(out)


def _multi_repl_factory(correct: str):
    def repl(m: re.Match) -> str:
        hit = m.group(0)
        if hit.isupper():
            return correct.upper()
        if hit[0].isupper():
            return correct.title()
        return correct

    return repl


@functools.lru_cache(maxsize=1)
def _keys_by_bigram() -> tuple[tuple[str, frozenset[str]], ...]:
    """The multi-word keys grouped by their first two characters. A key
    that is a substring of a text carries those two characters into it,
    so only the groups whose bigram occurs in the text can hold a match."""
    groups: dict[str, set[str]] = {}
    for key, _, _ in _multi_word_patterns():
        groups.setdefault(key[:2], set()).add(key)
    return tuple((bigram, frozenset(keys)) for bigram, keys in groups.items())


# Under re.IGNORECASE an ASCII letter also matches these characters,
# which str.lower() does not turn into it (the Kelvin sign it does).
_FOLD_TO_ASCII = str.maketrans({"ſ": "s", "ı": "i", "İ": "i"})


def _multi_word_candidates(text: str) -> set[str]:
    """The keys whose patterns can match ``text``: the keys that are
    substrings of its whitespace-normalized lowercase form, with the
    characters ``re.IGNORECASE`` folds onto ASCII letters folded first
    (see ``_multi_word_patterns``)."""
    norm = " ".join(text.translate(_FOLD_TO_ASCII).lower().split())
    return {
        key
        for bigram, keys in _keys_by_bigram()
        if bigram in norm
        for key in keys
        if key in norm
    }


def apply_multi_word_corrections(text: str) -> str:
    """Whole-text multi-word phrase repair; First-upper matches use
    ``str.title()`` (reference :1156-1161).

    The reference runs all 277 patterns in sequence. A pattern whose key
    is not a candidate for the current text (``_multi_word_candidates``)
    cannot match it, so it is skipped: byte-identical output, a few
    regex passes on a typical span. A replacement can create a key a
    later pattern matches (33 correction values contain other keys) or
    consume one, so the candidates are recomputed whenever a
    replacement changes the text."""
    cand = _multi_word_candidates(text)
    if not cand:
        return text
    result = text
    for key, pattern, correct in _multi_word_patterns():
        if key not in cand:
            continue
        changed = pattern.sub(_multi_repl_factory(correct), result)
        if changed != result:
            result = changed
            cand = _multi_word_candidates(result)
    return result


def correct_text(text: str) -> str:
    """Multi-word pass then per-token pass, whitespace preserved
    (reference correct_text :1179-1217)."""
    return correct_with_stats(text)[0]


def correct_with_stats(text: str) -> tuple[str, int]:
    """Full dictionary correction; returns (corrected_text, n_corrections)
    (reference correct_with_stats :1220-1297)."""
    if not text:
        return text, 0

    text = apply_multi_word_corrections(text)

    out: list[str] = []
    corrections = 0

    def fix(word: str) -> str:
        nonlocal corrections
        corrected = correct_word(word)
        if corrected != word:
            corrections += 1
        return corrected

    for token in _TOKEN_SCAN.findall(text):
        if not token.strip():
            out.append(token)
            continue
        if token.isalpha():
            # the common case: neither glued-digit regex can match, and
            # the affixed-word regex matches the whole token (\w ⊇ alpha)
            out.append(fix(token))
            continue

        glued = _NUM_THEN_WORD.match(token)
        if glued:
            num, word = glued.groups()
            out.append(num + " " + fix(word))
            continue
        glued = _WORD_THEN_NUM.match(token)
        if glued:
            word, num = glued.groups()
            out.append(fix(word) + " " + num)
            continue

        affixed = _AFFIXED_WORD.match(token)
        if affixed:
            prefix, word, suffix = affixed.groups()
            out.append(prefix + fix(word) + suffix)
            continue

        # Symbols inside the token (e.g. "Dopartoron/wta"): correct each
        # word-like piece, keep delimiters verbatim.
        pieces = []
        for sub in _SUBTOKEN_SPLIT.split(token):
            if not sub:
                continue
            pieces.append(fix(sub) if _WORDLIKE.match(sub) else sub)
        out.append("".join(pieces))

    return "".join(out), corrections
