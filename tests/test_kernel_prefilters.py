"""Differential tests of the repair kernels' prefilters. Each fast path is
compared with its unfiltered form, written here as the oracle:

- the currency chain's triggers against every rule run in sequence,
  on text that holds the characters ``re.IGNORECASE`` folds onto ASCII
  letters (``ſ ı İ`` and the Kelvin sign) and non-ASCII digits;
- the multi-word bigram candidate set against the full key scan, on the
  text and on its rewrite, and the whole multi-word pass against the
  reference's sequential loop over every pattern, on text with folding
  characters too;
- the fuzzy match's column-restricted character-count bound against the
  full-matrix bound, over the whole kamus;
- the ``isalpha`` token shortcut against the regex token path.
"""
from __future__ import annotations

import functools
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ocr_ray import data
from ocr_ray.kernels import currency, dictionary, fuzzy
from ocr_ray.kernels.dictionary import (
    _AFFIXED_WORD,
    _NUM_THEN_WORD,
    _SUBTOKEN_SPLIT,
    _TOKEN_SCAN,
    _WORD_THEN_NUM,
    _WORDLIKE,
    correct_word,
)

# the non-ASCII characters ASCII letters match under re.IGNORECASE, and
# digits that \d matches outside ASCII
_FOLDING = "ſıİ\u212a"  # the last is the Kelvin sign
_FOLD = str.maketrans({"ſ": "s", "ı": "i", "İ": "i", "\u212a": "k"})
_DIGITS = "٣१１"
_TRIGGERS = [
    "Rp", "rp.", "RP", "Ru.", "RPy", "rpy ", "Rp ", "Rp.", "..", ": ",
    "maret", "MEI", "Juni", "desember", "ll ", "II ", "19 ", "20 ",
    "25,z00", "25.Z00", "pl1", "Plh", "pIn", "ke lima", "kelima", "ribu",
    "ratus", "soratus", "s0ratus", "Kasm.nem", "kasm , nem", "Sukatil",
    "sukati1", "Maineh", "1g63", "196l", "20lO", "1O", "zZsSoOlI",
]
_ALPHABET = "abcdeghiklmnoprstuyzRPIKS0123456789 .,:-\n" + _FOLDING + _DIGITS


currency_text = st.lists(
    st.one_of(
        st.sampled_from(_TRIGGERS),
        st.text(alphabet=_ALPHABET, min_size=1, max_size=6),
    ),
    max_size=14,
).map("".join)


def _all_rules(text: str) -> str:
    """The reference chain: every rule, in order, on every text."""
    if not text:
        return text
    for pattern, repl, _ in currency._CHAIN:
        text = pattern.sub(repl, text)
    return text


def test_currency_chain_has_every_rule():
    # 16 rewrite rules, two "Rp" digit fixes and two year fixes
    assert len(currency._CHAIN) == 20


@settings(max_examples=400, deadline=None)
@given(currency_text)
def test_currency_gates_match_every_rule_in_sequence(text):
    assert currency.normalize_currency_and_numbers(text) == _all_rules(text)


@settings(max_examples=200, deadline=None)
@given(currency_text.map(lambda t: t.encode("ascii", "ignore").decode()))
def test_currency_gates_on_ascii_text(text):
    assert currency.normalize_currency_and_numbers(text) == _all_rules(text)


def test_currency_case_folding_characters_run_every_rule():
    # each text matches its rule only through a folded character, which
    # a substring test on the lowercased text would not see
    folded = {
        "ſukatil": "Sukati",
        "\u212aasm.nem": "Kasminem",
        "ſoratus": "seratus",
        "İI Maret": "11 Maret",
        "pıh": "puluh",
    }
    for text, expected in folded.items():
        assert currency.normalize_currency_and_numbers(text) == expected
        assert _all_rules(text) == expected


def _keys() -> list[str]:
    return [key for key, _, _ in dictionary._multi_word_patterns()]


def _norm(text: str) -> str:
    return " ".join(text.lower().split())


def _full_scan(norm: str) -> set[str]:
    return {key for key in _keys() if key in norm}


def _sequential(text: str) -> str:
    """The reference loop: every multi-word pattern, longest first."""
    for _, pattern, correct in dictionary._multi_word_patterns():
        text = pattern.sub(dictionary._multi_repl_factory(correct), text)
    return text


@functools.lru_cache(maxsize=1)
def _key_pieces() -> list[str]:
    pieces = []
    for key in _keys():
        pieces += [key, key.upper(), key.title(), key.replace(" ", "\n  "), key[1:]]
        pieces += key.split()
    return pieces


multi_word_text = st.lists(
    st.one_of(
        st.sampled_from(_key_pieces()),
        st.text(alphabet="abdegiklmnprstuj .2" + _FOLDING, min_size=1, max_size=5),
    ),
    max_size=10,
).map(" ".join)


def test_folding_characters_are_the_case_folded_ascii_letters():
    # every non-ASCII character an ASCII letter matches under IGNORECASE
    letter = re.compile("[a-z]", re.IGNORECASE)
    folding = {chr(i) for i in range(128, 0x110000) if letter.fullmatch(chr(i))}
    assert folding == set(_FOLDING)
    for ch in _FOLDING:
        folded = ch.translate(dictionary._FOLD_TO_ASCII).lower()
        assert folded.isascii() and re.fullmatch(folded, ch, re.IGNORECASE)


def test_every_multi_word_key_is_grouped():
    # the fold above is exact only for lowercase ASCII keys
    assert all(key.isascii() and key == key.lower() for key in _keys())
    grouped = sorted(k for _, keys in dictionary._keys_by_bigram() for k in keys)
    assert grouped == sorted(_keys())


@settings(max_examples=300, deadline=None)
@given(multi_word_text)
def test_bigram_candidates_match_full_scan(text):
    rewritten = dictionary.apply_multi_word_corrections(text)
    for version in (text, rewritten):
        got = dictionary._multi_word_candidates(version)
        assert got == _full_scan(_norm(version.translate(_FOLD)))
    assert rewritten == _sequential(text)


def test_multi_word_pass_follows_the_sequence():
    # a replacement creates the key "tenaga istri", which a later
    # candidate ("istri") would consume before a check on the final text
    text = "departemen pekerjaan umum pan tenaca istri"
    expected = "departemen pekerjaan umum dan tenaga listerik"
    assert _sequential(text) == expected
    assert dictionary.apply_multi_word_corrections(text) == expected
    # keys match folded characters: "ſalinan" is "salinan" to the pattern
    for text in ("ſalinan", "bertanda tangan dibawah ını"):
        assert dictionary.apply_multi_word_corrections(text) == _sequential(text)
        assert _sequential(text) != text


@functools.lru_cache(maxsize=1)
def _full_matrix():
    """The (candidates × 128) count matrix, built from the kamus here."""
    cands = data.kamus_sorted()
    counts = np.zeros((len(cands), 128), dtype=np.int16)
    for i, cand in enumerate(cands):
        b = np.frombuffer(cand.encode("ascii", "replace"), dtype=np.uint8)
        counts[i] = np.bincount(b & 0x7F, minlength=128)
    lengths = np.array([len(c) for c in cands], dtype=np.float64)
    return counts, lengths


def _full_bound(word: str) -> np.ndarray:
    counts, lengths = _full_matrix()
    wb = np.frombuffer(word.encode("ascii", "replace"), dtype=np.uint8)
    wcounts = np.bincount(wb & 0x7F, minlength=128).astype(np.int16)
    common = np.minimum(counts, wcounts[None, :]).sum(axis=1)
    return 200.0 * common / (lengths + len(word))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz-'", min_size=3, max_size=16),
        st.text(alphabet="aeiunrst" + _FOLDING + "éü?", min_size=1, max_size=12),
        st.sampled_from(data.kamus_sorted()),
    )
)
def test_column_bound_matches_full_matrix(word):
    bound = fuzzy._ratio_bound(word)
    full = _full_bound(word)
    assert bound.dtype == full.dtype
    assert np.array_equal(bound, full)


def _regex_token_path(text: str) -> tuple[str, int]:
    """``correct_with_stats`` without the isalpha shortcut: every token
    goes through the glued-digit and affixed-word regexes."""
    text = dictionary.apply_multi_word_corrections(text)
    out, corrections = [], 0

    def fix(word):
        nonlocal corrections
        corrected = correct_word(word)
        corrections += corrected != word
        return corrected

    for token in _TOKEN_SCAN.findall(text):
        if not token.strip():
            out.append(token)
        elif glued := _NUM_THEN_WORD.match(token):
            out.append(glued[1] + " " + fix(glued[2]))
        elif glued := _WORD_THEN_NUM.match(token):
            out.append(fix(glued[1]) + " " + glued[2])
        elif affixed := _AFFIXED_WORD.match(token):
            out.append(affixed[1] + fix(affixed[2]) + affixed[3])
        else:
            out.append("".join(
                fix(sub) if _WORDLIKE.match(sub) else sub
                for sub in _SUBTOKEN_SPLIT.split(token)
                if sub
            ))
    return "".join(out), corrections


token_text = st.lists(
    st.one_of(
        st.sampled_from(["djalan", "Jelan", "KRAMET", "11Septenbor", "rumah2",
                         "(jelan)", "Dopartoron/wta", "ke-lima", "'salinan'"]),
        st.text(alphabet="abdegijklmnprstuADJKS1_-'./() \n" + _FOLDING + "é٣",
                min_size=1, max_size=10),
    ),
    max_size=12,
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(token_text)
def test_isalpha_tokens_take_the_regex_path_result(text):
    got = dictionary.correct_with_stats(text) if text else (text, 0)
    assert got == (_regex_token_path(text) if text else (text, 0))
