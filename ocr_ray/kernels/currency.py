"""Currency / number / date normalization for OCR output.

Reproduces ``normalize_currency_and_numbers`` from the reference
(app/services/dictionary_corrector.py:1304-1408): Rupiah format repair,
month-context year fixes, digit-lookalike translation after "Rp", and
19xx/20xx year character repair. Rule ORDER is load-bearing and matches
the reference list exactly; all rules in the first block run
case-insensitively, the "Rp"-lookbehind digit fixes are case-sensitive
(:1384-1385), as in the reference.

Most spans contain nothing any rule looks for, so on ASCII text each
rule first tests a trigger (a substring every match must contain, such
as "rp" plus a digit or a month name) and is skipped when it is absent.
The triggers are necessary conditions, so the output is unchanged.
"""
from __future__ import annotations

import re

_MONTHS = (
    r"(januari|februari|maret|april|mei|juni|juli|agustus|september|"
    r"oktober|november|desember)"
)

# (pattern, replacement, trigger) applied in order with re.IGNORECASE
# (reference rp_patterns, :1320-1366). A trigger is a necessary condition
# for its pattern to match ASCII text (see ``_Gate``): it looks for a
# substring every match must contain, in the lowercased text.
_RULES: tuple[tuple[re.Pattern, str, object], ...] = tuple(
    (re.compile(p, re.IGNORECASE), r, trigger)
    for p, r, trigger in [
        # Rp.277.-- / Rp.277,-- → Rp 277,-
        (r"Rp\.?\s*(\d+(?:[.,]\d+)*)\s*[-.,]+\s*[-]+", r"Rp \1,-",
         lambda g: g.digit and "rp" in g.low),
        # Rp.277 / Rp277 → Rp 277
        (r"Rp\.?\s*(\d+(?:[.,]\d+)*)", r"Rp \1",
         lambda g: g.digit and "rp" in g.low),
        # OCR misreads of the symbol itself: Ru.277, RPy 277
        (r"Ru\.?\s*(\d+(?:[.,]\d+)*)", r"Rp \1",
         lambda g: g.digit and "ru" in g.low),
        (r"R[Pp]y\.?\s*(\d+(?:[.,]\d+)*)", r"Rp \1",
         lambda g: g.digit and "rpy" in g.low),
        # Leading symbol noise ate the "Rp": " ..277" → " Rp 277"
        (r"(^|\s)[.:]+(\d+(?:[.,]\d+)*)(?=\s|$|[-.,])", r"\1Rp \2",
         lambda g: g.digit),
        # Year lost its leading 1 after a month name: "maret 962" → "maret 1962"
        (_MONTHS + r"\s*[,.]*\s*([98]\d{2})(?!\d)", r"\1 1\2",
         lambda g: g.digit and g.month),
        # Same, with a trailing l/I/1 misread: "maret 97l" → "maret 1971"
        (_MONTHS + r"\s*[,.]*\s*([98]\d)[lI1](?!\d)", r"\1 1\g<2>1",
         lambda g: g.digit and g.month),
        # "ll Maret" / "II Maret" → "11 Maret"
        (r"\b([lI]{2})\s+" + _MONTHS, r"11 \2", lambda g: g.month),
        # Split year rejoin with month context: "maret 19 71" → "maret 1971"
        (_MONTHS + r"\s*[,.]*\s*(19|20)\s+(\d{2})(?!\d)", r"\1 \2\3",
         lambda g: g.digit and g.month),
        # Specific amount misread
        (r"25\s*[,.]\s*[zZ]00", r"25.100", lambda g: "25" in g.low),
        # Number-word spellings mangled by OCR
        (r"\b[Pp][lI1][hbn]\b", r"puluh",
         lambda g: "pl" in g.low or "pi" in g.low or "p1" in g.low),
        (r"\b(ke\s*lima|kelima)\s+(ribu|ratus)", r"lima \2",
         lambda g: "lima" in g.low),
        (r"\bs[o0a]ratus\b", r"seratus", lambda g: "ratus" in g.low),
        # Specific name misreads
        (r"\b[Kk]asm\s*[.,]\s*nem\b", r"Kasminem", lambda g: "kasm" in g.low),
        (r"\b[Ss]ukati[l1I]\b", r"Sukati", lambda g: "sukati" in g.low),
        (r"\b[Mm]aineh\b", r"Mainah", lambda g: "maineh" in g.low),
    ]
)

# Digit-lookalike translation applied to number runs right after "Rp "/"Rp."
# (case-sensitive lookbehinds, reference :1383-1385).
_AFTER_RP = (
    re.compile(r"(?<=Rp\s)[lOoIzZsS0-9.,]+"),
    re.compile(r"(?<=Rp\.)[lOoIzZsS0-9.,]+"),
)
_LOOKALIKE = str.maketrans("lOoIzZsSb", "100122556")
_HAS_LOOKALIKE = re.compile(r"[lOoIzZsS]")
_HAS_DIGIT = re.compile(r"\d")

# Year character repair: 1g63 → 1963, 196l → 1961 (reference :1399-1406).
_YEAR_19 = re.compile(r"\b1[9g][0-9lOog]{2}\b")
_YEAR_20 = re.compile(r"\b20[0-9lOo]{2}\b")


def _fix_number_chars(m: re.Match) -> str:
    num = m.group(0)
    if _HAS_LOOKALIKE.search(num) and _HAS_DIGIT.search(num):
        return num.translate(_LOOKALIKE)
    return num


def _fix_year(m: re.Match) -> str:
    return m.group(0).replace("g", "9").replace("l", "1").replace("O", "0")


# The whole chain in reference order, each step with its trigger.
_CHAIN = _RULES + (
    (_AFTER_RP[0], _fix_number_chars, lambda g: "Rp" in g.text),
    (_AFTER_RP[1], _fix_number_chars, lambda g: "Rp" in g.text),
    (_YEAR_19, _fix_year, lambda g: "1" in g.text),
    (_YEAR_20, _fix_year, lambda g: "20" in g.text),
)
_MONTH = re.compile(_MONTHS)


class _Gate:
    """What the triggers test, for one version of an ASCII text.

    Only ASCII text is gated: under ``re.IGNORECASE`` the ASCII letters
    of a pattern also match ``ſ``, ``ı``, ``İ`` and the Kelvin sign,
    which ``str.lower()`` does not turn into ASCII, so a substring test
    on the lowercased text is a necessary condition only when the text
    is ASCII (where ``\\d`` is also just 0-9)."""

    __slots__ = ("text", "low", "digit", "month")

    def __init__(self, text: str):
        self.text = text
        self.low = text.lower()
        self.digit = _HAS_DIGIT.search(text) is not None
        self.month = _MONTH.search(self.low) is not None


def normalize_currency_and_numbers(text: str) -> str:
    """Run the chain; on ASCII text a rule whose trigger is absent is
    skipped, since it cannot match. Non-ASCII text runs every rule."""
    if not text:
        return text
    gate = _Gate(text) if text.isascii() else None
    result = text
    for pattern, repl, trigger in _CHAIN:
        if gate is not None and not trigger(gate):
            continue
        changed = pattern.sub(repl, result)
        if changed != result:
            result = changed
            if gate is not None:
                gate = _Gate(result)
    return result
