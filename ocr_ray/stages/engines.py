"""OCR engine registry — the stateful heart of the actor-pool stage.

Mirrors the reference's engine architecture (T1-T3 in SURVEY.md §2.3):
engines are constructed ONCE (per actor, in ``SpanProcessor.__init__``) and
reused per batch — the reference does the same per process behind a lock
(app/services/ocr_service.py:432-482). Selection: ``auto`` picks the first
available engine, or an explicit ``tesseract`` / ``paddle`` override
(reference :492-511, request param app/routers/ocr.py:83).

Real Tesseract/Paddle binaries and image libs are absent in this sandbox,
so the working engines are deterministic mocks over
``synth.media_payload`` (media_ref → page text + per-word confidences) —
the Ray-side plumbing (actor signature, batching, confidence defaulting)
is identical to what a real engine wrapper needs. ``TesseractEngine``
shows the real-subprocess shape and raises ``NotImplementedError`` when
the binary is missing.
"""
from __future__ import annotations

import shutil
from typing import Protocol

from ocr_ray import synth

# language map kept from the reference (ocr_service.py:345-350)
LANG_MAP = {"id": "ind", "en": "eng", "mixed": "ind+eng"}

# when an engine yields no confidences, default to [0.75]
# (reference ocr_service.py:402-403)
DEFAULT_CONFIDENCES = [0.75]


class OcrEngine(Protocol):
    name: str

    def read_page(self, media_ref: str, language: str = "mixed",
                  enhance: bool = False) -> tuple[str, list[float]]:
        """One scanned page → (text, per-word confidences)."""
        ...


class MockTesseractEngine:
    """Deterministic stand-in for the Tesseract subprocess engine (T2)."""

    name = "tesseract"

    def __init__(self, language: str = "mixed"):
        self.lang = LANG_MAP.get(language, "ind+eng")

    def read_page(self, media_ref, language="mixed", enhance=False):
        text, confidences = synth.media_payload(media_ref)
        # `enhance` maps to the reference's cv2 preprocess chain
        # (ocr_service.py:145-223). The REAL numpy chain is
        # kernels/pixels.py:enhance_chain (ops/multimodal.EnhanceImage
        # stage); the mock consumes media_refs, not pixels, so the flag
        # is a no-op HERE only.
        if not confidences:
            confidences = list(DEFAULT_CONFIDENCES)
        return text, confidences


class MockPaddleEngine:
    """Deterministic stand-in for PaddleOCR (T1); same payload source but a
    distinct name so engine dispatch is observable in tests."""

    name = "paddle"

    def __init__(self, language: str = "mixed"):
        self.lang = language

    def read_page(self, media_ref, language="mixed", enhance=False):
        text, confidences = synth.media_payload(media_ref)
        if not confidences:
            confidences = list(DEFAULT_CONFIDENCES)
        return text, confidences


class TesseractEngine:
    """Real-subprocess engine (reference ocr_service.py:299-414).

    The command construction, TSV confidence parsing and defaulting are
    REAL and unit-tested against a fake runner, so a deployment's first
    run is not the first execution of this code path. What stays
    environment-gated: the tesseract binary itself and the media_ref →
    local-file resolution (S3/MinIO fetch + PDF rasterization,
    minio_service.py:30-39) — inject ``fetch`` for a real store.

    Reference behavior mirrored exactly (ocr_service.py:330-407):
    ``tesseract <img> stdout -l <lang> --oem 3 --psm 6`` for text, a
    second ``… tsv`` pass for confidences (column 11, skip conf ≤ 0,
    normalize /100), and the [0.75] default when none parse.
    """

    name = "tesseract-real"

    def __init__(self, language: str = "mixed", runner=None, fetch=None,
                 binary: str | None = None):
        self.lang = LANG_MAP.get(language, "ind+eng")
        self._runner = runner
        self._fetch = fetch
        if runner is None:
            self.binary = binary or shutil.which("tesseract")
            if self.binary is None:
                raise NotImplementedError(
                    "tesseract binary not available in this environment; "
                    "use engine='tesseract' (deterministic mock)"
                )
        else:
            self.binary = binary or "tesseract"

    def build_command(self, image_path: str, tsv: bool = False) -> list[str]:
        cmd = [
            self.binary,
            image_path,
            "stdout",
            "-l", self.lang,
            "--oem", "3",  # LSTM engine (reference ocr_service.py:357)
            "--psm", "6",  # uniform text block (:358)
        ]
        if tsv:
            cmd.append("tsv")
        return cmd

    @staticmethod
    def parse_tsv_confidences(tsv_text: str) -> list[float]:
        """Reference ocr_service.py:389-399: skip the header row, take
        column 11 (conf), drop non-numeric / ≤ 0 values (-1 = "no
        confidence"), normalize percent → [0, 1]."""
        confidences: list[float] = []
        for line in (tsv_text or "").strip().split("\n")[1:]:
            parts = line.split("\t")
            if len(parts) >= 11 and parts[10]:
                try:
                    conf = float(parts[10])
                except ValueError:
                    continue
                if conf > 0:
                    confidences.append(conf / 100.0)
        return confidences

    @staticmethod
    def _subprocess_runner(cmd: list[str], timeout: int) -> tuple[int, str]:
        import subprocess

        result = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout
        )
        return result.returncode, result.stdout or ""

    def read_page(self, media_ref, language="mixed", enhance=False):
        if self._fetch is not None:
            image_path = self._fetch(media_ref)
        else:
            image_path = media_ref  # already a local file path
        run = self._runner or self._subprocess_runner
        try:
            rc, out = run(self.build_command(image_path), 120)
        except Exception as exc:  # noqa: BLE001 - mirror reference wrap
            # reference ocr_service.py:403-407 wraps every failure
            # (timeout included) so the caller routes it as ERR_ENGINE
            raise Exception(f"Tesseract error: {exc}") from exc
        if rc != 0:
            # a failing run must not masquerade as a successful empty
            # page with default confidences
            raise Exception(f"Tesseract error: exit code {rc}")
        text = out.strip() if out else ""
        confidences: list[float] = []
        try:
            _, tsv_out = run(self.build_command(image_path, tsv=True), 120)
            confidences = self.parse_tsv_confidences(tsv_out)
        except Exception:  # noqa: BLE001 - confidence pass is best-effort
            pass  # reference :400-401: fall back to no confidence data
        if not confidences:
            confidences = list(DEFAULT_CONFIDENCES)
        return text, confidences


_REGISTRY = {
    "tesseract": MockTesseractEngine,
    "paddle": MockPaddleEngine,
    "tesseract-real": TesseractEngine,
}


def make_engine(name: str = "auto", language: str = "mixed") -> OcrEngine:
    if name in (None, "auto"):
        name = "tesseract"  # the reference's availability probe lands here too
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown OCR engine {name!r}; choose from {sorted(_REGISTRY)}")
    return cls(language=language)
