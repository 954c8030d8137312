"""Tests for content generation and language identification."""

from __future__ import annotations

import pytest

from repro.text import (
    SUPPORTED_LANGUAGES,
    LanguageDetector,
    LanguageModel,
    default_detector,
    generate_text,
)
from repro.text.langid import UnknownLanguageError


class TestGeneration:
    def test_deterministic(self) -> None:
        assert generate_text("fa", "site.af") == generate_text(
            "fa", "site.af"
        )

    def test_seed_key_varies_output(self) -> None:
        assert generate_text("en", "a.com") != generate_text("en", "b.com")

    def test_length(self) -> None:
        text = generate_text("de", "x.de", length=40)
        assert len(text.split()) == 40

    def test_unknown_language(self) -> None:
        with pytest.raises(UnknownLanguageError):
            generate_text("xx", "a.com")

    def test_all_supported_languages_generate(self) -> None:
        for code in SUPPORTED_LANGUAGES:
            assert generate_text(code, "probe.example")


class TestDetection:
    def test_roundtrip_every_language(self) -> None:
        """Generation followed by detection recovers the language."""
        detector = default_detector()
        for code in SUPPORTED_LANGUAGES:
            text = generate_text(code, f"site-{code}.example", length=30)
            assert detector.detect(text) == code, code

    def test_case_study_languages(self) -> None:
        detector = default_detector()
        assert detector.detect(generate_text("fa", "afghan-site.af")) == "fa"
        assert detector.detect(generate_text("ps", "kabul-news.af")) == "ps"

    def test_detect_ranked(self) -> None:
        detector = default_detector()
        ranked = detector.detect_ranked(
            generate_text("cs", "praha.cz"), top=3
        )
        assert ranked[0][0] == "cs"
        assert len(ranked) == 3
        assert ranked[0][1] >= ranked[1][1] >= ranked[2][1]

    def test_empty_text_rejected(self) -> None:
        with pytest.raises(UnknownLanguageError):
            default_detector().detect("   ")

    def test_gibberish_still_classifies(self) -> None:
        # Unknown tokens get smoothed mass; some language always wins.
        assert default_detector().detect("qqq zzz www") in (
            SUPPORTED_LANGUAGES
        )

    def test_custom_detector(self) -> None:
        detector = LanguageDetector(
            {
                "aa": LanguageModel("aa", ("foo", "bar")),
                "bb": LanguageModel("bb", ("baz", "qux")),
            }
        )
        assert detector.detect("foo foo baz") == "aa"
        assert detector.languages == ("aa", "bb")

    def test_empty_detector_rejected(self) -> None:
        with pytest.raises(UnknownLanguageError):
            LanguageDetector({})

    def test_empty_model_rejected(self) -> None:
        with pytest.raises(UnknownLanguageError):
            LanguageModel("xx", ())


class TestWorldIntegration:
    def test_page_content_matches_site_language(self, small_world) -> None:
        detector = default_detector()
        domain = small_world.toplists["RU"].domains[5]
        record = small_world.sites[domain]
        content = small_world.page_content(domain)
        assert detector.detect(content) == record.language

    def test_page_content_unknown_site(self, small_world) -> None:
        from repro.errors import TLSError

        with pytest.raises(TLSError):
            small_world.page_content("does-not-exist.com")

    def test_pipeline_language_detection(self, small_world) -> None:
        """The AF Persian analysis through the pipeline's LangDetect
        step (Section 5.3.3)."""
        from repro.pipeline import MeasurementPipeline

        pipeline = MeasurementPipeline(small_world, detect_language=True)
        records = pipeline.measure_country("AF")
        detected_fa = sum(1 for r in records if r.language == "fa")
        assert detected_fa / len(records) == pytest.approx(0.314, abs=0.08)
        # Detected language agrees with ground truth.
        for record in records[:50]:
            assert record.language == (
                small_world.sites[record.domain].language
            )
