"""Scalar-function goldens (FIXTURES.md F5)."""

import hashlib
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from pdf_extractor_ray.kernel.tables import calculate_iou
from pdf_extractor_ray.kernel.textutils import (
    clean_section_title,
    decode_bytes,
    hash_string,
    text_similarity,
    token_count,
)


class TestIoU:
    def test_partial_overlap_one_seventh(self):
        # reference golden: utils.py __main__ (1x1 overlap of two 2x2 boxes)
        assert calculate_iou([0, 0, 2, 2], [1, 1, 3, 3]) == pytest.approx(1 / 7)

    def test_disjoint(self):
        assert calculate_iou([0, 0, 2, 2], [3, 3, 4, 4]) == 0.0

    def test_identical(self):
        assert calculate_iou([1, 1, 5, 5], [1, 1, 5, 5]) == pytest.approx(1.0)

    def test_contained(self):
        # 1x1 inside 2x2 -> 1/4
        assert calculate_iou([0, 0, 2, 2], [0, 0, 1, 1]) == pytest.approx(0.25)

    def test_degenerate_zero_area(self):
        assert calculate_iou([0, 0, 0, 0], [0, 0, 0, 0]) == 0.0


class TestCleanSectionTitle:
    def test_plain(self):
        assert clean_section_title("Introduction") == "Introduction"

    def test_empty_becomes_unnamed(self):
        assert clean_section_title("") == "Unnamed Section"
        assert clean_section_title("   ") == "Unnamed Section"

    def test_control_chars_stripped(self):
        assert clean_section_title("Intro\x00duction\x07") == "Introduction"

    def test_ascii_fold(self):
        assert clean_section_title("Résumé café", to_ascii=True) == "Resume cafe"

    def test_non_ascii_kept_without_fold(self):
        assert clean_section_title("Résumé") == "Résumé"

    def test_only_control_chars(self):
        assert clean_section_title("\x00\x01") == "Unnamed Section"

    @settings(max_examples=300, deadline=None)
    @given(title=st.one_of(
        st.text(),
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)),
    ))
    def test_ascii_fast_path_matches_unicode_path(self, title):
        # the full chain: NFC, drop category C, optional NFKD ascii fold
        def unicode_path(title, to_ascii):
            cleaned = unicodedata.normalize("NFC", title)
            cleaned = "".join(
                c for c in cleaned if unicodedata.category(c)[0] != "C"
            )
            if to_ascii:
                cleaned = (
                    unicodedata.normalize("NFKD", cleaned)
                    .encode("ascii", "ignore")
                    .decode("ascii")
                )
            return cleaned.strip() or "Unnamed Section"

        for to_ascii in (False, True):
            assert clean_section_title(title, to_ascii) == unicode_path(
                title, to_ascii
            )


class TestHashString:
    def test_is_md5_hex(self):
        assert hash_string("abc") == hashlib.md5(b"abc").hexdigest()

    def test_unicode(self):
        s = "café — 数据"
        assert hash_string(s) == hashlib.md5(s.encode("utf-8")).hexdigest()


class TestTokenCount:
    def test_empty(self):
        assert token_count("") == 0

    def test_deterministic(self):
        s = "The quick brown fox jumps over 12345 lazy dogs!"
        assert token_count(s) == token_count(s)
        assert token_count(s) > 5

    def test_monotone_ish(self):
        assert token_count("word " * 100) > token_count("word " * 10)


class TestDecodeBytes:
    def test_utf8(self):
        assert decode_bytes("café".encode("utf-8")) == "café"

    def test_latin1_fallback(self):
        # invalid as utf-8, valid latin-1 (corpus_utils.py:156-162)
        raw = "série télévisée à thème".encode("latin-1")
        assert decode_bytes(raw) == "série télévisée à thème"


class TestTextSimilarity:
    def test_identical_above_point_nine(self):
        # reference band: identical > 0.9 (marker_processor __main__)
        assert text_similarity("Signal Name", "Signal Name") > 0.9

    def test_different_below_point_seven(self):
        assert text_similarity("Signal Name", "Totally Other") < 0.7

    def test_empty(self):
        assert text_similarity("", "anything") == 0.0

    def test_punctuation_ignored(self):
        assert text_similarity("I/O port!", "io port") == 1.0  # "i/o" -> "io"
        assert text_similarity("port, signal", "signal port") == 1.0


class TestCcnetFold:
    def test_fold_merges_variants(self):
        from pdf_extractor_ray.kernel.textutils import ccnet_fold

        variants = [
            "The Quick, Brown Fox!",
            "the quick brown fox",
            "THE   QUICK\tBROWN\nFOX...",
            "Thé Quick Brown Fox",
        ]
        folded = {ccnet_fold(v) for v in variants}
        assert folded == {"the quick brown fox"}

    def test_cross_engine_exactness_vs_duckdb(self):
        import duckdb

        from pdf_extractor_ray.kernel.textutils import ccnet_fold

        sql = (
            "SELECT trim(regexp_replace(regexp_replace("
            "lower(strip_accents(?)), '[!-/:-@\\[-`{-~]', '', 'g'), "
            "'[ \\t\\n\\r\\f\\v]+', ' ', 'g'), ' ')"
        )
        for t in [
            "İstanbul ΣΙΣΥΦΟΣ",  # combining-dot and final-sigma traps
            "Café, Straße!  x ",
            "a\xa0b",  # NBSP is NOT whitespace in either engine here
            "ﬁne x² ½",  # compatibility chars pass through untouched
            "",
        ]:
            assert ccnet_fold(t) == duckdb.sql(sql, params=[t]).fetchone()[0]
