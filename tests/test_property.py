"""Property-based kernel tests (hypothesis).

The reference has no randomized testing at all (SURVEY.md §5.1); these
pin the kernel's hard guarantees — never raises, log-and-continue
status semantics, count consistency, sketch determinism — over
adversarial inputs the golden fixtures can't enumerate.
"""

from hypothesis import example, given, settings, strategies as st

from pdf_extractor_ray.kernel.extract import extract_document
from pdf_extractor_ray.kernel.html_to_md import html_to_markdown
from pdf_extractor_ray.kernel.tables import (
    merge_multi_page_tables,
    parse_table_data,
)
from pdf_extractor_ray.kernel.textutils import token_count

SETTINGS = settings(max_examples=60, deadline=None)


class TestExtractNeverRaises:
    @SETTINGS
    @given(payload=st.one_of(st.none(), st.binary(max_size=2048)),
           text=st.one_of(st.none(), st.text(max_size=512)))
    def test_any_payload_becomes_a_row(self, payload, text):
        out = extract_document("u://x", "2025-01-01", payload, text, "en")
        assert out["status"] in ("ok", "error")
        assert out["n_elements"] == len(out["elements"])
        typed = (out["n_text"] + out["n_heading"] + out["n_table"]
                 + out["n_code"] + out["n_image"])
        assert typed <= out["n_elements"]
        assert out["n_tokens"] == sum(e["token_count"] for e in out["elements"])

    @SETTINGS
    @given(text=st.text(max_size=1024))
    def test_determinism(self, text):
        a = extract_document("u", "t", text.encode(), None, None)
        b = extract_document("u", "t", text.encode(), None, None)
        assert a == b


class TestHtmlToMarkdown:
    @SETTINGS
    @given(html=st.text(max_size=1024))
    def test_never_raises(self, html):
        html_to_markdown(html)

    @SETTINGS
    @given(secret=st.text(
        alphabet=st.characters(whitelist_categories=["Ll", "Lu", "Nd"]),
        min_size=1, max_size=64,
    ))
    def test_script_and_style_bodies_never_leak(self, secret):
        html = (f"<html><body><p>keep</p><script>XX{secret}XX</script>"
                f"<style>YY{secret}YY</style></body></html>")
        out = html_to_markdown(html)
        assert f"XX{secret}XX" not in out
        assert f"YY{secret}YY" not in out
        assert "keep" in out


class TestTokenCount:
    @SETTINGS
    @given(text=st.text(max_size=512))
    def test_subn_count_matches_findall(self, text):
        # regression gate for the subn-based fast path: counting via
        # subn must agree with findall on the kernel's own BPE-ish
        # pattern for every input
        from pdf_extractor_ray.kernel.textutils import _TOKEN_RE

        assert token_count(text) == len(_TOKEN_RE.findall(text))

    # pieces that reach each rule of the vectorized counter: contraction
    # suffixes in both cases, quotes, digit runs of 1-7, ' ' before every
    # char class, and mixed whitespace runs beyond ' '
    _PIECE = st.one_of(
        st.sampled_from(["'s", "'d", "'m", "'t", "'ll", "'ve", "'re",
                         "'S", "'D", "'M", "'T", "'LL", "'Ve", "'rE",
                         "'", "''", "'l", "'v", "'r"]),
        st.text(alphabet="0123456789", min_size=1, max_size=7),
        st.sampled_from([" a", " Z", " 7", " .", " '", " é", " \n", " \xa0"]),
        st.text(alphabet=" \t\n\r\v\x1c\x85\xa0\u2028\u3000", min_size=1, max_size=4),
        st.sampled_from(["a", "s", "d", "ll", "ve", "Re", "x", "é", ".", "!", "-", "ß", "٣",
                         "\ud800", " \udfff"]),
    )
    _TEXT = st.one_of(st.lists(_PIECE, max_size=14).map("".join), st.text(max_size=48))

    @staticmethod
    def _regex(texts):
        from pdf_extractor_ray.kernel.textutils import _TOKEN_RE

        return [len(_TOKEN_RE.findall(t)) for t in texts]

    @settings(max_examples=400, deadline=None)
    @given(texts=st.lists(_TEXT, max_size=8))
    # lone surrogates (json.loads makes them from "\\ud800"); st.text
    # never draws them
    @example(texts=["\ud800", "a\udc00's 12\ud83d", " \udfff\n\n", ""])
    def test_vectorized_counts_equal_regex(self, texts):
        from pdf_extractor_ray.kernel.textutils import token_counts

        assert token_counts(texts) == self._regex(texts)

    @settings(max_examples=300, deadline=None)
    @given(text=_TEXT, picks=st.lists(st.booleans(), max_size=64),
           window=st.integers(1, 12))
    def test_any_windowed_split_counts_the_whole(self, text, picks, window):
        # a cut is allowed at a whitespace char whose previous char is
        # not whitespace; the pieces' counts add up to the whole's, and
        # so do the counter's own windows at any size
        from unittest import mock

        from pdf_extractor_ray.kernel import textutils

        cuts = [i for i in range(1, len(text))
                if text[i].isspace() and not text[i - 1].isspace()]
        cuts = [c for c, keep in zip(cuts, picks) if keep]
        pieces = [text[a:b] for a, b in zip([0] + cuts, cuts + [len(text)])]
        whole = self._regex([text])
        assert [sum(textutils.token_counts(pieces))] == whole
        with mock.patch.object(textutils, "_WINDOW", window):
            assert textutils.token_counts([text, text[::-1]]) == self._regex(
                [text, text[::-1]]
            )

    def test_whitespace_table_is_re_whitespace(self):
        import re
        import sys

        from pdf_extractor_ray.kernel.textutils import (
            _ASCII_SPACE,
            _KIND,
            _SPACE,
            _UNICODE_SPACE,
        )

        space = re.compile(r"\s")
        expected = {chr(c) for c in range(sys.maxunicode + 1) if space.match(chr(c))}
        assert set(_ASCII_SPACE + _UNICODE_SPACE) == expected
        assert {chr(b) for b in range(128) if _KIND[b] == _SPACE} == set(_ASCII_SPACE)
        assert _UNICODE_SPACE.isspace() and not _UNICODE_SPACE.isascii()


def _table(page: int, n_rows: int, n_cols: int, tag: str):
    data = [[f"h{c}" for c in range(n_cols)]] + [
        [f"{tag}{r}c{c}" for c in range(n_cols)] for r in range(n_rows)
    ]
    return {
        "id": f"t{page}", "page": page, "data": data,
        "rows": len(data), "cols": n_cols,
        "bbox": [0.0, 0.0, 100.0, 50.0], "accuracy": 95.0,
    }


class TestMergerProperties:
    @SETTINGS
    @given(pages=st.lists(st.integers(1, 6), min_size=0, max_size=6),
           n_cols=st.integers(1, 5))
    def test_merge_never_raises_and_never_grows(self, pages, n_cols):
        tables = [_table(p, 2, n_cols, f"p{p}i{i}") for i, p in enumerate(pages)]
        for strategy in (0.8, 0.6):
            merged = merge_multi_page_tables(list(tables), similarity_threshold=strategy)
            assert len(merged) <= len(tables)
            # every output page_range is within the input page span
            if tables:
                lo = min(t["page"] for t in tables)
                hi = max(t["page"] for t in tables)
                for m in merged:
                    assert lo <= m["page"] <= hi

    @SETTINGS
    @given(rows=st.lists(
        st.lists(st.text(max_size=8), min_size=0, max_size=5),
        min_size=0, max_size=6,
    ))
    def test_parse_table_data_normalizes_arity(self, rows):
        out = parse_table_data(rows)
        if rows and rows[0]:
            arity = len(out["headers"])
            assert all(len(r) == arity for r in out["rows"])


class TestSketchDeterminism:
    @SETTINGS
    @given(text=st.text(max_size=256))
    def test_minhash_self_similarity(self, text):
        from pdf_extractor_ray.functions.dedup import (
            minhash_signature,
            ngram_jaccard,
            simhash64,
        )

        sig = minhash_signature(text)
        assert sig.shape == (64,)
        assert (sig == minhash_signature(text)).all()
        assert ngram_jaccard(text, text) in (0.0, 1.0)  # 0 only for empty
        assert simhash64(text) == simhash64(text)


class TestMalformedHtmlRegressions:
    """Fuzz-found counterexamples pinned as regressions."""

    def test_unterminated_comment_swallows_to_eof(self):
        # HTML5: an unclosed comment runs to EOF — its content (and any
        # script inside it) must never surface
        out = html_to_markdown("<p>keep</p><!--junk<script>SECRET</script>")
        assert "SECRET" not in out and "keep" in out

    def test_unclosed_td_then_tr_end_does_not_crash(self):
        out = html_to_markdown(
            "<table><tr><td>a</tr><tr><td>b</td></tr></table>trailing"
        )
        assert "trailing" in out

    def test_table_end_inside_cell_does_not_crash(self):
        out = html_to_markdown("<table><tr><td>a</table>after")
        assert "after" in out

    def test_fuzz_sweep_never_raises_never_leaks(self):
        import random

        rng = random.Random(20260817)
        alph = ['<', '>', '/', '!', '-', '&', '#', 'a', 'İ', '\x00', '\t',
                ' ', '"', "'", '=', '|', '`', '<script>', '</script>',
                '<style>', '<p>', '</p>', '<table>', '<tr>', '<td>',
                '<!--', '-->', '<pre>', '<h1>', '<img ', 'src=']
        for _ in range(400):
            secret = "".join(rng.choice("abcdefgh") for _ in range(12))
            pre = "".join(rng.choice(alph) for _ in range(rng.randint(0, 25)))
            post = "".join(rng.choice(alph) for _ in range(rng.randint(0, 25)))
            # <p></p> guarantees the script opens outside any tag context
            out = html_to_markdown(f"{pre}<p></p><script>ZZ{secret}ZZ</script>{post}")
            assert f"ZZ{secret}ZZ" not in out


class TestPathologicalInputsBounded:
    """Timing/robustness regressions from the DoS fuzz."""

    def test_tag_flood_completes_fast(self):
        import time

        st = time.time()
        html_to_markdown("<a " * 100000)
        html_to_markdown(("<a " * 3000 + ">") * 30)
        html_to_markdown(("<!x " * 3000 + ">") * 30)
        assert time.time() - st < 10  # was minutes before atomic+jump

    def test_img_with_swallowed_markup_is_dropped(self):
        out = html_to_markdown(
            "<p>keep</p><img src='</p><script>SECRET</script>' alt=x>"
        )
        assert "SECRET" not in out and "keep" in out

    def test_normal_img_still_emitted(self):
        out = html_to_markdown('<img alt="fig one" src="a/b.png">')
        assert out == "![fig one](a/b.png)"


class TestCommonmarkProperties:
    """Fuzz the round-2 commonmark additions: structured-line soup must
    never raise, extraction stays deterministic, and both path modes
    (markdown-it-faithful and marker-style) hold their invariants."""

    _line = st.one_of(
        st.text(max_size=60),
        st.sampled_from(
            [
                "===", "---", "- - -", "***", "___", "> quoted", ">> deep",
                "    indented code", "\tcode", "# head", "## sub",
                "Title", "| a | b |", "|---|---|", "- item", "1. item",
                "```", "<!-- page: 2 -->", "![alt](src)", "",
                "<div>", "</div>", "<br/>", "<!-- note -->",
                "<![CDATA[x]]>", "<?pi?>", "[ref]: /url", "[not a ref",
                "< 3 loose angle", "      six-space code",
            ]
        ),
    )

    @given(lines=st.lists(_line, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_never_raises_and_deterministic(self, lines):
        from pdf_extractor_ray.kernel.markdown_extract import (
            extract_from_markdown_text,
        )

        md = "\n".join(lines)
        for marker in (False, True):
            a = extract_from_markdown_text(md, marker_style=marker)
            b = extract_from_markdown_text(md, marker_style=marker)
            assert a == b
            for el in a:
                assert el["type"] in {
                    "text", "heading", "table", "code", "image"
                }
                assert el["token_count"] >= 0

    @given(quote_depth=st.integers(1, 4), body=st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_blockquote_markers_never_lead_text(self, quote_depth, body):
        from pdf_extractor_ray.kernel.markdown_extract import (
            extract_from_markdown_text,
        )

        md = "> " * quote_depth + body
        els = extract_from_markdown_text(md)
        assert len(els) == 1 and els[0]["content"] == body

    @given(width=st.integers(1, 30), level_char=st.sampled_from("=-"))
    @settings(max_examples=30, deadline=None)
    def test_setext_underline_width_irrelevant(self, width, level_char):
        from pdf_extractor_ray.kernel.markdown_extract import (
            extract_from_markdown_text,
        )

        els = extract_from_markdown_text(f"Heading Line\n{level_char * width}")
        assert els[0]["type"] == "heading"
        assert els[0]["metadata"]["level"] == (1 if level_char == "=" else 2)


class TestExtractAnchorsProperties:
    @SETTINGS
    @given(html=st.text(alphabet=st.sampled_from(list("<>a href=\"'/scriptx y")), max_size=400))
    def test_never_raises_on_tag_soup(self, html):
        from pdf_extractor_ray.kernel.html_to_md import extract_anchors

        for href, anchor in extract_anchors(html):
            assert isinstance(href, str) and isinstance(anchor, str)
            assert "<" not in anchor  # inner markup always stripped

    @SETTINGS
    @given(
        hrefs=st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_characters='<>"\'', blacklist_categories=("Cs",)
                ),
                min_size=1,
                max_size=30,
            ),
            max_size=8,
        )
    )
    def test_wellformed_roundtrip(self, hrefs):
        from pdf_extractor_ray.kernel.html_to_md import extract_anchors

        html = "".join(
            f'<p><a href="{h}">t{i}</a></p>' for i, h in enumerate(hrefs)
        )
        got = extract_anchors(html)
        assert [h for h, _ in got] == hrefs
        assert [a for _, a in got] == [f"t{i}" for i in range(len(hrefs))]


class TestWebKernelsNeverRaise:
    """Round-4 web kernels: total functions over arbitrary input."""

    @SETTINGS
    @given(xml=st.text(max_size=2048))
    def test_parse_sitemap_total_and_deterministic(self, xml):
        from pdf_extractor_ray.kernel.sitemap import parse_sitemap

        out = parse_sitemap(xml)
        assert out == parse_sitemap(xml)
        for kind, loc in out:
            assert kind in ("url", "sitemap")
            assert loc == loc.strip() and loc != ""

    @SETTINGS
    @given(data=st.one_of(st.none(), st.binary(max_size=2048)))
    def test_sniff_payload_total(self, data):
        from pdf_extractor_ray.kernel.sniff import sniff_payload

        r = sniff_payload(data)
        assert r.content_type.count("/") == 1
        if r.charset == "":
            assert r.text == ""
        # decoding is total: text is a str, re-decodable round trip
        assert isinstance(r.text, str)

    @SETTINGS
    @given(html=st.text(max_size=2048), url=st.text(max_size=256))
    def test_pub_date_total_and_shaped(self, html, url):
        from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

        d, src = extract_pub_date(html, url)
        assert src in ("", "meta", "time", "url")
        assert (d == "") == (src == "")
        if d:
            y, mo, da = int(d[0:4]), int(d[5:7]), int(d[8:10])
            assert 1990 <= y <= 2035 and 1 <= mo <= 12 and 1 <= da <= 31

    @SETTINGS
    @given(html=st.text(max_size=2048))
    def test_meta_refresh_total(self, html):
        from pdf_extractor_ray.kernel.html_to_md import extract_meta_refresh

        delay, target = extract_meta_refresh(html)
        assert (delay == -1) == (delay < 0)
        if delay == -1:
            assert target == ""

    @SETTINGS
    @given(html=st.text(max_size=2048))
    def test_hreflang_total(self, html):
        from pdf_extractor_ray.kernel.html_to_md import extract_hreflang

        for lang, href in extract_hreflang(html):
            assert lang == lang.lower() and lang and href

    @SETTINGS
    @given(text=st.text(max_size=2048))
    def test_extract_sitemaps_total(self, text):
        from pdf_extractor_ray.kernel.robots import extract_sitemaps

        for u in extract_sitemaps(text):
            assert u == u.strip() and u

    @SETTINGS
    @given(digits=st.text(alphabet="0123456789", min_size=1, max_size=40))
    def test_luhn_total_and_checkdigit_unique(self, digits):
        from pdf_extractor_ray.functions.scrub import luhn_valid

        # exactly one check digit completes any prefix
        valid = [c for c in "0123456789" if luhn_valid(digits + c)]
        assert len(valid) == 1


class TestJsonLdProperties:
    @SETTINGS
    @given(html=st.text(max_size=2048))
    def test_never_raises_on_arbitrary_html(self, html):
        from pdf_extractor_ray.kernel.html_to_md import extract_json_ld

        ents, n_bad = extract_json_ld(html)
        assert n_bad >= 0
        for e in ents:
            assert set(e) == {"type", "name", "date_published", "author"}

    @SETTINGS
    @given(
        payload=st.recursive(
            st.one_of(
                st.none(), st.booleans(), st.integers(),
                st.text(max_size=30),
            ),
            lambda c: st.one_of(
                st.lists(c, max_size=4),
                st.dictionaries(st.text(max_size=8), c, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_any_valid_json_parses_without_error(self, payload):
        import json

        from pdf_extractor_ray.kernel.html_to_md import extract_json_ld

        html = (
            '<script type="application/ld+json">'
            + json.dumps(payload)
            + "</script>"
        )
        ents, n_bad = extract_json_ld(html)
        assert n_bad == 0  # valid JSON never counts as bad
        for e in ents:
            for v in e.values():
                assert v is None or isinstance(v, str)

    @SETTINGS
    @given(body=st.text(max_size=200))
    def test_bad_json_counted_never_raised(self, body):
        import json

        from pdf_extractor_ray.kernel.html_to_md import extract_json_ld

        try:
            json.loads(body)
            valid = True
        except ValueError:
            valid = False
        html = f'<script type="application/ld+json">{body}</script>'
        if "</script" in body.lower():
            return  # body terminates the script element early: different block
        ents, n_bad = extract_json_ld(html)
        assert n_bad == (0 if valid else 1)


class TestRangePartitionProperties:
    @SETTINGS
    @given(
        keys=st.lists(
            st.integers(min_value=0, max_value=2**40), min_size=1,
            max_size=300,
        ),
        n_parts=st.integers(min_value=1, max_value=8),
    )
    def test_partition_map_is_monotone_total_cover(self, keys, n_parts):
        # pure-arithmetic replay of range_partition_map's driver step
        import numpy as np

        cells, counts = np.unique(
            np.array(keys, dtype=np.int64) >> 16, return_counts=True
        )
        total = counts.sum()
        cum_before = np.concatenate([[0], counts.cumsum()[:-1]])
        parts = np.minimum(n_parts - 1, cum_before * n_parts // total)
        # monotone, starts at 0, never exceeds n_parts-1
        assert parts[0] == 0
        assert (np.diff(parts) >= 0).all()
        assert parts[-1] <= n_parts - 1


class TestClassifierProperties:
    @SETTINGS
    @given(token=st.text(min_size=1, max_size=40))
    def test_hash_feature_matches_duckdb(self, token):
        import duckdb

        from pdf_extractor_ray.functions.classifier import hash_feature

        got = duckdb.sql(
            "SELECT ('0x' || substring(md5(?), 1, 8))::UBIGINT % 4096",
            params=[token],
        ).fetchone()[0]
        assert hash_feature(token, 4096) == int(got)
