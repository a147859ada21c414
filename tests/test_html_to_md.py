"""HTML -> markdown conversion (boilerplate-strip lane, SURVEY.md M18/S2)."""

from pdf_extractor_ray.kernel.extract import extract_document
from pdf_extractor_ray.kernel.html_to_md import html_to_markdown

REFERENCE_CORPUS_HTML = """<!DOCTYPE html>
<html>
<head>
<title>HTML Corpus</title>
</head>
<body>

<h1>HTML Corpus Content</h1>

<p>This is a paragraph in the <b>HTML</b> corpus.</p>
<p>Another paragraph with a <a href="#">link</a>.</p>
<ul>
  <li>List item 1</li>
  <li>List item 2</li>
</ul>
<script>console.log("This should be removed");</script>
</body>
</html>"""


class TestHtmlToMarkdown:
    def test_reference_corpus_script_removed(self):
        # tests/corpus/test_corpus.html: <script> must be absent
        md = html_to_markdown(REFERENCE_CORPUS_HTML)
        assert "This should be removed" not in md
        assert "console.log" not in md
        assert "# HTML Corpus Content" in md
        assert "This is a paragraph in the **HTML** corpus." in md
        assert "- List item 1" in md
        assert "link" in md and "href" not in md

    def test_style_and_head_dropped(self):
        md = html_to_markdown(
            "<html><head><title>T</title><style>p{color:red}</style></head>"
            "<body><p>visible</p></body></html>"
        )
        assert "color" not in md
        assert "T" not in md.split()  # title lives in <head>
        assert "visible" in md

    def test_heading_levels(self):
        md = html_to_markdown("<h1>A</h1><h2>B</h2><h3>C</h3>")
        assert "# A" in md and "## B" in md and "### C" in md

    def test_table_to_pipe_markdown(self):
        md = html_to_markdown(
            "<table><tr><th>A</th><th>B</th></tr>"
            "<tr><td>1</td><td>2</td></tr></table>"
        )
        assert "| A | B |" in md
        assert "|---|---|" in md
        assert "| 1 | 2 |" in md

    def test_pre_code_fenced_with_language(self):
        md = html_to_markdown(
            '<pre><code class="language-python">def f():\n    pass</code></pre>'
        )
        assert md.startswith("```python\n")
        assert "def f():" in md

    def test_img_to_markdown(self):
        md = html_to_markdown('<img alt="diag" src="x.png">')
        assert md == "![diag](x.png)"

    def test_entities_unescaped(self):
        md = html_to_markdown("<p>a &amp; b &lt; c</p>")
        assert md == "a & b < c"

    def test_page_comment_preserved_others_dropped(self):
        md = html_to_markdown("<!-- page: 2 --><p>x</p><!-- tracking pixel -->")
        assert "<!-- page: 2 -->" in md
        assert "tracking" not in md

    def test_empty(self):
        assert html_to_markdown("") == ""


class TestFailJump:
    def test_cdata_inside_fail_jump_region_still_tokenizes(self):
        # a bogus '<' far from any '>' triggers the fail-jump; a CDATA
        # section starting inside the jumped region closes on ']]>'
        # (possibly far away) and must not be emitted as data
        filler = "x" * 6000
        html = f"< bogus {filler} <![CDATA[secret]]> <p>after</p> >tail"
        out = html_to_markdown(html)
        assert "secret" not in out
        assert "after" in out

    def test_long_whitespace_close_tag_is_treated_as_data(self):
        # the capped grammar: a close tag with >4096 interior spaces is
        # bogus data, not a token — and tokens after it still parse
        html = "<p>a</p></b" + " " * 5000 + "><p>b</p>"
        out = html_to_markdown(html)
        assert "a" in out and "b" in out


class TestHtmlLaneEndToEnd:
    def test_html_document_extraction(self):
        out = extract_document("u", "2025", REFERENCE_CORPUS_HTML.encode(), "", "en")
        assert out["kind"] == "html"
        assert out["status"] == "ok"
        assert out["n_heading"] == 1
        assert out["n_text"] >= 1
        assert "This should be removed" not in out["extracted_text"]
        # list items folded into text per the markdown gap rule
        assert "List item 1" in out["extracted_text"]


class TestExtractHeadMeta:
    def test_full_head_with_decoys(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_head_meta

        h = (
            "<html><head>"
            "<!-- <title>comment decoy</title> -->"
            "<TITLE> Hello   <b>world</b> </TITLE>"
            "<meta content='og first' property='og:title'>"
            '<link href=https://c.example/1 rel="canonical">'
            '<meta name=ROBOTS content="noindex,follow">'
            "<script>document.title='<title>script decoy</title>'</script>"
            "<title>second ignored</title>"
            "<meta name='description' content='a desc'>"
            "</head><body></body></html>"
        )
        m = extract_head_meta(h)
        assert m == {
            "title": "Hello world",
            "canonical": "https://c.example/1",
            "robots": "noindex,follow",
            "description": "a desc",
            "og_title": "og first",
        }

    def test_missing_fields_are_none(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_head_meta

        m = extract_head_meta("<html><body><p>no head</p></body></html>")
        assert all(v is None for v in m.values())

    def test_first_occurrence_wins_and_meta_without_content_skipped(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_head_meta

        h = (
            "<meta name=robots>"  # no content -> skipped, not ""
            "<meta name=robots content=index>"
            "<meta name=robots content=noindex>"
            "<link rel=stylesheet href=/x.css>"
            "<link rel=canonical href=/a>"
            "<link rel=canonical href=/b>"
        )
        m = extract_head_meta(h)
        assert m["robots"] == "index"
        assert m["canonical"] == "/a"

    def test_unclosed_title_does_not_bleed(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_head_meta

        m = extract_head_meta("<title>never closed <p>rest of page")
        assert m["title"] is None


class TestExtractPubDate:
    """htmldate-style cascade: meta > <time> > URL path, per-source
    plausibility gate, decoy invisibility."""

    def test_meta_beats_time_regardless_of_order(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

        html = (
            '<time datetime="2021-03-06">u</time>'
            '<meta property="article:published_time" '
            'content="2021-03-05T08:30:00+00:00">'
        )
        assert extract_pub_date(html) == ("2021-03-05", "meta")

    def test_meta_key_variants_and_case(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

        for attr in (
            'property="ARTICLE:PUBLISHED_TIME"',
            'name="date"',
            'name="dcterms.date"',
            'itemprop="datePublished"',
        ):
            html = f'<META {attr} content="2010-01-02">'
            assert extract_pub_date(html) == ("2010-01-02", "meta"), attr

    def test_implausible_meta_falls_through_to_time(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

        html = (
            '<meta name="date" content="2050-01-01">'
            '<time datetime="2019-12-31">x</time>'
        )
        assert extract_pub_date(html) == ("2019-12-31", "time")

    def test_url_path_fallback_unpadded_and_bounds(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

        assert extract_pub_date(
            "<html></html>", "https://h.example/2020/7/4/post.html"
        ) == ("2020-07-04", "url")
        # day 32 / month 13 / pre-1990 rejected
        for u in (
            "https://h/2020/1/32/x",
            "https://h/2020/13/1/x",
            "https://h/1989/1/1/x",
        ):
            assert extract_pub_date("<html></html>", u) == ("", "")

    def test_script_and_comment_decoys_invisible(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

        html = (
            "<!-- <meta name=date content=1999-01-01> -->"
            "<script>var m='<meta name=\"date\" "
            "content=\"1999-12-31\">';</script>"
        )
        assert extract_pub_date(html) == ("", "")

    def test_first_valid_meta_wins(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

        html = (
            '<meta name="date" content="2011-05-06">'
            '<meta name="date" content="2012-07-08">'
        )
        assert extract_pub_date(html) == ("2011-05-06", "meta")

    def test_nonexistent_day_rejected(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_pub_date

        assert extract_pub_date(
            '<meta name="date" content="2021-04-31">'
        ) == ("", "")
        assert extract_pub_date(
            '<meta name="date" content="2021-02-29">'
        ) == ("2021-02-29", "meta")


class TestExtractMetaRefresh:
    def test_url_and_delay_variants(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_meta_refresh

        assert extract_meta_refresh(
            '<meta http-equiv="refresh" content="5; url=https://a.ex/x">'
        ) == (5, "https://a.ex/x")
        assert extract_meta_refresh(
            "<META CONTENT='0;URL=/next' HTTP-EQUIV=Refresh>"
        ) == (0, "/next")
        assert extract_meta_refresh(
            "<meta http-equiv=refresh content=30>"
        ) == (30, "")

    def test_absent_malformed_and_decoys(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_meta_refresh

        assert extract_meta_refresh("<html><body>x</body></html>") == (-1, "")
        assert extract_meta_refresh(
            '<meta http-equiv=refresh content="abc">'
        ) == (-1, "")
        assert extract_meta_refresh(
            "<script>var m='<meta http-equiv=refresh "
            'content="0;url=https://trap/x">\';</script>'
        ) == (-1, "")
        assert extract_meta_refresh(
            '<!-- <meta http-equiv=refresh content="0;url=https://t/x"> -->'
        ) == (-1, "")

    def test_first_refresh_wins(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_meta_refresh

        html = (
            '<meta http-equiv=refresh content="1;url=https://one/">'
            '<meta http-equiv=refresh content="2;url=https://two/">'
        )
        assert extract_meta_refresh(html) == (1, "https://one/")


class TestExtractHreflang:
    def test_variants_and_token_list_rel(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_hreflang

        html = (
            '<link rel="alternate" hreflang="EN" href="https://a/en">'
            "<link href='https://a/de' hreflang=de rel=alternate>"
            '<link rel="alternate stylesheet" hreflang=fr href=/fr>'
        )
        assert extract_hreflang(html) == [
            ("en", "https://a/en"),
            ("de", "https://a/de"),
            ("fr", "/fr"),
        ]

    def test_langless_relless_and_decoys_ignored(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_hreflang

        html = (
            '<link rel="alternate" href="/no-lang">'
            '<link hreflang="en" href="/no-rel">'
            '<link rel="stylesheet" hreflang="en" href="/wrong-rel">'
            "<script>var x='<link rel=alternate hreflang=zz "
            "href=https://trap/x>';</script>"
            '<!-- <link rel=alternate hreflang=aa href=/c> -->'
        )
        assert extract_hreflang(html) == []


class TestExtractJsonLd:
    def test_entities_graph_array_and_bad_count(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_json_ld

        html = (
            "<html><head>"
            '<!-- <script type="application/ld+json">'
            '{"@type":"CommentDecoy"}</script> -->'
            '<script type="text/javascript">'
            'var x={"@type":"Decoy"};</script>'
            "<script type='Application/LD+JSON; charset=utf-8'>"
            '{"@context":"https://schema.org","@type":"Article",'
            '"headline":"Headline \\"q3\\" 13",'
            '"datePublished":"2024-02-14",'
            '"author":{"@type":"Person","name":"Author 13"}}</script>'
            '<script type="application/ld+json">'
            '{"@graph":[{"@type":"Organization","name":"Org 2"},'
            '{"@type":"WebSite","name":"Site 0"}]}</script>'
            '<script type="application/ld+json">'
            '[{"@type":["BreadcrumbList","Thing"],"name":"Crumbs 3"}]'
            "</script>"
            '<script type="application/ld+json">'
            '{"@type":"Article",}</script>'
            "</head><body></body></html>"
        )
        ents, n_bad = extract_json_ld(html)
        assert n_bad == 1
        assert [e["type"] for e in ents] == [
            "Article", "Organization", "WebSite", "BreadcrumbList",
        ]
        assert ents[0]["name"] == 'Headline "q3" 13'
        assert ents[0]["date_published"] == "2024-02-14"
        assert ents[0]["author"] == "Author 13"
        assert ents[3]["name"] == "Crumbs 3"
        assert ents[1]["date_published"] is None

    def test_author_shapes_headline_priority_no_html_decode(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_json_ld

        html = (
            '<script type="application/ld+json">'
            '{"@type":"Article","name":"fallback name",'
            '"headline":"wins &amp; stays encoded",'
            '"author":["bare string","ignored"]}</script>'
            '<script type="application/ld+json">'
            '{"@type":"Article","name":"name used",'
            '"author":[{"notname":1},{"name":"first real"}]}</script>'
        )
        ents, n_bad = extract_json_ld(html)
        assert n_bad == 0
        # headline wins over name; script CDATA is never HTML-decoded
        assert ents[0]["name"] == "wins &amp; stays encoded"
        assert ents[0]["author"] == "bare string"
        assert ents[1]["name"] == "name used"
        assert ents[1]["author"] == "first real"

    def test_typeless_script_and_non_dict_members_skipped(self):
        from pdf_extractor_ray.kernel.html_to_md import extract_json_ld

        html = (
            '<script>{"@type":"NoTypeAttr"}</script>'
            '<script type="application/ld+json">'
            '[1, "str", {"@type":"Thing","name":"kept"}]</script>'
            '<script type="application/ld+json">"just a string"</script>'
        )
        ents, n_bad = extract_json_ld(html)
        assert n_bad == 0
        assert [e["name"] for e in ents] == ["kept"]
