"""Crawl-text cleaning operators (functions/webclean.py): URL
canonicalization and C4-style line filtering.

Scalar pins for every rule branch, plus Ray-lane equivalence at
sf0.001 (canonical dedup collapses the planted variants).
"""

import hashlib

import pyarrow as pa
import pytest

from pdf_extractor_ray.functions.webclean import (
    c4_stats_batch,
    canonicalize_url,
)

SF = "/root/testdata/sf0.001"


class TestCanonicalizeUrl:
    def test_lowercases_scheme_and_host_only(self):
        assert (
            canonicalize_url("HTTPS://WWW.Example.COM/Path/To/X")
            == "https://www.example.com/Path/To/X"
        )

    @pytest.mark.parametrize(
        "url,canon",
        [
            ("http://a.com:80/x", "http://a.com/x"),
            ("https://a.com:443/x", "https://a.com/x"),
            # non-default ports survive
            ("http://a.com:8080/x", "http://a.com:8080/x"),
            # scheme/port mismatch: not a default port, keep it
            ("http://a.com:443/x", "http://a.com:443/x"),
        ],
    )
    def test_default_ports(self, url, canon):
        assert canonicalize_url(url) == canon

    def test_fragment_dropped(self):
        assert canonicalize_url("https://a.com/x#frag") == "https://a.com/x"

    def test_tracking_params_dropped_order_preserved(self):
        assert (
            canonicalize_url(
                "https://a.com/x?b=2&utm_source=rss&a=1&fbclid=zz&UTM_Medium=e"
            )
            == "https://a.com/x?b=2&a=1"
        )

    def test_all_params_tracking_drops_question_mark(self):
        assert canonicalize_url("https://a.com/x?utm_a=1") == "https://a.com/x"

    def test_empty_path_becomes_slash(self):
        assert canonicalize_url("https://a.com") == "https://a.com/"

    @pytest.mark.parametrize("bad", [None, "", "not a url", "mailto:a@b.c"])
    def test_non_urls_are_null(self, bad):
        assert canonicalize_url(bad) is None


class TestC4StatsBatch:
    def _run(self, text, doc_id=1):
        t = pa.table({"doc_id": [doc_id], "text": [text]})
        return c4_stats_batch(t).to_pylist()[0]

    def test_keeps_terminal_five_word_lines(self):
        good = "one two three four five."
        r = self._run(f"{good}\nshort line.\nno terminal five words here\n")
        assert r["n_lines"] == 4
        assert r["n_kept"] == 1
        assert (
            r["clean_fp"] == hashlib.md5(good.encode()).hexdigest()
        )

    def test_terminal_punct_variants_and_trailing_ws(self):
        r = self._run(
            'alpha beta gamma delta epsilon?\n'
            'alpha beta gamma delta epsilon!  \n'
            'alpha beta gamma delta "epsilon"\t\n'
            "alpha beta gamma delta epsilon;"
        )
        assert r["n_kept"] == 3

    def test_verdict_needs_three_lines_and_no_poison(self):
        keep3 = "\n".join(["a b c d e."] * 3)
        assert self._run(keep3)["c4_keep"] is True
        assert self._run("\n".join(["a b c d e."] * 2))["c4_keep"] is False
        assert self._run(keep3 + "\nLorem Ipsum")["c4_keep"] is False
        assert self._run(keep3 + "\nx = {")["c4_keep"] is False

    def test_null_text(self):
        t = pa.table(
            {"doc_id": pa.array([1]), "text": pa.array([None], pa.string())}
        )
        r = c4_stats_batch(t).to_pylist()[0]
        assert r["n_lines"] == 1 and r["n_kept"] == 0
        assert r["clean_fp"] == hashlib.md5(b"").hexdigest()


class TestRayLane:
    def test_canonical_dedup_collapses_variants(self, ray_session):
        from pdf_extractor_ray.gate.weburl import (
            _q_url_canonical,
            _q_url_canonical_dedup,
        )

        out = _q_url_canonical_dedup(SF).to_pandas()
        # 5 messy variants per shared path; every canonical url is clean
        assert (out["dup_count"] >= 1).all()
        assert not out["canon_url"].str.contains("utm_|fbclid|#|:443|:80").any()
        assert out["canon_url"].str.startswith(("http://", "https://")).all()
        # keep_doc_id is the min doc over the group: variant-0 docs exist
        raw = _q_url_canonical(SF).to_pandas()
        assert set(out["canon_url"]) == set(raw["canon_url"])
        assert int(out["dup_count"].sum()) == len(raw)

    def test_c4_stats_runs(self, ray_session):
        from pdf_extractor_ray.gate.quality import _q_c4_filters

        out = _q_c4_filters(SF).to_pandas()
        assert len(out) > 0
        assert (out["n_kept"] <= out["n_lines"]).all()


class TestBatchScalarEquivalence:
    def test_vectorized_batch_matches_scalar(self):
        from pdf_extractor_ray.functions.webclean import canonicalize_batch

        urls = [
            "HTTPS://A.com:443/Path#f",
            "http://b.com:80/",
            "http://b.com:8080/x?a=1&utm_x=2&b=3",
            "https://c.com",
            "https://c.com/?utm_only=1",
            "not a url",
            "",
            None,
            "ftp://files.example.com:21/pub",
            "https://d.com/x?fbclid=1&FBCLID=2&gclid&a==b&&z=9#frag",
            "http://e.com/percent%20path?q=%20v",
        ]
        t = pa.table({"url": pa.array(urls, pa.string())})
        got = canonicalize_batch(t)["canon_url"].to_pylist()
        want = [canonicalize_url(u) for u in urls]
        assert got == want
