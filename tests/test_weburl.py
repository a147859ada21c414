"""URL/domain corpus operators (functions/weburl.py) and canonical
text normalization (textstats.normalize_*) vs DuckDB goldens at
sf0.001, plus unit pins for the tricky scalar semantics.

The domain operators are corpus-scale extensions (SURVEY.md §8.4):
the reference processes single documents and has no URL surface.
"""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"

URL_EXPR = "'https://site-' || (doc_id % 37) || '.example.com/page/' || doc_id"
HOST_EXPR = "'site-' || (doc_id % 37) || '.example.com'"


def _duck():
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM parquet_scan('{SF}/documents.parquet')"
    )
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _urls_ds(ray):
    from pdf_extractor_ray.gate.fixtures import _docs_with_urls

    return _docs_with_urls(SF)


class TestHostExtraction:
    def test_host_array(self):
        from pdf_extractor_ray.functions.weburl import _host_array

        urls = pa.array(
            [
                "https://site-1.example.com/page/3",
                "http://a.b.c:8080/x?q=1",
                "ftp://files.example.org",
                "not a url",
                "//protocol-relative.example.com/x",
                None,
            ]
        )
        hosts = _host_array(urls).to_pylist()
        assert hosts == [
            "site-1.example.com",
            "a.b.c",  # port stripped
            "files.example.org",
            None,
            None,  # scheme required
            None,
        ]

    def test_add_host(self, ray_session):
        from pdf_extractor_ray.functions.weburl import add_host

        ds = add_host(_urls_ds(ray_session))
        row = ds.take(1)[0]
        assert row["host"] == f"site-{row['doc_id'] % 37}.example.com"


class TestDomainOps:
    def test_domain_counts_golden(self, ray_session):
        from pdf_extractor_ray.functions.weburl import domain_counts

        got = _canon(domain_counts(_urls_ds(ray_session)).to_pandas())
        want = _canon(
            _duck()
            .execute(
                f"SELECT {HOST_EXPR} AS host, count(*) AS n "
                "FROM documents GROUP BY host"
            )
            .df()
        )
        pd.testing.assert_frame_equal(got, want)

    def test_cap_per_domain_golden(self, ray_session):
        from pdf_extractor_ray.functions.weburl import cap_per_domain

        got = _canon(cap_per_domain(_urls_ds(ray_session), k=5).to_pandas())
        want = _canon(
            _duck()
            .execute(
                f"""
                WITH p AS (SELECT doc_id, {HOST_EXPR} AS host FROM documents)
                SELECT doc_id, host FROM p
                QUALIFY row_number() OVER (
                    PARTITION BY host
                    ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) <= 5
                """
            )
            .df()
        )
        pd.testing.assert_frame_equal(got, want)
        assert got.groupby("host").size().max() <= 5

    def test_cap_prunes_locally_before_exchange(self, ray_session):
        """The batch-local prune alone must already keep a superset of
        the global survivors (the correctness condition that lets the
        exchange carry <=k rows per (host, batch))."""
        import hashlib

        from pdf_extractor_ray.functions.weburl import cap_per_domain

        docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id"])
        ids = docs["doc_id"].to_numpy()
        df = pd.DataFrame(
            {
                "doc_id": ids,
                "host": [f"site-{i % 37}.example.com" for i in ids],
            }
        )
        df["_rk"] = [
            hashlib.md5(str(i).encode()).hexdigest() for i in df["doc_id"]
        ]
        globally_kept = set(
            df.sort_values(["_rk", "doc_id"])
            .groupby("host", sort=False)
            .head(5)["doc_id"]
        )
        # split into 7 arbitrary "batches"; local top-5 per host per batch
        local = set()
        for part in range(7):
            b = df[df["doc_id"] % 7 == part]
            local |= set(
                b.sort_values(["_rk", "doc_id"])
                .groupby("host", sort=False)
                .head(5)["doc_id"]
            )
        assert globally_kept <= local

    def test_filter_blocked(self, ray_session):
        import ray.data

        from pdf_extractor_ray.functions.weburl import filter_blocked_domains

        ds = ray.data.from_items(
            [
                {"doc_id": 0, "url": "https://bad.example.com/x"},
                {"doc_id": 1, "url": "https://ok.example.com/y"},
                {"doc_id": 2, "url": "not a url"},  # null host -> dropped
                {"doc_id": 3, "url": "https://bad.example.com/z"},
            ]
        )
        kept = filter_blocked_domains(ds, {"bad.example.com"})
        assert sorted(r["doc_id"] for r in kept.take_all()) == [1]


_TRICKY = [
    "",
    "   ",
    "plain",
    "  a  \t b\n\nc\r\n ",
    "étude",  # NFD -> NFC composes to é
    "a b",  # NBSP is NOT ASCII whitespace: must survive
    "tab\tand\x0bvtab\fand\rall",
    "ünïcodé  mixed \t\n",
]


class TestNormalize:
    def test_scalar_semantics(self):
        import unicodedata

        from pdf_extractor_ray.functions.textstats import normalize_text

        assert normalize_text("  a  \t b\n\nc ") == "a b c"
        assert normalize_text("") == ""
        assert normalize_text(None) == ""
        # NFC composition
        assert normalize_text("étude") == unicodedata.normalize(
            "NFC", "étude"
        )
        assert normalize_text("étude") == "étude"
        # unicode spaces are NOT collapsed (oracle parity: RE2/DuckDB
        # \s is ASCII-only, so the Python side must be too)
        assert normalize_text("a b") == "a b"

    def test_batch_matches_scalar(self):
        import hashlib

        from pdf_extractor_ray.functions.textstats import (
            normalize_batch,
            normalize_text,
        )

        batch = pa.table(
            {
                "doc_id": pa.array(range(len(_TRICKY)), pa.int64()),
                "text": pa.array(_TRICKY, pa.string()),
            }
        )
        out = normalize_batch(batch).to_pydict()
        for i, t in enumerate(_TRICKY):
            n = normalize_text(t)
            assert out["n_chars_norm"][i] == len(n)
            assert (
                out["norm_hash"][i]
                == hashlib.md5(n.encode("utf-8")).hexdigest()
            )

    def test_golden_vs_duckdb(self, ray_session):
        import __ray_entry__ as E
        from pdf_extractor_ray.gate.text import _q_normalize_text

        got = _canon(_q_normalize_text(SF).to_pandas())
        want = _canon(_duck().execute(E.oracle_sql()["normalize_text"]).df())
        pd.testing.assert_frame_equal(got, want)


class TestFrontierSchedule:
    def _frontier(self):
        import ray

        rows = []
        # host a: 5 urls priorities 10,20,20,5,1; host b: 2 urls;
        # one unparseable url dropped
        for i, (u, p) in enumerate(
            [
                ("https://a.example/p1", 10),
                ("https://a.example/p2", 20),
                ("https://a.example/p0", 20),
                ("https://a.example/p3", 5),
                ("https://a.example/p4", 1),
                ("https://b.example/x", 7),
                ("https://b.example/y", 9),
                ("not a url", 99),
            ]
        ):
            rows.append({"url": u, "priority": p})
        return ray.data.from_items(rows)

    def _collect(self, ds):
        import pyarrow as pa

        return (
            pa.concat_tables(
                list(ds.iter_batches(batch_format="pyarrow"))
            )
            .sort_by([("host", "ascending"), ("slot", "ascending")])
            .to_pylist()
        )

    def test_slots_and_timestamps(self):
        from pdf_extractor_ray.functions.weburl import frontier_schedule

        out = self._collect(
            frontier_schedule(
                self._frontier(), delay_s=3, crawl_start=1000
            )
        )
        a = [r for r in out if r["host"] == "a.example"]
        # priority DESC, url ASC: p0(20), p2(20), p1(10), p3(5), p4(1)
        assert [r["url"].rsplit("/", 1)[1] for r in a] == [
            "p0", "p2", "p1", "p3", "p4",
        ]
        assert [r["slot"] for r in a] == [0, 1, 2, 3, 4]
        assert [r["fetch_ts"] for r in a] == [1000, 1003, 1006, 1009, 1012]
        b = [r for r in out if r["host"] == "b.example"]
        assert [r["url"].rsplit("/", 1)[1] for r in b] == ["y", "x"]
        assert len(out) == 7  # junk url dropped

    def test_max_per_host_cap(self):
        from pdf_extractor_ray.functions.weburl import frontier_schedule

        out = self._collect(
            frontier_schedule(
                self._frontier(), delay_s=1, max_per_host=2
            )
        )
        a = [r for r in out if r["host"] == "a.example"]
        assert [r["url"].rsplit("/", 1)[1] for r in a] == ["p0", "p2"]
        assert len(out) == 4

    def test_cap_matches_uncapped_prefix_across_batches(self):
        # local pruning must not change the global result: run the
        # same frontier in many tiny blocks and compare to the
        # uncapped schedule's top-k per host
        import ray

        from pdf_extractor_ray.functions.weburl import frontier_schedule

        rows = [
            {
                "url": f"https://h{i % 3}.ex/p/{i:04d}",
                "priority": (i * 7) % 11,
            }
            for i in range(60)
        ]
        ds = ray.data.from_items(rows).repartition(12)
        capped = self._collect(
            frontier_schedule(ds, delay_s=2, max_per_host=4)
        )
        full = self._collect(frontier_schedule(ds, delay_s=2))
        expect = [r for r in full if r["slot"] < 4]
        assert capped == expect


class TestUrlTemplates:
    def _collect(self, ds) -> list[dict]:
        return ds.to_pandas().to_dict("records")

    def test_digit_collapse_and_topk(self, ray_session):
        import ray

        from pdf_extractor_ray.functions.weburl import url_templates

        rows = (
            [{"url": f"https://a.ex/product/{i}/view"} for i in range(5)]
            + [{"url": f"https://a.ex/user/{i}/profile"} for i in range(3)]
            + [{"url": "https://a.ex/static/about"}] * 2
            + [{"url": f"https://b.ex/item{i}.html"} for i in range(3)]
        )
        ds = ray.data.from_items(rows).repartition(4)
        got = self._collect(url_templates(ds, k=10))
        assert got == [
            {"template": "a.ex/product/{n}/view", "n": 5},
            {"template": "a.ex/user/{n}/profile", "n": 3},
            {"template": "b.ex/item{n}.html", "n": 3},
            {"template": "a.ex/static/about", "n": 2},
        ]

    def test_k_boundary_tie_broken_by_template(self, ray_session):
        import ray

        from pdf_extractor_ray.functions.weburl import url_templates

        rows = [
            {"url": f"https://h{h}.ex/p/{i}"}
            for h in range(6)
            for i in range(4)
        ]
        ds = ray.data.from_items(rows).repartition(3)
        got = self._collect(url_templates(ds, k=3))
        # all six templates tie at n=4; template ASC picks h0,h1,h2
        assert [r["template"] for r in got] == [
            "h0.ex/p/{n}",
            "h1.ex/p/{n}",
            "h2.ex/p/{n}",
        ]

    def test_junk_urls_dropped(self, ray_session):
        import ray

        from pdf_extractor_ray.functions.weburl import url_templates

        rows = [
            {"url": "not a url"},
            {"url": ""},
            {"url": "https://ok.ex/a/1"},
            {"url": "https://ok.ex/a/2?q=3#frag"},
        ]
        ds = ray.data.from_items(rows)
        got = self._collect(url_templates(ds, k=5))
        # query/fragment excluded from the path before templating
        assert got == [{"template": "ok.ex/a/{n}", "n": 2}]


def test_cap_per_domain_keep_cols(ray_session):
    import hashlib

    import ray

    from pdf_extractor_ray.functions.weburl import cap_per_domain

    rows = [
        {
            "doc_id": i,
            "url": f"https://h{i % 3}.ex/p/{i}",
            "score": i * 10,
            "tag": f"t{i}",
        }
        for i in range(30)
    ]
    ds = ray.data.from_items(rows).repartition(6)
    got = (
        cap_per_domain(ds, k=4, keep_cols=["score", "tag"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got.columns) == ["doc_id", "host", "score", "tag"]
    # survivors = per-host top-4 by md5(str(doc_id)); stat columns intact
    by_host: dict = {}
    for i in range(30):
        by_host.setdefault(f"h{i % 3}.ex", []).append(i)
    want = set()
    for h, ids in by_host.items():
        ids.sort(key=lambda i: (hashlib.md5(str(i).encode()).hexdigest(), i))
        want.update(ids[:4])
    assert set(got.doc_id) == want
    for _, r in got.iterrows():
        assert r.score == r.doc_id * 10 and r.tag == f"t{r.doc_id}"


class TestUrlFeatures:
    def test_feature_vectors(self, ray_session):
        import pyarrow as pa
        import ray.data

        from pdf_extractor_ray.functions.weburl import url_features

        batch = pa.table({"url": [
            "https://example.com/",
            "https://blog.example.com/post/77?id=5",
            "https://a3.b.example.net/a/7/b-12/c369/?id=9&ref=rss&s=2",
            "https://192.168.4.200/x/1",
        ]})
        df = url_features(ray.data.from_arrow(batch)).to_pandas()
        rows = {r.url: r for r in df.itertuples()}
        r = rows["https://example.com/"]
        assert (r.host, r.subdomain_depth, r.is_ip_host, r.tld) == (
            "example.com", 0, 0, "com")
        assert (r.path_depth, r.n_params, r.digit_permille) == (0, 0, 0)
        r = rows["https://blog.example.com/post/77?id=5"]
        assert (r.subdomain_depth, r.path_depth, r.n_params) == (1, 2, 1)
        r = rows["https://a3.b.example.net/a/7/b-12/c369/?id=9&ref=rss&s=2"]
        assert (r.subdomain_depth, r.tld, r.path_depth, r.n_params) == (
            2, "net", 4, 3)
        r = rows["https://192.168.4.200/x/1"]
        assert (r.is_ip_host, r.tld, r.subdomain_depth) == (1, "", 0)
        # 11 digits over the 25-char url
        assert r.digit_permille == 1000 * 11 // 25
