"""Dedup path regressions: non-default LSH band counts, the fully
distributed (bucket) MinHash verify vs the broadcast path, and the
SimHash pair pipeline after the single-partition funnel was removed.

Reference behavior spec: near-dup semantics follow the corpus operators
in SURVEY.md §8.4 (no reference-code counterpart — the reference has no
distributed dedup)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _corpus(ray):
    """60 docs: 50 unique + 5 exact-ish near-dup pairs (one word edit)
    planted at ids 100.. — every pair crosses batch boundaries."""
    base = [
        " ".join(f"w{i}x{j}" for j in range(30)) for i in range(50)
    ]
    texts = list(base)
    ids = list(range(50))
    for k in range(5):
        t = base[k].split()
        t[-1] = "edited"
        texts.append(" ".join(t))
        ids.append(100 + k)
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
    ).repartition(6)


class TestBandHashes:
    def test_any_divisor_of_64_works(self):
        from pdf_extractor_ray.functions.dedup import _band_hashes

        sigs = np.arange(128, dtype=np.int64).reshape(2, 64)
        for n_bands in (4, 8, 16, 32, 64):
            out = _band_hashes(sigs, n_bands)
            assert out.shape == (2, n_bands)
            # identical signatures -> identical hashes; distinct rows differ
            assert not np.array_equal(out[0], out[1])

    def test_non_divisor_raises(self):
        from pdf_extractor_ray.functions.dedup import _band_hashes

        with pytest.raises(ValueError):
            _band_hashes(np.zeros((2, 64), dtype=np.int64), 7)

    def test_default_band_hashes_pinned(self):
        """n_bands=16 values must not drift (test-pinned; candidate sets
        and the dedup_minhash oracle depend on them only via recall, but
        determinism across processes is load-bearing)."""
        from pdf_extractor_ray.functions.dedup import (
            _band_hashes,
            minhash_signature,
        )

        sig = np.stack(
            [minhash_signature("the quick brown fox jumps over the lazy dog")]
        )
        # re-pinned r04: shingle hash moved from per-string crc32 to
        # the vectorized hash_array polynomial (VERDICT r03 #2)
        assert _band_hashes(sig, 16)[0][:4].tolist() == [
            4067592199913738318,
            4610989970065697188,
            -1610309260550797720,
            -3446633628949265715,
        ]
        assert _band_hashes(sig, 8)[0][:4].tolist() == [
            -8629612993241728412,
            1554151310283769056,
            4908170829602828057,
            4761064864384056694,
        ]

    def test_nondefault_n_bands_end_to_end(self, ray_session):
        from pdf_extractor_ray.functions.dedup import minhash_candidates

        ds = _corpus(ray_session)
        got = minhash_candidates(ds, n_bands=8).to_pandas()
        # 8 bands x 8 rows is STRICTER than 16x4; planted pairs are
        # 29/31-similar so they still collide somewhere
        pairs = set(zip(got["doc_a"], got["doc_b"]))
        assert {(k, 100 + k) for k in range(5)} <= pairs


class TestMinhashVerifyPaths:
    def test_bucket_equals_broadcast(self, ray_session, monkeypatch):
        from pdf_extractor_ray.functions import dedup as dd

        ds = _corpus(ray_session)
        monkeypatch.setattr(dd, "AUTO_BROADCAST_MAX", 0)
        a = (
            dd.minhash_dedup_pairs(ds, threshold=0.5)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        ds2 = _corpus(ray_session)
        monkeypatch.setattr(dd, "AUTO_BROADCAST_MAX", 10_000_000)
        b = (
            dd.minhash_dedup_pairs(ds2, threshold=0.5)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
        assert {(r.doc_a, r.doc_b) for r in a.itertuples()} == {
            (k, 100 + k) for k in range(5)
        }

    def test_bucket_path_collects_nothing_on_driver(self, ray_session, monkeypatch):
        """The 100 TB property: the bucket verify path must never call
        Dataset.to_pandas / take_all on candidate or text data."""
        import ray.data

        from pdf_extractor_ray.functions import dedup as dd

        calls = []
        orig = ray.data.Dataset.to_pandas
        monkeypatch.setattr(
            ray.data.Dataset,
            "to_pandas",
            lambda self, *a, **k: (calls.append(1), orig(self, *a, **k))[1],
        )
        orig_ta = ray.data.Dataset.take_all
        monkeypatch.setattr(
            ray.data.Dataset,
            "take_all",
            lambda self, *a, **k: (calls.append(1), orig_ta(self, *a, **k))[1],
        )
        ds = _corpus(ray_session)
        monkeypatch.setattr(dd, "AUTO_BROADCAST_MAX", 0)
        out = dd.minhash_dedup_pairs(ds, threshold=0.5)
        n = out.count()
        assert calls == [], "bucket verify must not materialize on the driver"
        assert n == 5


class TestIncrementalMinhash:
    """Cross-dump near-dup probe against a persisted band-row store."""

    def _old_new(self, ray):
        old = _corpus(ray)  # ids 0..49 unique + 100..104 near-dups
        # new dump: near-dup copies of docs 0..2 (one word edited,
        # J ~ 28/32 = 0.875 on 3-gram shingles of 30 words), one exact
        # copy of doc 10, and two fresh docs matching nothing
        base = [" ".join(f"w{i}x{j}" for j in range(30)) for i in range(50)]
        new_texts, new_ids = [], []
        for k in range(3):
            t = base[k].split()
            t[0] = "edited"
            new_texts.append(" ".join(t))
            new_ids.append(1000 + k)
        new_texts.append(base[10])
        new_ids.append(1010)
        new_texts += ["totally different content here", "and again other"]
        new_ids += [2000, 2001]
        new = ray.data.from_arrow(
            pa.table(
                {"doc_id": pa.array(new_ids, pa.int64()), "text": new_texts}
            )
        ).repartition(3)
        return old, new

    def test_store_roundtrip_and_exact_jaccard(self, ray_session, tmp_path):
        from pdf_extractor_ray.functions.dedup import (
            incremental_minhash,
            minhash_band_table,
            ngram_jaccard,
        )

        old, new = self._old_new(ray_session)
        store_dir = str(tmp_path / "store")
        minhash_band_table(old).write_parquet(store_dir)
        store = ray_session.data.read_parquet(store_dir)

        out = (
            incremental_minhash(new, store, old, threshold=0.8)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        got = {(r.doc_a, r.doc_b) for r in out.itertuples()}
        # each edited copy matches its origin AND the origin's planted
        # old near-dup at id 100+k (first-word vs last-word edit still
        # shares 26 of 30 shingles -> J = 0.867); exact copy matches 10
        assert got == {
            (1000, 0), (1000, 100),
            (1001, 1), (1001, 101),
            (1002, 2), (1002, 102),
            (1010, 10),
        }
        # jaccard column is the EXACT value, not an estimate
        old_df = old.to_pandas().set_index("doc_id")
        new_df = new.to_pandas().set_index("doc_id")
        for r in out.itertuples():
            assert r.jaccard == pytest.approx(
                ngram_jaccard(
                    new_df.loc[r.doc_a, "text"], old_df.loc[r.doc_b, "text"]
                )
            )
            assert r.jaccard >= 0.8

    def test_bucket_verify_collects_nothing_on_driver(
        self, ray_session, monkeypatch, tmp_path
    ):
        import ray.data

        from pdf_extractor_ray.functions import dedup as dd

        old, new = self._old_new(ray_session)
        store_dir = str(tmp_path / "store")
        dd.minhash_band_table(old).write_parquet(store_dir)
        store = ray_session.data.read_parquet(store_dir)

        calls = []
        orig = ray.data.Dataset.to_pandas
        monkeypatch.setattr(
            ray.data.Dataset,
            "to_pandas",
            lambda self, *a, **k: (calls.append(1), orig(self, *a, **k))[1],
        )
        orig_ta = ray.data.Dataset.take_all
        monkeypatch.setattr(
            ray.data.Dataset,
            "take_all",
            lambda self, *a, **k: (calls.append(1), orig_ta(self, *a, **k))[1],
        )
        monkeypatch.setattr(dd, "AUTO_BROADCAST_MAX", 0)
        out = dd.incremental_minhash(new, store, old, threshold=0.8)
        n = out.count()
        assert calls == [], "bucket verify must not materialize on the driver"
        assert n == 7


class TestIncrementalDedup:
    def test_anti_join_drops_seen_content(self, ray_session):
        from pdf_extractor_ray.functions.dedup import (
            content_hashes,
            incremental_dedup,
        )

        old_texts = [f"old doc {i} " * 5 for i in range(40)]
        new_texts = [f"new doc {i} " * 5 for i in range(60)]
        # new dump = 60 fresh + 40 re-crawled copies of the old dump
        new_ds = ray_session.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(list(range(100)), pa.int64()),
                    "text": new_texts + old_texts,
                }
            )
        ).repartition(5)
        known = content_hashes(
            ray_session.data.from_arrow(
                pa.table(
                    {
                        "doc_id": pa.array(list(range(40)), pa.int64()),
                        "text": old_texts,
                    }
                )
            ).repartition(3)
        )
        out = incremental_dedup(new_ds, known).to_pandas()
        assert sorted(out["doc_id"]) == list(range(60))

    def test_empty_known_side_keeps_everything(self, ray_session):
        import pandas as pd

        from pdf_extractor_ray.functions.dedup import incremental_dedup

        new_ds = ray_session.data.from_arrow(
            pa.table(
                {"doc_id": pa.array([1, 2], pa.int64()), "text": ["a", "b"]}
            )
        )
        known = ray_session.data.from_pandas(
            pd.DataFrame({"text_hash": pd.Series([], dtype="str")})
        )
        out = incremental_dedup(new_ds, known).to_pandas()
        assert sorted(out["doc_id"]) == [1, 2]


class TestDupNgramSpans:
    def test_copies_and_uniques(self, ray_session):
        from pdf_extractor_ray.functions.dedup import dup_ngram_span_stats

        uniq = [
            " ".join(f"u{i}w{j}" for j in range(10)) for i in range(6)
        ]
        docs = uniq + [uniq[0], "tiny doc"]  # doc 6 = copy of doc 0; doc 7 < n words
        ds = ray_session.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(8), pa.int64()),
                    "text": docs,
                }
            )
        ).repartition(3)
        out = (
            dup_ngram_span_stats(ds, n=5)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert len(out) == 8
        # 10 words -> 6 positions of 5-grams
        assert (out.loc[1:5, "n_ngrams"] == 6).all()
        assert (out.loc[1:5, "n_dup"] == 0).all()
        # the copied pair: every position duplicated
        assert out.loc[0, "n_dup"] == 6 and out.loc[6, "n_dup"] == 6
        # short doc present with zeros
        assert out.loc[7, "n_ngrams"] == 0 and out.loc[7, "n_dup"] == 0

    def test_within_doc_repetition_counts(self, ray_session):
        from pdf_extractor_ray.functions.dedup import dup_ngram_span_stats

        # "a b c d e a b c d e ..." — the 5-gram 'a b c d e' repeats
        # inside ONE doc; both its positions are duplicated spans
        t = " ".join(["a b c d e"] * 3)
        ds = ray_session.data.from_arrow(
            pa.table({"doc_id": pa.array([1], pa.int64()), "text": [t]})
        )
        out = dup_ngram_span_stats(ds, n=5).to_pandas().iloc[0]
        assert out["n_ngrams"] == 11  # 15 words -> 11 positions
        # positions 0,5,10 carry 'a b c d e' (3 occurrences); the
        # other shifted 5-grams each appear twice -> all 11 duplicated
        assert out["n_dup"] == 11


class TestStripDupSpans:
    def test_removal_matches_serial_replay(self, ray_session):
        import re
        from collections import Counter

        import numpy as np

        from pdf_extractor_ray.functions.dedup import strip_dup_spans

        texts = [
            "the quick brown fox jumps over the lazy dog today",
            "completely unique words here alpha beta gamma delta eps",
            "tiny doc",
            "prefix the quick brown fox jumps over something else",
            "",
            "The QUICK Brown fox jumps over the lazy dog today",  # case-folded copy of 0
        ]
        ds = ray_session.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts,
                }
            )
        ).repartition(3)
        out = (
            strip_dup_spans(ds, n=5)
            .to_pandas()
            .set_index("doc_id")
            .sort_index()
        )
        assert len(out) == len(texts)

        word_re, n = re.compile(r"\S+"), 5
        docs = {i: word_re.findall(t.lower()) for i, t in enumerate(texts)}
        cnt = Counter(
            " ".join(ws[j : j + n])
            for ws in docs.values()
            for j in range(len(ws) - n + 1)
        )
        for i, ws in docs.items():
            mask = np.zeros(len(ws), bool)
            for j in range(len(ws) - n + 1):
                if cnt[" ".join(ws[j : j + n])] > 1:
                    mask[j : j + n] = True
            row = out.loc[i]
            assert row["n_words"] == len(ws)
            assert row["n_removed"] == int(mask.sum())
            assert row["kept_text"] == " ".join(
                w for w, dead in zip(ws, mask) if not dead
            )
        # the case-folded copy pair is fully cut
        assert out.loc[0, "n_removed"] == 10 and out.loc[5, "n_removed"] == 10
        # partial overlap: doc 3 keeps only its non-shared words
        assert out.loc[3, "kept_text"] == "prefix something else"

    def test_min_span_words_threshold(self, ray_session):
        """Lee et al.'s maximal-span rule: a short duplicated phrase
        (one isolated 5-gram, maximal span = 5 words) survives a
        min_span_words=8 run; a 12-word verbatim block (maximal span =
        12) is cut at 8 but survives at 15; partial overlaps merge
        before the length test."""
        from pdf_extractor_ray.functions.dedup import strip_dup_spans

        shared5 = "alpha beta gamma delta epsilon"
        block12 = "one two three four five six seven eight nine ten eleven twelve"
        texts = [
            f"p0 {shared5} q0 r0 s0",            # isolated 5-gram dup
            f"p1 {shared5} q1 r1 s1",
            f"x0 {block12} y0",                   # 12-word block dup
            f"x1 {block12} y1",
        ]
        ds = ray_session.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts,
                }
            )
        ).repartition(2)

        def run(thr):
            return (
                strip_dup_spans(ds, n=5, min_span_words=thr)
                .to_pandas()
                .set_index("doc_id")
                .sort_index()
            )

        base = run(0)
        assert base.loc[0, "n_removed"] == 5  # plain rule cuts the 5-gram
        assert base.loc[2, "n_removed"] == 12

        at8 = run(8)
        # 5-word maximal span < 8 -> survives intact
        assert at8.loc[0, "n_removed"] == 0
        assert at8.loc[0, "kept_text"] == texts[0].lower()
        # 12-word maximal span >= 8 -> cut
        assert at8.loc[2, "n_removed"] == 12
        assert at8.loc[2, "kept_text"] == "x0 y0"

        at15 = run(15)
        assert at15.loc[2, "n_removed"] == 0  # 12 < 15 -> survives

        # partial overlap: two dup 5-grams overlapping by 4 words merge
        # into ONE 6-word maximal span -> cut at 6, kept at 7
        ov = "o1 o2 o3 o4 o5 o6"
        ds2 = ray_session.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([0, 1, 2], pa.int64()),
                    "text": [
                        f"a {ov} b",
                        f"c {ov[:14]} d e",   # shares o1..o5 (first 5-gram)
                        f"f {ov[3:]} g h",    # shares o2..o6 (second 5-gram)
                    ],
                }
            )
        )
        m6 = (
            strip_dup_spans(ds2, n=5, min_span_words=6)
            .to_pandas().set_index("doc_id").sort_index()
        )
        assert m6.loc[0, "n_removed"] == 6
        m7 = (
            strip_dup_spans(ds2, n=5, min_span_words=7)
            .to_pandas().set_index("doc_id").sort_index()
        )
        assert m7.loc[0, "n_removed"] == 0

    def test_within_doc_repeat_is_cut(self, ray_session):
        from pdf_extractor_ray.functions.dedup import strip_dup_spans

        t = " ".join(["a b c d e"] * 3)
        ds = ray_session.data.from_arrow(
            pa.table({"doc_id": pa.array([1], pa.int64()), "text": [t]})
        )
        out = strip_dup_spans(ds, n=5).to_pandas().iloc[0]
        assert out["n_words"] == 15
        assert out["n_removed"] == 15 and out["kept_text"] == ""

    def test_collects_nothing_on_driver(self, ray_session, monkeypatch):
        """The 100 TB property: the default path must never call
        Dataset.to_pandas / take_all — dup classification, the text
        cogroup and the cut all stay on the cluster."""
        import ray.data

        from pdf_extractor_ray.functions.dedup import strip_dup_spans

        calls = []
        orig = ray.data.Dataset.to_pandas
        monkeypatch.setattr(
            ray.data.Dataset,
            "to_pandas",
            lambda self, *a, **k: (calls.append(1), orig(self, *a, **k))[1],
        )
        orig_ta = ray.data.Dataset.take_all
        monkeypatch.setattr(
            ray.data.Dataset,
            "take_all",
            lambda self, *a, **k: (calls.append(1), orig_ta(self, *a, **k))[1],
        )
        texts = [" ".join(f"g{i}w{j}" for j in range(8)) for i in range(20)]
        texts.append(texts[0])
        ds = ray_session.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts,
                }
            )
        )
        n = strip_dup_spans(ds, n=5).count()
        assert calls == [], "strip_dup_spans must not materialize on the driver"
        assert n == len(texts)

    def test_planted_copy_fully_cut(self, ray_session):
        """A planted verbatim copy loses every word, next to short and
        empty docs that have no n-gram at all."""
        from pdf_extractor_ray.functions.dedup import strip_dup_spans

        texts = [
            " ".join(f"u{i}w{j}" for j in range(12)) for i in range(30)
        ]
        texts += [texts[0], texts[5], "tiny", ""]
        ds = ray_session.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts,
                }
            )
        ).repartition(4)
        a = (
            strip_dup_spans(ds, n=5)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert a.loc[0, "n_removed"] == 12  # planted copy fully cut


class TestSimhashPairs:
    def test_simhash64_pinned(self):
        from pdf_extractor_ray.functions.dedup import simhash64

        # pinned against the DuckDB replay (md5_number_lower features;
        # bit i set iff signed bit-sum > 0) — see the dedup_simhash
        # oracle in __ray_entry__.py
        assert simhash64("hello world the quick brown fox") == (
            1334057324351865661
        )

    def test_simhash64_matches_duckdb_replay(self):
        """The production sketch must equal the SQL oracle's formula
        (md5_number_lower features, signed bit-vote) on arbitrary
        ASCII text — the property the driver oracle stands on."""
        import duckdb

        from pdf_extractor_ray.functions.dedup import simhash64

        texts = [
            "hello world the quick brown fox",
            "Alpha BETA  gamma\tdelta",
            "",
            "one",
            "a b c d e f g h i j k l m n o p",
            "repeated repeated repeated word word",
        ]
        con = duckdb.connect()
        vals = ", ".join(
            f"({i}, '{t}')" for i, t in enumerate(texts)
        )
        duck = dict(
            con.sql(
                f"""
            WITH d(doc_id, text) AS (VALUES {vals}),
            w AS (SELECT doc_id,
                         unnest(regexp_extract_all(lower(text),
                                '[^ \\t\\n\\r\\f\\x0b]+')) AS w
                  FROM d),
            bits AS (SELECT doc_id, b.i,
                            sum(CASE WHEN (md5_number_lower(w) >> b.i) & 1 = 1
                                     THEN 1 ELSE -1 END) AS s
                     FROM w CROSS JOIN
                          (SELECT unnest(range(64)) AS i) b(i)
                     GROUP BY doc_id, b.i),
            sh AS (SELECT d.doc_id,
                          COALESCE(sum(CASE WHEN bits.s > 0
                                            THEN (1::HUGEINT << bits.i)
                                            ELSE 0 END), 0) AS h
                   FROM d LEFT JOIN bits ON d.doc_id = bits.doc_id
                   GROUP BY d.doc_id)
            SELECT doc_id, h FROM sh
            """
            ).fetchall()
        )
        for i, t in enumerate(texts):
            assert simhash64(t) == int(duck[i]), t

    def test_pairs_found_and_unique(self, ray_session):
        from pdf_extractor_ray.functions.dedup import simhash_dedup_pairs

        # exact copies (hamming 0 — inside the pigeonhole-exact radius)
        base = [" ".join(f"w{i}x{j}" for j in range(30)) for i in range(50)]
        ids = list(range(50)) + [100 + k for k in range(5)]
        texts = base + [base[k] for k in range(5)]
        ds = ray_session.data.from_arrow(
            pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts})
        ).repartition(6)
        got = simhash_dedup_pairs(ds, max_hamming=3).to_pandas()
        # no cross-bucket duplicate pairs survive (exact dups share all
        # 4 bands, so each pair is found in 4 different band groups)
        assert not got.duplicated(subset=["doc_a", "doc_b"]).any()
        pairs = set(zip(got["doc_a"], got["doc_b"]))
        assert {(k, 100 + k) for k in range(5)} <= pairs

    def test_exact_duplicates_hamming_zero(self, ray_session):
        from pdf_extractor_ray.functions.dedup import simhash_dedup_pairs

        t = "alpha beta gamma delta epsilon zeta"
        ds = ray_session.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": [t, t, "completely different words here now"],
                }
            )
        )
        got = simhash_dedup_pairs(ds, max_hamming=0).to_pandas()
        assert len(got) == 1
        assert (got.iloc[0]["doc_a"], got.iloc[0]["doc_b"]) == (1, 2)
        assert got.iloc[0]["hamming"] == 0


class TestLatestVersion:
    def test_keeps_newest_per_key_vs_duck(self, ray_session):
        import duckdb
        import pandas as pd
        import pyarrow as pa

        import ray.data

        from pdf_extractor_ray.functions.dedup import latest_version

        sf = "/root/testdata/sf0.001"
        docs = ray.data.read_parquet(f"{sf}/documents.parquet", columns=["doc_id"])

        def versions(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "url": pa.array(
                        [f"u-{i % 20}" for i in ids], pa.string()
                    ),
                    "doc_id": batch["doc_id"],
                    "fetch_ts": pa.array((ids * 7919) % 1000, pa.int64()),
                }
            )

        got = (
            latest_version(docs.map_batches(versions, batch_format="pyarrow"))
            .to_pandas()
            .sort_values("url")
            .reset_index(drop=True)[["url", "doc_id", "fetch_ts"]]
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM parquet_scan('{sf}/documents.parquet')"
        )
        want = con.execute(
            "WITH v AS (SELECT doc_id, 'u-' || CAST(doc_id % 20 AS VARCHAR) AS url, "
            "CAST((doc_id * 7919) % 1000 AS BIGINT) AS fetch_ts FROM documents), "
            "r AS (SELECT *, row_number() OVER (PARTITION BY url "
            "ORDER BY fetch_ts DESC, doc_id DESC) AS rn FROM v) "
            "SELECT url, doc_id, fetch_ts FROM r WHERE rn = 1 ORDER BY url"
        ).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


class TestInvertedIndex:
    def test_postings_match_duck(self, ray_session):
        import duckdb
        import pandas as pd

        import ray.data

        from pdf_extractor_ray.functions.textstats import inverted_index_summary

        sf = "/root/testdata/sf0.001"
        docs = ray.data.read_parquet(
            f"{sf}/documents.parquet", columns=["doc_id", "text"]
        )
        got = (
            inverted_index_summary(docs, min_df=3)
            .to_pandas()
            .sort_values("word")
            .reset_index(drop=True)[["word", "df", "postings_fp"]]
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM parquet_scan('{sf}/documents.parquet')"
        )
        want = con.execute(
            "WITH p AS (SELECT DISTINCT word, doc_id FROM ("
            "SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word "
            "FROM documents)), "
            "a AS (SELECT word, CAST(count(*) AS BIGINT) AS df, "
            "md5(string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)) AS postings_fp "
            "FROM p GROUP BY word) "
            "SELECT word, df, postings_fp FROM a WHERE df >= 3 ORDER BY word"
        ).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

    def test_duplicate_doc_word_pairs_collapse_across_batches(self, ray_session):
        """A word appearing in the same doc in MANY batches (a doc split
        across batch boundaries can't happen, but unioned dumps can
        repeat rows) must count once per (word, doc)."""
        import ray.data

        from pdf_extractor_ray.functions.textstats import inverted_index_summary

        rows = [{"doc_id": 1, "text": "alpha beta"}] * 3 + [
            {"doc_id": 2, "text": "alpha alpha gamma"}
        ]
        ds = ray.data.from_items(rows, override_num_blocks=2)
        got = inverted_index_summary(ds, min_df=1).to_pandas()
        by_word = got.set_index("word")["df"].to_dict()
        assert by_word == {"alpha": 2, "beta": 1, "gamma": 1}


class TestContentChangeLog:
    def test_hand_case_change_types(self, ray_session):
        import ray.data

        from pdf_extractor_ray.functions.dedup import content_change_log

        rows = [
            {"url": "a", "doc_id": 1, "fetch_ts": 1, "text_hash": "h1"},
            {"url": "a", "doc_id": 2, "fetch_ts": 2, "text_hash": "h1"},  # drop
            {"url": "a", "doc_id": 3, "fetch_ts": 3, "text_hash": "h2"},  # changed
            {"url": "a", "doc_id": 4, "fetch_ts": 4, "text_hash": "h2"},  # drop
            {"url": "a", "doc_id": 5, "fetch_ts": 5, "text_hash": "h1"},  # changed (back)
            {"url": "b", "doc_id": 6, "fetch_ts": 1, "text_hash": "h9"},  # new
        ]
        out = (
            content_change_log(ray.data.from_items(rows, override_num_blocks=3))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["doc_id"].tolist() == [1, 3, 5, 6]
        assert out["change_type"].tolist() == ["new", "changed", "changed", "new"]

    def test_matches_lag_window_sql(self, ray_session):
        import hashlib

        import duckdb
        import pandas as pd
        import pyarrow as pa

        import ray.data

        from pdf_extractor_ray.functions.dedup import content_change_log

        sf = "/root/testdata/sf0.001"
        docs = ray.data.read_parquet(f"{sf}/documents.parquet", columns=["doc_id"])

        def revisits(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            urls = [f"u-{i % 10}" for i in ids]
            hashes = [
                hashlib.md5(f"{u}:{i // 30}".encode()).hexdigest()
                for u, i in zip(urls, ids)
            ]
            return pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "doc_id": batch["doc_id"],
                    "fetch_ts": batch["doc_id"],
                    "text_hash": pa.array(hashes, pa.string()),
                }
            )

        got = (
            content_change_log(docs.map_batches(revisits, batch_format="pyarrow"))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)[
                ["url", "doc_id", "fetch_ts", "text_hash", "change_type"]
            ]
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM parquet_scan('{sf}/documents.parquet')"
        )
        want = con.execute(
            "WITH v AS (SELECT doc_id, 'u-' || CAST(doc_id % 10 AS VARCHAR) AS url, "
            "doc_id AS fetch_ts, "
            "md5('u-' || CAST(doc_id % 10 AS VARCHAR) || ':' || CAST(doc_id // 30 AS VARCHAR)) AS text_hash "
            "FROM documents), "
            "d AS (SELECT *, lag(text_hash) OVER (PARTITION BY url ORDER BY fetch_ts, doc_id) AS prev_hash FROM v) "
            "SELECT url, doc_id, fetch_ts, text_hash, "
            "CASE WHEN prev_hash IS NULL THEN 'new' ELSE 'changed' END AS change_type "
            "FROM d WHERE prev_hash IS NULL OR text_hash <> prev_hash ORDER BY doc_id"
        ).df().reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestAutoVerifySelect:
    def test_auto_matches_both_paths_and_switches(self, ray_session, monkeypatch):
        """The counted candidate table picks broadcast under
        ``AUTO_BROADCAST_MAX`` (the driver collects the pairs while
        building the plan) and bucket above it (it collects nothing),
        and the broadcast path and the default threshold give the
        bucket path's answer."""
        import pandas as pd
        import ray.data

        from pdf_extractor_ray.functions import dedup as dd

        collected = []
        orig = ray.data.Dataset.to_pandas
        monkeypatch.setattr(
            ray.data.Dataset,
            "to_pandas",
            lambda self, *a, **k: (collected.append(1), orig(self, *a, **k))[1],
        )

        default_max = dd.AUTO_BROADCAST_MAX

        def run(max_pairs):
            collected.clear()
            monkeypatch.setattr(dd, "AUTO_BROADCAST_MAX", max_pairs)
            out = dd.minhash_dedup_pairs(_corpus(ray_session), threshold=0.5)
            n_collects = len(collected)
            got = (
                out.to_pandas()
                .sort_values(["doc_a", "doc_b"])
                .reset_index(drop=True)
            )
            return got, n_collects

        want, bucket_collects = run(0)
        lo, broadcast_collects = run(10_000_000)
        default, _ = run(default_max)
        assert bucket_collects == 0
        assert broadcast_collects > 0
        pd.testing.assert_frame_equal(lo, want)
        pd.testing.assert_frame_equal(default, want)


def test_band_shard_ignores_a_replayed_push():
    """A retried push task adds the same band rows twice; the shard must
    emit exactly the pairs of one push (no doc_a == doc_b self-pairs,
    no duplicate crowding distinct ids out of the max_bucket window)."""
    from pdf_extractor_ray.functions.dedup import _BandShard as actor_class

    # the class itself, run in-process: no actor, no cluster
    _BandShard = actor_class.__ray_metadata__.modified_class
    cols = {
        "band": np.array([0, 0, 0, 1, 1], np.int32),
        "band_hash": np.array([5, 5, 5, 9, 9], np.int64),
        "doc_id": np.array([3, 1, 2, 1, 4], np.int64),
    }

    def pairs(n_pushes: int, max_bucket: int = 200):
        shard = _BandShard(0, 1, max_bucket)
        for _ in range(n_pushes):
            shard.add(**{k: v.copy() for k, v in cols.items()})
        t = shard.emit_pairs()
        return list(zip(t["doc_a"].to_pylist(), t["doc_b"].to_pylist()))

    once = pairs(1)
    assert once == [(1, 2), (1, 3), (1, 4), (2, 3)]
    assert pairs(2) == once
    assert pairs(2, max_bucket=2) == pairs(1, max_bucket=2) == [(1, 2), (1, 4)]
