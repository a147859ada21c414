"""Bigram familiarity and positional phrase search.

Pins the hand arithmetic the gate can't show (floor-log2 familiarity
on a tiny corpus, overlapping phrase matches) plus the oracle replay
at sf0.001.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

SF = "/root/testdata/sf0.001"


class TestBigramFamiliarity:
    def test_hand_arithmetic(self, ray_session):
        """Corpus: 'a b' appears 4 times (log2=2), 'b a' 3 times
        (log2=1), 'c d' once (log2=0)."""
        from pdf_extractor_ray.functions.ngram_lm import bigram_familiarity

        rows = [
            {"doc_id": 1, "text": "a b a b a"},   # bigrams: ab, ba, ab, ba
            {"doc_id": 2, "text": "a b a b"},     # ab, ba, ab
            {"doc_id": 3, "text": "c d"},         # cd
            {"doc_id": 4, "text": "solo"},        # < 2 words: no row
        ]
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
        got = bigram_familiarity(ds).to_pandas().set_index("doc_id")
        # corpus counts: ab=4, ba=3, cd=1 -> logs 2, 1, 0
        assert got.loc[1, "fam_sum"] == 2 * 2 + 2 * 1      # 6
        assert got.loc[1, "n_bigrams"] == 4
        assert got.loc[1, "fam_milli"] == 6000 // 4
        assert got.loc[2, "fam_sum"] == 2 * 2 + 1 * 1      # 5
        assert got.loc[3, "fam_sum"] == 0                  # log2(1)=0
        assert 4 not in got.index

    def test_discrimination_template_vs_unique(self, ray_session):
        """Repeated boilerplate must out-score one-off text."""
        from pdf_extractor_ray.functions.ngram_lm import bigram_familiarity

        boiler = "click here to subscribe to our newsletter today"
        rows = [{"doc_id": i, "text": boiler} for i in range(20)]
        rows.append({"doc_id": 99, "text": "xqj kvw zpt unique gibberish run"})
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
        got = bigram_familiarity(ds).to_pandas().set_index("doc_id")
        assert got.loc[0, "fam_milli"] > got.loc[99, "fam_milli"]
        assert got.loc[99, "fam_sum"] == 0  # every bigram unique

    def test_broadcast_and_exchange_paths_identical(self, ray_session, monkeypatch):
        """The head-broadcast path (absent bigram => lg 0) and the
        bigram-bucket cogroup path must agree bit for bit, including
        docs whose bigrams are ALL singletons (fam row comes from the
        doc_totals union on the exchange path). ``BROADCAST_LIMIT``
        picks the path: a zero limit must take the exchange path, a
        large one the broadcast path."""
        from pdf_extractor_ray.functions import ngram_lm
        from pdf_extractor_ray.functions.ngram_lm import bigram_familiarity

        broadcasts = []
        real = ngram_lm._bigram_score_broadcast
        monkeypatch.setattr(
            ngram_lm,
            "_bigram_score_broadcast",
            lambda *a, **k: (broadcasts.append(1), real(*a, **k))[1],
        )

        rng = np.random.default_rng(11)
        vocab = [f"w{i}" for i in range(50)]
        rows = [
            {
                "doc_id": i,
                "text": " ".join(rng.choice(vocab, rng.integers(0, 30))),
            }
            for i in range(200)
        ]
        rows.append({"doc_id": 900, "text": "zzq yyx wwv uut"})  # all hapax
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
        outs = {}
        default_limit = ngram_lm.BROADCAST_LIMIT
        for path, limit in (("broadcast", 10**12), ("exchange", 0)):
            broadcasts.clear()
            monkeypatch.setattr(ngram_lm, "BROADCAST_LIMIT", limit)
            got = bigram_familiarity(ds).to_pandas()
            assert len(broadcasts) == (path == "broadcast")
            outs[path] = (
                got[sorted(got.columns)]
                .sort_values("doc_id")
                .reset_index(drop=True)
                .astype("int64")
            )
        pd.testing.assert_frame_equal(outs["broadcast"], outs["exchange"])
        assert 900 in set(outs["broadcast"]["doc_id"])
        # the default limit must agree too
        monkeypatch.setattr(ngram_lm, "BROADCAST_LIMIT", default_limit)
        got = bigram_familiarity(ds).to_pandas()
        got = (
            got[sorted(got.columns)]
            .sort_values("doc_id")
            .reset_index(drop=True)
            .astype("int64")
        )
        pd.testing.assert_frame_equal(got, outs["broadcast"])

    def test_matches_oracle_sf0001(self, ray_session):
        from pdf_extractor_ray.functions.ngram_lm import bigram_familiarity

        docs = ray.data.read_parquet(f"{SF}/documents.parquet",
                                     columns=["doc_id", "text"])
        got = bigram_familiarity(docs).to_pandas()
        got = got[sorted(got.columns)].sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS "
                    f"SELECT * FROM parquet_scan('{SF}/documents.parquet')")
        want = con.execute("""
            WITH w AS (SELECT doc_id,
                              regexp_extract_all(lower(coalesce(text,'')),
                                                 '[a-z0-9]+') AS ws
                       FROM documents),
            g AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS bg
                  FROM (SELECT doc_id, ws,
                               unnest(generate_series(1, len(ws)-1)) AS i
                        FROM w WHERE len(ws) >= 2)),
            c AS (SELECT bg, count(*) AS n FROM g GROUP BY bg),
            s AS (SELECT g.doc_id, count(*) AS n_bigrams,
                         sum(length(printf('%b', c.n)) - 1) AS fam_sum
                  FROM g JOIN c USING (bg) GROUP BY g.doc_id)
            SELECT doc_id, CAST(n_bigrams AS BIGINT) AS n_bigrams,
                   CAST(fam_sum AS BIGINT) AS fam_sum,
                   CAST((1000*fam_sum) // n_bigrams AS BIGINT) AS fam_milli
            FROM s
        """).df()
        want = want[sorted(want.columns)].sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


class TestPhraseCount:
    def test_overlapping_matches(self, ray_session):
        """'a a a a' contains 'a a' three times (overlaps count)."""
        from pdf_extractor_ray.functions.ngram_lm import phrase_count

        ds = ray.data.from_arrow(pa.Table.from_pylist(
            [{"doc_id": 1, "text": "a a a a"},
             {"doc_id": 2, "text": "a b a b"},
             {"doc_id": 3, "text": "b b b"}]))
        got = phrase_count(ds, "a a").to_pandas()
        got = dict(zip(got["doc_id"], got["n_matches"]))
        assert got == {1: 3}

    def test_three_word_phrase_and_punctuation(self, ray_session):
        from pdf_extractor_ray.functions.ngram_lm import phrase_count

        ds = ray.data.from_arrow(pa.Table.from_pylist(
            [{"doc_id": 1, "text": "The quick, BROWN fox! the quick brown cat"},
             {"doc_id": 2, "text": "quick brown"},
             {"doc_id": 3, "text": "the brown quick"}]))
        got = phrase_count(ds, "the quick brown").to_pandas()
        got = dict(zip(got["doc_id"], got["n_matches"]))
        assert got == {1: 2}

    def test_repeated_word_in_phrase(self, ray_session):
        """Phrase with a repeated word exercises multi-index postings."""
        from pdf_extractor_ray.functions.ngram_lm import phrase_count

        ds = ray.data.from_arrow(pa.Table.from_pylist(
            [{"doc_id": 1, "text": "x y x y x"},
             {"doc_id": 2, "text": "x x y"}]))
        got = phrase_count(ds, "x y x").to_pandas()
        got = dict(zip(got["doc_id"], got["n_matches"]))
        assert got == {1: 2}

    def test_empty_phrase_rejected(self, ray_session):
        from pdf_extractor_ray.functions.ngram_lm import phrase_count

        ds = ray.data.from_arrow(pa.Table.from_pylist([{"doc_id": 1, "text": "a"}]))
        with pytest.raises(ValueError):
            phrase_count(ds, "!!!")


class TestPercentileRank:
    def test_rank_semantics_with_ties(self, ray_session):
        """RANK(): ties share the min rank; pct spans [0, 1000]."""
        from pdf_extractor_ray.functions.selection import percentile_rank

        rows = [{"doc_id": i, "score": s}
                for i, s in enumerate([10, 20, 20, 30, 40])]
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
        got = percentile_rank(ds, score_col="score").to_pandas()
        got = got.sort_values("doc_id")
        assert got["rnk"].tolist() == [1, 2, 2, 4, 5]
        assert got["pct_milli"].tolist() == [0, 250, 250, 750, 1000]

    def test_single_row_is_zero(self, ray_session):
        from pdf_extractor_ray.functions.selection import percentile_rank

        ds = ray.data.from_arrow(pa.Table.from_pylist(
            [{"doc_id": 1, "score": 42}]))
        got = percentile_rank(ds, score_col="score").to_pandas()
        assert got["rnk"].tolist() == [1]
        assert got["pct_milli"].tolist() == [0]

    def test_matches_window_oracle_sf0001(self, ray_session):
        from pdf_extractor_ray.functions.quality import readability_scores
        from pdf_extractor_ray.functions.selection import percentile_rank

        docs = ray.data.read_parquet(f"{SF}/documents.parquet",
                                     columns=["doc_id", "text"])
        scored = readability_scores(docs).select_columns(["doc_id", "fre_m"])
        got = percentile_rank(scored, score_col="fre_m").to_pandas()
        got = got.sort_values("doc_id").reset_index(drop=True)
        # replay rank arithmetic in pandas over the same scores
        want = got[["doc_id", "fre_m"]].copy()
        want["rnk"] = want["fre_m"].rank(method="min").astype("int64")
        n = len(want)
        want["pct_milli"] = (1000 * (want["rnk"] - 1)) // (n - 1)
        pd.testing.assert_frame_equal(
            got[["doc_id", "fre_m", "rnk", "pct_milli"]].astype("int64"),
            want.astype("int64"))
