"""Exact any-length >= L duplicated-substring spans
(functions/dedup.py::exact_dup_spans) vs the 5-gram run-length proxy."""

import numpy as np
import pandas as pd
import pytest

from pdf_extractor_ray.functions.dedup import exact_dup_spans, strip_dup_spans


def _mk(ray_session, rows, parts=3):
    import ray.data

    return ray.data.from_pandas(
        pd.DataFrame(rows, columns=["doc_id", "text"])
    ).repartition(parts)


def _brute_spans(rows, L):
    """Quadratic reference: position p of doc d is covered iff some
    substring of length >= L containing p occurs at least twice in
    the corpus (equivalently: some duplicated L-window covers p)."""
    words = {d: t.lower().split() for d, t in rows}
    from collections import Counter

    grams = Counter()
    for d, ws in words.items():
        for i in range(max(len(ws) - L + 1, 0)):
            grams[" ".join(ws[i : i + L])] += 1
    out = []
    for d, ws in sorted(words.items()):
        m = len(ws)
        dead = np.zeros(m, bool)
        for i in range(max(m - L + 1, 0)):
            if grams[" ".join(ws[i : i + L])] > 1:
                dead[i : i + L] = True
        j = 0
        while j < m:
            if dead[j]:
                k = j
                while k < m and dead[k]:
                    k += 1
                out.append((d, j, k - j))
                j = k
            else:
                j += 1
    return pd.DataFrame(out, columns=["doc_id", "span_start", "span_len"])


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.RandomState(29)
    vocab = [f"w{v}" for v in range(400)]
    rows = []
    for i in range(40):
        n = rng.randint(70, 120)
        rows.append(
            (np.int64(i), " ".join(vocab[v] for v in rng.randint(0, 400, n)))
        )
    base = dict(rows)
    ws5 = base[5].split()
    ws9 = base[9].split()
    # CHIMERA: first 30 of doc 5 + last 30 of doc 9 — each block
    # duplicated, but NO 50-token substring duplicated anywhere
    rows.append(
        (np.int64(100), " ".join(ws5[:30]) + " " + " ".join(ws9[-30:]))
    )
    # TRUE long dup: 60 consecutive words of doc 7
    ws7 = base[7].split()
    rows.append((np.int64(101), " ".join(ws7[:60])))
    return rows


class TestExactDupSpans:
    def test_matches_bruteforce(self, ray_session, corpus):
        got = (
            exact_dup_spans(_mk(ray_session, corpus), min_len=50)
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        want = (
            _brute_spans(corpus, 50)
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_chimera_not_cut_but_proxy_cuts_it(self, ray_session, corpus):
        got = exact_dup_spans(_mk(ray_session, corpus), min_len=50).to_pandas()
        # exact: the chimera (doc 100) has NO duplicated >=50 substring
        assert not (got["doc_id"] == 100).any()
        # exact: the true 60-word block IS found, full extent, in both
        spans101 = got[got["doc_id"] == 101]
        assert len(spans101) == 1
        assert int(spans101["span_start"].iloc[0]) == 0
        assert int(spans101["span_len"].iloc[0]) == 60
        spans7 = got[got["doc_id"] == 7]
        assert (
            (spans7["span_start"] == 0) & (spans7["span_len"] == 60)
        ).any()

        # the r4 proxy (5-gram coverage + >=50 run filter) MIS-CUTS
        # the chimera: its two 30-word blocks chain into one 60-run
        proxy = strip_dup_spans(
            _mk(ray_session, corpus), n=5, min_span_words=50
        ).to_pandas()
        chim = proxy[proxy["doc_id"] == 100].iloc[0]
        assert int(chim["n_removed"]) >= 50  # proxy cuts the chimera
        # quantifying the theorem: exact removal via n=50 leaves it whole
        exact_cut = strip_dup_spans(_mk(ray_session, corpus), n=50).to_pandas()
        chim_e = exact_cut[exact_cut["doc_id"] == 100].iloc[0]
        assert int(chim_e["n_removed"]) == 0

    def test_partition_invariance(self, ray_session, corpus):
        a = (
            exact_dup_spans(_mk(ray_session, corpus, 1), min_len=50)
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        b = (
            exact_dup_spans(_mk(ray_session, corpus, 11), min_len=50)
            .to_pandas()
            .sort_values(["doc_id", "span_start"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_short_docs_skipped(self, ray_session):
        rows = [
            (np.int64(0), "a b c"),
            (np.int64(1), "a b c"),
        ]
        out = exact_dup_spans(_mk(ray_session, rows, 1), min_len=50).to_pandas()
        assert len(out) == 0


def test_every_output_block_is_typed(ray_session):
    """Most doc buckets hold no duplicated positions (one duplicated
    pair among many unique docs): every output block of both exchanges
    still carries the one output schema, never a column-less empty."""
    import ray

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(5000)]
    rows = [(i, " ".join(rng.choice(vocab, 60))) for i in range(40)]
    rows.append((40, rows[3][1]))
    out = exact_dup_spans(_mk(ray_session, rows, parts=4), min_len=20)
    blocks = ray.get(out.to_arrow_refs())
    schemas = {b.schema for b in blocks}
    assert len(schemas) == 1, schemas
    assert schemas.pop().names == ["doc_id", "span_start", "span_len"]
    got = pd.concat([b.to_pandas() for b in blocks])
    assert sorted(set(got["doc_id"])) == [3, 40]
