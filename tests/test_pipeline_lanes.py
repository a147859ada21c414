"""Pipeline options: merge strategies, finalize mode, keyed output,
and their combinations, each against the default extraction stage.
"""

import pytest

from pdf_extractor_ray.sources.corpus import write_pages_parquet

N_ROWS = 200


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("lane_pages"))
    write_pages_parquet(d, N_ROWS, rows_per_file=100)
    return d


def _extract_map(ray_session, corpus_dir, **kwargs):
    from pdf_extractor_ray.pipelines import extract_pages

    rows = extract_pages(corpus_dir, **kwargs).take_all()
    return {r["url"]: (r["extracted_text"], r["status"], r["n_elements"]) for r in rows}


@pytest.fixture(scope="module")
def baseline(ray_session, corpus_dir):
    return _extract_map(ray_session, corpus_dir)


class TestLaneEquivalence:
    def test_baseline_complete(self, baseline):
        assert len(baseline) == N_ROWS

    def test_merge_strategy_none_differs_only_in_tables(
        self, ray_session, corpus_dir, baseline
    ):
        got = _extract_map(ray_session, corpus_dir, merge_strategy="none")
        assert set(got) == set(baseline)
        # strategy only affects documents with merged multi-page tables
        changed = [u for u in got if got[u] != baseline[u]]
        for u in changed:
            assert got[u][2] >= baseline[u][2]  # unmerged keeps more tables

    def test_unknown_merge_strategy_raises_before_read(
        self, ray_session, corpus_dir, monkeypatch
    ):
        """A misspelt strategy must not silently run as conservative."""
        import ray.data

        from pdf_extractor_ray.kernel.extract import extract_document
        from pdf_extractor_ray.pipelines import extract_pages
        from pdf_extractor_ray.sources.corpus import make_page_row

        reads = []
        monkeypatch.setattr(
            ray.data, "read_parquet", lambda *a, **k: reads.append(a)
        )
        with pytest.raises(ValueError, match="agressive"):
            extract_pages(corpus_dir, merge_strategy="agressive")
        assert reads == []
        # the per-document kernel keeps its never-raise contract
        row = extract_document(**make_page_row(7), merge_strategy="agressive")
        assert row["status"] in ("ok", "error")


class TestFinalizeMode:
    def test_finalize_pads_types_and_keeps_urls(self, ray_session, corpus_dir, baseline):
        got = _extract_map(ray_session, corpus_dir, finalize=True)
        assert set(got) == set(baseline)
        # every finalized document carries at least one text and table
        from pdf_extractor_ray.pipelines import extract_pages

        for row in extract_pages(corpus_dir, finalize=True).take(20):
            if row["status"] != "ok":
                continue
            types = {e["type"] for e in row["elements"]}
            assert "text" in types and "table" in types


class TestCombinedFlags:
    def test_all_options_together_keep_url_set(self, ray_session, corpus_dir, baseline):
        got = _extract_map(
            ray_session, corpus_dir, finalize=True, merge_strategy="aggressive"
        )
        assert set(got) == set(baseline)
        assert all(v[1] in ("ok", "error") for v in got.values())


class TestKeyedOutput:
    def test_partition_cols_layout_and_resume(self, ray_session, corpus_dir, tmp_path):
        import os

        import pyarrow.dataset as pads

        from pdf_extractor_ray.pipelines import run_resumable_extraction
        import glob

        files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
        out = str(tmp_path / "keyed")
        run_resumable_extraction(files, out, partition_cols=["kind"])
        # hive layout inside each shard
        kinds = os.listdir(os.path.join(out, "part=00000"))
        assert any(k.startswith("kind=") for k in kinds)
        # url set still exact via partition-aware read
        t = pads.dataset(os.path.join(out, "part=00000"), format="parquet",
                         partitioning="hive").to_table(columns=["url"])
        assert len(t) > 0
        # resume still skips committed shards
        res = run_resumable_extraction(files, out, partition_cols=["kind"])
        assert res["ran"] == []
