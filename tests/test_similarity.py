"""Distributed full-corpus Lloyd k-means: integer-exact semantics
(micro-unit quantization, lowest-id init, truncated-// update) and the
chained-CTE oracle replay."""

import pandas as pd
import pyarrow as pa

import ray




class TestKmeansLloyd:
    def test_blob_separation(self, ray_session):
        from pdf_extractor_ray.functions.similarity import kmeans_lloyd

        rows = []
        for i in range(20):
            base = [0.0, 0.0] if i % 2 == 0 else [0.9, 0.9]
            rows.append(
                {
                    "vec_id": i,
                    "embedding": [base[0] + 0.001 * i, base[1] - 0.001 * i],
                }
            )
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
        out = kmeans_lloyd(ds, n_clusters=2, iters=3).to_pandas()
        lab = dict(zip(out["vec_id"], out["cluster"]))
        even = {lab[i] for i in range(0, 20, 2)}
        odd = {lab[i] for i in range(1, 20, 2)}
        assert len(even) == 1 and len(odd) == 1 and even != odd

    def test_identical_vectors_tie_to_cluster_zero(self, ray_session):
        from pdf_extractor_ray.functions.similarity import kmeans_lloyd

        rows = [{"vec_id": i, "embedding": [0.5, -0.25]} for i in range(7)]
        ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
        out = kmeans_lloyd(ds, n_clusters=3, iters=2).to_pandas()
        assert set(out["cluster"]) == {0}

    def test_matches_chained_cte_replay(self, ray_session):
        import duckdb
        from pdf_extractor_ray.functions.similarity import kmeans_lloyd
        from pdf_extractor_ray.gate.vectors import _kmeans_sql

        sf = "/root/testdata/sf0.001"
        emb = ray.data.read_parquet(f"{sf}/embeddings.parquet",
                                    columns=["vec_id", "embedding"])
        got = (
            kmeans_lloyd(emb, n_clusters=8, iters=2)
            .to_pandas().sort_values("vec_id").reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM "
            f"parquet_scan('{sf}/embeddings.parquet')")
        want = (
            con.execute(_kmeans_sql(8, 2)).df()
            .sort_values("vec_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["vec_id", "cluster"]].astype("int64"),
            want[["vec_id", "cluster"]].astype("int64"),
        )


def test_cluster_balanced_sample_cap(ray_session):
    import sys
    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    out = entry.queries()["cluster_balanced_sample"](
        "/root/testdata/sf0.001"
    ).to_pandas()
    sizes = out.groupby("cluster").size()
    assert (sizes <= 32).all()
    # deterministic
    out2 = entry.queries()["cluster_balanced_sample"](
        "/root/testdata/sf0.001"
    ).to_pandas()
    key = ["cluster", "vec_id"]
    pd.testing.assert_frame_equal(
        out.sort_values(key).reset_index(drop=True)[key],
        out2.sort_values(key).reset_index(drop=True)[key],
    )
