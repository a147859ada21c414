"""NSW graph ANN (functions/graphann.py)."""

import numpy as np
import pandas as pd
import pytest

from pdf_extractor_ray.functions.graphann import (
    _pair_d2,
    _quantize,
    nsw_build_edges,
    nsw_search,
)


@pytest.fixture(scope="module")
def clustered(ray_session):
    """10 tight gaussian clusters — the regime graph ANN is built
    for (IVF cells align with真 clusters, links stay intra-cluster)."""
    import ray.data

    rng = np.random.RandomState(21)
    centers = rng.randn(10, 16) * 8
    rows = []
    for i in range(400):
        c = i % 10
        rows.append(
            {
                "vec_id": i,
                "embedding": (centers[c] + rng.randn(16) * 0.3).tolist(),
            }
        )
    df = pd.DataFrame(rows)
    ds = ray.data.from_pandas(df).repartition(6).materialize()
    return df, ds


class TestBuild:
    def test_edges_are_m_nearest_in_cell(self, clustered):
        df, ds = clustered
        edges = nsw_build_edges(ds, n_cells=16, m=4).to_pandas()
        # every node links out (each cluster has 40 members >> m)
        assert set(edges["src"]) == set(df["vec_id"])
        # non-centroid nodes: m in-cell links; centroid nodes (the 16
        # lowest ids) add the 15 hub links
        deg = edges.groupby("src").size()
        assert deg[deg.index >= 16].max() <= 4
        assert deg[deg.index < 16].max() <= 4 + 15
        # spot-check one node: its links are its 4 nearest in-cell
        q = _quantize(np.asarray(list(df["embedding"])))
        ids = df["vec_id"].to_numpy()
        # recompute the cell rule
        cent = q[np.argsort(ids)[:16]]
        cells = _pair_d2(q, cent).argmin(axis=1)
        src = 37
        same = ids[(cells == cells[src]) & (ids != src)]
        d2 = _pair_d2(q[src : src + 1], q[np.isin(ids, same)])[0]
        want = set(
            same[np.lexsort((same, d2))][:4].tolist()
        )
        got = set(edges.loc[edges["src"] == src, "dst"].tolist())
        assert got == want

    def test_deterministic_across_partitioning(self, clustered):
        import ray.data

        df, _ = clustered
        a = (
            nsw_build_edges(
                ray.data.from_pandas(df).repartition(2).materialize()
            )
            .to_pandas()
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )
        b = (
            nsw_build_edges(
                ray.data.from_pandas(df).repartition(11).materialize()
            )
            .to_pandas()
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)

    def test_shadowed_centroid_cell_gets_visitors_only(self, ray_session):
        """Centroid 1 duplicates centroid 0, so cell 1 has no residents
        (ties go to the lower cell) but still receives the visitor rows
        of cell 0's nodes; the build must skip it, not crash."""
        import ray.data

        vecs = [[0, 0], [0, 0], [10, 10], [0.1, 0], [0, 0.2],
                [10.1, 10], [10, 10.3]]
        df = pd.DataFrame({"vec_id": range(len(vecs)), "embedding": vecs})
        edges = nsw_build_edges(
            ray.data.from_pandas(df), n_cells=3, m=2, mx=1
        ).to_pandas()
        deg = edges.groupby("src").size()
        # cell 0 = {0, 1, 3, 4}: m in-cell links, no visitor links
        # (their foreign cell is the empty cell 1); cell 2 = {2, 5, 6}:
        # m in-cell links + one visitor link into cell 0
        assert deg[3] == deg[4] == 2
        assert deg[5] == deg[6] == 3
        assert edges.loc[edges["src"] == 5, "dst"].isin([0, 1, 3, 4]).sum() == 1


class TestSearch:
    def test_recall_vs_bruteforce(self, clustered):
        df, ds = clustered
        edges = nsw_build_edges(ds, n_cells=16, m=6).materialize()
        qmat = np.asarray(list(df["embedding"].head(10)))
        qids = df["vec_id"].head(10).tolist()
        got = nsw_search(
            ds, edges, qmat, qids, ef=16, rounds=4, k=5
        )
        # brute-force reference on quantized distances
        q = _quantize(np.asarray(list(df["embedding"])))
        ids = df["vec_id"].to_numpy()
        hits = 0
        for qi, qv in zip(qids, _quantize(qmat)):
            d2 = _pair_d2(qv[None, :], q)[0]
            true5 = set(ids[np.lexsort((ids, d2))][:5].tolist())
            mine = set(
                got.loc[got["query_id"] == qi, "neighbor_id"].tolist()
            )
            hits += len(true5 & mine)
        recall = hits / (5 * len(qids))
        # greedy beam over a clustered graph should recover most of
        # the true top-5 (entry is in cluster 0; queries span clusters)
        assert recall >= 0.6, recall

    def test_search_deterministic(self, clustered):
        df, ds = clustered
        edges = nsw_build_edges(ds).materialize()
        qmat = np.asarray(list(df["embedding"].head(4)))
        qids = df["vec_id"].head(4).tolist()
        a = nsw_search(ds, edges, qmat, qids)
        b = nsw_search(ds, edges, qmat, qids)
        pd.testing.assert_frame_equal(a, b)

    def test_self_query_finds_self(self, clustered):
        """A query that IS a corpus vector must reach itself once the
        beam enters its cluster — rank 1 with d2 = 0."""
        df, ds = clustered
        edges = nsw_build_edges(ds, m=6).materialize()
        target = 0  # cluster 0, reachable from the entry point
        qmat = np.asarray([df["embedding"].iloc[target]])
        got = nsw_search(ds, edges, qmat, [999], ef=16, rounds=4, k=3)
        assert got.iloc[0]["neighbor_id"] == df["vec_id"].iloc[target]


class TestCrossCellRecall:
    """r4 verdict "Next round #8": with cross-cell boundary edges
    (mx > 0, n_link_cells foreign cells) the beam reaches neighbors
    that straddle Voronoi boundaries — recall@10 >= 0.95 on a 100k
    clustered corpus at an nprobe-equivalent beam. (Without them the
    same search measured 0.41-0.56; A/B curve in BASELINE.md.)"""

    def test_recall_at_100k_clustered(self, ray_session):
        import ray.data

        from pdf_extractor_ray.functions.graphann import (
            _quantize,
            nsw_build_edges,
            nsw_search,
        )

        rng = np.random.RandomState(11)
        N, D, C = 100_000, 8, 24
        centers = rng.randn(C, D) * 6
        labels = rng.randint(0, C, N)
        mat = centers[labels] + rng.randn(N, D)
        ids = np.arange(N, dtype=np.int64)
        df = pd.DataFrame(
            {
                "vec_id": ids,
                "embedding": [list(map(float, v)) for v in mat],
            }
        )
        ds = ray.data.from_pandas(df).repartition(16).materialize()
        qidx = rng.choice(N, 10, replace=False)
        qmat = mat[qidx] + rng.randn(10, D) * 0.1
        qq = _quantize(qmat)
        allq = _quantize(mat)
        gt = {}
        for t, qv in enumerate(qq):
            d2 = ((allq - qv) ** 2).sum(axis=1)
            gt[t] = set(ids[np.lexsort((ids, d2))[:10]].tolist())
        edges = nsw_build_edges(
            ds, n_cells=64, m=8, mx=4, n_link_cells=3
        ).materialize()
        res = nsw_search(
            ds, edges, qmat, list(range(10)), ef=64, rounds=10, k=10
        )
        rec = np.mean(
            [
                len(set(res[res.query_id == t]["neighbor_id"]) & gt[t])
                / 10
                for t in range(10)
            ]
        )
        assert rec >= 0.95, rec
