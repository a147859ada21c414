"""Shard-index graph engines (functions/graph.py) against independent
references: networkx for BFS, SCC, components, triangles and k-core,
and serial integer replays for PageRank and HITS. The shard index must
also handle empty shards, self loops, unreachable seeds and any shard
count."""

import networkx as nx
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

from pdf_extractor_ray.functions.graph import bfs_hops, scc_members


def _digraph(edges: pd.DataFrame) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_edges_from(zip(edges["src"].tolist(), edges["dst"].tolist()))
    return g


def _simple_graph(edges: pd.DataFrame) -> nx.Graph:
    """Distinct undirected self-loop-free edges, as the engines see them."""
    g = nx.Graph()
    g.add_edges_from(
        (s, d)
        for s, d in zip(edges["src"].tolist(), edges["dst"].tolist())
        if s != d
    )
    return g


def test_bfs_engines_agree_random(ray_session):
    rng = np.random.RandomState(11)
    edges = pd.DataFrame(
        {"src": rng.randint(0, 300, 1500), "dst": rng.randint(0, 300, 1500)}
    )
    seeds = ray.data.from_items([{"node": 3}, {"node": 250}])
    out = bfs_hops(ray.data.from_pandas(edges), seeds, max_depth=5).to_pandas()
    g = _digraph(edges)
    g.add_nodes_from([3, 250])
    want = nx.multi_source_dijkstra_path_length(g, {3, 250}, cutoff=5)
    assert dict(zip(out["node"].tolist(), out["hops"].tolist())) == want


def test_scc_engines_agree_random(ray_session):
    rng = np.random.RandomState(5)
    edges = pd.DataFrame(
        {"src": rng.randint(0, 200, 900), "dst": rng.randint(0, 200, 900)}
    )
    out = scc_members(ray.data.from_pandas(edges), seed=0).to_pandas()
    g = _digraph(edges)
    g.add_node(0)
    want = next(c for c in nx.strongly_connected_components(g) if 0 in c)
    assert sorted(out["node"].tolist()) == sorted(want)


def test_indexed_unreachable_seed_and_self_loop(ray_session):
    # 9 has only a self loop; 0->1 one-way: SCC(0) == {0}
    edges = pd.DataFrame({"src": [0, 9], "dst": [1, 9]})
    scc0 = scc_members(
        ray.data.from_pandas(edges), seed=0, n_shards=4
    ).to_pandas()
    assert sorted(scc0["node"]) == [0]
    scc9 = scc_members(
        ray.data.from_pandas(edges), seed=9, n_shards=4
    ).to_pandas()
    assert sorted(scc9["node"]) == [9]


def test_indexed_hop_minimality(ray_session):
    # diamond: 0->1->3, 0->2->3, and a long way 0->4->5->3;
    # hops(3) must be 2, not 3
    edges = pd.DataFrame(
        {"src": [0, 1, 0, 2, 0, 4, 5], "dst": [1, 3, 2, 3, 4, 5, 3]}
    )
    out = bfs_hops(
        ray.data.from_pandas(edges),
        ray.data.from_items([{"node": 0}]),
        n_shards=4,
    ).to_pandas()
    hops = dict(zip(out["node"], out["hops"]))
    assert hops == {0: 0, 1: 1, 2: 1, 4: 1, 3: 2, 5: 2}


def _pagerank_ref(edges: pd.DataFrame, n: int, n_iters: int) -> np.ndarray:
    """Serial integer PageRank replay (damping 85%, micro-units)."""
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    outdeg = np.bincount(src, minlength=n)
    r = np.full(n, 1_000_000, np.int64)
    for _ in range(n_iters):
        c = np.zeros(n, np.int64)
        np.add.at(c, dst, r[src] // outdeg[src])
        r = 150_000 + (85 * c) // 100
    return r


def test_pagerank_engines_bit_exact(ray_session):
    """The shard engine equals the serial replay at any shard count."""
    from pdf_extractor_ray.functions.graph import pagerank

    rng = np.random.RandomState(2)
    edges = pd.DataFrame(
        {"src": rng.randint(0, 150, 800), "dst": rng.randint(0, 150, 800)}
    )
    edges = edges[edges.src != edges.dst].drop_duplicates()
    nodes = pd.DataFrame({"doc_id": np.arange(150, dtype=np.int64)})
    want = _pagerank_ref(edges, 150, n_iters=4)
    for n_shards in (1, 5):
        out = (
            pagerank(ray.data.from_pandas(edges), ray.data.from_pandas(nodes),
                     n_iters=4, n_shards=n_shards)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert out["doc_id"].tolist() == list(range(150))
        assert out["rank_u"].tolist() == want.tolist()


def test_pagerank_indexed_unknown_src_dst(ray_session):
    from pdf_extractor_ray.functions.graph import pagerank

    # src 99 not in universe -> contributes rank 0; dst 98 not in
    # universe -> dropped. Node 2 has no in-edges -> pure base.
    edges = pd.DataFrame({"src": [0, 99, 1], "dst": [1, 1, 98]})
    nodes = pd.DataFrame({"doc_id": np.array([0, 1, 2], np.int64)})
    out = (
        pagerank(ray.data.from_pandas(edges),
                 ray.data.from_pandas(nodes),
                 n_iters=1, n_shards=4)
        .to_pandas().set_index("doc_id")["rank_u"]
    )
    base = 150_000
    assert out[0] == base and out[2] == base
    # node 1 receives rank(0)//1 = 1_000_000 (99 contributes 0)
    assert out[1] == base + (85 * 1_000_000) // 100
    assert 98 not in out.index and 99 not in out.index


def test_cc_engines_agree_random(ray_session):
    from pdf_extractor_ray.functions.graph import connected_components

    rng = np.random.RandomState(4)
    pairs = pd.DataFrame(
        {"doc_a": rng.randint(0, 400, 300), "doc_b": rng.randint(0, 400, 300)}
    )
    g = nx.Graph()
    g.add_edges_from(zip(pairs["doc_a"].tolist(), pairs["doc_b"].tolist()))
    want = {v: min(c) for c in nx.connected_components(g) for v in c}
    for n_shards in (1, 5):
        out = connected_components(
            ray.data.from_pandas(pairs), n_shards=n_shards
        ).to_pandas()
        got = dict(zip(out["doc_id"].tolist(), out["cluster_id"].tolist()))
        assert got == want


def test_cc_indexed_chain_and_empty(ray_session):
    from pdf_extractor_ray.functions.graph import connected_components

    # long path 0-1-2-...-9 needs hash-min to propagate across rounds
    pairs = pd.DataFrame({"doc_a": range(9), "doc_b": range(1, 10)})
    out = (
        connected_components(
            ray.data.from_pandas(pairs), n_shards=4
        ).to_pandas()
    )
    assert sorted(out["doc_id"]) == list(range(10))
    assert set(out["cluster_id"]) == {0}
    empty = connected_components(
        ray.data.from_pandas(pd.DataFrame({"doc_a": [], "doc_b": []}))
    ).to_pandas()
    # ray's to_pandas drops column names on a fully-empty dataset;
    # the row-count contract is what the engine guarantees
    assert len(empty) == 0


def _hits_ref(edges: pd.DataFrame, n: int, n_iters: int,
              scale: int = 1_000_000):
    """Serial max-normalized integer HITS replay -> (auth, hub)."""
    src = edges["src"].to_numpy(np.int64)
    dst = edges["dst"].to_numpy(np.int64)
    hub = np.full(n, scale, np.int64)
    auth = np.zeros(n, np.int64)
    for _ in range(n_iters):
        araw = np.zeros(n, np.int64)
        np.add.at(araw, dst, hub[src])
        mx = araw.max()
        auth = araw * scale // mx if mx else np.zeros(n, np.int64)
        hraw = np.zeros(n, np.int64)
        np.add.at(hraw, src, auth[dst])
        mx = hraw.max()
        hub = hraw * scale // mx if mx else np.zeros(n, np.int64)
    return auth, hub


def test_hits_engines_bit_exact(ray_session):
    """The shard engine equals the serial replay at any shard count."""
    from pdf_extractor_ray.functions.graph import hits

    rng = np.random.RandomState(9)
    edges = pd.DataFrame(
        {"src": rng.randint(0, 120, 700), "dst": rng.randint(0, 120, 700)}
    )
    edges = edges[edges.src != edges.dst].drop_duplicates()
    nodes = pd.DataFrame({"doc_id": np.arange(120, dtype=np.int64)})
    auth, hub = _hits_ref(edges, 120, n_iters=3)
    for n_shards in (1, 5):
        out = (
            hits(ray.data.from_pandas(edges), ray.data.from_pandas(nodes),
                 n_iters=3, n_shards=n_shards)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        assert out["doc_id"].tolist() == list(range(120))
        assert out["auth_u"].tolist() == auth.tolist()
        assert out["hub_u"].tolist() == hub.tolist()


def test_personalized_pagerank_teleports_only_to_seeds(ray_session):
    from pdf_extractor_ray.functions.graph import pagerank

    # star: seeds {0}; node 2 unreachable from 0 -> rank exactly 0
    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 0]})
    nodes = pd.DataFrame({"doc_id": np.array([0, 1, 2], np.int64)})
    seeds = ray.data.from_items([{"node": 0}])
    out = (
        pagerank(ray.data.from_pandas(edges),
                 ray.data.from_pandas(nodes),
                 n_iters=2, n_shards=4, seeds=seeds)
        .to_pandas().set_index("doc_id")["rank_u"]
    )
    assert out[2] == 0                      # no teleport, no paths
    assert out[0] > out[1] > 0              # seed holds the base mass
    # iteration replay: r1(1) = 0 + 85*(1_000_000//1)//100
    # r1(0) = 150_000 + 0 (node 1 starts at rank 0)
    # r2(0) = 150_000 + 85*(850_000//1)//100 = 872_500
    assert out[0] == 872_500


def test_sssp_hand_graph(ray_session):
    from pdf_extractor_ray.functions.graph import sssp

    # 0 -5-> 1 -1-> 2 ; 0 -3-> 2 direct: dist(2) = 3 (not 6)
    # 3 is dst-only, owned by a shard that holds no edges for it
    edges = pd.DataFrame(
        {"src": [0, 1, 0, 2], "dst": [1, 2, 2, 3], "w": [5, 1, 3, 10]}
    )
    out = (
        sssp(ray.data.from_pandas(edges), seed=0, n_shards=4)
        .to_pandas().set_index("node")["dist"]
    )
    assert dict(out) == {0: 0, 1: 5, 2: 3, 3: 13}


def test_sssp_round_budget_truncates(ray_session):
    from pdf_extractor_ray.functions.graph import sssp

    # path 0->1->2->3, one round only reaches node 1
    edges = pd.DataFrame(
        {"src": [0, 1, 2], "dst": [1, 2, 3], "w": [1, 1, 1]}
    )
    out = (
        sssp(ray.data.from_pandas(edges), seed=0,
             max_rounds=1, n_shards=4)
        .to_pandas().set_index("node")["dist"]
    )
    assert dict(out) == {0: 0, 1: 1}


def test_triangles_indexed_matches_networkx(ray_session):
    from pdf_extractor_ray.functions.graph import triangle_count

    rng = np.random.default_rng(7)
    for n, m in [(40, 250), (300, 1500)]:
        edges = pd.DataFrame(
            {"src": rng.integers(0, n, m), "dst": rng.integers(0, n, m)}
        )
        g = _simple_graph(edges)
        deg = dict(g.degree())
        # wedges: C(outdeg, 2) per node under the (deg, id) orientation
        outdeg = {v: 0 for v in g}
        for u, v in g.edges():
            outdeg[min(u, v, key=lambda x: (deg[x], x))] += 1
        want = [
            g.number_of_edges(),
            sum(d * (d - 1) // 2 for d in outdeg.values()),
            sum(nx.triangles(g).values()) // 3,
        ]
        out = triangle_count(
            ray.data.from_pandas(edges), n_shards=4
        ).to_pandas()
        assert out.iloc[0].tolist() == want


def test_triangles_indexed_known_graph(ray_session):
    from pdf_extractor_ray.functions.graph import triangle_count

    # K4 has 4 triangles, 6 edges; wedge stream under the (deg, id)
    # orientation: every node has deg 3, out-degrees are 3/2/1/0 ->
    # wedges C(3,2)+C(2,2) = 4, all of which close
    edges = pd.DataFrame(
        {"src": [0, 0, 0, 1, 1, 2], "dst": [1, 2, 3, 2, 3, 3]}
    )
    out = triangle_count(
        ray.data.from_pandas(edges), n_shards=4
    ).to_pandas()
    assert out.iloc[0].tolist() == [6, 4, 4]


def test_triangles_indexed_dup_and_selfloop_input(ray_session):
    from pdf_extractor_ray.functions.graph import triangle_count

    # duplicated directed edges + self-loops collapse to one triangle
    edges = pd.DataFrame(
        {
            "src": [0, 1, 0, 1, 2, 2, 5],
            "dst": [1, 0, 2, 2, 0, 2, 5],
        }
    )
    out = triangle_count(
        ray.data.from_pandas(edges), n_shards=4
    ).to_pandas()
    assert out.iloc[0].tolist() == [3, 1, 1]


def test_kcore_indexed_matches_networkx(ray_session):
    from pdf_extractor_ray.functions.graph import k_core

    rng = np.random.default_rng(13)
    for n, m, k in [(60, 400, 3), (300, 2500, 4)]:
        edges = pd.DataFrame(
            {"src": rng.integers(0, n, m), "dst": rng.integers(0, n, m)}
        )
        core = nx.k_core(_simple_graph(edges), k)
        out = k_core(ray.data.from_pandas(edges), k=k, n_shards=4).to_pandas()
        got = dict(zip(out["doc_id"].tolist(), out["deg"].tolist()))
        assert got == dict(core.degree())


def test_kcore_indexed_known_graph(ray_session):
    from pdf_extractor_ray.functions.graph import k_core

    # K5 (all deg 4) + a pendant chain off node 0: 2-core = the K5,
    # chain peels over multiple cascade rounds
    k5s, k5d = [], []
    for i in range(5):
        for j in range(i + 1, 5):
            k5s.append(i)
            k5d.append(j)
    edges = pd.DataFrame(
        {"src": k5s + [0, 10, 11], "dst": k5d + [10, 11, 12]}
    )
    out = (
        k_core(ray.data.from_pandas(edges), k=2, n_shards=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [0, 1, 2, 3, 4]
    assert out["deg"].tolist() == [4, 4, 4, 4, 4]


def test_kcore_indexed_empty_core(ray_session):
    from pdf_extractor_ray.functions.graph import k_core

    edges = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})  # path
    out = k_core(
        ray.data.from_pandas(edges), k=3, n_shards=4
    ).to_pandas()
    assert len(out) == 0


def test_random_walks_known_graph_and_sinks(ray_session):
    import hashlib
    from pdf_extractor_ray.functions.graph import random_walks

    # 0 -> {1, 2}, 1 -> {2}; 2 is a sink: walks end there
    edges = pd.DataFrame({"src": [0, 0, 1, 0], "dst": [1, 2, 2, 1]})
    out = (
        random_walks(
            ray.data.from_pandas(edges),
            walk_len=4,
            walks_per_node=1,
            n_shards=4,
        )
        .to_pandas()
        .sort_values(["start", "walk", "step"])
        .reset_index(drop=True)
    )

    def h(v, t, w):
        return int(hashlib.md5(f"{v}:{t}:{w}".encode()).hexdigest()[:8], 16)

    # replay by hand: start 0 at step1 picks rank h(0,1,0)%2 of [1,2]
    adj = {0: [1, 2], 1: [2]}
    want = []
    for s in (0, 1):
        v = s
        want.append((s, 0, 0, v))
        for t in range(1, 4):
            if v not in adj:
                break
            v = adj[v][h(v, t, 0) % len(adj[v])]
            want.append((s, 0, t, v))
    want_df = (
        pd.DataFrame(want, columns=["start", "walk", "step", "node"])
        .sort_values(["start", "walk", "step"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        out[["start", "walk", "step", "node"]].astype("int64"),
        want_df.astype("int64"),
    )
    # every walk that reached the sink stopped there
    assert (out.groupby(["start", "walk"])["step"].max() <= 3).all()


def test_random_walks_multi_walk_and_dup_edges(ray_session):
    from pdf_extractor_ray.functions.graph import random_walks

    # duplicate directed edges + self-loops collapse before ranking
    edges = pd.DataFrame(
        {"src": [0, 0, 0, 0, 1, 2], "dst": [1, 1, 2, 0, 0, 0]}
    )
    out = random_walks(
        ray.data.from_pandas(edges),
        walk_len=5,
        walks_per_node=3,
        n_shards=4,
    ).to_pandas()
    # 3 sources x 3 walks x step0 rows present
    z = out[out["step"] == 0]
    assert len(z) == 9
    # strongly connected: every walk runs the full length
    assert len(out) == 9 * 5
    # walks are deterministic: rerun is identical
    out2 = random_walks(
        ray.data.from_pandas(edges),
        walk_len=5,
        walks_per_node=3,
        n_shards=4,
    ).to_pandas()
    key = ["start", "walk", "step", "node"]
    pd.testing.assert_frame_equal(
        out.sort_values(key).reset_index(drop=True)[key],
        out2.sort_values(key).reset_index(drop=True)[key],
    )


def test_skipgram_pairs_hand_window(ray_session):
    from pdf_extractor_ray.functions.graph import skipgram_pairs

    # one walk 10->11->12->13, one walk 20->21 (different start)
    rows = [
        {"start": 10, "walk": 0, "step": 0, "node": 10},
        {"start": 10, "walk": 0, "step": 1, "node": 11},
        {"start": 10, "walk": 0, "step": 2, "node": 12},
        {"start": 10, "walk": 0, "step": 3, "node": 13},
        {"start": 20, "walk": 0, "step": 0, "node": 20},
        {"start": 20, "walk": 0, "step": 1, "node": 21},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out = skipgram_pairs(ds, window=2).to_pandas()
    got = {
        (r.center, r.context): r.n_pairs for r in out.itertuples()
    }
    # walk 1: d=1 pairs (10,11),(11,12),(12,13) + mirrors;
    # d=2 pairs (10,12),(11,13) + mirrors; walk 2: (20,21)+(21,20);
    # no cross-walk pairs
    assert got[(10, 11)] == 1 and got[(11, 10)] == 1
    assert got[(10, 12)] == 1 and got[(12, 10)] == 1
    assert got[(20, 21)] == 1 and got[(21, 20)] == 1
    assert (10, 13) not in got and (10, 20) not in got
    # 3 d=1 pairs + 2 d=2 pairs in walk 1, 1 d=1 pair in walk 2,
    # each in both directions
    assert len(got) == 12
    assert all(v == 1 for v in got.values())


def test_lpa_communities_barbell(ray_session):
    from pdf_extractor_ray.functions.graph import lpa_communities

    # two triangles bridged at 2-10: LPA separates them; hand-replay
    # of the 3 synchronous rounds (ties -> smaller label) gives
    # {0,1,2} -> 0 and {10,11,12} -> 2
    edges = pd.DataFrame(
        {
            "src": [0, 1, 2, 10, 11, 12, 2],
            "dst": [1, 2, 0, 11, 12, 10, 10],
        }
    )
    out = lpa_communities(
        ray.data.from_pandas(edges), n_iters=3, n_shards=4
    ).to_pandas()
    got = dict(zip(out["node"], out["community"]))
    assert got == {0: 0, 1: 0, 2: 0, 10: 2, 11: 2, 12: 2}


def test_lpa_communities_deterministic(ray_session):
    from pdf_extractor_ray.functions.graph import lpa_communities

    rng = np.random.default_rng(23)
    edges = pd.DataFrame(
        {"src": rng.integers(0, 200, 1200), "dst": rng.integers(0, 200, 1200)}
    )
    a = (
        lpa_communities(ray.data.from_pandas(edges), n_shards=4)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    b = (
        lpa_communities(ray.data.from_pandas(edges), n_shards=7)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    # shard count must not change the result
    pd.testing.assert_frame_equal(a.astype("int64"), b.astype("int64"))


def test_mis_independence_and_maximality(ray_session):
    from pdf_extractor_ray.functions.graph import mis

    rng = np.random.default_rng(31)
    edges = pd.DataFrame(
        {"src": rng.integers(0, 300, 1800), "dst": rng.integers(0, 300, 1800)}
    )
    out = mis(
        ray.data.from_pandas(edges), max_rounds=20, n_shards=4
    ).to_pandas()
    mis = set(out["node"])
    # undirected distinct adjacency
    e = edges[edges.src != edges.dst]
    adj: dict[int, set] = {}
    for s, d in zip(e["src"], e["dst"]):
        adj.setdefault(int(s), set()).add(int(d))
        adj.setdefault(int(d), set()).add(int(s))
    # independence: no two MIS members adjacent
    for v in mis:
        assert not (adj.get(v, set()) & mis), v
    # maximality: every non-member has a MIS neighbor
    for v in adj:
        if v not in mis:
            assert adj[v] & mis, v


def test_mis_shard_invariance(ray_session):
    from pdf_extractor_ray.functions.graph import mis

    rng = np.random.default_rng(37)
    edges = pd.DataFrame(
        {"src": rng.integers(0, 150, 700), "dst": rng.integers(0, 150, 700)}
    )
    key = ["node", "round"]
    a = (
        mis(ray.data.from_pandas(edges), max_rounds=20, n_shards=3)
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    b = (
        mis(ray.data.from_pandas(edges), max_rounds=20, n_shards=8)
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a.astype("int64"), b.astype("int64"))
