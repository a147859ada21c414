"""Graph-based ANN: NSW-style neighborhood graph + greedy beam search.

Behavioral spec (public): modern ANN indexes (Malkov & Yashunin's
NSW/HNSW family, and the graph layer of DiskANN/Vamana) answer a query
by GREEDY BEAM SEARCH over a precomputed neighborhood graph: start at
an entry node, repeatedly expand the current beam's out-neighbors, and
keep the ``ef`` closest candidates; the final beam's top-k is the
answer. Search cost is a few hops instead of a corpus scan.

This module is the engine-replayable version of that shape:

  BUILD (:func:`nsw_build_edges`) — a bucketed k-NN graph: vectors are
  centi-quantized (``q = floor(v*100 + 0.5)``, the repo's
  embedding_gram convention) so EVERY distance in build and search is
  an exact int64; cells are assigned by nearest of the 16 lowest-id
  vectors (the knn_ivf oracle's deterministic centroid rule, ties to
  the lower centroid id); each node links to its ``m`` nearest
  in-cell neighbors (ties to the lower id). One cell-bucket cogroup
  exchange; the in-cell distance matrix is an integer GEMM.

  SEARCH (:func:`nsw_search`) — batch-synchronous greedy beam: all
  queries start at the global lowest-id node; each round the beam's
  out-edges are fetched with ONE narrow filtered pass over the edge
  table and the candidates' vectors with one pass over the vector
  table (at cluster scale both are hash-partitioned lookups —
  bucket-pruned probes, not scans); the new beam is the ``ef`` best
  of beam+neighbors by (d2 ASC, id ASC). A fixed ``rounds`` budget
  keeps the trajectory deterministic. No visited-set is carried —
  the beam dedup (a set union) is the NSW paper's ef-bounded
  frontier, pinned here so two engines replay the identical walk.

Everything — quantization, cell rule, link rule, beam rule — is exact
integer arithmetic with id tie-breaks, so a SQL oracle replays the
BUILD and all search ROUNDS bit for bit (chained CTEs; see
``_nsw_sql`` in ``__ray_entry__``). Recall quality is additionally
pinned by pytest against the brute-force top-k.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from pdf_extractor_ray.functions.similarity import _arrow_matrix

__all__ = ["nsw_build_edges", "nsw_search"]


def _quantize(mat: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(mat, dtype=np.float64) * 100.0 + 0.5).astype(
        np.int64
    )


def _pair_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact int64 squared euclidean distance matrix (n_a, n_b)."""
    na = np.einsum("ij,ij->i", a, a)
    nb = np.einsum("ij,ij->i", b, b)
    return na[:, None] + nb[None, :] - 2 * (a @ b.T)


def nsw_build_edges(
    ds: ray.data.Dataset,
    n_cells: int = 16,
    m: int = 4,
    mx: int = 0,
    n_link_cells: int = 1,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Bucketed neighborhood graph: (src, dst) int64 edge rows, each
    src linked to its ``m`` nearest in-cell neighbors, plus — when
    ``mx > 0`` — its ``mx`` nearest nodes in EACH of its
    ``n_link_cells`` next-nearest cells (the cross-cell boundary
    edges real HNSW recall needs: a query near a Voronoi boundary can
    hop straight into an adjacent cell instead of detouring through
    the centroid hub; a 10-NN set can straddle 3+ Voronoi cells when
    cells are smaller than the data's true clusters, hence more than
    one linked foreign cell). Both edge kinds ride ONE cell cogroup
    exchange: every node lands in its own cell's group as a RESIDENT
    and in each linked foreign cell's group as a VISITOR; residents
    interlink, visitors link to residents. Deterministic: foreign
    cells = next-smallest centroid distances (ties to the lower cell
    index), links tie to the lower id — the SQL oracle replays both
    edge sets."""
    # centroids: the n_cells lowest-id vectors — per-block minima, then
    # a driver-side head (bounded: n_blocks x n_cells candidate rows)
    def block_low(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        order = np.argsort(ids)[:n_cells]
        return batch.take(order.tolist()).select([id_col, vec_col])

    cand = ds.map_batches(block_low, batch_format="pyarrow").to_pandas()
    cand = cand.sort_values(id_col).head(n_cells)
    cent_ids = cand[id_col].to_numpy()
    cent_q = _quantize(np.asarray([np.asarray(v) for v in cand[vec_col]]))
    cent_ref = ray.put(cent_q)

    n_vis = max(0, min(n_link_cells, n_cells - 1)) if mx > 0 else 0

    def assign(batch: pa.Table) -> pa.Table:
        q = _quantize(_arrow_matrix(batch[vec_col]))
        d2 = _pair_d2(q, ray.get(cent_ref))
        # stable argsort: ties fall to the lower cell index; column 0
        # is the home cell, columns 1..n_vis the linked foreign cells
        near = np.argsort(d2, axis=1, kind="stable")[
            :, : 1 + n_vis
        ].astype(np.int64)
        n = len(near)
        qlist = pa.array(q.tolist(), pa.list_(pa.int64()))
        ids = batch[id_col]
        parts = [
            pa.table(
                {
                    id_col: ids,
                    "q": qlist,
                    "key": pa.array(near[:, 0], pa.int64()),
                    "role": pa.array(np.zeros(n, np.int8)),
                }
            )
        ]
        for v in range(1, 1 + n_vis):
            parts.append(
                pa.table(
                    {
                        id_col: ids,
                        "q": qlist,
                        "key": pa.array(near[:, v], pa.int64()),
                        "role": pa.array(np.ones(n, np.int8)),
                    }
                )
            )
        return pa.concat_tables(parts)

    def link(group: pd.DataFrame) -> pd.DataFrame:
        res = group[group["role"] == 0]
        ids = res[id_col].to_numpy(dtype=np.int64)
        q = np.asarray(list(res["q"]), dtype=np.int64)
        order = np.argsort(ids)
        ids, q = ids[order], q[order]
        frames = []
        # a cell whose centroid duplicates a lower-index one has
        # visitors but no residents: mm <= 0 skips the resident block
        mm = min(m, len(ids) - 1)
        if mm > 0:
            d2 = _pair_d2(q, q)
            np.fill_diagonal(d2, np.iinfo(np.int64).max)  # no self loops
            # per-row top-mm by (d2 asc, id asc): ids ascending makes
            # the stable lexsort tie-break = lower id first
            nn = np.lexsort(
                (np.broadcast_to(ids, d2.shape), d2), axis=1
            )[:, :mm]
            frames.append(
                pd.DataFrame(
                    {
                        "src": np.repeat(ids, mm),
                        "dst": ids[nn.reshape(-1)],
                    }
                )
            )
        vis = group[group["role"] == 1]
        mmx = min(mx, len(ids))
        if len(vis) and mmx > 0 and len(ids):
            vids = vis[id_col].to_numpy(dtype=np.int64)
            vq = np.asarray(list(vis["q"]), dtype=np.int64)
            vorder = np.argsort(vids)
            vids, vq = vids[vorder], vq[vorder]
            d2x = _pair_d2(vq, q)
            nnx = np.lexsort(
                (np.broadcast_to(ids, d2x.shape), d2x), axis=1
            )[:, :mmx]
            frames.append(
                pd.DataFrame(
                    {
                        "src": np.repeat(vids, mmx),
                        "dst": ids[nnx.reshape(-1)],
                    }
                )
            )
        if not frames:
            return pd.DataFrame({"src": [], "dst": []}).astype(np.int64)
        return pd.concat(frames, ignore_index=True)

    local = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("key")
        .map_groups(link, batch_format="pandas")
    )
    # hub layer: the centroid NODES fully interlinked (each centroid
    # is nearest to itself, so each sits in its own cell — the hub is
    # the only cross-cell connectivity, and the search entry, the
    # global lowest id, is itself a centroid). Without long-range
    # links a greedy beam can never leave the entry's cluster — the
    # NSW paper's small-world shortcut, in its deterministic form.
    hub = pd.DataFrame(
        [
            (int(a), int(b))
            for a in cent_ids
            for b in cent_ids
            if a != b
        ],
        columns=["src", "dst"],
    )
    return local.union(ray.data.from_pandas(hub))


def nsw_search(
    ds: ray.data.Dataset,
    edges: ray.data.Dataset,
    query_vectors: np.ndarray,
    query_ids: list,
    ef: int = 8,
    rounds: int = 3,
    k: int = 5,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Greedy beam search; returns (query_id, neighbor_id, rank)."""
    qq = _quantize(query_vectors)
    qids = np.asarray(query_ids, dtype=np.int64)

    # entry node: global lowest id (parquet metadata / narrow pass)
    from ray.data.aggregate import Min

    entry = int(ds.aggregate(Min(id_col))[f"min({id_col})"])

    # per-query beam as ordered np arrays of node ids
    beams = {int(qi): np.array([entry], dtype=np.int64) for qi in qids}
    d2_cache: dict[tuple[int, int], int] = {}  # (query, node) -> d2

    def fetch_vectors(node_ids: np.ndarray) -> dict[int, np.ndarray]:
        want = ray.put(node_ids)

        def f(batch: pa.Table) -> pa.Table:
            keep = np.isin(
                batch[id_col].to_numpy(zero_copy_only=False), ray.get(want)
            )
            return batch.filter(pa.array(keep)).select([id_col, vec_col])

        got = ds.map_batches(f, batch_format="pyarrow").to_pandas()
        return {
            int(r[id_col]): _quantize(
                np.asarray(r[vec_col], dtype=np.float64)[None, :]
            )[0]
            for _, r in got.iterrows()
        }

    def score(nodes: np.ndarray, vecs: dict[int, np.ndarray]):
        for qi_idx, qi in enumerate(qids):
            for n in nodes:
                key = (int(qi), int(n))
                if key not in d2_cache and int(n) in vecs:
                    diff = qq[qi_idx] - vecs[int(n)]
                    d2_cache[key] = int(diff @ diff)

    # seed scores
    vecs = fetch_vectors(np.array([entry], dtype=np.int64))
    score(np.array([entry]), vecs)

    for _ in range(rounds):
        frontier = np.unique(np.concatenate(list(beams.values())))
        f_ref = ray.put(frontier)

        def out_edges(batch: pa.Table) -> pa.Table:
            keep = np.isin(
                batch["src"].to_numpy(zero_copy_only=False), ray.get(f_ref)
            )
            return batch.filter(pa.array(keep))

        es = edges.map_batches(
            out_edges, batch_format="pyarrow"
        ).to_pandas()  # bounded: |frontier| x m rows
        nbrs = {
            int(s): g["dst"].to_numpy(dtype=np.int64)
            for s, g in es.groupby("src")
        }
        new_nodes = np.unique(es["dst"].to_numpy(dtype=np.int64))
        need = np.array(
            [
                n
                for n in new_nodes
                if any((int(q), int(n)) not in d2_cache for q in qids)
            ],
            dtype=np.int64,
        )
        if len(need):
            vecs = fetch_vectors(need)
            score(need, vecs)
        for qi in qids:
            beam = beams[int(qi)]
            cand = set(beam.tolist())
            for node in beam:
                cand.update(nbrs.get(int(node), np.empty(0)).tolist())
            carr = np.array(sorted(cand), dtype=np.int64)
            d2s = np.array(
                [d2_cache[(int(qi), int(n))] for n in carr], dtype=np.int64
            )
            order = np.lexsort((carr, d2s))[:ef]
            beams[int(qi)] = carr[order]

    rows = []
    for qi in qids:
        beam = beams[int(qi)]
        d2s = np.array(
            [d2_cache[(int(qi), int(n))] for n in beam], dtype=np.int64
        )
        order = np.lexsort((beam, d2s))[:k]
        for r, j in enumerate(order, start=1):
            rows.append((int(qi), int(beam[j]), r))
    return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "rank"])
