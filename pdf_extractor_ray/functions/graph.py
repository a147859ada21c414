"""Graph operators over int64 edge lists, one engine per operator.

Iterative graph algorithms (connected components, PageRank, HITS,
BFS, SCC, SSSP, triangles, k-core, random walks, label propagation,
MIS) run on an actor-sharded adjacency index. Expressed as Dataset
algebra, every round would re-exchange the full edge set (frontier
UNION edges -> groupby bucket), so a 30-level closure would pay ~30
full-edge shuffles. A *partition-pinned, reusable* adjacency index is
the one thing the Dataset API cannot express, so these operators drop
to raw Ray actors for it: shard the edges once, pin each shard's CSR
adjacency in an actor, then move only per-round partials (frontier
node arrays, per-dst min/sum partials, death sets) by ObjectRef.

Sharding contract: see :mod:`.shards` for spawn, push, backpressure
and kill. Node u is OWNED by shard ``abs(u) % n_shards``.
- build: each scan batch is pushed straight into the owner shards
  (``_push_edges``); an A/B at 2M nodes / 6M edges measured the
  groupby(shard) sort exchange it replaces as pure overhead for this
  many-to-few routing (14.5 s -> 6.2 s, identical shard contents;
  push order is irrelevant because every finalize does an exact
  distinct/merge). ``finalize`` then sorts each shard's edges into a
  CSR.
- rounds: each actor reads its CSR and local state, emits partials
  addressed to the owners of their keys, and folds the partials
  addressed to it. The driver ``ray.get``s only small integers
  (counts, sums, maxima) to detect convergence.
- results come back as ``ray.data.from_arrow_refs`` over per-shard
  tables, materialized before the shards are killed.

At cluster scale each actor fetches each partial array once per round
(S refs to S actors); the refinement — returning owner-partitioned
slices so each actor fetches only its own — is a num_returns change,
already used by the triangle, k-core, walk and LPA rounds.

Three operators need no iteration and stay plain coarse-bucket
Dataset exchanges: ``canonical_doc_ids`` (anti-join of the
non-canonical cluster members), ``cocitation_topk`` and
``skipgram_pairs`` (two-exchange pair-count aggregates).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from .exchange import cogroup
from .shards import Shard, push, shard_actors

__all__ = [
    "connected_components",
    "canonical_doc_ids",
    "pagerank",
    "hits",
    "sssp",
    "triangle_count",
    "k_core",
    "cocitation_topk",
    "bfs_hops",
    "scc_members",
    "random_walks",
    "skipgram_pairs",
    "lpa_communities",
    "mis",
]

CLUSTER_SCHEMA = pa.schema(
    [pa.field("doc_id", pa.int64()), pa.field("cluster_id", pa.int64())]
)


def _ids(batch: pa.Table, col: str) -> np.ndarray:
    return batch[col].to_numpy(zero_copy_only=False).astype(np.int64)


def _src_dst(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    return _ids(batch, "src"), _ids(batch, "dst")


def _simple_edges(src: str, dst: str, undirected: bool):
    """``make_xy`` for :func:`_push_edges`: the distinct self-loop-free
    (x, y) edges of a batch, undirected ones in both orientations. The
    per-batch distinct bounds the push volume; the exact distinct
    happens at the owning shard."""

    def make_xy(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        s, d = _ids(batch, src), _ids(batch, dst)
        keep = s != d
        s, d = s[keep], d[keep]
        if undirected:
            s, d = np.minimum(s, d), np.maximum(s, d)
        sd = np.unique(np.stack([s, d], axis=1), axis=0)
        if not undirected:
            return sd[:, 0], sd[:, 1]
        return (
            np.concatenate([sd[:, 0], sd[:, 1]]),
            np.concatenate([sd[:, 1], sd[:, 0]]),
        )

    return make_xy


def _push_edges(edges: ray.data.Dataset, shards: list, make_xy) -> int:
    """Push the (x, y) rows ``make_xy`` derives from each batch to the
    owner of x, as the shard columns "src" and "dst". Returns the
    number of pushed rows."""
    S = len(shards)

    def route(batch: pa.Table):
        x, y = make_xy(batch)
        return np.abs(x) % S, {"src": x, "dst": y}

    return push(edges, shards, route)


def _ids_route(S: int, col: str, name: str):
    """Route the ids in ``col`` to their owners as shard column ``name``."""

    def route(batch: pa.Table):
        ids = _ids(batch, col)
        return np.abs(ids) % S, {name: ids}

    return route


@ray.remote
class _GraphShard(Shard):
    """Holds the CSR adjacency and visited set for its owned nodes."""

    def __init__(self, sid: int, n: int) -> None:
        super().__init__(sid, n)
        self._keys: np.ndarray | None = None  # unique sorted src
        self._starts: np.ndarray | None = None
        self._dst: np.ndarray | None = None
        self._visited: np.ndarray = np.empty(0, np.int64)  # sorted
        self._hops: list[tuple[int, np.ndarray]] = []

    def finalize(self) -> int:
        self._keys, counts, self._dst = self.sorted_csr("src", "dst")
        self._starts = np.concatenate(([0], np.cumsum(counts)))
        return len(self._dst)

    def _mine(self, nodes: np.ndarray) -> np.ndarray:
        return nodes[self.owns(nodes)]

    def seed(self, nodes: np.ndarray) -> tuple[int, np.ndarray]:
        mine = np.unique(self._mine(np.asarray(nodes, np.int64)))
        self._visited = mine
        self._hops = [(0, mine)]
        return len(mine), mine

    def expand(self, *frontiers: np.ndarray) -> tuple[int, np.ndarray]:
        nodes = (
            np.concatenate([np.asarray(f, np.int64) for f in frontiers])
            if frontiers
            else np.empty(0, np.int64)
        )
        mine = np.unique(self._mine(nodes))
        if self._keys is None or not len(self._keys) or not len(mine):
            return 0, np.empty(0, np.int64)
        idx = np.clip(np.searchsorted(self._keys, mine), 0, len(self._keys) - 1)
        hit = mine[self._keys[idx] == mine]
        if not len(hit):
            return 0, np.empty(0, np.int64)
        pos = np.searchsorted(self._keys, hit)
        spans = [
            self._dst[self._starts[p] : self._starts[p + 1]] for p in pos
        ]
        out = np.unique(np.concatenate(spans)) if spans else np.empty(0, np.int64)
        return len(out), out

    def visit(self, level: int, *cands: np.ndarray) -> tuple[int, np.ndarray]:
        nodes = (
            np.concatenate([np.asarray(c, np.int64) for c in cands])
            if cands
            else np.empty(0, np.int64)
        )
        mine = np.unique(self._mine(nodes))
        new = mine[
            ~np.isin(mine, self._visited, assume_unique=False)
        ]
        if len(new):
            self._visited = np.union1d(self._visited, new)
            self._hops.append((level, new))
        return len(new), new

    def visited_table(self) -> pa.Table:
        if not self._hops:
            return pa.table(
                {"node": pa.array([], pa.int64()), "hops": pa.array([], pa.int64())}
            )
        nodes = np.concatenate([n for _, n in self._hops])
        hops = np.concatenate(
            [np.full(len(n), lvl, np.int64) for lvl, n in self._hops]
        )
        return pa.table({"node": nodes, "hops": hops})


@ray.remote
class _CCShard(Shard):
    """Symmetrized CSR adjacency + min-label vector for owned nodes.
    Hash-min label propagation with everything src-side local: each
    round emits per-dst MIN partials (pre-folded before they travel)
    and folds incoming mins for its own nodes."""

    def __init__(self, sid: int, n: int):
        super().__init__(sid, n)
        self._keys = self._starts = self._dst = None
        self._labels = None

    def finalize(self) -> int:
        self._keys, counts, self._dst = self.sorted_csr("src", "dst")
        self._starts = np.concatenate(([0], np.cumsum(counts)))
        # round-0 fused init: label(v) = min(v, neighbors(v)) — the
        # whole neighborhood is local (symmetrized edges, src-owned)
        if len(self._keys):
            self._labels = np.minimum(
                self._keys,
                np.minimum.reduceat(self._dst, self._starts[:-1]),
            )
        else:
            self._labels = np.empty(0, np.int64)
        return len(self._dst)

    def messages(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dst MIN of this shard's current src labels — pre-folded
        so the exchange volume is bounded by distinct dst, not edges."""
        if self._keys is None or not len(self._keys):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        edge_labels = np.repeat(
            self._labels, np.diff(self._starts)
        )
        uniq, inv = np.unique(self._dst, return_inverse=True)
        mins = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mins, inv, edge_labels)
        return uniq, mins

    def fold(self, *msg_pairs) -> int:
        """Fold incoming mins into owned labels; returns the local
        label sum (the convergence scalar — labels only decrease)."""
        for dsts, mins in msg_pairs:
            if not len(dsts) or not len(self._keys):
                continue
            m = self.owns(dsts)
            dsts, mins = dsts[m], mins[m]
            idx = np.clip(
                np.searchsorted(self._keys, dsts), 0, len(self._keys) - 1
            )
            ok = self._keys[idx] == dsts
            np.minimum.at(self._labels, idx[ok], mins[ok])
        return int(self._labels.sum())

    def labels_table(self) -> pa.Table:
        return pa.table(
            {"doc_id": self._keys, "cluster_id": self._labels}
        )


def connected_components(
    pairs: ray.data.Dataset,
    id_a: str = "doc_a",
    id_b: str = "doc_b",
    max_iters: int = 30,
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Transitive clusters of an undirected pair list — the last stage
    of corpus-scale fuzzy dedup: verified near-dup PAIRS (MinHash /
    SimHash output) become CLUSTERS so exactly one canonical document
    per cluster survives (A~B and B~C put A and C together even when
    A!~C). Returns Dataset[doc_id, cluster_id] with cluster_id = the
    min member id, covering every node that appears in a pair; every
    other doc is a singleton by definition (callers treat absence as
    ``cluster_id == doc_id``), so the state is O(duplicates), not
    O(corpus).

    Hash-min label propagation on the shard index: the symmetrized
    pair list is pushed ONCE into shard-actor CSRs, and round 0 is
    fused into finalize (label = min(self, neighbors)). Each round
    ships only pre-folded per-dst min-label partials plus one label
    sum per shard — labels only decrease, so an unchanged total is the
    fixpoint, reached in O(diameter) rounds (near-dup graphs are
    clique-ish, diameter 1-3 in practice; ``max_iters`` caps it).
    """

    def make_xy(batch: pa.Table):
        a, b = _ids(batch, id_a), _ids(batch, id_b)
        return np.concatenate([a, b]), np.concatenate([b, a])

    with shard_actors(_CCShard, n_shards) as shards:
        if _push_edges(pairs, shards, make_xy) == 0:
            return ray.data.from_arrow(CLUSTER_SCHEMA.empty_table())
        ray.get([s.finalize.remote() for s in shards])

        prev = None
        for _ in range(max_iters):
            msg_refs = [s.messages.remote() for s in shards]
            sums = ray.get([s.fold.remote(*msg_refs) for s in shards])
            total = sum(sums)
            if total == prev:  # labels only decrease: fixpoint
                break
            prev = total

        return ray.data.from_arrow_refs(
            [s.labels_table.remote() for s in shards]
        ).materialize()


@ray.remote
class _PageRankShard(Shard):
    """CSR adjacency + rank vector for the owned src nodes. Integer
    semantics of :func:`pagerank` (micro-units, floor division, rank-0
    default for srcs outside the node universe, dsts outside the
    universe dropped)."""

    def __init__(
        self, sid: int, n: int, base: int, d: int, personalized: bool
    ):
        super().__init__(sid, n)
        self.base, self.d, self.personalized = base, d, personalized
        self._keys = self._counts = self._dst = None
        self._nodes = self._ranks = self._base_vec = None

    def finalize(self) -> int:
        self._keys, self._counts, self._dst = self.sorted_csr("src", "dst")
        self._nodes = np.unique(self.take("node"))
        seeds = np.unique(self.take("seed"))
        if self.personalized:
            mask = np.isin(self._nodes, seeds)
            self._base_vec = np.where(mask, self.base, 0).astype(np.int64)
            self._ranks = np.where(mask, 1_000_000, 0).astype(np.int64)
        else:
            self._base_vec = np.full(len(self._nodes), self.base, np.int64)
            self._ranks = np.full(len(self._nodes), 1_000_000, np.int64)
        return len(self._dst)

    def contribs(self) -> tuple[np.ndarray, np.ndarray]:
        """(dst, contribution) partial sums from this shard's srcs —
        everything local: adjacency, outdeg and ranks co-reside."""
        if self._keys is None or not len(self._keys):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        if len(self._nodes):
            idx = np.clip(
                np.searchsorted(self._nodes, self._keys),
                0, len(self._nodes) - 1,
            )
            known = self._nodes[idx] == self._keys
            r = np.where(known, self._ranks[idx], 0)  # unknown src -> 0
        else:
            r = np.zeros(len(self._keys), np.int64)
        per_src = r // self._counts
        edge_vals = np.repeat(per_src, self._counts)
        uniq, inv = np.unique(self._dst, return_inverse=True)
        sums = np.zeros(len(uniq), np.int64)
        np.add.at(sums, inv, edge_vals)
        return uniq, sums

    def apply(self, *contrib_pairs) -> int:
        """Damped update for the owned universe from ALL shards'
        contribution partials; runs after this shard's contribs() by
        actor-serial ordering, so no driver barrier is needed."""
        total = np.zeros(len(self._nodes), np.int64)
        for dsts, vals in contrib_pairs:
            if not len(dsts) or not len(self._nodes):
                continue
            m = self.owns(dsts)
            dsts, vals = dsts[m], vals[m]
            idx = np.clip(
                np.searchsorted(self._nodes, dsts), 0, len(self._nodes) - 1
            )
            ok = self._nodes[idx] == dsts  # unknown dst drops
            np.add.at(total, idx[ok], vals[ok])
        self._ranks = self._base_vec + (self.d * total) // 100
        return len(self._nodes)

    def ranks_table(self) -> pa.Table:
        return pa.table({"doc_id": self._nodes, "rank_u": self._ranks})


def pagerank(
    edges: ray.data.Dataset,
    nodes: ray.data.Dataset,
    n_iters: int = 5,
    damping_pct: int = 85,
    id_col: str = "doc_id",
    n_shards: int | None = None,
    seeds: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Link-graph PageRank in exact integer micro-units — the crawl
    curation signal (prioritize/weight pages by link authority).

    Semantics (all int64 floor arithmetic, so a SQL oracle replays
    every iteration bit for bit):

        r0(v)  = 1_000_000                       (1.0 in micro-units)
        r_k(v) = (100 - d) * 10_000
                 + (d * sum_{u->v} (r_{k-1}(u) // outdeg(u))) // 100

    with ``d = damping_pct``. Non-normalized form (base 0.15 per node);
    dangling-node mass leaks — the standard simplification, documented
    rather than silently wrong. Self-loops and duplicate edges are the
    caller's contract to remove. ``edges`` is Dataset[src, dst];
    ``nodes`` carries the node universe in ``id_col``. Output:
    (doc_id, rank_u) for every node.

    Shard-index shape: adjacency, out-degrees AND ranks are co-located
    per shard, so an iteration exchanges only (dst, contribution)
    partial-sum arrays. The whole iteration chain is submitted without
    a single driver-side ``ray.get``: actor-serial ordering makes
    contribs(k) wait for apply(k-1) on each shard automatically.

    ``seeds`` (Dataset[node]) switches to PERSONALIZED PageRank: the
    teleport mass (base term and initial rank) lands only on the seed
    set, so scores measure proximity to the seeds — the
    topic-sensitive / TrustRank variant used for seed-relative crawl
    prioritization. Same integer semantics, same exchange shape."""
    base = (100 - damping_pct) * 10_000
    with shard_actors(
        _PageRankShard, n_shards, base, damping_pct, seeds is not None
    ) as shards:
        S = len(shards)
        _push_edges(edges, shards, _src_dst)
        push(nodes, shards, _ids_route(S, id_col, "node"))
        if seeds is not None:
            push(seeds, shards, _ids_route(S, "node", "seed"))
        ray.get([s.finalize.remote() for s in shards])

        apply_refs = []
        for _ in range(n_iters):
            contrib_refs = [s.contribs.remote() for s in shards]
            apply_refs.extend(s.apply.remote(*contrib_refs) for s in shards)
        # one barrier at the END (not per iteration): surfaces any actor
        # task error loudly — a swallowed failure would silently return
        # stale ranks otherwise
        ray.get(apply_refs)

        return ray.data.from_arrow_refs(
            [s.ranks_table.remote() for s in shards]
        ).materialize()


_INF = np.int64(1) << 62


@ray.remote
class _SSSPShard(Shard):
    """Weighted CSR + distance vector for owned nodes. Bellman-Ford
    relaxation rounds: each round ships per-dst MIN(dist+w) partials
    (pre-folded), folds incoming mins locally, and reports whether
    anything improved (the convergence bit)."""

    def __init__(self, sid: int, n: int):
        super().__init__(sid, n)
        self._keys = self._counts = self._dst = self._w = None
        self._nodes = self._dist = None

    def finalize(self, seed: int) -> int:
        self._keys, self._counts, self._dst, self._w = self.sorted_csr(
            "src", "dst", "w"
        )
        # "node" holds the endpoint registrations: a node owned here
        # may only appear as the dst of edges held by OTHER shards —
        # without its row its folded distance would have nowhere to live
        owned_dst = self._dst[self.owns(self._dst)]
        self._nodes = np.unique(
            np.concatenate([self._keys, owned_dst, self.take("node")])
        )
        self._dist = np.full(len(self._nodes), _INF, np.int64)
        if len(self._nodes) and self.owns(int(seed)):
            i = np.searchsorted(self._nodes, seed)
            if i < len(self._nodes) and self._nodes[i] == seed:
                self._dist[i] = 0
        return len(self._dst)

    def relax_messages(self) -> tuple[np.ndarray, np.ndarray]:
        if not len(self._keys):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        idx = np.clip(
            np.searchsorted(self._nodes, self._keys), 0,
            max(len(self._nodes) - 1, 0),
        )
        d = np.where(
            self._nodes[idx] == self._keys, self._dist[idx], _INF
        ) if len(self._nodes) else np.full(len(self._keys), _INF)
        finite = d < _INF
        if not finite.any():
            return np.empty(0, np.int64), np.empty(0, np.int64)
        edge_d = np.repeat(d, self._counts)
        em = edge_d < _INF
        cand = edge_d[em] + self._w[em]
        dsts = self._dst[em]
        uniq, inv = np.unique(dsts, return_inverse=True)
        mins = np.full(len(uniq), _INF, np.int64)
        np.minimum.at(mins, inv, cand)
        return uniq, mins

    def fold(self, *pairs) -> int:
        """Returns 1 if any owned distance improved this round."""
        changed = 0
        for keys, vals in pairs:
            if not len(keys) or not len(self._nodes):
                continue
            m = self.owns(keys)
            keys, vals = keys[m], vals[m]
            idx = np.clip(
                np.searchsorted(self._nodes, keys), 0, len(self._nodes) - 1
            )
            ok = self._nodes[idx] == keys
            before = self._dist[idx[ok]]
            np.minimum.at(self._dist, idx[ok], vals[ok])
            if (self._dist[idx[ok]] < before).any():
                changed = 1
        return changed

    def dist_table(self) -> pa.Table:
        fin = self._dist < _INF
        return pa.table(
            {"node": self._nodes[fin], "dist": self._dist[fin]}
        )


def sssp(
    edges: ray.data.Dataset,
    seed: int,
    max_rounds: int = 8,
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Single-source shortest paths (Bellman-Ford, ``max_rounds``
    relaxation rounds — paths of at most that many edges; early exit
    when a round improves nothing) on the shard index. Expects
    Dataset[src, dst, w] with int64 weights; returns Dataset[node,
    dist] for nodes reached within the round budget. One edge exchange
    total; each round ships pre-folded per-dst MIN(dist+w) partials
    plus one changed-bit per shard."""
    with shard_actors(_SSSPShard, n_shards) as shards:
        S = len(shards)

        def edges_by_src(batch: pa.Table):
            src = _ids(batch, "src")
            return np.abs(src) % S, {
                "src": src, "dst": _ids(batch, "dst"), "w": _ids(batch, "w")
            }

        def dsts_by_owner(batch: pa.Table):
            # a dst-only node must exist in its owner's universe for
            # folds to land
            dst = np.unique(_ids(batch, "dst"))
            return np.abs(dst) % S, {"node": dst}

        # one scan, two routes
        push(edges, shards, edges_by_src, dsts_by_owner)
        # the seed belongs in its owner's universe even if isolated
        # (the oracle's d0 row exists unconditionally)
        ray.get(
            shards[abs(int(seed)) % S].add.remote(
                node=np.asarray([int(seed)], np.int64)
            )
        )
        ray.get([s.finalize.remote(int(seed)) for s in shards])

        for _ in range(max_rounds):
            msg_refs = [s.relax_messages.remote() for s in shards]
            changed = ray.get([s.fold.remote(*msg_refs) for s in shards])
            if not any(changed):
                break

        return ray.data.from_arrow_refs(
            [s.dist_table.remote() for s in shards]
        ).materialize()


@ray.remote
class _HITSShard(Shard):
    """Both edge orientations + hub/auth vectors for owned nodes.
    Each HITS half-step is one partial-sum message round; no edge
    moves after the build."""

    def __init__(self, sid: int, n: int, scale: int):
        super().__init__(sid, n)
        self.scale = scale
        self._ok = self._oc = self._od = None  # out-CSR (by src)
        self._ik = self._ic = self._is = None  # in-CSR (by dst)
        self._nodes = self._hub = self._auth = None
        self._araw = self._hraw = None

    def finalize(self) -> int:
        self._ok, self._oc, self._od = self.sorted_csr("src", "dst")
        self._ik, self._ic, self._is = self.sorted_csr("in_dst", "in_src")
        self._nodes = np.unique(self.take("node"))
        self._hub = np.full(len(self._nodes), self.scale, np.int64)
        self._auth = np.zeros(len(self._nodes), np.int64)
        return len(self._nodes)

    def _lookup(self, keys: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Value of ``vec`` (aligned to self._nodes) for ``keys``;
        0 for keys outside the node universe."""
        if not len(self._nodes) or not len(keys):
            return np.zeros(len(keys), np.int64)
        idx = np.clip(
            np.searchsorted(self._nodes, keys), 0, len(self._nodes) - 1
        )
        return np.where(self._nodes[idx] == keys, vec[idx], 0)

    def _per_key_sums(self, dst: np.ndarray, vals: np.ndarray):
        uniq, inv = np.unique(dst, return_inverse=True)
        sums = np.zeros(len(uniq), np.int64)
        np.add.at(sums, inv, vals)
        return uniq, sums

    def auth_partials(self) -> tuple[np.ndarray, np.ndarray]:
        """(dst, sum of hub(src)) partials from this shard's out-CSR."""
        if not len(self._ok):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        hub = self._lookup(self._ok, self._hub)
        return self._per_key_sums(self._od, np.repeat(hub, self._oc))

    def fold_araw(self, *pairs) -> int:
        """Fold incoming (dst, partial) into araw for owned universe
        nodes; returns the local max (driver computes the global)."""
        self._araw = self._fold(pairs)
        return int(self._araw.max()) if len(self._araw) else 0

    def normalize_auth(self, gmax: int) -> int:
        self._auth = self._normalize(self._araw, gmax)
        return 0

    def hub_partials(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, sum of auth(dst)) partials from this shard's in-CSR."""
        if not len(self._ik):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        auth = self._lookup(self._ik, self._auth)
        return self._per_key_sums(self._is, np.repeat(auth, self._ic))

    def fold_hraw(self, *pairs) -> int:
        self._hraw = self._fold(pairs)
        return int(self._hraw.max()) if len(self._hraw) else 0

    def normalize_hub(self, gmax: int) -> int:
        self._hub = self._normalize(self._hraw, gmax)
        return 0

    def _fold(self, pairs) -> np.ndarray:
        total = np.zeros(len(self._nodes), np.int64)
        for keys, vals in pairs:
            if not len(keys) or not len(self._nodes):
                continue
            m = self.owns(keys)
            keys, vals = keys[m], vals[m]
            idx = np.clip(
                np.searchsorted(self._nodes, keys), 0, len(self._nodes) - 1
            )
            ok = self._nodes[idx] == keys  # unknown ids drop
            np.add.at(total, idx[ok], vals[ok])
        return total

    def _normalize(self, raw: np.ndarray, gmax: int) -> np.ndarray:
        if gmax <= 0:
            return np.zeros(len(raw), np.int64)
        # Python-int multiply per node: raw * scale never wraps
        return np.fromiter(
            (int(r) * self.scale // gmax for r in raw), np.int64, len(raw)
        )

    def values_table(self) -> pa.Table:
        return pa.table(
            {"doc_id": self._nodes, "auth_u": self._auth, "hub_u": self._hub}
        )


def hits(
    edges: ray.data.Dataset,
    nodes: ray.data.Dataset,
    n_iters: int = 3,
    scale: int = 1_000_000,
    id_col: str = "doc_id",
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Kleinberg HITS hubs & authorities in exact integer units — the
    companion signal to :func:`pagerank` (a page can be a poor
    authority but a good hub, and crawl curation wants both).

    Semantics (max-normalized variant, all-integer so a SQL oracle
    replays every iteration bit for bit; max-normalization preserves
    the ranking of any scalar normalization):

        hub_0(v)   = scale
        araw_k(v)  = sum_{u->v} hub_{k-1}(u)
        auth_k(v)  = araw_k(v) * scale // max_w araw_k(w)
        hraw_k(u)  = sum_{u->v} auth_k(v)
        hub_k(u)   = hraw_k(u) * scale // max_w hraw_k(w)

    Values stay in [0, scale] after each half-step. The per-key edge
    sums are vectorized int64 (safe while max in-degree * scale <
    2^63); the node-sized normalize multiply runs in Python ints, so
    ``raw * scale`` never wraps regardless of graph size. Self-loops /
    duplicate edges are the caller's contract to remove. Output:
    ``(doc_id, auth_u, hub_u)`` for every node after ``n_iters``.

    Shard-index shape: both edge orientations are pushed into shard
    CSRs in ONE scan; each half-step ships per-key partial sums plus one
    local max per shard, and the driver folds the global max in
    Python ints."""
    with shard_actors(_HITSShard, n_shards, scale) as shards:
        S = len(shards)

        def out_edges(batch: pa.Table):
            src, dst = _src_dst(batch)
            return np.abs(src) % S, {"src": src, "dst": dst}

        def in_edges(batch: pa.Table):
            src, dst = _src_dst(batch)
            return np.abs(dst) % S, {"in_dst": dst, "in_src": src}

        push(edges, shards, out_edges, in_edges)
        push(nodes, shards, _ids_route(S, id_col, "node"))
        ray.get([s.finalize.remote() for s in shards])

        for _ in range(n_iters):
            a_refs = [s.auth_partials.remote() for s in shards]
            amax = max(ray.get([s.fold_araw.remote(*a_refs) for s in shards]))
            ray.get([s.normalize_auth.remote(amax) for s in shards])
            h_refs = [s.hub_partials.remote() for s in shards]
            hmax = max(ray.get([s.fold_hraw.remote(*h_refs) for s in shards]))
            ray.get([s.normalize_hub.remote(hmax) for s in shards])

        return ray.data.from_arrow_refs(
            [s.values_table.remote() for s in shards]
        ).materialize()


def _index_edges(edges: ray.data.Dataset, shards: list, make_xy) -> None:
    _push_edges(edges, shards, make_xy)
    ray.get([s.finalize.remote() for s in shards])


def _bfs_on_shards(
    shards: list, seed_nodes: np.ndarray, max_depth: int
) -> list:
    """Run the level loop; returns per-shard visited_table REFS (the
    caller owns them, so the actors may be killed afterwards)."""
    seeded = [s.seed.options(num_returns=2).remote(seed_nodes) for s in shards]
    frontier = [arr for _, arr in seeded]
    for level in range(1, max_depth + 1):
        expanded = [
            s.expand.options(num_returns=2).remote(*frontier) for s in shards
        ]
        cand_refs = [arr for _, arr in expanded]
        visited = [
            s.visit.options(num_returns=2).remote(level, *cand_refs)
            for s in shards
        ]
        new_counts = ray.get([cnt for cnt, _ in visited])  # counts only
        if sum(new_counts) == 0:
            break
        frontier = [arr for _, arr in visited]
    return [s.visited_table.remote() for s in shards]


def bfs_hops(
    edges: ray.data.Dataset,
    seeds: ray.data.Dataset,
    max_depth: int = 256,
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Multi-source BFS hop distance: for every node reachable from the
    seed set within ``max_depth`` hops, its minimum hop count. The
    crawl-depth / seed-proximity signal of a frontier scheduler (how far
    a page sits from the trusted seed list).

    ``edges``: Dataset[src, dst] (int64); ``seeds``: Dataset[node].
    Returns Dataset[node, hops] with hops in [0, max_depth].

    One edge exchange total: each level-synchronous round expands the
    frontier off the shard CSRs and anti-joins the candidates against
    each owner's local visited set (a first visit is exactly the
    minimum hop). The loop exits early when a level adds no nodes; the
    driver sees one count per shard per level."""
    with shard_actors(_GraphShard, n_shards) as shards:
        _index_edges(edges, shards, _src_dst)
        seed_nodes = (
            seeds.to_pandas()["node"].to_numpy(np.int64)
            if seeds.count()
            else np.empty(0, np.int64)
        )
        table_refs = _bfs_on_shards(shards, seed_nodes, max_depth)
        return ray.data.from_arrow_refs(table_refs).materialize()


def scc_members(
    edges: ray.data.Dataset,
    seed: int,
    max_depth: int = 256,
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Strongly connected component containing ``seed`` — the
    forward-backward (FW-BW) reachability method, the standard
    distributed SCC primitive (Tarjan's stack does not distribute):
    SCC(seed) = reach(seed, E) INTERSECT reach(seed, E-reversed).
    Returns Dataset[node].

    Two edge exchanges total, one per direction, each into its own
    shard index; both BFS closures exit early (cost = component
    diameter, ``max_depth`` is only a safety bound). The intersection
    is shard-local: both closures are sharded by the same ownership
    rule, so shard i's two outputs hold the same node subset and need
    no exchange."""
    edges = edges.materialize()  # consumed twice: fwd + bwd builds
    seed_nodes = np.asarray([int(seed)], np.int64)

    @ray.remote
    def intersect(f: pa.Table, b: pa.Table) -> pa.Table:
        fn = f["node"].to_numpy(zero_copy_only=False)
        bn = b["node"].to_numpy(zero_copy_only=False)
        return pa.table({"node": np.intersect1d(fn, bn)})

    with shard_actors(_GraphShard, n_shards) as fwd, shard_actors(
        _GraphShard, n_shards
    ) as bwd:
        _index_edges(edges, fwd, _src_dst)
        fwd_refs = _bfs_on_shards(fwd, seed_nodes, max_depth)
        _index_edges(edges, bwd, lambda b: _src_dst(b)[::-1])
        bwd_refs = _bfs_on_shards(bwd, seed_nodes, max_depth)
        # shard i of fwd and shard i of bwd own the SAME node subset
        both = [
            intersect.remote(fr, br) for fr, br in zip(fwd_refs, bwd_refs)
        ]
        return ray.data.from_arrow_refs(both).materialize()


@ray.remote
class _TriShard(Shard):
    """Owns the incident-edge lists (and later the oriented CSR) for
    its nodes during an indexed triangle count. Lifecycle:
    add* -> finalize_tri -> deg_queries -> deg_lookup (as a peer) ->
    orient -> wedge_queries -> probe (as a peer)."""

    def __init__(self, sid: int, n: int) -> None:
        super().__init__(sid, n)
        # after finalize_tri: incident CSR + owned degrees
        self._x: np.ndarray | None = None  # sorted owned endpoints
        self._y: np.ndarray | None = None  # neighbor per incident row
        self._deg_keys: np.ndarray | None = None
        self._deg: np.ndarray | None = None
        self._q_parts: list[np.ndarray] | None = None  # deg queries
        # after orient: oriented out-edges (tail owned)
        self._o_tail: np.ndarray | None = None
        self._o_head: np.ndarray | None = None
        self._o_dhead: np.ndarray | None = None

    def finalize_tri(self) -> int:
        self._deg_keys, counts, _, self._y = self.distinct_csr(
            "src", "dst"
        )
        self._deg = counts.astype(np.int64)
        self._x = np.repeat(self._deg_keys, counts)
        return len(self._x)

    def deg_queries(self) -> list:
        """Unique neighbor ids partitioned by owner shard (S slots —
        callers route slot t to shard t's deg_lookup)."""
        y = np.unique(self._y) if self._y is not None else np.empty(0, np.int64)
        own = np.abs(y) % self.n
        self._q_parts = [y[own == t] for t in range(self.n)]
        return self._q_parts

    def deg_lookup(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, np.int64)
        if not len(nodes):
            return np.empty(0, np.int64)
        # every queried node has >= 1 incident edge at its owner, so
        # searchsorted always hits
        pos = np.searchsorted(self._deg_keys, nodes)
        return self._deg[pos]

    def orient(self, *deg_replies: np.ndarray) -> int:
        """Build the oriented out-edge set for owned tails: keep
        (x, y) iff (deg(x), x) < (deg(y), y). Returns |N+| (this
        shard's share of the distinct edge count: the orientation
        assigns each undirected edge to exactly one owner)."""
        # neighbor-degree lookup table from the peer replies (aligned
        # with the partitions deg_queries returned)
        qk = np.concatenate(self._q_parts) if self._q_parts else np.empty(0, np.int64)
        qv = (
            np.concatenate([np.asarray(r, np.int64) for r in deg_replies])
            if deg_replies
            else np.empty(0, np.int64)
        )
        order = np.argsort(qk)
        qk, qv = qk[order], qv[order]
        self._q_parts = None
        x, y = self._x, self._y
        dx = self._deg[np.searchsorted(self._deg_keys, x)]
        dy = qv[np.searchsorted(qk, y)]
        keep = (dx < dy) | ((dx == dy) & (x < y))
        tail, head, dhead = x[keep], y[keep], dy[keep]
        # sort segments by (tail, deg_head, head): wedge pairs then
        # come out orientation-ordered for free
        o = np.lexsort((head, dhead, tail))
        self._o_tail, self._o_head, self._o_dhead = tail[o], head[o], dhead[o]
        self._x = self._y = None  # incident lists no longer needed
        return int(len(tail))

    def wedge_queries(self) -> list:
        """All wedge pairs (b, c) of this shard's apexes — b before c
        in (deg, id) order, so the closing edge is oriented b -> c —
        partitioned by owner(b) into S slots, each a (2, K) int64
        array, routed to that owner's probe()."""
        t, h = self._o_tail, self._o_head
        bs: list[np.ndarray] = []
        cs: list[np.ndarray] = []
        if t is not None and len(t):
            # offset-k sweep: positions p, p+k in the same tail
            # segment pair up; max k is the max out-degree, which the
            # orientation bounds at O(sqrt(m)) regardless of hub skew
            k = 1
            while True:
                same = t[:-k] == t[k:] if k < len(t) else np.empty(0, bool)
                if not same.any():
                    break
                p = np.flatnonzero(same)
                bs.append(h[p])
                cs.append(h[p + k])
                k += 1
        if bs:
            b = np.concatenate(bs)
            c = np.concatenate(cs)
        else:
            b = np.empty(0, np.int64)
            c = np.empty(0, np.int64)
        own = np.abs(b) % self.n
        return [
            np.stack([b[own == s], c[own == s]]) for s in range(self.n)
        ]

    def probe(self, *pair_blocks: np.ndarray) -> tuple[int, int]:
        """Count wedge pairs that close: (b, c) is a triangle iff the
        oriented edge b -> c exists in this shard (b is owned here).
        Returns (n_pairs_probed, n_matched)."""
        blocks = [np.asarray(pb, np.int64) for pb in pair_blocks]
        n_pairs = int(sum(pb.shape[1] for pb in blocks))
        if n_pairs == 0 or self._o_tail is None or not len(self._o_tail):
            return n_pairs, 0
        b = np.concatenate([pb[0] for pb in blocks])
        c = np.concatenate([pb[1] for pb in blocks])
        mine = pd.DataFrame({"b": self._o_tail, "c": self._o_head})
        q = pd.DataFrame({"b": b, "c": c})
        return n_pairs, int(len(q.merge(mine, on=["b", "c"], how="inner")))


def triangle_count(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Exact global triangle count via the degree-oriented
    wedge-check algorithm (the MapReduce-era standard; e.g. Suri &
    Vassilvitskii 2011, public). One summary row:
    (n_edges, n_wedges, n_triangles).

    The input is canonicalized to distinct undirected self-loop-free
    edges. Each edge is oriented from the (degree, id)-smaller
    endpoint to the larger: the orientation is acyclic, every triangle
    has exactly one apex with two out-edges, and max out-degree is
    O(sqrt(m)) — the wedge stream is O(m^1.5) worst case instead of
    sum(deg^2), which is what makes hub skew survivable. Every step is
    integer arithmetic on the edge set, so the SQL oracle replays it
    with the same orientation rule, bit for bit.

    The edge set is exchanged ONCE into shard actors (each
    undirected edge lands at both endpoint owners); degrees, the
    orientation, wedge generation and the closing-edge probe all
    happen shard-local, with only neighbor-degree lookups (O(m) ids)
    and the wedge stream (O(m^1.5) worst case, the algorithm's honest
    currency) moving actor-to-actor through the object store. The
    driver sees integers only.

    Scale note: wedge blocks ship in one slot per (apex-shard, owner)
    pair; at extreme m a chunked probe (multiple slots per pair) is a
    num_returns change, same as the module-level note.
    """
    n_edges = n_wedges = n_tri = 0
    with shard_actors(_TriShard, n_shards) as shards:
        S = len(shards)
        if _push_edges(edges, shards, _simple_edges(src, dst, True)):
            ray.get([s.finalize_tri.remote() for s in shards])
            qs = [
                s.deg_queries.options(num_returns=S).remote() for s in shards
            ]
            replies = [
                [shards[t].deg_lookup.remote(qs[s][t]) for t in range(S)]
                for s in range(S)
            ]
            n_out = ray.get(
                [shards[s].orient.remote(*replies[s]) for s in range(S)]
            )
            wq = [
                s.wedge_queries.options(num_returns=S).remote()
                for s in shards
            ]
            probes = [
                shards[t].probe.remote(*[wq[s][t] for s in range(S)])
                for t in range(S)
            ]
            res = ray.get(probes)
            n_edges = int(sum(n_out))
            n_wedges = int(sum(p for p, _ in res))
            n_tri = int(sum(m for _, m in res))
    return ray.data.from_arrow(
        pa.table(
            {
                "n_edges": pa.array([n_edges], pa.int64()),
                "n_wedges": pa.array([n_wedges], pa.int64()),
                "n_triangles": pa.array([n_tri], pa.int64()),
            }
        )
    )


@ray.remote
class _KCoreShard(Shard):
    """Owns the undirected adjacency (CSR) and live degree of its
    nodes during an indexed k-core peel. Lifecycle: add* ->
    finalize_kcore(k) -> rounds of find_deaths / n_last_died / apply
    -> survivors."""

    def __init__(self, sid: int, n: int) -> None:
        super().__init__(sid, n)
        self._keys: np.ndarray | None = None   # owned nodes, sorted
        self._off: np.ndarray | None = None    # CSR offsets per key
        self._nbr: np.ndarray | None = None    # neighbor ids
        self._deg: np.ndarray | None = None    # live degree per key
        self._alive: np.ndarray | None = None
        self._k = 0
        self._died_last = 0

    def finalize_kcore(self, k: int) -> int:
        self._k = int(k)
        self._keys, counts, self._off, self._nbr = self.distinct_csr(
            "src", "dst"
        )
        self._deg = counts.astype(np.int64)
        self._alive = np.ones(len(self._keys), dtype=bool)
        return len(self._nbr)

    def find_deaths(self) -> list:
        """Mark owned nodes with live degree < k dead; return the
        decrement partials (2, K) int64 [node, dec] for their CSR
        neighbors, partitioned by owner shard (S slots)."""
        dying = self._alive & (self._deg < self._k)
        self._died_last = int(dying.sum())
        self._alive &= ~dying
        if self._died_last == 0 or self._nbr is None:
            e = np.empty((2, 0), np.int64)
            return [e for _ in range(self.n)]
        idx = np.flatnonzero(dying)
        spans = [
            self._nbr[self._off[i] : self._off[i + 1]] for i in idx
        ]
        nbrs = np.concatenate(spans) if spans else np.empty(0, np.int64)
        nodes, decs = np.unique(nbrs, return_counts=True)
        own = np.abs(nodes) % self.n
        return [
            np.stack([nodes[own == t], decs[own == t].astype(np.int64)])
            for t in range(self.n)
        ]

    def n_last_died(self) -> int:
        return self._died_last

    def apply(self, *dec_blocks: np.ndarray) -> int:
        """Subtract neighbor-death decrements from still-alive owned
        nodes (decrements addressed to already-dead nodes are moot —
        the edge left the subgraph when its first endpoint died)."""
        applied = 0
        for blk in dec_blocks:
            blk = np.asarray(blk, np.int64)
            if not blk.shape[1] or self._keys is None or not len(self._keys):
                continue
            pos = np.searchsorted(self._keys, blk[0])
            pos_c = np.minimum(pos, len(self._keys) - 1)
            ok = (self._keys[pos_c] == blk[0]) & self._alive[pos_c]
            np.subtract.at(self._deg, pos_c[ok], blk[1][ok])
            applied += int(ok.sum())
        return applied

    def survivors(self) -> pa.Table:
        if self._keys is None or not len(self._keys):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "deg": pa.array([], pa.int64()),
                }
            )
        m = self._alive
        return pa.table(
            {
                "doc_id": pa.array(self._keys[m], pa.int64()),
                "deg": pa.array(self._deg[m], pa.int64()),
            }
        )


def k_core(
    edges: ray.data.Dataset,
    k: int,
    src: str = "src",
    dst: str = "dst",
    max_rounds: int = 20,
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Nodes of the k-core (the maximal subgraph where every node
    keeps degree >= k after iteratively peeling lower-degree nodes) —
    the classic web-graph density/spam-farm detector. Returns
    Dataset[doc_id, deg] with each survivor's final in-core degree.
    Peel rounds remove every node under k simultaneously, so the
    chained-CTE SQL oracle replays the round evolution exactly (extra
    oracle rounds past the fixpoint are no-ops).

    The edge set is exchanged ONCE into shard actors; each round moves
    only the death-decrement partials — (neighbor, count) pairs for
    edges incident to nodes that died THIS round — so total exchange
    volume across ALL rounds is bounded by one pass over the edges
    (each edge's endpoint dies at most once) plus S^2 empty slots per
    quiet round. The driver sees one integer per shard per round.

    Decrements addressed to nodes that died in the same or an earlier
    round are skipped at apply: the edge already left the subgraph
    with its first-dying endpoint, which is exactly the simultaneous
    peel semantics. Raises RuntimeError if max_rounds is hit before
    the fixpoint — a truncated peel is NOT the k-core.
    """
    with shard_actors(_KCoreShard, n_shards) as shards:
        S = len(shards)
        if _push_edges(edges, shards, _simple_edges(src, dst, True)):
            ray.get([s.finalize_kcore.remote(k) for s in shards])
            for _ in range(max_rounds):
                slots = [
                    s.find_deaths.options(num_returns=S).remote()
                    for s in shards
                ]
                if sum(ray.get([s.n_last_died.remote() for s in shards])) == 0:
                    break
                ray.get(
                    [
                        shards[t].apply.remote(
                            *[slots[s][t] for s in range(S)]
                        )
                        for t in range(S)
                    ]
                )
            else:
                raise RuntimeError(
                    f"k_core did not converge within "
                    f"max_rounds={max_rounds}"
                )
        return ray.data.from_arrow_refs(
            [s.survivors.remote() for s in shards]
        ).materialize()


@ray.remote
class _WalkShard(Shard):
    """Owns the out-adjacency (CSR, dsts ascending in-span) of its
    nodes during deterministic random-walk generation, plus the output
    buffer of walk positions it emitted. Lifecycle: add* ->
    finalize_walks -> start(walks_per_node) -> step(t)* -> drain."""

    def __init__(self, sid: int, n: int) -> None:
        super().__init__(sid, n)
        self._keys: np.ndarray | None = None
        self._off: np.ndarray | None = None
        self._nbr: np.ndarray | None = None
        self._out: list[tuple[np.ndarray, np.ndarray, int, np.ndarray]] = []
        self._n_live = 0

    def finalize_walks(self) -> int:
        # in-span dsts ascending is the rank order the oracle's
        # row_number replays
        self._keys, _, self._off, self._nbr = self.distinct_csr(
            "src", "dst"
        )
        return len(self._nbr)

    def _advance(
        self, t: int, starts: np.ndarray, ws: np.ndarray, cur: np.ndarray
    ) -> list:
        """Advance walk states sitting on owned nodes: pick the
        H(cur, t, w) % outdeg ranked outlink, record the emitted
        positions, return next states partitioned by owner(next)."""
        import hashlib

        if len(cur) and self._keys is not None and len(self._keys):
            pos = np.searchsorted(self._keys, cur)
            pos_c = np.minimum(pos, len(self._keys) - 1)
            live = self._keys[pos_c] == cur
        else:
            live = np.zeros(len(cur), dtype=bool)
        starts, ws, cur = starts[live], ws[live], cur[live]
        if not len(cur):
            self._n_live = 0
            e = np.empty((3, 0), np.int64)
            return [e for _ in range(self.n)]
        pos = np.searchsorted(self._keys, cur)
        odeg = self._off[pos + 1] - self._off[pos]
        # H = first 8 hex digits of md5("cur:t:w") — replayed verbatim
        # by the oracle's ('0x' || substring(md5(...), 1, 8))::UBIGINT
        choice = np.fromiter(
            (
                int(
                    hashlib.md5(f"{c}:{t}:{w}".encode()).hexdigest()[:8], 16
                )
                for c, w in zip(cur.tolist(), ws.tolist())
            ),
            dtype=np.int64,
            count=len(cur),
        ) % odeg
        nxt = self._nbr[self._off[pos] + choice]
        self._out.append((starts, ws, t, nxt))
        self._n_live = len(nxt)
        own = np.abs(nxt) % self.n
        return [
            np.stack([starts[own == s], ws[own == s], nxt[own == s]])
            for s in range(self.n)
        ]

    def start(self, walks_per_node: int, t: int) -> list:
        """Seed one walk state per (owned source node, walk id) and
        advance them one step (t = 1)."""
        W = walks_per_node
        nodes = self._keys if self._keys is not None else np.empty(0, np.int64)
        starts = np.repeat(nodes, W)
        ws = np.tile(np.arange(W, dtype=np.int64), len(nodes))
        return self._advance(t, starts, ws, starts.copy())

    def step(self, t: int, *state_blocks: np.ndarray) -> list:
        blocks = [np.asarray(b, np.int64) for b in state_blocks]
        if blocks:
            starts = np.concatenate([b[0] for b in blocks])
            ws = np.concatenate([b[1] for b in blocks])
            cur = np.concatenate([b[2] for b in blocks])
        else:
            starts = ws = cur = np.empty(0, np.int64)
        return self._advance(t, starts, ws, cur)

    def n_live(self) -> int:
        return self._n_live

    def drain(self, walks_per_node: int) -> pa.Table:
        """Step-0 positions for owned start nodes + every emitted
        step-t position."""
        nodes = self._keys if self._keys is not None else np.empty(0, np.int64)
        W = walks_per_node
        s0 = np.repeat(nodes, W)
        w0 = np.tile(np.arange(W, dtype=np.int64), len(nodes))
        starts = [s0] + [s for s, _, _, _ in self._out]
        ws = [w0] + [w for _, w, _, _ in self._out]
        steps = [np.zeros(len(s0), np.int64)] + [
            np.full(len(s), t, np.int64) for s, _, t, _ in self._out
        ]
        nodes_o = [s0] + [n for _, _, _, n in self._out]
        return pa.table(
            {
                "start": pa.array(np.concatenate(starts), pa.int64()),
                "walk": pa.array(np.concatenate(ws), pa.int64()),
                "step": pa.array(np.concatenate(steps), pa.int64()),
                "node": pa.array(np.concatenate(nodes_o), pa.int64()),
            }
        )


def random_walks(
    edges: ray.data.Dataset,
    walk_len: int = 8,
    walks_per_node: int = 1,
    src: str = "src",
    dst: str = "dst",
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Deterministic DeepWalk-style walk corpus over a directed graph
    (the graph-structured analogue of a training-data export: walk
    sequences feed skip-gram / node-embedding training exactly like
    token streams feed LMs).

    Semantics (exactly replayable in SQL, see the `random_walks`
    oracle): adjacency is the DISTINCT self-loop-free edge set with
    each source's outlinks ranked ascending by dst; every node with
    outdeg >= 1 starts ``walks_per_node`` walks; at step t (1-based)
    a walk at node v moves to the outlink with rank
    ``H(v, t, w) % outdeg(v)`` where H = the first 8 md5 hex digits
    of "v:t:w" — the repo's standard SQL-replayable hash (cf.
    hash_sample) — and a walk ENDS when it reaches a node with no
    outlinks. Output: one row per visited position
    (start, walk, step, node), step 0 included.

    Index shape: the edge set is exchanged once into shard actors;
    each of the walk_len-1 rounds moves only the live walk-state
    triples (start, walk, cur) actor-to-actor — O(n_live) per round,
    zero edge movement, integers only to the driver. The md5 loop is
    the per-state cost; it is the price of SQL replayability (a
    vectorized hash here would need a matching SQL builtin).
    """
    with shard_actors(_WalkShard, n_shards) as shards:
        S = len(shards)
        if _push_edges(edges, shards, _simple_edges(src, dst, False)):
            ray.get([s.finalize_walks.remote() for s in shards])
            if walk_len > 1:
                slots = [
                    s.start.options(num_returns=S).remote(walks_per_node, 1)
                    for s in shards
                ]
                for t in range(2, walk_len):
                    if sum(ray.get([s.n_live.remote() for s in shards])) == 0:
                        break
                    slots = [
                        shards[u]
                        .step.options(num_returns=S)
                        .remote(t, *[slots[s][u] for s in range(S)])
                        for u in range(S)
                    ]
                ray.get([s.n_live.remote() for s in shards])  # step barrier
        return ray.data.from_arrow_refs(
            [s.drain.remote(walks_per_node) for s in shards]
        ).materialize()


@ray.remote
class _LPAShard(Shard):
    """Owns the symmetrized CSR adjacency and current community label
    of its nodes during synchronous label propagation. Each round
    ships per-(dst, label) COUNT partials (pre-aggregated before they
    travel); the owner folds counts and takes the majority label with
    the deterministic (count DESC, label ASC) tie-break."""

    def __init__(self, sid: int, n: int) -> None:
        super().__init__(sid, n)
        self._keys: np.ndarray | None = None
        self._off: np.ndarray | None = None
        self._nbr: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def finalize_lpa(self) -> int:
        self._keys, _, self._off, self._nbr = self.distinct_csr(
            "src", "dst"
        )
        self._labels = self._keys.copy()  # label_0(v) = v
        return len(self._nbr)

    def round_one_local(self) -> int:
        """Round 1 needs no exchange: label_0(u) = u and neighbors
        are distinct, so every count is 1 and the majority rule's
        (count DESC, label ASC) tie-break degenerates to the MIN
        neighbor id — which is local to the (symmetrized) CSR."""
        if self._keys is not None and len(self._keys):
            self._labels = np.minimum.reduceat(self._nbr, self._off[:-1])
        return 0

    def contribs(self) -> list:
        """(neighbor, my_label, count) partials for every owned edge
        u -> v: v hears label(u). Pre-aggregated per (v, label) and
        partitioned by owner(v) into S slots, each a (3, K) int64."""
        if self._keys is None or not len(self._keys):
            e = np.empty((3, 0), np.int64)
            return [e for _ in range(self.n)]
        sizes = np.diff(self._off)
        lab_per_edge = np.repeat(self._labels, sizes)
        vl = np.stack([self._nbr, lab_per_edge], axis=1)
        uniq, cnt = np.unique(vl, axis=0, return_counts=True)
        v, lab = uniq[:, 0], uniq[:, 1]
        own = np.abs(v) % self.n
        return [
            np.stack([v[own == t], lab[own == t], cnt[own == t]])
            for t in range(self.n)
        ]

    def apply(self, *blocks: np.ndarray) -> int:
        """Fold incoming (v, label, count) partials for owned nodes:
        new label(v) = majority label, ties to the smaller label."""
        blocks = [np.asarray(b, np.int64) for b in blocks]
        if self._keys is None or not len(self._keys):
            return 0
        vs = np.concatenate([b[0] for b in blocks])
        ls = np.concatenate([b[1] for b in blocks])
        cs = np.concatenate([b[2] for b in blocks])
        if not len(vs):
            return 0
        # sum partial counts per (v, label)
        vl = np.stack([vs, ls], axis=1)
        uniq, inv = np.unique(vl, axis=0, return_inverse=True)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, cs)
        v, lab = uniq[:, 0], uniq[:, 1]
        # first row per v under (v ASC, count DESC, label ASC) is the
        # winner (uniq is already (v, label)-sorted; a stable sort by
        # -count keeps label ASC within equal counts)
        order = np.argsort(-tot, kind="stable")
        v, lab = v[order], lab[order]
        order2 = np.argsort(v, kind="stable")
        v, lab = v[order2], lab[order2]
        first = np.concatenate(([True], v[1:] != v[:-1]))
        v, lab = v[first], lab[first]
        pos = np.searchsorted(self._keys, v)
        self._labels[pos] = lab
        return int(len(v))

    def labels_table(self) -> pa.Table:
        if self._keys is None:
            return pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "community": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "node": pa.array(self._keys, pa.int64()),
                "community": pa.array(self._labels, pa.int64()),
            }
        )


def lpa_communities(
    edges: ray.data.Dataset,
    n_iters: int = 3,
    src: str = "src",
    dst: str = "dst",
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Synchronous label-propagation community detection (Raghavan et
    al.) with fully deterministic semantics: the graph is symmetrized
    and self-loop-free, label_0(v) = v, and each round every node
    simultaneously adopts the MAJORITY label among its neighbors with
    ties broken by the smaller label — replayed exactly by the SQL
    oracle's chained per-round CTEs (count DESC, label ASC
    row_number). Unlike connected components (min-label fixpoint =
    membership), LPA finds dense sub-communities WITHIN components;
    a fixed ``n_iters`` keeps it exactly replayable.

    Index shape: one direct-push edge exchange into shard actors;
    each round ships per-(dst, label) count partials (pre-aggregated
    at the sender — volume <= the edge count, usually far less) and
    the driver sees one int per shard per round.
    """
    with shard_actors(_LPAShard, n_shards) as shards:
        S = len(shards)
        if _push_edges(edges, shards, _simple_edges(src, dst, True)):
            ray.get([s.finalize_lpa.remote() for s in shards])
            if n_iters >= 1:
                # round 1 degenerates to local min-neighbor (see
                # round_one_local) — skips the largest exchange of the
                # whole run (round-1 labels are all distinct, so its
                # partial stream is edge-sized)
                ray.get([s.round_one_local.remote() for s in shards])
            for _ in range(1, n_iters):
                slots = [
                    s.contribs.options(num_returns=S).remote() for s in shards
                ]
                ray.get(
                    [
                        shards[t].apply.remote(
                            *[slots[s][t] for s in range(S)]
                        )
                        for t in range(S)
                    ]
                )
        return ray.data.from_arrow_refs(
            [s.labels_table.remote() for s in shards]
        ).materialize()


@ray.remote
class _MISShard(Shard):
    """Owns adjacency + alive state of its nodes during deterministic
    Luby maximal-independent-set rounds. Priorities are a pure
    function of (node, round) — first 8 md5 hex digits of "node:r" —
    so neighbor priorities are computed locally; only DEATHS travel
    (broadcast to all shards; each keeps the dead set it needs to
    veto neighbors)."""

    def __init__(self, sid: int, n: int) -> None:
        super().__init__(sid, n)
        self._keys: np.ndarray | None = None
        self._off: np.ndarray | None = None
        self._nbr: np.ndarray | None = None
        self._alive: np.ndarray | None = None
        self._dead: np.ndarray = np.empty(0, np.int64)  # sorted, global
        self._mis: list[tuple[int, np.ndarray]] = []

    def finalize_mis(self) -> int:
        self._keys, _, self._off, self._nbr = self.distinct_csr(
            "src", "dst"
        )
        self._alive = np.ones(len(self._keys), dtype=bool)
        return len(self._nbr)

    def _prio(self, nodes: np.ndarray, r: int) -> np.ndarray:
        import hashlib

        return np.fromiter(
            (
                int(hashlib.md5(f"{v}:{r}".encode()).hexdigest()[:8], 16)
                for v in nodes.tolist()
            ),
            dtype=np.int64,
            count=len(nodes),
        )

    def decide(self, r: int) -> np.ndarray:
        """Pick owned MIS winners for round r: alive v wins iff NO
        alive neighbor u has (prio(u), u) < (prio(v), v). Returns the
        death set this shard generates — its winners plus ALL their
        neighbors (owners dedupe on apply)."""
        if self._keys is None or not len(self._keys):
            return np.empty(0, np.int64)
        idx = np.flatnonzero(self._alive)
        if not len(idx):
            return np.empty(0, np.int64)
        v = self._keys[idx]
        pv = self._prio(v, r)
        # neighbor spans; veto if any alive neighbor precedes
        nbr_alive_mask = ~np.isin(self._nbr, self._dead)
        # vectorized per-span check via repeat/compare
        spans = self._off
        sizes = (spans[idx + 1] - spans[idx]).astype(np.int64)
        flat = np.concatenate(
            [self._nbr[spans[i] : spans[i + 1]] for i in idx]
        ) if len(idx) else np.empty(0, np.int64)
        alive_flat = np.concatenate(
            [nbr_alive_mask[spans[i] : spans[i + 1]] for i in idx]
        ) if len(idx) else np.empty(0, bool)
        pu = self._prio(flat, r)
        pv_rep = np.repeat(pv, sizes)
        v_rep = np.repeat(v, sizes)
        beats = alive_flat & (
            (pu < pv_rep) | ((pu == pv_rep) & (flat < v_rep))
        )
        # reduce per span: any beating neighbor -> veto
        veto = np.zeros(len(idx), dtype=bool)
        pos = np.repeat(np.arange(len(idx)), sizes)
        np.logical_or.at(veto, pos, beats)
        win = v[~veto]
        if not len(win):
            return np.empty(0, np.int64)
        self._mis.append((r, win))
        wpos = np.searchsorted(self._keys, win)
        wnbrs = np.concatenate(
            [self._nbr[spans[p] : spans[p + 1]] for p in wpos]
        )
        return np.unique(np.concatenate([win, wnbrs]))

    def apply_deaths(self, *death_blocks: np.ndarray) -> int:
        """Fold the round's global death set: update the shared dead
        filter and kill owned nodes."""
        blocks = [np.asarray(b, np.int64) for b in death_blocks]
        dead_new = (
            np.unique(np.concatenate(blocks))
            if blocks
            else np.empty(0, np.int64)
        )
        if not len(dead_new):
            return int(self._alive.sum()) if self._alive is not None else 0
        self._dead = np.union1d(self._dead, dead_new)
        if self._keys is not None and len(self._keys):
            pos = np.searchsorted(self._keys, dead_new)
            pos_c = np.minimum(pos, len(self._keys) - 1)
            ok = self._keys[pos_c] == dead_new
            self._alive[pos_c[ok]] = False
        return int(self._alive.sum()) if self._alive is not None else 0

    def mis_table(self) -> pa.Table:
        if not self._mis:
            return pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "round": pa.array([], pa.int64()),
                }
            )
        nodes = np.concatenate([n for _, n in self._mis])
        rounds = np.concatenate(
            [np.full(len(n), r, np.int64) for r, n in self._mis]
        )
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "round": pa.array(rounds, pa.int64()),
            }
        )


def mis(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    max_rounds: int = 8,
    n_shards: int | None = None,
) -> ray.data.Dataset:
    """Deterministic Luby maximal independent set over the symmetrized
    self-loop-free graph — the classic parallel symmetry-breaking
    primitive (e.g. picking a maximal batch of mutually-conflicting
    fetch/compaction tasks to run together). Round r gives every
    alive node the priority (first-8-md5-hex("node:r"), node); a node
    joins the MIS iff it precedes ALL alive neighbors, then winners
    and their neighbors leave the graph. Fully deterministic, so the
    SQL oracle replays every round with generated chained CTEs
    (`_mis_sql`). Returns Dataset[node, round] of MIS members.

    Index shape: one direct-push edge exchange; priorities are pure
    (node, round) functions computed shard-local, so each round moves
    ONLY the death set (winners + their neighborhoods — every node
    dies exactly once across all rounds, so total exchange volume is
    one node set plus the S-fold broadcast of it). Raises
    RuntimeError if max_rounds is hit with nodes still alive — a
    truncated MIS is not maximal. The per-shard dead filter is the
    documented O(n) memory trade; the refinement (neighbor-filtered
    retention per shard) is a slicing change, not a redesign.
    """
    with shard_actors(_MISShard, n_shards) as shards:
        if _push_edges(edges, shards, _simple_edges(src, dst, True)):
            ray.get([s.finalize_mis.remote() for s in shards])
            for r in range(1, max_rounds + 1):
                deaths = [s.decide.remote(r) for s in shards]
                n_alive = sum(
                    ray.get(
                        [s.apply_deaths.remote(*deaths) for s in shards]
                    )
                )
                if n_alive == 0:
                    break
            else:
                raise RuntimeError(
                    f"mis did not finish within max_rounds={max_rounds}"
                )
        return ray.data.from_arrow_refs(
            [s.mis_table.remote() for s in shards]
        ).materialize()


# ------------------------------------------------ bucket-exchange ops

def canonical_doc_ids(
    doc_ids: ray.data.Dataset,
    clusters: ray.data.Dataset,
    id_col: str = "doc_id",
    n_buckets: int = 512,
) -> ray.data.Dataset:
    """Fuzzy-dedup survivor set: every id in ``doc_ids`` except
    non-canonical cluster members (``doc_id != cluster_id``).

    Bucketed cogroup ANTI-join on the id, mirroring
    ``dedup.incremental_dedup``: both sides shuffle narrow (id, side)
    rows keyed on a coarse id bucket — the drop side is O(duplicates)
    but is still joined distributed rather than broadcast, so a
    30%-dup crawl cannot blow a single node. Output: Dataset[doc_id].
    """

    def tag_drops(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pa.compute.not_equal(batch["doc_id"], batch["cluster_id"])
        )
        return pa.table({"key": t["doc_id"]})

    def anti(docs: pa.Table, drops: pa.Table) -> pd.DataFrame:
        drop = set(drops["key"].to_pylist())
        keep = docs.to_pandas()
        keep = keep[~keep["key"].isin(drop)]
        return pd.DataFrame({"doc_id": keep["key"].astype(np.int64)})

    key = pa.schema([("key", pa.int64())])
    return cogroup(
        {
            "docs": (doc_ids.select_columns([id_col]).rename_columns(["key"]), "key", key),
            "drops": (clusters.map_batches(tag_drops, batch_format="pyarrow"), "key", key),
        },
        anti,
        pa.schema([("doc_id", pa.int64())]),
        n_buckets=n_buckets,
        coalesce=True,
    )


def cocitation_topk(
    edges: ray.data.Dataset,
    k: int = 20,
    src: str = "src",
    dst: str = "dst",
    max_out: int = 4096,
    n_buckets: int = 128,
) -> ray.data.Dataset:
    """Top-k co-cited page pairs: (x, y, n_common) where n_common =
    number of distinct sources linking to BOTH x and y — the classic
    "related pages" / co-citation similarity over a web graph.
    Ordered by (n_common DESC, x ASC, y ASC), a total order.

    Shape: one src-bucket exchange groups each source's distinct
    out-links; the bucket task expands per-source neighbor pairs
    (C(outdeg, 2) — `max_out` drops hub sources whole, the documented
    skew cap, same contract as editdist.max_block) and pre-aggregates
    pair counts inside the bucket; one pair-bucket exchange sums the
    partials. The final top-k sorts the aggregated pair table (the
    operator's output domain, already far smaller than the wedge
    stream), not the corpus.
    """
    from ray.data.aggregate import Sum

    def tag(batch: pa.Table) -> pa.Table:
        s = batch[src].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        sd = np.unique(np.stack([s[keep], d[keep]], axis=1), axis=0)
        return pa.table({"src": sd[:, 0], "dst": sd[:, 1]})

    def pairs_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        """Per-source pair expansion WITHOUT a per-source Python loop:
        sorted-boundary span detection + size-class triu expansion
        (the allpairs._pair_indices pattern — the per-source
        DataFrame-per-group loop was the measured wall of the first
        cut, same lesson as cosine_pairs). Sorting by (src, dst)
        makes each span's dsts ascending, so (dsts[ia], dsts[ib])
        reproduces the original sorted-h orientation exactly."""
        from .allpairs import _pair_indices

        # distinct again: per-batch unique above doesn't dedup ACROSS
        # batches of the same source
        g = group[["src", "dst"]].drop_duplicates()
        g = g.sort_values(["src", "dst"], kind="mergesort")
        srcs = g["src"].to_numpy(np.int64)
        dsts = g["dst"].to_numpy(np.int64)
        if not len(srcs):
            return None
        bnd = np.flatnonzero(np.diff(srcs)) + 1
        starts = np.concatenate(([0], bnd))
        sizes = np.diff(np.concatenate((starts, [len(srcs)])))
        keep = (sizes >= 2) & (sizes <= max_out)
        starts, sizes = starts[keep], sizes[keep]
        if not len(starts):
            return None
        ia, ib = _pair_indices(starts, sizes)
        out = (
            pd.DataFrame({"x": dsts[ia], "y": dsts[ib]})
            .groupby(["x", "y"], as_index=False)
            .size()
        )
        return out.rename(columns={"size": "n_common"}).astype(np.int64)

    i64 = pa.int64()
    counts = pa.schema([("x", i64), ("y", i64), ("n_common", i64)])
    per_bucket = cogroup(
        {"group": (edges.map_batches(tag, batch_format="pyarrow"), "src")},
        lambda group: pairs_in_bucket(group.to_pandas()),
        counts,
        n_buckets=n_buckets,
        coalesce=True,
    )

    def tag_pair(batch: pa.Table) -> pa.Table:
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch["y"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("_pk", pa.array(x * np.int64(1_000_003) + y))

    def sum_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["x", "y"], as_index=False)["n_common"].sum()
        return out.astype(np.int64)

    pair_counts = cogroup(
        {"group": (per_bucket.map_batches(tag_pair, batch_format="pyarrow"), "_pk")},
        lambda group: sum_in_bucket(group.to_pandas()),
        counts,
        n_buckets=n_buckets,
        coalesce=True,
    )
    return pair_counts.sort(
        ["n_common", "x", "y"], descending=[True, False, False]
    ).limit(k)


def skipgram_pairs(
    walks: ray.data.Dataset,
    window: int = 2,
    n_buckets: int = 128,
) -> ray.data.Dataset:
    """Skip-gram (center, context, n_pairs) counts over a walk corpus
    — the DeepWalk/word2vec training-pair extraction step, applied to
    ``random_walks`` output (start, walk, step, node). A
    center at step s pairs with every position at step s±d for
    1 <= d <= window within the SAME walk.

    Shape: one (start, walk)-bucket exchange groups each walk's
    positions (a walk is at most walk_len rows, so buckets stay
    balanced); the bucket task sorts by step and emits pairs with an
    offset-d sweep (both directions) pre-aggregated per bucket, then
    one pair-bucket exchange sums the partials — the module-standard
    two-exchange aggregate, never materializing the raw pair stream
    driver-side.
    """

    def tag(batch: pa.Table) -> pa.Table:
        s = batch["start"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch["walk"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "_wk": s * np.int64(1_000_003) + w,
                "start": s,
                "walk": w,
                "step": batch["step"].cast(pa.int64()),
                "node": batch["node"].cast(pa.int64()),
            }
        )

    def pairs_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["start", "walk", "step"], kind="mergesort")
        sw = (
            g["start"].to_numpy(np.int64) * np.int64(1_000_003)
            + g["walk"].to_numpy(np.int64)
        )
        st = g["step"].to_numpy(np.int64)
        nd = g["node"].to_numpy(np.int64)
        cs, xs = [], []
        for d in range(1, window + 1):
            if d >= len(nd):
                break
            same = (sw[:-d] == sw[d:]) & (st[:-d] + d == st[d:])
            p = np.flatnonzero(same)
            if not len(p):
                continue
            # both directions: (center, later context) and the mirror
            cs.append(nd[p])
            xs.append(nd[p + d])
            cs.append(nd[p + d])
            xs.append(nd[p])
        if not cs:
            return None
        out = (
            pd.DataFrame(
                {"center": np.concatenate(cs), "context": np.concatenate(xs)}
            )
            .groupby(["center", "context"], as_index=False)
            .size()
        )
        return out.rename(columns={"size": "n_pairs"}).astype(np.int64)

    i64 = pa.int64()
    counts = pa.schema([("center", i64), ("context", i64), ("n_pairs", i64)])
    per_bucket = cogroup(
        {"group": (walks.map_batches(tag, batch_format="pyarrow"), "_wk")},
        lambda group: pairs_in_bucket(group.to_pandas()),
        counts,
        n_buckets=n_buckets,
        coalesce=True,
    )

    def tag_pair(batch: pa.Table) -> pa.Table:
        c = batch["center"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch["context"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("_pk", pa.array(c * np.int64(1_000_003) + x))

    def sum_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby(["center", "context"], as_index=False)[
            "n_pairs"
        ].sum()
        return out.astype(np.int64)

    return cogroup(
        {"group": (per_bucket.map_batches(tag_pair, batch_format="pyarrow"), "_pk")},
        lambda group: sum_in_bucket(group.to_pandas()),
        counts,
        n_buckets=n_buckets,
        coalesce=True,
    )
