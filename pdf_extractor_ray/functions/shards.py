"""The shard-actor primitive: spawn, push, buffer and kill for every
operator that keeps an index resident in actors and queries it many
times (the graph rounds, MinHash banding, bigram counts and the
star-join lookups — build once, query many).

Sharding contract:

- spawn: :func:`shard_actors` starts ``S`` actors ``cls(sid, S,
  *args)`` and kills every one when its ``with`` block exits, normally
  or by an exception, so a failed operator leaves no actor behind.
  ``S`` comes from :func:`shard_count`. Results leave the block as
  materialized datasets or plain values; the driver owns those refs,
  so the actors may die right after.
- push: :func:`push` streams a dataset once. Each route maps a batch
  to an owner array plus named column arrays, and each owner gets its
  slice, rows in batch order, through :meth:`Shard.add`. ``ray.get``
  per batch is the backpressure (scan tasks cannot outrun the shards)
  and the barrier: when ``push`` returns, every row is buffered at
  its owner. One scan may carry several routes. Pushes are not yet
  idempotent: a retried scan task pushes its batch a second time.
- buffer: :class:`Shard` keeps each pushed column per name until the
  shard's seal/finalize step calls :meth:`Shard.take`, or one of the
  two CSR builders over it; a shard that folds on arrival (the bigram
  counts) overrides ``add`` instead.

Shard actor classes are pickled by value, so each global their
methods name is imported by every actor process. This module is that
import for all of them, which is why it stays light (no ``ray.data``,
no pandas) and why the CSR builders live here and not in graph.py.

The owner rule belongs to each operator (``abs(key) % S`` for graph
and join, ``uint64(band_hash) % S`` for MinHash, ``bucket_ids`` for
bigrams); this module only moves the slices the rule picked.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np
import pyarrow as pa

import ray

if TYPE_CHECKING:
    import ray.data

__all__ = ["Shard", "cluster_cpus", "push", "shard_actors", "shard_count"]

# batch -> (owner shard per row, {column name: array aligned with it})
Route = Callable[[pa.Table], "tuple[np.ndarray, dict[str, np.ndarray]]"]


def cluster_cpus(default: int = 8) -> int:
    """The cluster's CPU count, or ``default`` if it cannot be read."""
    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def shard_count(n_shards: int | None) -> int:
    """``n_shards`` if given (it must be >= 1), else half the
    cluster's CPUs with a floor of 4, or 8 if the CPU count cannot be
    read."""
    if n_shards is None:
        cpus = cluster_cpus(default=0)
        return max(4, cpus // 2) if cpus else 8
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return n_shards


@contextlib.contextmanager
def shard_actors(cls, n_shards: int | None, *args) -> Iterator[list]:
    """Spawn ``shard_count(n_shards)`` actors ``cls.remote(sid, S,
    *args)`` and kill them all when the block exits."""
    n = shard_count(n_shards)
    shards: list = []
    try:
        for sid in range(n):
            shards.append(cls.remote(sid, n, *args))
        yield shards
    finally:
        for s in shards:
            ray.kill(s)


def push(ds: ray.data.Dataset, shards: list, *routes: Route) -> int:
    """Send every row of ``ds`` to its owner shard, once per route.

    Each batch's rows are stable-sorted by owner, so each owner gets
    one ``add(**columns)`` call per batch and route, with its rows in
    batch order; owners with no rows get no call. Returns the number
    of rows pushed over all routes."""

    def push_batch(batch: pa.Table) -> pa.Table:
        refs, n = [], 0
        for route in routes:
            owner, cols = route(batch)
            n += len(owner)
            if not len(owner):
                continue
            order = np.argsort(owner, kind="stable")
            owner = owner[order]
            cols = {k: v[order] for k, v in cols.items()}
            cuts = np.flatnonzero(np.diff(owner)) + 1
            for a, b in zip([0, *cuts], [*cuts, len(owner)]):
                refs.append(
                    shards[int(owner[a])].add.remote(
                        **{k: v[a:b] for k, v in cols.items()}
                    )
                )
        ray.get(refs)
        return pa.table({"n": pa.array([n], pa.int64())})

    counts = ds.map_batches(push_batch, batch_format="pyarrow")
    return sum(
        int(b["n"].sum()) for b in counts.iter_batches(batch_format="numpy")
    )


class Shard:
    """Base of every shard actor: its id ``sid`` out of ``n``, and the
    per-name buffer :func:`push` fills."""

    def __init__(self, sid: int, n: int) -> None:
        self.sid, self.n = sid, n
        self._pushed: dict[str, list[np.ndarray]] = {}

    def add(self, **cols: np.ndarray) -> None:
        for name, col in cols.items():
            self._pushed.setdefault(name, []).append(col)

    def take(self, name: str) -> np.ndarray:
        """Every slice pushed under ``name``, concatenated in arrival
        order (an empty int64 array if none); the buffer is freed."""
        parts = self._pushed.pop(name, [])
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    def sorted_csr(self, key: str, *cols: str) -> tuple:
        """Stable-argsort CSR over the pushed ``key`` column: (keys,
        counts, *cols), the rows sorted by key, ties in arrival order."""
        k = self.take(key)
        order = np.argsort(k, kind="stable")
        keys, counts = np.unique(k[order], return_counts=True)
        return (keys, counts, *(self.take(c)[order] for c in cols))

    def distinct_csr(self, src: str, dst: str) -> tuple:
        """Distinct (src, dst) CSR: (keys, counts, offsets, nbr) with
        duplicate rows dropped and each span's neighbors ascending.
        Local distinct is global distinct when every copy of an edge
        reaches the owner of its src."""
        x, y = self.take(src), self.take(dst)
        if len(x):
            xy = np.unique(np.stack([x, y], axis=1), axis=0)
            x, y = xy[:, 0], xy[:, 1]
        keys, counts = np.unique(x, return_counts=True)
        off = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        return keys, counts, off, y

    def owns(self, keys) -> np.ndarray:
        """Mask of the ``keys`` this shard owns under ``abs(key) % n``."""
        return np.abs(keys) % self.n == self.sid
