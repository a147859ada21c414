"""The shard-actor primitive (functions/shards.py): push routing, the
shard-count default, the kill-on-exit lifecycle, and a structural
guard that keeps spawn/kill plumbing out of the operator modules."""

import ast
import pathlib
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

FUNCTIONS = pathlib.Path(__file__).resolve().parents[1] / (
    "pdf_extractor_ray/functions"
)


def _alive(class_name: str) -> int:
    """Actors of the class that are ALIVE or still being created (a
    pending actor turns ALIVE later unless it is killed first)."""
    from ray._private import state

    return sum(
        1
        for a in state.actors().values()
        if a["ActorClassName"] == class_name and a["State"] != "DEAD"
    )


def _wait_none_alive(class_name: str, timeout_s: float = 20.0) -> int:
    """ray.kill is asynchronous: poll until every actor of the class is
    DEAD or the timeout passes; returns the last live count."""
    deadline = time.monotonic() + timeout_s
    while True:
        n = _alive(class_name)
        if n == 0 or time.monotonic() > deadline:
            return n
        time.sleep(0.2)


def _cc_missing_id():
    from pdf_extractor_ray.functions.graph import connected_components

    pairs = ray.data.from_pandas(pd.DataFrame({"doc_b": [1, 2, 3]}))
    connected_components(pairs, n_shards=3)


def _minhash_missing_text():
    from pdf_extractor_ray.functions.dedup import minhash_candidates

    docs = ray.data.from_pandas(pd.DataFrame({"doc_id": [1, 2, 3]}))
    minhash_candidates(docs, n_shards=3).count()


def _bigram_bad_text():
    # a missing text column already fails in select_columns, before
    # any shard exists; a non-string one fails inside the count push
    from pdf_extractor_ray.functions.ngram_lm import bigram_familiarity

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1, 2, 3], "text": [7, 8, 9]})
    )
    bigram_familiarity(docs).count()


def _market_share(customer_cols=("c_custkey", "c_nationkey"), **kw):
    from pdf_extractor_ray.functions.join_indexed import (
        market_share_indexed,
    )

    nation = pd.DataFrame(
        {
            "n_nationkey": [0, 1],
            "n_name": ["NATION_0", "NATION_1"],
            "r_name": ["ASIA", "ASIA"],
        }
    )
    cust = pd.DataFrame({"c_custkey": [1, 2], "c_nationkey": [0, 1]})
    ds = ray.data.from_pandas
    return market_share_indexed(
        ds(
            pd.DataFrame(
                {
                    "l_orderkey": [1], "l_partkey": [1], "l_suppkey": [1],
                    "l_extendedprice": [10.0], "l_discount": [0.0],
                }
            )
        ),
        ds(
            pd.DataFrame(
                {
                    "o_orderkey": [1], "o_custkey": [1],
                    "o_orderdate": pd.to_datetime(["1995-01-01"]),
                }
            )
        ),
        ds(cust[list(customer_cols)]),
        ds(pd.DataFrame({"s_suppkey": [1], "s_nationkey": [0]})),
        ds(pd.DataFrame({"p_partkey": [1], "p_type": ["PROMO"]})),
        nation,
        nation_name="NATION_0",
        **kw,
    )


def _market_share_missing_key():
    _market_share(customer_cols=("c_nationkey",), n_shards=3)


@pytest.mark.parametrize(
    "run, shard_class, error",
    [
        (_cc_missing_id, "_CCShard", "doc_a"),
        (_minhash_missing_text, "_BandShard", "text"),
        (_bigram_bad_text, "_BigramCountShard", "lower"),
        (_market_share_missing_key, "_LookupShard", "c_custkey"),
    ],
    ids=["connected_components", "minhash_candidates",
         "bigram_familiarity", "market_share_indexed"],
)
def test_failed_operator_leaves_no_actors(
    ray_session, run, shard_class, error
):
    # ``err`` keeps the traceback, and with it the operator's frames,
    # alive (as a REPL or an error log would), so the actor handles
    # cannot simply be garbage-collected: the operator must kill them
    with pytest.raises(Exception, match=error) as err:
        run()
    assert _wait_none_alive(shard_class) == 0
    assert err.traceback


@pytest.mark.parametrize("n_shards", [0, -2])
def test_bad_shard_count_rejected(ray_session, n_shards):
    from pdf_extractor_ray.functions.graph import connected_components

    pairs = ray.data.from_pandas(
        pd.DataFrame({"doc_a": [1, 2], "doc_b": [2, 3]})
    )
    with pytest.raises(ValueError, match="n_shards"):
        connected_components(pairs, n_shards=n_shards)
    with pytest.raises(ValueError, match="n_shards"):
        _market_share(n_shards=n_shards)
    assert _wait_none_alive("_CCShard") == 0
    assert _wait_none_alive("_LookupShard") == 0


# ------------------------------------------------------------- push
# Routes and the probe class are defined inside the tests: Ray workers
# cannot import this test module, so everything a worker runs must be
# pickled by value.


def _probe_class():
    from pdf_extractor_ray.functions.shards import Shard

    @ray.remote
    class _PushProbe(Shard):
        def __init__(self, sid: int, n: int) -> None:
            super().__init__(sid, n)
            self.calls = 0

        def add(self, **cols) -> None:
            self.calls += 1
            super().add(**cols)

        def dump(self, *names: str) -> tuple:
            return self.calls, {c: self.take(c) for c in names}

    return _PushProbe


def test_push_routes_each_row_once_in_batch_order(ray_session):
    from pdf_extractor_ray.functions.shards import push, shard_actors

    rng = np.random.default_rng(3)
    k = rng.integers(-1000, 1000, 300)
    one_batch = ray.data.from_arrow(
        pa.table({"k": k, "pos": np.arange(len(k))})
    )

    def route(batch):
        k = batch["k"].to_numpy()
        return np.abs(k) % 4, {"k": k, "pos": batch["pos"].to_numpy()}

    with shard_actors(_probe_class(), 4) as shards:
        assert push(one_batch, shards, route) == len(k)
        dumps = ray.get([s.dump.remote("k", "pos") for s in shards])
    for sid, (_, got) in enumerate(dumps):
        want = np.flatnonzero(np.abs(k) % 4 == sid)
        np.testing.assert_array_equal(got["pos"], want)
        np.testing.assert_array_equal(got["k"], k[want])


def test_push_many_batches_count_and_exactly_once(ray_session):
    from pdf_extractor_ray.functions.shards import push, shard_actors

    k = np.arange(-500, 500, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"k": k})).repartition(7)

    def route(batch):
        k = batch["k"].to_numpy()
        return np.abs(k) % 3, {"k": k}

    with shard_actors(_probe_class(), 3) as shards:
        assert push(ds, shards, route) == len(k)
        dumps = ray.get([s.dump.remote("k") for s in shards])
    got = np.concatenate([d["k"] for _, d in dumps])
    np.testing.assert_array_equal(np.sort(got), k)
    for sid, (_, d) in enumerate(dumps):
        assert (np.abs(d["k"]) % 3 == sid).all()


def test_push_empty_batch_pushes_nothing(ray_session):
    from pdf_extractor_ray.functions.shards import push, shard_actors

    ds = ray.data.from_arrow(pa.table({"k": np.arange(50)}))

    def drop_all(batch):
        k = batch["k"].to_numpy()[:0]
        return np.abs(k) % 2, {"k": k}

    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.int64())})
    )
    with shard_actors(_probe_class(), 2) as shards:
        assert push(ds, shards, drop_all) == 0
        assert push(empty, shards, drop_all) == 0
        dumps = ray.get([s.dump.remote("k") for s in shards])
    for calls, d in dumps:
        assert calls == 0
        assert d["k"].dtype == np.int64 and len(d["k"]) == 0


def test_push_two_routes_one_scan(ray_session):
    """The SSSP shape: edges to the src owner, dst registrations to
    the dst owner, both from the same batch."""
    from pdf_extractor_ray.functions.shards import push, shard_actors

    src = np.array([0, 1, 2, 3, 4, 5], np.int64)
    dst = np.array([5, 3, 1, 4, 0, 2], np.int64)
    edges = ray.data.from_arrow(pa.table({"src": src, "dst": dst}))

    def by_src(batch):
        s, d = batch["src"].to_numpy(), batch["dst"].to_numpy()
        return np.abs(s) % 3, {"src": s, "dst": d}

    def by_dst(batch):
        d = batch["dst"].to_numpy()
        return np.abs(d) % 3, {"node": d}

    with shard_actors(_probe_class(), 3) as shards:
        assert push(edges, shards, by_src, by_dst) == 2 * len(src)
        dumps = ray.get(
            [s.dump.remote("src", "dst", "node") for s in shards]
        )
    for sid, (_, d) in enumerate(dumps):
        mine = src % 3 == sid
        np.testing.assert_array_equal(d["src"], src[mine])
        np.testing.assert_array_equal(d["dst"], dst[mine])
        np.testing.assert_array_equal(d["node"], dst[dst % 3 == sid])


def test_shard_actors_kills_on_error(ray_session):
    from pdf_extractor_ray.functions.shards import shard_actors

    probe = _probe_class()
    with pytest.raises(RuntimeError, match="boom"):
        with shard_actors(probe, 2) as shards:
            ray.get([s.dump.remote() for s in shards])
            raise RuntimeError("boom")
    assert _wait_none_alive("_PushProbe") == 0


# ---------------------------------------------------- structural guard

SHARD_CLASSES = {
    "graph": [
        "_GraphShard", "_CCShard", "_PageRankShard", "_SSSPShard",
        "_HITSShard", "_TriShard", "_KCoreShard", "_WalkShard",
        "_LPAShard", "_MISShard",
    ],
    "dedup": ["_BandShard"],
    "join_indexed": ["_LookupShard"],
    "ngram_lm": ["_BigramCountShard"],
}


def test_actor_processes_import_only_the_shards_module(tmp_path):
    """Actor classes are pickled by value, so every global their
    methods name is imported by each actor process. Only the light
    shards module may be among them: importing an operator module
    (ray.data, pandas, ...) in every actor was measured at about
    +1.4 s per 4-shard operator call on 1 CPU."""
    import importlib
    import subprocess
    import sys

    import cloudpickle

    probe = (
        "import pickle, sys\n"
        "pickle.load(open(sys.argv[1], 'rb'))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('pdf_extractor_ray.', 'ray.data'))))"
    )
    for module, names in SHARD_CLASSES.items():
        mod = importlib.import_module(f"pdf_extractor_ray.functions.{module}")
        for name in names:
            cls = getattr(mod, name).__ray_metadata__.modified_class
            path = tmp_path / f"{name}.pkl"
            path.write_bytes(cloudpickle.dumps(cls))
            out = subprocess.run(
                [sys.executable, "-c", probe, str(path)],
                capture_output=True, text=True, check=True,
                cwd=FUNCTIONS.parents[1],
            ).stdout.strip()
            assert out == str(
                ["pdf_extractor_ray.functions",
                 "pdf_extractor_ray.functions.shards"]
            ), (name, out)


def test_spawn_and_kill_live_only_in_shards_module():
    """Only functions/shards.py may call ray.kill / ray.cluster_resources
    in the package, so no operator or pipeline hand-rolls its own actor
    lifecycle or CPU-count default."""
    shards_py = FUNCTIONS / "shards.py"
    offenders = []
    for path in sorted(FUNCTIONS.parent.rglob("*.py")):
        if path == shards_py:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ray"
                and node.func.attr in ("kill", "cluster_resources")
            ):
                offenders.append(
                    f"{path.relative_to(FUNCTIONS.parent)}:{node.lineno}"
                )
    assert offenders == []


def test_bucket_exchanges_live_only_in_exchange_module():
    """Only functions/exchange.py may run a Ray groupby(...).map_groups
    on a bucket column it builds itself, or tag rows with a side column:
    every operator's cogroup goes through exchange.cogroup. Groupbys on
    real data columns (and aggregates on any key) are not flagged."""
    exchange_py = FUNCTIONS / "exchange.py"
    paths = sorted(FUNCTIONS.parent.rglob("*.py")) + [
        FUNCTIONS.parents[1] / "__ray_entry__.py"
    ]
    offenders = []
    for path in paths:
        if path == exchange_py:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and node.value in ("_side", "side"):
                offenders.append(f"{where} side tag")
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
            ):
                continue
            grouped = node.func.value
            if (
                isinstance(grouped, ast.Call)
                and isinstance(grouped.func, ast.Attribute)
                and grouped.func.attr == "groupby"
                and grouped.args
                and isinstance(grouped.args[0], ast.Constant)
                and isinstance(grouped.args[0].value, str)
            ):
                key = grouped.args[0].value
                if "bucket" in key or key.startswith("_"):
                    offenders.append(f"{where} groupby({key!r})")
    assert offenders == []


def test_no_route_twins_or_route_parameters():
    """One path per operator: no public function under functions/ is a
    ``*_broadcast`` / ``*_partitioned`` twin, or takes a parameter that
    lets the caller pick a route or its threshold. An operator with two
    routes picks one itself (exchange.fits_broadcast is that rule, so
    its name is the one exemption)."""
    route_params = {"prefilter", "auto_broadcast_max", "broadcast_limit"}
    offenders = []
    for path in sorted(FUNCTIONS.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                defs += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        for fn in defs:
            if fn.name.startswith("_"):
                continue
            where = f"{path.name}:{fn.lineno} {fn.name}"
            if fn.name.endswith(("_broadcast", "_partitioned")) and (
                fn.name != "fits_broadcast"
            ):
                offenders.append(where)
            a = fn.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in route_params:
                    offenders.append(f"{where}({arg.arg})")
    assert offenders == []
