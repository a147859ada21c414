"""Leakage-safety of the cluster-keyed split (gate query logic)."""

import hashlib

import pandas as pd
import pytest


class TestClusterSafeSplit:
    def test_no_cluster_straddles_splits(self, ray_session):
        """Every near-dup cluster must land whole in one split —
        the property a doc-keyed hash split cannot guarantee."""
        import ray

        sf = "/root/testdata/sf0.001"
        import sys

        sys.path.insert(0, "/root/repo")
        import __ray_entry__ as E

        from pdf_extractor_ray.functions.dedup import minhash_dedup_pairs
        from pdf_extractor_ray.functions.graph import connected_components
        from pdf_extractor_ray.gate.fixtures import _docs_with_dups

        docs = _docs_with_dups(sf)
        clusters = connected_components(
            minhash_dedup_pairs(docs, threshold=0.8)
        ).to_pandas()
        # replicate the assignment rule per doc
        cmap = dict(
            zip(clusters["doc_id"].astype(int), clusters["cluster_id"].astype(int))
        )
        ids = docs.to_pandas()["doc_id"].astype(int)
        split_of = {}
        for d in ids:
            key = cmap.get(d, d)
            s = (
                "test"
                if int(hashlib.md5(str(key).encode()).hexdigest()[:8], 16)
                % 10
                < 2
                else "train"
            )
            split_of[d] = s
        # leakage check: all members of a cluster share one split
        by_cluster = {}
        for d, c in cmap.items():
            by_cluster.setdefault(c, set()).add(split_of[d])
        assert all(len(v) == 1 for v in by_cluster.values())
        # and the gate query's totals agree
        out = E.queries()["cluster_safe_split"](sf).to_pandas()
        got = dict(zip(out["split"], out["n_docs"]))
        want = pd.Series(list(split_of.values())).value_counts().to_dict()
        assert got == want
