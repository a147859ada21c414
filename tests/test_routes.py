"""Both routes of each size-routed operator give the same rows.

``latest_order_asof`` and ``robots_gate`` broadcast their small side
when it fits ``exchange.BROADCAST_MAX_BYTES`` and exchange both sides
otherwise. Each gate builder runs twice on sf0.01: at the default bound
(every side there broadcasts) and with the bound at 0 (every side
exchanges). The gate builders' own rollups also call ``cogroup``, so
the route is read from the calls the two operator modules make.
"""

import pandas as pd
import pytest

import __ray_entry__ as entry
from pdf_extractor_ray.functions import exchange, relational, webclean

SF = "/root/testdata/sf0.01"


def _run(name: str, monkeypatch, max_bytes: int) -> tuple[pd.DataFrame, int]:
    calls = []

    def counting_cogroup(*args, **kwargs):
        calls.append(1)
        return exchange.cogroup(*args, **kwargs)

    monkeypatch.setattr(exchange, "BROADCAST_MAX_BYTES", max_bytes)
    for module in (relational, webclean):
        monkeypatch.setattr(module, "cogroup", counting_cogroup)
    df = entry.queries()[name](SF).to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True), len(calls)


@pytest.mark.parametrize("name", ["asof_orders", "robots_gate", "crawl_admission"])
def test_broadcast_and_exchange_routes_agree(ray_session, monkeypatch, name):
    broadcast, n_broadcast = _run(name, monkeypatch, exchange.BROADCAST_MAX_BYTES)
    exchanged, n_exchange = _run(name, monkeypatch, 0)
    assert n_broadcast == 0
    assert n_exchange >= 1
    assert len(broadcast) > 0
    pd.testing.assert_frame_equal(broadcast, exchanged)
