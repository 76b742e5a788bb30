"""Ablation: BASELINE's join-order search (Section 6.1's "best join order").

The paper's BASELINE "always picks the best join order". This bench
quantifies what that buys on the TPC-BiH explosion query: the chosen
order versus the worst connected order, in time and in materialized
intermediate rows.
"""

import itertools
import time

import pytest

from repro.algorithms.baseline import baseline_join, choose_join_order
from repro.bench.reporting import render_series
from repro.obs import ExecutionStats
from repro.workloads import tpc_bih

from conftest import record_report


@pytest.mark.benchmark(group="ablation")
def test_join_order_search_pays_off(benchmark):
    query = tpc_bih.q_tpc9()
    db = tpc_bih.query_database(query, tpc_bih.TPCBiHConfig(seed=52))

    results = {}

    def run():
        orders = {}
        for perm in itertools.permutations(query.edge_names):
            # connected prefixes only
            hg = query.hypergraph
            covered = set(hg.edge(perm[0]))
            ok = True
            for name in perm[1:]:
                if not (covered & set(hg.edge(name))):
                    ok = False
                    break
                covered |= set(hg.edge(name))
            if not ok:
                continue
            stats = ExecutionStats()
            start = time.perf_counter()
            baseline_join(query, db, order=list(perm), stats=stats)
            orders[" ⋈ ".join(perm)] = (
                time.perf_counter() - start,
                stats.get("bin.intermediate_rows.total"),
            )
        chosen = choose_join_order(query, db)
        results["orders"] = orders
        results["chosen"] = " ⋈ ".join(chosen)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)
    orders = results["orders"]
    names = list(orders)
    record_report(
        "ablation_join_order",
        render_series(
            f"BASELINE join orders on Q_tpc9 (search picked: {results['chosen']})",
            names,
            {
                "seconds": [orders[n][0] for n in names],
                "intermediate_rows": [float(orders[n][1]) for n in names],
            },
            x_label="order",
        ),
    )
    times = {name: t for name, (t, _) in orders.items()}
    chosen_time = times.get(results["chosen"])
    assert chosen_time is not None
    best = min(times.values())
    worst = max(times.values())
    # Order choice matters a lot on the explosion query...
    assert worst > 2 * best, (worst, best)
    # ...and the value-based System-R estimator cannot reliably find the
    # *temporal* optimum (here it is fooled by the version skew) — exactly
    # the gap the paper's Section 6.3 names as future work ("a cost-based
    # optimizer aware of both query structure and data characteristics").
    # We assert only that the chosen order is one of the enumerated
    # connected orders; the report shows where it landed.
    assert results["chosen"] in times
