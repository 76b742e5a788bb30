"""The paper's two Figure-9 workloads, served through one ingest pass.

Each case registers a three-query fleet over two distinct templates —
the workload's primary query, a sub-template over a prefix of its
relations, and a duplicate of the primary (real registries repeat
popular templates) — then bulk-ingests the stored database through the
live ingest path. Every snapshot must equal the offline
``temporal_join`` of its query, the whole fleet must share exactly one
ingest pass, and the duplicate template must dedup into a shared
evaluation.
"""

import pytest

from repro.algorithms.registry import temporal_join
from repro.core.query import JoinQuery, self_join_database
from repro.serve import TemporalJoinService
from repro.workloads import ldbc, tpce


def tpce_star_tau170():
    """Q_tpce star (τ=170), holdings self-join: 3-way primary + 2-way sub."""
    n = 400
    config = tpce.TPCEConfig(
        n_customers=max(40, n // 6), n_securities=max(12, n // 40),
        hot_securities=max(3, n // 200), n_holdings=n, seed=170,
    )
    database = tpce.star_database(tpce.generate_holdings(config), 3)
    fleet = [
        ("star3", tpce.star_query(3), 170),
        ("star2", tpce.star_query(2), 170),
        ("star3-dup", tpce.star_query(3), 170),
    ]
    return database, fleet


def ldbc_line_tau11():
    """LDBC-SNB knows line (τ=11): 3-chain primary + 2-chain sub."""
    n = 300
    config = ldbc.LDBCConfig(n_persons=max(40, n // 5), n_knows=n // 2, seed=11)
    line3 = JoinQuery.line(3)
    database = self_join_database(line3, ldbc.knows_relation(config))
    line2 = JoinQuery({"R1": ("x1", "x2"), "R2": ("x2", "x3")})
    fleet = [
        ("line3", line3, 11),
        ("line2", line2, 11),
        ("line3-dup", line3, 11),
    ]
    return database, fleet


@pytest.mark.parametrize("case", [tpce_star_tau170, ldbc_line_tau11],
                         ids=lambda case: case.__name__)
def test_fleet_matches_offline_and_shares_one_pass(case):
    database, fleet = case()
    service = TemporalJoinService()
    handles = [
        service.register(query, tau=tau, name=name)
        for name, query, tau in fleet
    ]
    # Push-mode subscribers, the serving deployment shape: ingest is
    # never back-pressured by an absent consumer.
    pushed = [[] for _ in fleet]
    for handle, emissions in zip(handles, pushed):
        handle.subscribe(emissions.append)
    service.ingest_database(database)

    snapshots = [handle.snapshot() for handle in handles]
    for (name, query, tau), snapshot in zip(fleet, snapshots):
        offline = temporal_join(
            query, {r: database[r] for r in query.edge_names}, tau=tau
        )
        assert snapshot.results.normalized() == offline.normalized(), name
    assert [len(p) for p in pushed] == [len(s) for s in snapshots]

    telemetry = service.telemetry()
    assert telemetry.get("serve.ingest_passes") == 1
    assert telemetry.get("serve.template_dedup")
