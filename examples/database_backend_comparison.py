#!/usr/bin/env python3
"""Reproduce the Section 5 database observations interactively.

The paper compares four database backends (Oracle 7, MS Access, MS SQL Server,
Postgres) for storing and querying the performance data, and reports the
advantage of translating property conditions entirely into SQL.  This example
loads the same simulated performance data into all four (virtual) backends and
prints:

* the bulk-insert time per backend (paper: MS Access ≈ 20× faster than Oracle),
* the time to evaluate all COSY properties with SQL pushdown per backend
  (paper: Oracle ≈ 2× slower than MS SQL Server / Postgres, Access fastest),
* the pushdown vs. client-side evaluation comparison on the Oracle-like
  backend (paper: pushing the conditions into SQL is a significant advantage),
* the native vs. bridged (JDBC-like) client overhead (paper: factor 2–4).

Run with::

    python examples/database_backend_comparison.py
"""

from repro.bench import build_scenario, load_into_backend
from repro.cosy import ClientSideStrategy, PushdownStrategy
from repro.cosy.report import format_table
from repro.relalg import BACKEND_PROFILES, BridgedClient, NativeClient, backend


def main() -> None:
    scenario = build_scenario(
        "scalable", pe_counts=(1, 4, 16), functions=6, regions_per_function=5
    )

    # -- E1: bulk insertion and property queries per backend -----------------
    rows = []
    per_backend = {}
    for name in BACKEND_PROFILES:
        # Row-at-a-time loading: the paper's 20x bulk-insert observation was
        # measured submitting one record per statement (batching is E6).
        client, ids = load_into_backend(scenario, name, batch_size=None)
        insert_time = client.elapsed
        client.reset_clock()
        strategy = PushdownStrategy(
            scenario.specification, scenario.mapping, client, ids
        )
        scenario.analyzer.analyze(strategy=strategy)
        query_time = client.elapsed
        per_backend[name] = (insert_time, query_time)
        rows.append((name, f"{insert_time * 1e3:.1f}", f"{query_time * 1e3:.1f}"))
    print("E1 — backend comparison (virtual time, milliseconds)")
    print(format_table(["backend", "bulk insert [ms]", "property queries [ms]"], rows))
    oracle_insert = per_backend["oracle7"][0]
    access_insert = per_backend["ms_access"][0]
    print(
        f"\n  insertion: Oracle / MS Access = {oracle_insert / access_insert:.1f}x "
        f"(paper reports about 20x)"
    )
    oracle_query = per_backend["oracle7"][1]
    mssql_query = per_backend["ms_sql_server"][1]
    print(
        f"  queries  : Oracle / MS SQL Server = {oracle_query / mssql_query:.1f}x "
        f"(paper reports about 2x)\n"
    )

    # -- E3: pushdown vs. client-side evaluation ------------------------------
    client, ids = load_into_backend(scenario, "oracle7")
    client.reset_clock()
    scenario.analyzer.analyze(
        strategy=PushdownStrategy(scenario.specification, scenario.mapping, client, ids)
    )
    pushdown_time = client.elapsed

    client2, ids2 = load_into_backend(scenario, "oracle7")
    client2.reset_clock()
    scenario.analyzer.analyze(
        strategy=ClientSideStrategy(
            scenario.specification, client=client2, ids=ids2
        )
    )
    client_side_time = client2.elapsed
    print("E3 — work distribution between client and database (Oracle-like backend)")
    print(
        format_table(
            ["strategy", "virtual time [ms]"],
            [
                ("SQL pushdown", f"{pushdown_time * 1e3:.1f}"),
                ("fetch + evaluate in client", f"{client_side_time * 1e3:.1f}"),
            ],
        )
    )
    print(
        f"\n  pushing the conditions into SQL is "
        f"{client_side_time / pushdown_time:.1f}x faster here.\n"
    )

    # -- E2: native vs. bridged client -----------------------------------------
    totals = {}
    overheads = {}
    for factory in (NativeClient, BridgedClient):
        client = factory(backend("oracle7"))
        client.execute("CREATE TABLE probe (id INTEGER PRIMARY KEY, x FLOAT)")
        client.execute("INSERT INTO probe (id, x) VALUES (1, 1.0)")
        client.reset_clock()
        for _ in range(1000):
            client.fetch_record("SELECT x FROM probe WHERE id = ?", [1])
        totals[client.api_name] = client.elapsed / 1000
        overheads[client.api_name] = client.client_time / 1000
    print("E2 — single-record fetch through the two client stacks (Oracle-like)")
    print(
        format_table(
            ["client API", "time per record [ms]", "API overhead per record [ms]"],
            [
                (name, f"{totals[name] * 1e3:.3f}", f"{overheads[name] * 1e3:.4f}")
                for name in totals
            ],
        )
    )
    print(
        f"\n  total per-record time on the Oracle-like backend ≈ "
        f"{totals['bridged'] * 1e3:.2f} ms (paper: about 1 ms);\n"
        f"  bridged (JDBC-like) API overhead is "
        f"{overheads['bridged'] / overheads['native']:.1f}x the native overhead "
        f"(paper: factor 2-4)."
    )


if __name__ == "__main__":
    main()
