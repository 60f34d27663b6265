#!/usr/bin/env python3
"""Generate the sponsor-facing security posture report (Markdown).

Combines the evidence sources — deployed configuration, fleet compliance
audit, the 33-probe adversarial battery (``repro.ALL_ATTACKS``, each probe
run by the campaign runner's probe step on its own armed cluster) — into
one document, then appends the live ops dashboard
(``repro.obs.dashboard``): enforcement metrics, probe alerts, and per-user
denial posture, all drawn from the same telemetry registry the benchmarks
consume.

Run:  python examples/posture_report.py            # prints LLSC report
      python examples/posture_report.py baseline   # ... the stock cluster
"""

import sys

from repro import BASELINE, LLSC, run_battery
from repro.core import check_compliance, posture_report, standard_cluster
from repro.kernel.errors import KernelError
from repro.monitor import audited_session, instrument_cluster
from repro.obs import attach_telemetry, ops_dashboard


def main() -> None:
    config = BASELINE if "baseline" in sys.argv[1:] else LLSC
    cluster = standard_cluster(config)
    log = instrument_cluster(cluster)
    attach_telemetry(cluster)

    # generate a little real activity (and telemetry)
    cluster.submit("alice", ntasks=2, duration=100.0)
    cluster.run(until=1.0)
    nosy = audited_session(cluster.login("bob"), log)
    try:
        nosy.open_read("/home/alice/data")
    except KernelError:
        pass

    audit = run_battery(config)
    compliance = check_compliance(cluster)
    print(posture_report(cluster, audit=audit, compliance=compliance))
    print(ops_dashboard(cluster))


if __name__ == "__main__":
    main()
