"""CLI for the attack campaigns: list / run / campaign / report.

Examples::

    python -m repro.attacks list
    python -m repro.attacks run A7 --preset full
    python -m repro.attacks campaign --preset no-ubf
    python -m repro.attacks campaign --preset full --fail-on-success
    python -m repro.attacks report            # regenerate docs/ATTACKS.md
    python -m repro.attacks report --check    # CI freshness gate
"""

from __future__ import annotations

import argparse
import sys

from repro.attacks.presets import CAMPAIGN_PRESETS
from repro.attacks.report import check_report, write_report
from repro.attacks.runner import CampaignRunner
from repro.core.attacks import CATALOG, by_id


def _cmd_list(_args) -> int:
    for a in CATALOG:
        flips = ", ".join(a.flipped_by)
        print(f"{a.id:<4} {a.name:<26} {a.section:<8} invariant "
              f"{a.invariant}  flips under: {flips}")
    print(f"\npresets: {', '.join(CAMPAIGN_PRESETS)}")
    return 0


def _cmd_run(args) -> int:
    attack = by_id(args.attack)
    runner = CampaignRunner(args.preset)
    out = runner.run_attack(attack)
    print(f"{out.attack_id} {out.name} under preset {out.preset!r}")
    print(f"  benign twin : ok - {out.benign_detail}")
    via = f" via {out.blocked_by}" if out.blocked_by else ""
    trace = f" [trace {out.audit_trace}]" if out.audit_trace else ""
    print(f"  probe       : {out.outcome.value}{via}{trace}")
    print(f"                {out.malicious_detail}")
    expected = attack.expected(args.preset)
    print(f"  expected    : {expected}")
    return 0 if out.outcome.value == expected else 1


def _cmd_campaign(args) -> int:
    runner = CampaignRunner(args.preset)
    result = runner.run()
    print(result.format())
    if args.fail_on_success and result.succeeded:
        ids = ", ".join(r.attack_id for r in result.succeeded)
        print(f"FAIL: silent crossings under {args.preset!r}: {ids}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    if args.check:
        fresh, message = check_report()
        print(message)
        return 0 if fresh else 1
    path = write_report()
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point (also used by the CLI smoke tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.attacks",
        description="Run the numbered attacker-model campaigns.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="print the numbered catalog")
    p_run = sub.add_parser("run", help="run one attack (twin + probe)")
    p_run.add_argument("attack", help="attack id, e.g. A7")
    p_run.add_argument("--preset", default="full",
                       choices=list(CAMPAIGN_PRESETS))
    p_c = sub.add_parser("campaign", help="run the whole catalog")
    p_c.add_argument("--preset", default="full",
                     choices=list(CAMPAIGN_PRESETS))
    p_c.add_argument("--fail-on-success", action="store_true",
                     help="exit 1 if any attack silently succeeds")
    p_r = sub.add_parser("report", help="regenerate docs/ATTACKS.md")
    p_r.add_argument("--check", action="store_true",
                     help="verify the committed report is fresh (CI gate)")
    args = parser.parse_args(argv)
    handler = {"list": _cmd_list, "run": _cmd_run,
               "campaign": _cmd_campaign, "report": _cmd_report}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
