#!/usr/bin/env python3
"""Compare a BENCH_*.json result file against its checked-in baseline.

Usage:
    scripts/check_bench_regression.py CURRENT BASELINE [options]

Every row is matched by its "case" name.  By default two kinds of row
are *enforced*:

  - normalised rows (unit "cal/..."): a wall time divided by an
    in-process calibration kernel timed next to it, so a host that is
    slower or busier moves both and the ratio travels between runs;
  - deterministic ratio rows (unit "x"): model outputs, identical on
    every host.

Raw wall-time and throughput rows shift with the host and are reported
for information only.  Pass --all to enforce every row (same-machine
comparisons, e.g. refreshing a baseline locally).

The check is one-sided: a row fails only when the current value is
WORSE than the baseline by more than --tolerance (default 0.25, i.e.
25%).  Improvements never fail; refresh the baseline when they stick.
Direction is inferred from the unit: time-per-unit rows (cal/*, us/*,
ns/*, ms/*, s/*) are lower-is-better, everything else (x, Mev/s,
points/s, tokens/s) is higher-is-better.

A row may record its own "spread": its slowest timing repeat over its
fastest.  An enforced row whose current spread exceeds 1 + --tolerance
fails as well -- its repeats disagree by more than the change this
check exists to catch, so its value cannot be judged either way.

Per-unit costs depend on the workload size, so the two files must
describe the same workload: every top-level setting other than
"repeats" (e.g. "events", "grid_repeats") must match, or the check
fails without comparing rows.

Rows must match in both directions: a baseline row missing from the
current results fails (a benchmark silently disappeared), and a current
row missing from the baseline fails too (a new benchmark landed without
refreshing the baseline that guards it).

Exit status: 0 when all enforced rows pass, 1 on any regression, a
too-wide spread, a workload mismatch or a row missing from either side,
2 on usage/IO errors.
"""

import argparse
import json
import sys

LOWER_IS_BETTER_PREFIXES = ("cal/", "us/", "ms/", "s/", "ns/")


# Top-level settings that may differ between a run and its baseline.
FREE_SETTINGS = ("rows", "repeats")


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def workload_mismatches(current, baseline):
    keys = (set(current) | set(baseline)) - set(FREE_SETTINGS)
    return [f"{key}: {current.get(key)!r} vs baseline {baseline.get(key)!r}"
            for key in sorted(keys) if current.get(key) != baseline.get(key)]


def load_rows(doc, path):
    rows = {}
    for row in doc.get("rows", []):
        if "case" in row and "value" in row:
            rows[row["case"]] = (row.get("unit", ""), float(row["value"]),
                                 row.get("spread"))
    if not rows:
        print(f"error: no benchmark rows in {path}", file=sys.stderr)
        sys.exit(2)
    return rows


def lower_is_better(unit):
    return unit.startswith(LOWER_IS_BETTER_PREFIXES)


def enforced_by_default(unit):
    return unit == "x" or unit.startswith("cal/")


def main():
    ap = argparse.ArgumentParser(
        description="one-sided perf-regression check for BENCH_*.json")
    ap.add_argument("current", help="freshly generated BENCH_*.json")
    ap.add_argument("baseline", help="checked-in baseline BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed relative worsening, and allowed spread "
                         "above 1 (default 0.25)")
    ap.add_argument("--all", action="store_true",
                    help="enforce every row, not just cal/* and x rows")
    args = ap.parse_args()

    current_doc = load(args.current)
    baseline_doc = load(args.baseline)
    mismatches = workload_mismatches(current_doc, baseline_doc)
    if mismatches:
        print("WORKLOAD MISMATCH: per-unit rows are not comparable:",
              file=sys.stderr)
        for m in mismatches:
            print(f"  {m}", file=sys.stderr)
        return 1
    current = load_rows(current_doc, args.current)
    baseline = load_rows(baseline_doc, args.baseline)

    failures = []
    width = max(len(name) for name in baseline)
    for name, (unit, base, _) in sorted(baseline.items()):
        if name not in current:
            failures.append(f"{name}: missing from current results")
            continue
        cur_unit, cur, spread = current[name]
        enforced = args.all or enforced_by_default(unit)
        if lower_is_better(unit):
            worsening = (cur - base) / base if base != 0 else 0.0
        else:
            worsening = (base - cur) / base if base != 0 else 0.0
        value_ok = worsening <= args.tolerance
        spread_ok = spread is None or spread - 1.0 <= args.tolerance
        ok = value_ok and spread_ok
        status = ("PASS" if ok else "FAIL") if enforced else "info"
        spread_note = "" if spread is None else f"  spread {spread:.3f}"
        print(f"  [{status}] {name:<{width}}  {cur:>12.4g} {cur_unit:<10} "
              f"baseline {base:.4g}  ({-worsening:+.1%}){spread_note}")
        if enforced and not value_ok:
            failures.append(
                f"{name}: {cur:.4g} {cur_unit} vs baseline {base:.4g} "
                f"(worse by {worsening:.1%}, tolerance "
                f"{args.tolerance:.0%})")
        if enforced and not spread_ok:
            failures.append(
                f"{name}: spread {spread:.3f} (repeats disagree by more "
                f"than the {args.tolerance:.0%} tolerance)")

    for name in sorted(set(current) - set(baseline)):
        failures.append(
            f"{name}: missing from baseline {args.baseline} "
            f"(new benchmark row -- refresh the baseline to cover it)")

    if failures:
        print(f"\nREGRESSION: {len(failures)} enforced row(s) failed:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall enforced rows within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
