#!/usr/bin/env python3
"""Compare two merged bench JSON files (scripts/bench_smoke.sh output)
and gate on headline regressions.

    scripts/bench_compare.py BASELINE.json FRESH.json \
        [--gate B1,B3,B9] [--threshold 30]

Prints a markdown diff table (pipe it into $GITHUB_STEP_SUMMARY in CI)
covering every B-series headline present in both files, then exits
nonzero if any *gated* series' headline real time regressed by more
than the threshold percentage.

Bench numbers on shared CI runners are noisy, so the gate is
deliberately coarse: only the stable headline series (B1 delta
storage, B3 query, B9 concurrency by default) are enforced, and only
beyond a wide threshold. Set NEPTUNE_BENCH_SKIP_GATE=1 to report the
diff without failing (e.g. when landing a PR with a known, accepted
perf trade-off).
"""

import argparse
import json
import os
import sys


def load_headlines(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("headlines", {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--gate", default="B1,B3,B6,B9",
                        help="comma-separated B-series to enforce")
    parser.add_argument("--threshold", type=float, default=30.0,
                        help="max allowed regression, percent")
    args = parser.parse_args()

    baseline = load_headlines(args.baseline)
    fresh = load_headlines(args.fresh)
    gated = {s.strip() for s in args.gate.split(",") if s.strip()}
    skip_gate = os.environ.get("NEPTUNE_BENCH_SKIP_GATE", "") not in ("", "0")

    rows = []
    failures = []
    for series in sorted(set(baseline) | set(fresh), key=lambda s: int(s[1:])):
        old = baseline.get(series, {})
        new = fresh.get(series, {})
        name = new.get("headline") or old.get("headline") or "?"
        old_us = old.get("headline_real_time_us")
        new_us = new.get("headline_real_time_us")
        renamed = (old.get("headline") and new.get("headline")
                   and old["headline"] != new["headline"])
        if renamed:
            # Two different benchmarks: no delta until the baseline is
            # re-recorded, and a gated series cannot pass unchecked.
            name = f"{old['headline']}` -> `{new['headline']}"
            delta = "n/a (headline changed)"
            if series in gated:
                failures.append(
                    f"{series}: headline changed from {old['headline']} "
                    f"to {new['headline']}; re-record the baseline")
        elif old_us and new_us:
            delta_pct = (new_us - old_us) / old_us * 100
            delta = f"{delta_pct:+.1f}%"
            if series in gated and delta_pct > args.threshold:
                failures.append(
                    f"{series} {name}: {old_us}us -> {new_us}us "
                    f"({delta_pct:+.1f}% > +{args.threshold:.0f}%)")
        else:
            delta = "n/a"
        mark = " (gated)" if series in gated else ""
        rows.append((series + mark, name, old_us, new_us, delta))

    # B6's real story is the pipelining sub-headlines, not the single
    # BM_OpenNodeLocal time: gate the pipelined per-op latencies (higher
    # is worse) and the aggregate speedup (lower is worse) too.
    if "B6" in gated:
        old_pipe = baseline.get("B6", {}).get("pipelining", {})
        new_pipe = fresh.get("B6", {}).get("pipelining", {})
        for key in sorted(set(old_pipe) & set(new_pipe)):
            old_v, new_v = old_pipe[key], new_pipe[key]
            if not old_v or not new_v:
                continue
            if key.endswith("_us"):
                delta_pct = (new_v - old_v) / old_v * 100
                worse = delta_pct > args.threshold
            elif key.endswith("_x"):
                delta_pct = (old_v - new_v) / old_v * 100
                worse = delta_pct > args.threshold
            else:
                continue
            if worse:
                failures.append(
                    f"B6 pipelining.{key}: {old_v} -> {new_v} "
                    f"({delta_pct:+.1f}% worse > +{args.threshold:.0f}%)")

    print("### Bench headline diff")
    print()
    print(f"Baseline `{args.baseline}` vs fresh `{args.fresh}`; gate: "
          f"{', '.join(sorted(gated))} at +{args.threshold:.0f}%.")
    print()
    print("| series | headline | baseline (us) | fresh (us) | delta |")
    print("|---|---|---|---|---|")
    for series, name, old_us, new_us, delta in rows:
        print(f"| {series} | `{name}` | {old_us} | {new_us} | {delta} |")
    print()

    indexed = fresh.get("B3", {}).get("indexed_query")
    if indexed:
        print(f"B3 indexed queries over 5000 nodes: selective equality "
              f"{indexed.get('selective_5000_stride100_us')}us, conjunction "
              f"{indexed.get('conjunction_5000_indexed_us')}us indexed vs "
              f"{indexed.get('conjunction_5000_scan_us')}us scanned "
              f"({indexed.get('conjunction_speedup_x')}x); first query after "
              f"a write {indexed.get('post_write_first_query_5000_us')}us.")
        print()

    pipelining = fresh.get("B6", {}).get("pipelining")
    if pipelining:
        print(f"B6 pipelining at 8 clients on one connection: one-in-flight "
              f"{pipelining.get('one_in_flight_shared_8t_us')}us/op vs "
              f"pipelined {pipelining.get('pipelined_window8_8t_us')}us/op "
              f"(8-deep windows) — "
              f"speedup {pipelining.get('pipelined_speedup_x')}x.")
        print()

    if failures:
        banner = "IGNORED (NEPTUNE_BENCH_SKIP_GATE set)" if skip_gate \
            else "FAILED"
        print(f"**Bench gate {banner}:**")
        for f in failures:
            print(f"- {f}")
        if not skip_gate:
            return 1
    else:
        print("Bench gate passed: no gated headline regressed beyond "
              f"+{args.threshold:.0f}%.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
