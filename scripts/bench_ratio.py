#!/usr/bin/env python3
"""Gate on the ratio of two benchmarks from the same run.

    scripts/bench_ratio.py FRESH.json SUITE NUMERATOR DENOMINATOR MAX_RATIO

FRESH.json is a merged bench document (scripts/bench_smoke.sh output);
SUITE names one of its suites (a bench binary, e.g. bench_version_access)
and NUMERATOR/DENOMINATOR two benchmark names in it. Exits nonzero when
real_time(NUMERATOR) > MAX_RATIO * real_time(DENOMINATOR), or when
either benchmark is missing or failed.

Both numbers come from one run on one machine, so unlike the
comparison against a committed baseline (scripts/bench_compare.py) the
gate does not depend on the runner's speed. CI holds writes flat in
history depth with:

    scripts/bench_ratio.py bench-smoke.json bench_version_access \\
        BM_ModifyNodeAtDepth/16384 BM_ModifyNodeAtDepth/1 2
"""

import json
import sys


def real_time(benches, name):
    for bench in benches:
        if bench.get("name") == name and not bench.get("error_occurred"):
            return bench["real_time"]
    return None


def main():
    if len(sys.argv) != 6:
        print(__doc__, file=sys.stderr)
        return 2
    path, suite, numerator, denominator, max_ratio = sys.argv[1:]
    with open(path) as f:
        benches = json.load(f).get("suites", {}).get(suite, [])
    top = real_time(benches, numerator)
    bottom = real_time(benches, denominator)
    if top is None or bottom is None or bottom <= 0:
        print(f"{suite}: {numerator} or {denominator} missing or failed")
        return 1
    ratio = top / bottom
    verdict = "ok" if ratio <= float(max_ratio) else "FAIL"
    print(f"{suite}: {numerator} / {denominator} = {ratio:.2f} "
          f"(bound {max_ratio}): {verdict}")
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
