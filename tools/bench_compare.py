#!/usr/bin/env python3
"""Compare two bench JSON artifacts point-by-point.

Usage:
    bench_compare.py BASELINE.json CURRENT.json \
        [--max-drop-pct 15] [--max-rise-pct 15] [--label text] \
        [--key-fields f1,f2,...]

Points are matched on the configuration key — by default the
bench_concurrent fields (workers, clients, reactors, tcp_depth,
backend); other benches pass --key-fields (e.g. bench_kv uses
mode,writers,value_bytes).  For each matched pair
the script flags

  * calls_per_sec dropping by more than --max-drop-pct, and
  * p99_us rising by more than --max-rise-pct (only when both sides
    actually carry latency samples),

as GitHub Actions `::warning::` annotations.  The exit code is always
0: absolute numbers depend on runner hardware, so regressions here are
a signal for a human, not a gate.  Files with different schema_version
values are refused (compared fields may have changed meaning).
"""

import argparse
import json
import sys


DEFAULT_KEY_FIELDS = ("workers", "clients", "reactors", "tcp_depth",
                      "backend")


def config_key(point, fields):
    return tuple(point.get(f) for f in fields)


def fmt_key(key, fields):
    return " ".join(f"{n}={v}" for n, v in zip(fields, key))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-drop-pct", type=float, default=15.0,
                    help="tolerated calls_per_sec drop (percent)")
    ap.add_argument("--max-rise-pct", type=float, default=15.0,
                    help="tolerated p99_us rise (percent)")
    ap.add_argument("--label", default="bench",
                    help="prefix for warning messages")
    ap.add_argument("--key-fields", default=",".join(DEFAULT_KEY_FIELDS),
                    help="comma-separated point fields forming the "
                         "configuration key")
    args = ap.parse_args()
    fields = tuple(f for f in args.key_fields.split(",") if f)

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    if base.get("schema_version") != cur.get("schema_version"):
        print(f"::warning::{args.label}: schema_version mismatch "
              f"({base.get('schema_version')} vs "
              f"{cur.get('schema_version')}); refusing to compare")
        return 0

    base_points = {config_key(p, fields): p for p in base.get("points", [])}
    cur_keys = {config_key(p, fields) for p in cur.get("points", [])}
    warnings = 0
    compared = 0
    # A baseline point with no current counterpart means coverage was
    # silently LOST (a sweep configuration dropped, renamed, or failed
    # to produce a point) — exactly the situation where a regression in
    # that configuration would otherwise go unnoticed.
    for key in base_points:
        if key not in cur_keys:
            print(f"::warning::{args.label}: baseline point "
                  f"{fmt_key(key, fields)} has no matching point in the "
                  f"current run; coverage lost")
            warnings += 1
    for point in cur.get("points", []):
        ref = base_points.get(config_key(point, fields))
        if ref is None:
            continue
        compared += 1
        key = fmt_key(config_key(point, fields), fields)

        ref_rate, cur_rate = ref.get("calls_per_sec", 0), point.get(
            "calls_per_sec", 0)
        if ref_rate > 0 and cur_rate < ref_rate * (
                1 - args.max_drop_pct / 100.0):
            drop = 100.0 * (1 - cur_rate / ref_rate)
            print(f"::warning::{args.label}: throughput -{drop:.1f}% "
                  f"({ref_rate:.0f} -> {cur_rate:.0f} calls/s) at {key}")
            warnings += 1

        ref_p99, cur_p99 = ref.get("p99_us", 0), point.get("p99_us", 0)
        if (ref.get("lat_count", 0) > 0 and point.get("lat_count", 0) > 0
                and ref_p99 > 0
                and cur_p99 > ref_p99 * (1 + args.max_rise_pct / 100.0)):
            rise = 100.0 * (cur_p99 / ref_p99 - 1)
            print(f"::warning::{args.label}: p99 +{rise:.1f}% "
                  f"({ref_p99:.1f} -> {cur_p99:.1f} us) at {key}")
            warnings += 1

    print(f"{args.label}: compared {compared} matched point(s), "
          f"{warnings} warning(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
