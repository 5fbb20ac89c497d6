#!/usr/bin/env python3
"""Bench regression gate, run in CI after the release bench leg.

With --exact DIR, gates every committed BENCH_<name>.json baseline at the
repository root against the fresh report DIR/bench_<name>.json on exact
equality: the same keys and the same measured values. A bench JSON is a
pure function of the source, so any difference is a cost-model change, and
a change that means it commits the regenerated baselines with it. This
covers the paper's headline microbenchmark too: the trap-vs-RPC cycles in
BENCH_table2.json cannot move without the baseline moving in review.

With --ablations, gates the overload ablation (A5), the
client-side FS-cache ablation (A6) and the mapped-file ablation (A7)
from a bench_ablations JSON report: at every overloaded multiplier the
bounded port must actually shed, must at least halve the unbounded p99
queue wait, and must keep goodput above half of the unbounded run's;
the cached file client must cut RPCs per file-intensive op by at least
2x versus uncached; and a mapped sequential pass must cut server RPCs
per page-sized op by at least 4x versus uncached read() calls. These
mirror the WPOS_CHECKs inside the bench binary, but as an independent
CI gate they still hold if someone weakens the in-binary asserts.

Usage:
  tools/bench_delta.py [--exact fresh_dir] [--ablations ablations.json]

Exit status: 0 when every requested gate holds, 1 on an inexact baseline,
a missing key or a failed ablation gate.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def check_ablations(path):
    """Overload-ablation (A5) invariants from a bench_ablations report.

    Returns a list of failure strings (empty when every gate holds).
    """
    with open(path) as f:
        report = json.load(f)

    def measured(key):
        try:
            return report[key]["measured"]
        except KeyError:
            raise SystemExit(f"{path}: missing key {key!r} in ablations report")

    failures = []
    for mult in (4, 16):
        prefix = f"overload.x{mult}"
        sheds = measured(f"{prefix}.bounded.sheds")
        bounded_p99 = measured(f"{prefix}.bounded.p99_queue_wait_cycles")
        unbounded_p99 = measured(f"{prefix}.unbounded.p99_queue_wait_cycles")
        bounded_gp = measured(f"{prefix}.bounded.goodput_ops_per_ms")
        unbounded_gp = measured(f"{prefix}.unbounded.goodput_ops_per_ms")
        if sheds <= 0:
            failures.append(f"{prefix}: bounded queue shed nothing at overload")
        # 1% slack: the report rounds to 6 significant figures, and the
        # histogram's power-of-two bucket bounds sit right on the 2x edge.
        if bounded_p99 * 2 > unbounded_p99 * 1.01:
            failures.append(
                f"{prefix}: bound failed to halve the p99 queue wait "
                f"({bounded_p99:.0f} vs {unbounded_p99:.0f} cycles)")
        if bounded_gp < 0.5 * unbounded_gp:
            failures.append(
                f"{prefix}: shedding collapsed goodput "
                f"({bounded_gp:.2f} vs {unbounded_gp:.2f} ops/ms)")
        print(f"{prefix}: sheds {sheds:.0f}, p99 {bounded_p99:.0f} vs "
              f"{unbounded_p99:.0f} cycles, goodput {bounded_gp:.2f} vs "
              f"{unbounded_gp:.2f} ops/ms")

    # A6: the client-side FS cache must at least halve cross-server RPC
    # traffic on the file-intensive loop (and cached must never be worse).
    uncached = measured("fscache.uncached.rpcs_per_op")
    cached = measured("fscache.cached.rpcs_per_op")
    if cached <= 0:
        failures.append("fscache: non-positive cached rpcs_per_op")
    elif uncached < 2 * cached:
        failures.append(
            f"fscache: cache cut RPCs/op only {uncached / cached:.2f}x "
            f"({uncached:.2f} -> {cached:.2f}), below the 2x gate")
    print(f"fscache: {uncached:.2f} RPCs/op uncached vs {cached:.2f} cached "
          f"({uncached / max(cached, 1e-9):.1f}x)")

    # A7: mapped sequential reads must collapse per-read RPCs into per-batch
    # pager fills — at least 4x fewer server RPCs per page-sized op than the
    # uncached read() pass over the same file.
    read_rpcs = measured("mmap.read.rpcs_per_op")
    mapped_rpcs = measured("mmap.mapped.rpcs_per_op")
    if mapped_rpcs <= 0:
        failures.append("mmap: non-positive mapped rpcs_per_op")
    elif read_rpcs < 4 * mapped_rpcs:
        failures.append(
            f"mmap: mapped pass cut RPCs/op only {read_rpcs / mapped_rpcs:.2f}x "
            f"({read_rpcs:.2f} -> {mapped_rpcs:.2f}), below the 4x gate")
    print(f"mmap: {read_rpcs:.2f} RPCs/op read() vs {mapped_rpcs:.2f} mapped "
          f"({read_rpcs / max(mapped_rpcs, 1e-9):.1f}x)")
    return failures


def check_exact(fresh_dir):
    """Exact gate: each BENCH_<name>.json against fresh_dir/bench_<name>.json.

    Returns a list of failure strings (empty when every report matches).
    """
    baselines = sorted(REPO_ROOT.glob("BENCH_*.json"))
    if not baselines:
        return [f"{REPO_ROOT}: no committed BENCH_*.json baselines"]
    failures = []
    for path in baselines:
        fresh_path = Path(fresh_dir) / ("bench_" + path.name[len("BENCH_"):])
        if not fresh_path.is_file():
            failures.append(f"{path.name}: no fresh report {fresh_path}")
            continue
        baseline = json.loads(path.read_text())
        fresh = json.loads(fresh_path.read_text())
        for key in sorted(baseline.keys() - fresh.keys()):
            failures.append(f"{path.name}: key {key!r} missing from {fresh_path}")
        for key in sorted(fresh.keys() - baseline.keys()):
            failures.append(f"{path.name}: key {key!r} not in the baseline")
        for key in sorted(baseline.keys() & fresh.keys()):
            want = baseline[key].get("measured")
            got = fresh[key].get("measured")
            if got != want:
                failures.append(f"{path.name}: {key} measured {got}, baseline {want}")
        print(f"{path.name}: {len(baseline)} keys compared with {fresh_path}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exact", metavar="DIR", default=None,
                        help="directory of fresh bench_<name>.json reports to "
                             "gate every BENCH_<name>.json on exact equality")
    parser.add_argument("--ablations", default=None,
                        help="bench_ablations --json output to gate the "
                             "overload, fs-cache and mmap ablations")
    args = parser.parse_args()
    if args.exact is None and args.ablations is None:
        parser.error("nothing to gate: give --exact and/or --ablations")

    status = 0
    if args.exact is not None:
        failures = check_exact(args.exact)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            print("If the change is intentional, regenerate and commit the "
                  "BENCH_*.json baselines", file=sys.stderr)
            status = 1
        else:
            print("OK: every committed bench baseline matches exactly")
    if args.ablations is not None:
        failures = check_ablations(args.ablations)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print("OK: overload + fs-cache + mmap ablation gates hold")
    return status


if __name__ == "__main__":
    sys.exit(main())
