"""Print benchmark results with their units, and flag results that cannot
be compared.

    python3 perfbench/report.py [PATH ...]

Each PATH is a result file written by run.py or a directory of them
(default: perfbench/results).  Prints one line per untraced result with
run_s, setup_s, peak_rss_mb and fail_share, then the median of each over
the results of every workload, then the per-layer metrics of each traced
result.  Results whose Python version, mpmath version or mpmath backend
differ are flagged NOT COMPARABLE, and the exit code is 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

COMPARABILITY_KEYS = ("python", "mpmath", "mpmath_backend")
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def load(paths: list[Path]) -> list[dict]:
    files = []
    for p in paths:
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def comparability_problems(results: list[dict]) -> list[str]:
    out = []
    for key in COMPARABILITY_KEYS:
        seen = sorted({str(r["environment"][key]) for r in results})
        if len(seen) > 1:
            out.append(f"NOT COMPARABLE: {key} differs: {', '.join(seen)}")
    return out


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [Path(__file__).resolve().parent / "results"]
    results = load(paths)
    if not results:
        print("no results", file=sys.stderr)
        return 1
    plain = [r for r in results if not r["trace"]]
    for r in plain:
        run = r["run_s"]
        print(f"{r['workload']:15s} seed {r['seed']:<4d} "
              f"run_s {run['median']:.3f} s [q1 {run['q1']:.3f}, q3 {run['q3']:.3f}, "
              f"n={run['n']}]  setup_s {r['setup_s']['median']:.4f} s  "
              f"peak_rss_mb {r['peak_rss_mb']['median']:.1f} MB  "
              f"fail_share {r['fail_share']:.4f} ({r['failed']}/{r['attempted']})  "
              f"sha256 {r['workload_sha256'][:12]}")
    for workload in sorted({r["workload"] for r in plain}):
        rows = [r for r in plain if r["workload"] == workload]
        cells = [f"{name} {statistics.median(r['metrics'][name]['value'] for r in rows):.4g} {unit}"
                 for name, unit in END_TO_END]
        share = sum(r["failed"] for r in rows) / sum(r["attempted"] for r in rows)
        print(f"median over {len(rows)} results: {workload}: " + "  ".join(cells)
              + f"  fail_share {share:.4f}")
    for r in results:
        if r["trace"]:
            print(f"{r['workload']} seed {r['seed']} traced:")
            for name, m in r["metrics"].items():
                print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
            for name, share in r["shares"].items():
                print(f"  share {name:30s} {share:.3f}")
    problems = comparability_problems(results)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
