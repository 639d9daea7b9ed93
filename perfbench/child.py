"""One benchmark iteration, run by run.py in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --index I --trace 0|1
                               --work DIR [--spans PATH]

Imports `siegelcy.cli` (from PYTHONPATH, which run.py points at the
checkout's `src`), optionally installs the tracing wrappers, then calls
`siegelcy.cli.main` once per argument list of invocation I of the workload,
each writing its JSON report into DIR.  The text report goes to a buffer.
Prints one JSON line: wall and CPU time from the first battery call to the
last report being written, the process's own peak RSS, and per report its
exit code, sha256 and check statuses; with tracing, the span totals.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
from pathlib import Path

import siegelcy.cli

from tracing import Tracer, install
from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    argvs = WORKLOADS[args.workload].invocations(args.seed)[args.index]
    paths = [args.work / f"report-{i}.json" for i in range(len(argvs))]
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    codes = []
    for argv, path in zip(argvs, paths):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(siegelcy.cli.main([*argv, "--json", str(path)]))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reports = []
    for argv, path, code in zip(argvs, paths, codes):
        data = path.read_bytes()
        path.unlink()
        reports.append({
            "selector": argv[0],
            "exit_code": code,
            "sha256": hashlib.sha256(data).hexdigest(),
            "statuses": {c["id"]: c["status"] for c in json.loads(data)["checks"]},
        })
    out = {"siegelcy_file": siegelcy.cli.__file__, "wall_s": wall,
           "cpu_s": cpu, "peak_rss_mb": rss_mb, "reports": reports}
    if tracer is not None:
        out["spans"] = tracer.totals()
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
