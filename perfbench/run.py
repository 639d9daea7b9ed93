"""siegelcy benchmark: fresh-process workloads timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`, so nothing needs installing.  Every iteration is a new
`python` process (perfbench/child.py) that drives only `siegelcy.cli.main`,
one at a time, so no iteration reuses another's process-lifetime caches.

--trace 0 measures the end-to-end metrics:
  run_s        median wall time of one child, first battery call to last
               report written (set-up excluded), with quartiles and count
  setup_s      median time for a fresh interpreter to import siegelcy.cli
  peak_rss_mb  median of each child's own peak RSS (RUSAGE_SELF)
A run first measures set-up, then runs whole passes over the workload's
children, starting another pass only while it is expected to end within
--seconds, but always measuring at least two children.  So a workload
whose children are long (all_default) runs longer than --seconds.

--trace 1 runs one untraced pass and one traced pass (tracing.py), whatever
--seconds says, and reports the per-layer metrics, with the tracing
overhead between the two passes.

Every report is scored against expected.py; `failed` / `attempted` is the
fail_share.  Reports of one child must be byte-identical across passes,
traced or not.  Any mismatch prints correct=false and exits 1.  A result
file with the environment and report sha256s goes to perfbench/results/.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import expected
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 12
#: on a shared 2-core Xeon VM the CPU speed moved by up to 1.45x for 10-60 s
#: at a time, so run_s is never a single child
MIN_CHILDREN = 2
CHILD_TIMEOUT_S = 150
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import siegelcy.cli; "
                  "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _python(args: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {exc.timeout} s: {args}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {args}\n"
                         f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child printed nothing: {args}")
    return lines[-1]


def setup_time() -> float:
    return float(_python(["-c", IMPORT_SNIPPET]))


def run_child(workload: str, seed: int, index: int, trace: int, work: Path,
              spans: Path | None = None) -> dict:
    args = [str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
            "--index", str(index), "--trace", str(trace), "--work", str(work)]
    if spans is not None:
        args += ["--spans", str(spans)]
    out = json.loads(_python(args))
    if not Path(out["siegelcy_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported siegelcy from {out['siegelcy_file']}, "
                         f"not from {SRC}")
    return out


def run_pass(workload: str, seed: int, trace: int, work: Path,
             spans_prefix: Path | None = None) -> list[dict]:
    n = len(WORKLOADS[workload].invocations(seed))
    return [run_child(workload, seed, i, trace, work,
                      None if spans_prefix is None
                      else spans_prefix.with_name(f"{spans_prefix.name}-{i}.spans.jsonl"))
            for i in range(n)]


def environment() -> dict:
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def check_passes(passes: list[list[dict]], problems: list[str]) -> tuple[int, list[str]]:
    """Score every report; require identical bytes per child across passes
    and the expected exit code.  Returns (attempted, failed ids)."""
    attempted, failed = 0, []
    for index in range(len(passes[0])):
        for r, report in enumerate(passes[0][index]["reports"]):
            shas = {p[index]["reports"][r]["sha256"] for p in passes}
            if len(shas) != 1:
                problems.append(f"child {index} {report['selector']}: report "
                                f"differs across passes: {sorted(shas)}")
    for p in passes:
        for child in p:
            for report in child["reports"]:
                n, bad = expected.score(report["selector"], report["statuses"])
                attempted += n
                failed += bad
                want = expected.expected_exit_code(report["statuses"])
                if report["exit_code"] != want:
                    problems.append(f"{report['selector']}: exit code "
                                    f"{report['exit_code']}, expected {want}")
    if failed:
        problems.append(f"unexpected check statuses: {sorted(set(failed))}")
    return attempted, failed


def measure_end_to_end(workload: str, seed: int, seconds: float, work: Path):
    setup_time()  # warm-up: compiles the bytecode cache, not counted
    # half the set-up samples before the passes and half after, so that
    # their median spans the run as run_s does
    setup = [setup_time() for _ in range(SETUP_SAMPLES // 2)]
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed, 0, work))
        elapsed = time.perf_counter() - start
        children = sum(len(p) for p in passes)
        if (children >= MIN_CHILDREN
                and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    setup += [setup_time() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    walls = [c["wall_s"] for p in passes for c in p]
    rss = [c["peak_rss_mb"] for p in passes for c in p]
    q = quartiles(walls)
    s = quartiles(setup)
    summary = {
        "run_s": {"median": q[1], "q1": q[0], "q3": q[2], "n": len(walls),
                  "samples": walls},
        "setup_s": {"median": s[1], "q1": s[0], "q3": s[2], "n": len(setup),
                    "samples": setup},
        "peak_rss_mb": {"median": statistics.median(rss), "n": len(rss)},
    }
    metrics = {"run_s": {"value": q[1], "unit": "s"},
               "setup_s": {"value": s[1], "unit": "s"},
               "peak_rss_mb": {"value": summary["peak_rss_mb"]["median"],
                               "unit": "MB"}}
    return passes, metrics, summary


def measure_layers(workload: str, seed: int, work: Path, spans_prefix: Path,
                   problems: list[str]):
    plain = run_pass(workload, seed, 0, work)
    traced = run_pass(workload, seed, 1, work, spans_prefix)
    totals: dict[str, dict[str, float]] = {}
    for child in traced:
        for name, t in child["spans"].items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0))
            for field, v in t.items():
                acc[field] += v
    values = tracing.span_metrics(totals)
    reports = [r for c in traced for r in c["reports"]]
    values["suite.checks"] = sum(len(r["statuses"]) for r in reports)
    values["suite.checks_crashed"] = sum(cid.endswith(".crashed")
                                         for r in reports for cid in r["statuses"])
    values["suite.cpu_s"] = sum(c["cpu_s"] for c in plain)
    plain_s = sum(c["wall_s"] for c in plain)
    traced_s = sum(c["wall_s"] for c in traced)
    values["trace.overhead_share"] = traced_s / plain_s - 1

    silent = [s for s in WORKLOADS[workload].exercises
              if totals.get(s, {}).get("calls", 0) == 0]
    if silent:
        problems.append(f"spans recorded no calls on {workload}: {silent}")
    metrics = {m: {"value": values[m], "unit": unit}
               for m, unit in tracing.LAYER_UNITS.items()}
    shares = {f"{span} / {battery}":
              totals[f"{battery}/{span}"]["total"] / totals[battery]["total"]
              for span, battery in tracing.SHARES
              if f"{battery}/{span}" in totals}
    summary = {"untraced_s": plain_s, "traced_s": traced_s, "shares": shares,
               "spans": totals}
    return [plain, traced], metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "siegelcy" / "cli.py").is_file():
        print(f"error: no siegelcy package under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    problems: list[str] = []
    try:
        if args.trace:
            passes, metrics, summary = measure_layers(
                args.workload, args.seed, work, RESULTS / tag, problems)
        else:
            passes, metrics, summary = measure_end_to_end(
                args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = check_passes(passes, problems)
    report_shas = [r["sha256"] for c in passes[0] for r in c["reports"]]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": WORKLOADS[args.workload].invocations(args.seed),
        "environment": environment(),
        "report_sha256": report_shas,
        "workload_sha256": hashlib.sha256("".join(report_shas).encode()).hexdigest(),
        "attempted": attempted, "failed": len(failed),
        "fail_share": len(failed) / attempted,
        "problems": problems, "metrics": metrics, **summary,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        r = summary["run_s"]
        print(f"{args.workload} run_s quartiles {r['q1']:.4f} .. {r['q3']:.4f} s "
              f"over n={r['n']} children")
    for name, share in summary.get("shares", {}).items():
        print(f"{args.workload} share {name} = {share:.3f}")
    print(f"{args.workload} fail_share = {result['fail_share']:.4f} "
          f"({len(failed)}/{attempted} checks)")
    print(f"{args.workload} report sha256 {result['workload_sha256']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
