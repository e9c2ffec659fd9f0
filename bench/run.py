"""The ramapoly benchmark: one workload, end-to-end metrics or a traced run.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json records why each exists):
  census   verify.check_conjecture(8): the lambda-class recurrence over all
           2,223,277 rooted trees on [2..8].
  certify  verify.check_bijections(7): all 16 maps forward and inverse over
           their full domains on at most 7 labels.
  algebra  every psi/Q route's full table to N = 60 (psi_bew, psi_ramanujan,
           q_shor, q_shor_alt, q_zeng_a, q_zeng_b, q_from_psi), then
           check_recurrences(60) and check_genfun(rmax=12, order=24); the
           route tables must agree cell by cell.
  pipe     a closed loop with one client calling cli.main(["bij", ...])
           in-process, cycling over 64 rounds of seeded trees, one per map
           of the eight, with n uniform in [50, 1000]; each forward output
           goes to the inverse, which must reproduce the input text byte
           for byte.

Every instance runs in a fresh interpreter (worker.py), so ramapoly's caches
start cold.  The suites run their instance once, and again in a new
interpreter while the next instance should still end within --seconds; pipe
runs whole rounds of the eight maps until --seconds of request time have
passed.  --seed only shapes the pipe inputs: the suites are exhaustive and
have nothing to draw.

The host is shared and its speed wanders by up to 1.45x for minutes at a
time, so every time below is corrected to the host's usual speed by a
reference loop timed while the work runs (speed.py).  The raw median wall
time and the factor applied to it are printed on the line before the
result.

End-to-end metrics (--trace 0), with a request being one cli.main call on
pipe and one whole instance on the suites, whose instances repeat that one
request and count at their median:
  setup_s      fresh interpreter to the first timed operation (interpreter
               start, import ramapoly, one-time set-up), median over
               several set-ups in the run; input generation is excluded
  wall_s       median time to certify one instance (on pipe, the mean time
               of one round: a round trip through each of the eight maps)
  req_p50_ms   median request latency
  req_p99_ms   nearest-rank 99th percentile of request latency
  req_per_s    requests completed per second of request time, one client
  peak_rss_mb  peak resident memory of the workload process
fail_frac, the failed share of attempted operations (one CheckResult on the
suites, one request on pipe), is the `failed`/`attempted` pair of the
result; it is printed with the environment (Python, nproc, git revision,
seed) on the line before the result.  Self times and the tracing overhead
of the traced run are raw.

The traced run (--trace 1) runs one instance untraced and then the same work
traced (spans.py), and reports calls and self time per public function,
self time and failed calls per layer, the tracing overhead (traced minus
untraced wall time) and the share of the traced wall time that top-level
spans cover, which must be at least 0.95.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
A run whose outputs are wrong prints correct: false and exits 1; a run that
cannot measure prints no result and exits 2.  --smoke runs tiny instances
for the benchmark's own tests (test_smoke.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("census", "certify", "algebra", "pipe")
PROBES = 9  # set-up samples per run, besides one per instance
BUDGET_S = 170.0  # a run must end within 180 s
MIN_COVERAGE = 0.95


class RunError(Exception):
    """The run could not measure; it prints no result."""


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its record, with `setup_s`
    measured from just before the interpreter was started."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # string hashing, and so set order, repeats
    host = speed.scale([speed.reference() for _ in range(3)])
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(args)} ran past the run's time budget") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    rec["setup_s"] = (rec["ready"] - t0) * host
    return rec


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(args, common: list[str], deadline: float) -> tuple[dict, list[dict], dict]:
    spawn(common + ["--probe"], deadline)  # warm-up: byte-compiles a fresh checkout
    setups = [spawn(common + ["--probe"], deadline)["setup_s"] for _ in range(PROBES)]
    recs: list[dict] = []
    start = time.monotonic()
    while True:
        recs.append(spawn(common, deadline))
        elapsed = time.monotonic() - start
        # one more instance only if it should still end within --seconds
        if args.workload == "pipe" or elapsed * (len(recs) + 1) / len(recs) > args.seconds:
            break
    setups += [r["setup_s"] for r in recs]
    if args.workload == "pipe":
        latencies = sorted(recs[0]["latencies"])
        wall = recs[0]["wall_s"] / recs[0]["rounds"]
        raw_wall = recs[0]["raw_s"] / recs[0]["rounds"]
    else:
        # the instances repeat one request: certify the whole instance
        wall = statistics.median(r["wall_s"] for r in recs)
        raw_wall = statistics.median(r["raw_s"] for r in recs)
        latencies = [wall]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "req_p50_ms": 1000 * statistics.median(latencies),
        "req_p99_ms": 1000 * percentile(latencies, 99),
        "req_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": max(r["rss_mb"] for r in recs),
    }
    info = {"raw_wall_s": raw_wall, "host_scale": wall / raw_wall,
            "instances": len(recs), "requests": len(latencies),
            "requests_beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
            "setup_samples": len(setups)}
    return metrics, recs, info


def traced(args, common: list[str], deadline: float) -> tuple[dict, list[dict], dict]:
    plain = spawn(common, deadline)
    same_work = ["--pairs", str(plain["pairs"])] if args.workload == "pipe" else []
    rec = spawn(common + ["--trace"] + same_work, deadline)
    metrics = dict(rec["layers"])
    metrics["trace.overhead_s"] = rec["raw_s"] - plain["raw_s"]
    metrics["trace.coverage"] = rec["top_s"] / rec["raw_s"]
    info = {"untraced_wall_s": plain["raw_s"], "traced_wall_s": rec["raw_s"],
            "coverage_ok": metrics["trace.coverage"] >= MIN_COVERAGE}
    return metrics, [plain, rec], info


def environment(args) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "git_rev": rev,
            "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instances, for the smoke tests")
    ap.add_argument("--corrupt", action="store_true",
                    help="pipe negative control: corrupt every forward output")
    args = ap.parse_args()
    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    common += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
    try:
        if not (ROOT / "src" / "ramapoly" / "__init__.py").is_file():
            raise RunError(f"no ramapoly sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        metrics, recs, info = (traced if args.trace else measure)(args, common, deadline)
        if set(metrics) != {m["name"] for m in declared}:
            raise RunError("the measured metrics differ from those BENCHMARK.json declares")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    for rec in recs:
        for err in rec["errors"]:
            print(f"failure: {err}", file=sys.stderr)
    correct = failed == 0 and info.get("coverage_ok", True)
    if not info.get("coverage_ok", True):
        print(f"failure: top-level spans cover less than {MIN_COVERAGE} of the traced "
              "wall time", file=sys.stderr)
    print(json.dumps({"env": environment(args),
                      "fail_frac": {"value": failed / attempted, "unit": "1"}, **info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
