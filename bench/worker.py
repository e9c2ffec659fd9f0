"""Run one workload instance in a fresh interpreter and print one JSON record.

`run.py` starts this script once per instance, so ramapoly's `lru_cache`
tables start cold each time, as they do for a command-line user.  The
record's `ready` field is the CLOCK_MONOTONIC time just before the first
timed operation and before any input generation; the parent subtracts its
own spawn time to get the set-up time.  With `--probe` the worker stops
there.

    python3 bench/worker.py --workload census --seed 1 --seconds 30 [--trace]
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import gen
import speed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Instance sizes: the full benchmark, and a tiny one for the smoke tests.
# pipe is (n_min, n_max, rounds in its request set): 64 rounds of the
# eight maps are 512 distinct round trips.
SIZES = {
    "full": {"census": 8, "certify": 7, "algebra": (60, 12, 24), "pipe": (50, 1000, 64)},
    "smoke": {"census": 4, "certify": 4, "algebra": (8, 2, 6), "pipe": (4, 12, 2)},
}

PSI_ROUTES = ("psi_bew", "psi_ramanujan")
Q_ROUTES = ("q_shor", "q_shor_alt", "q_zeng_a", "q_zeng_b", "q_from_psi")

clock = time.perf_counter


def _run_suite(check, nmax: int) -> dict:
    with speed.Sampler() as sampler:
        t0 = clock()
        rep = check(nmax)
        wall = clock() - t0
    return {"wall_s": wall * sampler.scale(), "raw_s": wall, "attempted": len(rep.results),
            "failed": len(rep.failures),
            "errors": [f"{r.name}: expected {r.expected}, got {r.actual}"
                       for r in rep.failures[:5]]}


def run_census(rp, size, args, tracer) -> dict:
    return _run_suite(rp.verify.check_conjecture, size)


def run_certify(rp, size, args, tracer) -> dict:
    return _run_suite(rp.verify.check_bijections, size)


def run_algebra(rp, size, args, tracer) -> dict:
    """Every route's full table to N, then the recurrence and genfun suites;
    the route tables must agree cell by cell."""
    n_max, rmax, order = size
    span = tracer.span if tracer else (lambda name: nullcontext())
    psi_cells = [(r, k) for r in range(n_max + 1) for k in range(1, r + 2)]
    q_cells = [(n, k) for n in range(1, n_max + 1) for k in range(n)]
    tables = {}
    with speed.Sampler() as sampler:
        t0 = clock()
        for names, cells in ((PSI_ROUTES, psi_cells), (Q_ROUTES, q_cells)):
            for name in names:
                fn = getattr(rp.polynomials, name)
                with span(f"polynomials.{name}"):
                    tables[name] = [fn(a, k) for a, k in cells]
        rec = rp.verify.check_recurrences(n_max)
        gf = rp.verify.check_genfun(rmax=rmax, order=order)
        wall = clock() - t0
    attempted = len(rec.results) + len(gf.results)
    failed = len(rec.failures) + len(gf.failures)
    errors = [f"{r.name}: {r.actual}" for r in (rec.failures + gf.failures)[:5]]
    for names, cells in ((PSI_ROUTES, psi_cells), (Q_ROUTES, q_cells)):
        base = tables[names[0]]
        for name in names[1:]:
            for cell, a, b in zip(cells, base, tables[name]):
                attempted += 1
                if a != b:
                    failed += 1
                    errors.append(f"{name}{cell} differs from {names[0]}")
    return {"wall_s": wall * sampler.scale(), "raw_s": wall, "attempted": attempted,
            "failed": failed, "errors": errors[:5]}


def _request(cli, which: str, direction: str, text: str, latencies: list, errors: list):
    """One closed-loop request: `ramapoly bij` in-process with stdin, stdout
    and stderr redirected.  Returns (stdout text, exited 0 without raising)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    t0 = clock()
    try:
        rc = cli.main(["bij", "--map", which, "--dir", direction])
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    finally:
        latencies.append(clock() - t0)
        sys.stdin, sys.stdout, sys.stderr = saved
    if rc != 0 and len(errors) < 5:
        errors.append(f"bij --map {which} --dir {direction} exited {rc}: "
                      f"{err.getvalue().strip()[-300:]}")
    return out.getvalue(), rc == 0


def run_pipe(rp, size, args, tracer) -> dict:
    """Round trips through every map, cycling over one seeded request set,
    until --seconds of request time have passed (or exactly --pairs round
    trips), stopping after whole rounds.  The inputs are generated before
    the clock starts.  The host-speed reference runs between rounds, and
    each round's timings are scaled by the samples of the nine rounds
    around it."""
    n_min, n_max, n_rounds = size
    reqs = gen.requests(args.seed, n_min, n_max, n_rounds)
    latencies: list[float] = []
    refs: list[float] = []
    round_s: list[float] = []
    errors: list[str] = []
    failed = pairs = 0
    t_start = clock()
    for which, text, first, second in itertools.cycle(reqs):
        if pairs % len(gen.MAPS) == 0:
            refs.append(speed.reference())
            round_start = clock()
        out, ok = _request(rp.cli, which, first, text, latencies, errors)
        failed += not ok
        if args.corrupt:
            # negative control: the inverse gets a truncated forward output
            out = out.rstrip("\n")[:-1] + "\n"
        back, ok = _request(rp.cli, which, second, out, latencies, errors)
        if ok and back != text:
            ok = False
            if len(errors) < 5:
                errors.append(f"{which}: round trip did not reproduce its input")
        failed += not ok
        pairs += 1
        if pairs % len(gen.MAPS):
            continue
        round_s.append(clock() - round_start)
        if args.pairs:
            if pairs >= args.pairs:
                break
        elif clock() - t_start >= args.seconds:
            break
    scales = [speed.scale(refs[max(0, i - 4):i + 5]) for i in range(len(refs))]
    per_round = 2 * len(gen.MAPS)  # requests
    return {"wall_s": sum(t * f for t, f in zip(round_s, scales)), "raw_s": sum(round_s),
            "latencies": [t * scales[j // per_round] for j, t in enumerate(latencies)],
            "rounds": len(round_s), "pairs": pairs, "attempted": len(latencies),
            "failed": failed, "errors": errors}


WORKLOADS = {"census": run_census, "certify": run_certify, "algebra": run_algebra,
             "pipe": run_pipe}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=0,
                    help="pipe: run exactly this many round trips instead")
    ap.add_argument("--trace", action="store_true", help="wrap the public functions")
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    ap.add_argument("--smoke", action="store_true", help="tiny instance sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="pipe negative control: corrupt every forward output")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import ramapoly
    if args.workload == "pipe" or args.trace:
        import ramapoly.cli
    src = (ROOT / "src").resolve()
    if src not in Path(ramapoly.__file__).resolve().parents:
        raise SystemExit(f"ramapoly was imported from {ramapoly.__file__}, not from {src}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(ramapoly)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    rec = WORKLOADS[args.workload](ramapoly, size, args, tracer)
    rec["ready"] = ready
    rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        rec["top_s"] = tracer.top_s
        rec["layers"] = tracer.layer_metrics()
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
