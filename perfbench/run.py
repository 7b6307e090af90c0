"""pellcrit benchmark: closed-loop decision workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md beside this
file for why each was chosen and what each layer should move):

  joint_2d      artin.joint_artin_decide over the 12 family-B D, n uniform
  cold_pq       cli decide on a new D = pq per request, n locally solvable
  oracle_sweep  pellsolver.solve over non-square D <= 300, 0 < |n| <= 50
  scan_2p       cli scan --family 2p, one fresh process per scan call

cold_pq is not listed in BENCHMARK.json: on some n with 4 | n the program's
criterion contradicts its oracle, so a cold_pq run exits 1 (README.md).

With --trace 0 the run measures about S seconds of closed loop in fresh
interpreters (one for joint_2d and cold_pq, with ten more started only to
time set-up; one per block of requests for oracle_sweep and scan_2p) and
prints the end-to-end metrics, with times scaled to a reference host
speed (README.md).  With --trace 1 it runs a fixed request count three
times, once plain and twice with per-layer spans, checks that the two
traced passes count exactly the same, and prints the per-layer metrics.  Every output is checked; the run exits 1 when any request
failed and 2 when it could not run at all.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import gen  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402

# tail: the percentile reported as latency_tail_ms (see README.md).
# trace: requests per traced pass; also the prefix that the verdict digest
# and peak_rss_mb cover.
# chunk: requests per fresh worker, for workloads whose measured loop is
# split over several interpreters; limit: requests in the whole stream.
WORKLOADS = {
    "joint_2d": {"tail": 99.0, "trace": 3000},
    "cold_pq": {"tail": 85.0, "trace": 30},
    "oracle_sweep": {"tail": 99.8, "trace": 10 * len(gen.ORACLE_DS), "chunk": 10 * len(gen.ORACLE_DS),
                     "limit": len(gen.ORACLE_DS) * len(gen.ORACLE_NS)},
    "scan_2p": {"tail": 75.0, "trace": 1, "chunk": 1},
}
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170
CACHE_NAMES = tuple(f"{m}.{a}" for m, a in spans.CACHES)
COUNT_SUFFIXES = (".calls", ".entries", ".hits", ".misses", "calls_per_decision", "_ratio")


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, count: int, digest: int, *, start: int = 0,
          seconds: float = 0.0, probe: bool = False, trace: bool = False,
          spans_out: str | None = None):
    """Run one fresh worker; return (set-up seconds, kernel seconds just before
    the spawn, its JSON result or None for a probe)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--start", str(start), "--count", str(count), "--seconds", str(seconds),
           "--digest-count", str(digest)]
    if probe:
        cmd.append("--probe")
    if trace:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    cal = hostspeed.calibrate()
    t0 = time.perf_counter()
    # Unbuffered, so readline() takes only the READY line and communicate()
    # gets everything after it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        ready = proc.stdout.readline().decode()
        setup = time.perf_counter() - t0
        rest = proc.communicate(timeout=WORKER_TIMEOUT_S)[0].decode()
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(cmd[1:])} ran over {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(cmd[1:])} exited {proc.returncode}")
    return setup, cal, None if probe else json.loads(rest.splitlines()[-1])


def scaled(result: dict) -> list[float]:
    """Request times at the reference host speed."""
    return [t * hostspeed.REF_S / c for t, c in zip(result["latencies"], result["cal"])]


def percentile(sorted_xs: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(len(sorted_xs) * pct / 100))
    return sorted_xs[rank - 1], len(sorted_xs) - rank


def cache_lines(cache: dict) -> list[str]:
    out = []
    for name in CACHE_NAMES:
        hits, misses = cache[name]
        ratio = hits / (hits + misses) if hits + misses else 0.0
        out.append(f"cache {name}: hit_ratio={ratio:.4f} (hits={hits}, misses={misses})")
    return out


def merge_cache(results: list[dict]) -> dict:
    total = {name: [0, 0] for name in CACHE_NAMES}
    for r in results:
        for name, (h, m) in r["cache"].items():
            total[name][0] += h
            total[name][1] += m
    return total


def regime(workload: str, results: list[dict]) -> tuple[list[str], list[str]]:
    """Check the workload's claimed regime against pellcrit's own predicates."""
    from pellcrit import artin, intcore, localanalysis, quadring

    lines: list[str] = []
    problems: list[str] = []
    if workload == "joint_2d":
        family = {D for D in range(2, 1001, 2) if not intcore.is_square(D)
                  and quadring.classify_order(D).family == quadring.FAMILY_2D
                  and artin.thm24_applicable(D // 2)} | {1394}
        if family != set(gen.JOINT_2D_D):
            problems.append(f"family-B D set is {sorted(family)}, not {gen.JOINT_2D_D}")
        lines.append("regime: " + json.dumps(results[0]["regime"]))
    elif workload == "cold_pq":
        for r in results:
            ds = [x[0] for x in r["regime"]["inputs"]]
            if len(set(ds)) != len(ds):
                problems.append("cold_pq repeated a D within one run")
        for D, n, p, q in {tuple(x) for r in results for x in r["regime"]["inputs"]}:
            if p * q != D or not artin.cor14_applicable(p, q):
                problems.append(f"D={D} = {p}*{q} fails cor14_applicable")
            primes = {2, p, q} | set(intcore.factor(abs(n)).primes())
            bad = [l for l in sorted(primes) if not localanalysis.local_solvable(D, n, l)]
            if bad:
                problems.append(f"n={n} is not locally solvable at {bad} for D={D}")
            if D % 8 != 5:
                problems.append(f"D={D} is not 5 mod 8")
        inputs = results[0]["regime"]["inputs"]
        ds = [x[0] for x in inputs]
        four = sum(x[1] % 4 == 0 for x in inputs)
        lines.append(f"regime: {len(ds)} requests, {len(set(ds))} distinct D = 5 mod 8 in "
                     f"[{min(ds)}, {max(ds)}], {four} with 4 | n, all cor14_applicable and "
                     f"locally solvable: {not problems}")
    elif workload == "oracle_sweep":
        drawn = sum(r["regime"]["requests"] for r in results)
        high = sum(r["regime"]["v2_D_ge_5"] for r in results)
        lines.append(f"regime: {high} of {drawn} requests ({high / drawn:.4f}) have v2(D) >= 5")
    else:
        ms = [r["regime"]["M"] for r in results]
        lines.append(f"regime: {len(ms)} scan calls, --max in [{min(ms)}, {max(ms)}]")
    return lines, problems


def measure(workload: str, seed: int, seconds: float):
    """The untraced run: end-to-end metrics over S seconds of closed loop."""
    conf = WORKLOADS[workload]
    setups: list[tuple[float, float]] = []  # (seconds, kernel seconds just before)
    results: list[dict] = []
    chunk = conf.get("chunk")
    if chunk:
        # One fresh worker per chunk of the stream, each with cold caches.
        spent, start = 0.0, 0
        while spent < seconds and start < conf.get("limit", start + 1):
            t0 = time.perf_counter()
            setup, cal, res = spawn(workload, seed, chunk, conf["trace"] if start == 0 else 0,
                                    start=start)
            spent += time.perf_counter() - t0
            setups.append((setup, cal))
            results.append(res)
            start += chunk
    else:
        # Set-up probes on both sides of the measured loop, so the median
        # does not rest on one short stretch of the host's speed.
        half = (SETUP_SAMPLES - 1) // 2
        for k in range(SETUP_SAMPLES - 1):
            if k == half:
                setup, cal, res = spawn(workload, seed, 10**9, conf["trace"], seconds=seconds)
                setups.append((setup, cal))
                results.append(res)
            setups.append(spawn(workload, seed, 1, 0, probe=True)[:2])

    raw = sorted(x for r in results for x in r["latencies"])
    lat = sorted(x for r in results for x in scaled(r))
    decisions = sum(r["decisions"] for r in results)
    tail, beyond = percentile(lat, conf["tail"])
    metrics = {
        "throughput_dps": (decisions / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(s * hostspeed.REF_S / c for s, c in setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in results) / 1024, "MB"),
    }
    speed = statistics.median(hostspeed.REF_S / c for r in results for c in r["cal"])
    notes = [
        f"latency_tail_ms is p{conf['tail']:g} of {len(lat)} samples, {beyond} beyond it",
        f"times are scaled to the reference host speed; median host speed {speed:.3f}; unscaled: "
        f"throughput_dps={decisions / sum(raw):.4f} latency_p50_ms={1000 * statistics.median(raw):.5f} "
        f"latency_tail_ms={1000 * percentile(raw, conf['tail'])[0]:.4f} "
        f"setup_s={statistics.median(s for s, _ in setups):.4f}",
        "setup_s samples (unscaled): " + ", ".join(f"{s:.4f}" for s, _ in setups),
    ]
    notes += cache_lines(merge_cache(results))
    return metrics, results, notes, []


def traced(workload: str, seed: int):
    """The traced run: one plain and two traced passes over fixed requests."""
    n = WORKLOADS[workload]["trace"]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}.csv")
    plain = spawn(workload, seed, n, n)[2]
    passes = [spawn(workload, seed, n, n, trace=True, spans_out=path)[2],
              spawn(workload, seed, n, n, trace=True)[2]]
    results = [plain] + passes

    def summary(res: dict) -> dict:
        out = dict(res["trace"])
        for name in CACHE_NAMES:
            hits, misses = res["cache"][name]
            out[f"{name}.hits"] = hits
            out[f"{name}.misses"] = misses
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    first, second = summary(passes[0]), summary(passes[1])
    problems = [f"traced passes count {k} as {first[k]} and {second[k]}"
                for k in first if k.endswith(COUNT_SUFFIXES) and first[k] != second[k]]
    if len({r["digest"] for r in results}) != 1:
        problems.append("traced and plain passes reached different verdicts")
    busy = [sum(scaled(r)) for r in results]
    speed = statistics.median(hostspeed.REF_S / c for c in passes[0]["cal"])
    for name in first:
        if name.endswith("_s"):
            first[name] *= speed
    first["trace.overhead_ratio"] = statistics.mean(busy[1:]) / busy[0]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            unit = "s"
        elif name.endswith(("_ratio", "calls_per_decision")):
            unit = "ratio"
        else:
            unit = "count"
        metrics[name] = (value, unit)
    notes = [f"{n} requests per pass; first traced pass's spans in {os.path.relpath(path, ROOT)}",
             "pass busy seconds at reference speed (plain, traced, traced): "
             + ", ".join(f"{b:.4f}" for b in busy)]
    return metrics, results, notes, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "pellcrit", "__init__.py")):
        print(f"no pellcrit source under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2
    import pellcrit  # noqa: F401  (compiles the package before any set-up is timed)
    try:
        if args.trace:
            metrics, results, notes, count_problems = traced(args.workload, args.seed)
        else:
            metrics, results, notes, count_problems = measure(args.workload, args.seed, args.seconds)
        regime_lines, regime_problems = regime(args.workload, results)
    except WorkerError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(r["latencies"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    digest_n = results[0]["digested"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={len(failures)} error_rate={len(failures) / attempted:.6f}")
    print(f"# verdict digest over the first {digest_n} requests: {results[0]['digest']}")
    for line in notes + regime_lines:
        print(f"# {line}")
    problems = failures + regime_problems + count_problems
    for p in problems[:20]:
        print(f"# FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
