"""One fresh interpreter of a benchmark run: set up, then a closed loop.

Run by ``run.py``, never by hand.  The worker imports pellcrit from the
checkout's ``src``, builds its seeded input stream and prints ``READY``;
the time from its spawn to that line is its set-up time.  It then sends
one request at a time, each when the previous one has returned, timing
each from outside the program, and checks every output by exact
arithmetic outside the timed region.  The last line it prints is a JSON
object with the latencies, failures, verdict digest, cache statistics,
peak RSS and, when traced, the per-layer summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from pellcrit import artin, cli, pellsolver  # noqa: E402

import gen  # noqa: E402
import spans  # noqa: E402
from hostspeed import calibrate  # noqa: E402

SOLVABLE, UNSOLVABLE = "solvable", "unsolvable"
# Brute-force depth for spot-checking unsolvable oracle verdicts.
UNSOLVABLE_Y_CHECK = 64
# Seconds of loop between two timings of the host-speed kernel.
CAL_INTERVAL_S = 0.25


class Failure(Exception):
    pass


def check_witness(D: int, n: int, witness) -> None:
    if witness is None or len(witness) != 2:
        raise Failure(f"solvable without a witness at D={D}, n={n}")
    x, y = witness
    if x * x - D * y * y != n:
        raise Failure(f"witness {witness} fails x^2 - {D} y^2 = {n}")


def check_status(D: int, n: int, status: str, witness) -> None:
    if status == SOLVABLE:
        check_witness(D, n, witness)
    elif status != UNSOLVABLE or witness is not None:
        raise Failure(f"bad verdict {status} {witness} at D={D}, n={n}")


class Workload:
    """Stream of requests; ``call`` is timed, ``check`` is not."""

    def __init__(self, seed: int):
        self.seed = seed
        self.regime: dict = {}

    def records(self, args, out) -> list[tuple]:
        """Digest lines (D, n, status, witness) of one checked request."""
        D, n = args[0], args[1]
        status, witness = out[0], out[1]
        return [(D, n, status, witness)]

    def finish(self):
        pass


class Joint2D(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.stream = gen.joint_2d(seed)
        self.per_d: dict[int, int] = {}

    def draw(self, i):
        D, n = self.stream.draw(i)
        self.per_d[D] = self.per_d.get(D, 0) + 1
        return D, n

    def call(self, args):
        return artin.joint_artin_decide(*args)

    def check(self, args, v):
        D, n = args
        if v.provenance != "artin":
            raise Failure(f"provenance {v.provenance} at D={D}, n={n}")
        check_status(D, n, v.status, v.witness)
        return v.status, v.witness

    def finish(self):
        counts = sorted(self.per_d.values())
        self.regime = {
            "distinct_D": len(self.per_d),
            "requests_per_D_min": counts[0] if counts else 0,
            "requests_per_D_max": counts[-1] if counts else 0,
        }


class ColdPQ(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.stream = gen.ColdPQ(seed)
        self.inputs: list[tuple] = []

    def draw(self, i):
        D, n, p, q = self.stream.draw(i)
        self.inputs.append((D, n, p, q))
        return D, n

    def call(self, args):
        D, n = args
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["decide", str(D), str(n)])
        return rc, buf.getvalue()

    def check(self, args, out):
        D, n = args
        rc, text = out
        if rc != 0:
            raise Failure(f"decide exited {rc} at D={D}, n={n}")
        rec = json.loads(text.splitlines()[-1])
        if (rec["D"], rec["n"]) != (D, n):
            raise Failure(f"record for {rec['D']}, {rec['n']} answers D={D}, n={n}")
        if rec["status"] != rec["oracle_status"]:
            raise Failure(f"status {rec['status']} != oracle {rec['oracle_status']} at D={D}, n={n}")
        if rec["provenance"] != "artin":
            raise Failure(f"provenance {rec['provenance']} at D={D}, n={n}")
        witness = tuple(rec["witness"]) if rec["witness"] is not None else None
        check_status(D, n, rec["status"], witness)
        return rec["status"], witness

    def finish(self):
        self.regime = {"inputs": self.inputs}


class OracleSweep(Workload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.stream = gen.oracle_sweep(seed)
        self.high_v2 = 0
        self.drawn = 0

    def draw(self, i):
        D, n = self.stream.draw(i)
        self.drawn += 1
        self.high_v2 += gen.v2(D) >= 5
        return D, n

    def call(self, args):
        return pellsolver.solve(*args)

    def check(self, args, v):
        D, n = args
        check_status(D, n, v.status, v.witness)
        if v.status == UNSOLVABLE:
            for y in range(UNSOLVABLE_Y_CHECK + 1):
                t = n + D * y * y
                if t >= 0 and math.isqrt(t) ** 2 == t:
                    raise Failure(f"unsolvable, but ({math.isqrt(t)}, {y}) solves D={D}, n={n}")
        return v.status, v.witness

    def finish(self):
        self.regime = {"requests": self.drawn, "v2_D_ge_5": self.high_v2}


class Scan2P(Workload):
    """One scan call per worker; each record is one decision."""

    def draw(self, i):
        self.regime = {"M": gen.scan_max(self.seed, i)}
        return (self.regime["M"],)

    def call(self, args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["scan", "--family", "2p", "--max", str(args[0]), "--jobs", "1"])
        return rc, buf.getvalue()

    def check(self, args, out):
        rc, text = out
        if rc != 0:
            raise Failure(f"scan --max {args[0]} exited {rc}")
        recs = [json.loads(line) for line in text.splitlines()]
        primes = gen.odd_primes_upto(args[0])
        if [r["p"] for r in recs] != primes:
            raise Failure(f"scan --max {args[0]} gave {len(recs)} records for {len(primes)} primes")
        for r in recs:
            if not r["agree"] or r["criteria_target"] != r["oracle_target"]:
                raise Failure(f"scan disagrees at p={r['p']}: {r}")
            check_witness(2 * r["p"], r["criteria_target"], r["witness"])
        return recs

    def records(self, args, recs):
        return [(2 * r["p"], r["criteria_target"], SOLVABLE, tuple(r["witness"])) for r in recs]


WORKLOADS = {"joint_2d": Joint2D, "cold_pq": ColdPQ, "oracle_sweep": OracleSweep, "scan_2p": Scan2P}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--digest-count", type=int, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    work = WORKLOADS[args.workload](args.seed)
    first = work.draw(args.start)
    caches = {f"{m}.{a}": getattr(sys.modules[f"pellcrit.{m}"], a) for m, a in spans.CACHES}
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    print("READY", flush=True)
    if args.probe:
        return 0
    cals = [calibrate()]

    before = spans.cache_snapshot(caches)
    latencies: list[float] = []
    failures: list[str] = []
    decisions = 0
    digest = hashlib.sha256()
    digested = 0
    cal_index: list[int] = []
    clock = time.perf_counter
    t_loop = t_cal = clock()
    req = first
    for i in range(args.start, args.start + args.count):
        if i > args.start:
            if args.seconds and clock() - t_loop >= args.seconds:
                break
            try:
                req = work.draw(i)
            except IndexError:
                break
            if clock() - t_cal >= CAL_INTERVAL_S:
                cals.append(calibrate())
                t_cal = clock()
        cal_index.append(len(cals) - 1)
        if tracer:
            tracer.request = i
        t0 = clock()
        try:
            out = work.call(req)
            ok = True
        except Exception as exc:  # any raise is a failed request
            out, ok = f"{type(exc).__name__}: {exc}", False
        latencies.append(clock() - t0)
        try:
            if not ok:
                raise Failure(f"{req}: {out}")
            checked = work.check(req, out)
            decisions += len(work.records(req, checked))
        except Failure as exc:
            failures.append(str(exc))
            checked = None
        if i - args.start < args.digest_count:
            digested += 1
            lines = work.records(req, checked) if checked is not None else [(req, "failed")]
            for line in lines:
                digest.update(repr(line).encode() + b"\n")
            if digested == args.digest_count:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cals.append(calibrate())
    if digested < args.digest_count or not args.digest_count:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    after = spans.cache_snapshot(caches)
    work.finish()

    result = {
        "latencies": latencies,
        "cal": [(cals[k] + cals[k + 1]) / 2 for k in cal_index],
        "decisions": decisions,
        "failures": failures,
        "digest": digest.hexdigest(),
        "digested": digested,
        "rss_kb": rss_kb,
        "cache": {k: [after[k][0] - before[k][0], after[k][1] - before[k][1]] for k in caches},
        "regime": work.regime,
    }
    if tracer:
        result["trace"] = tracer.summary(decisions)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
