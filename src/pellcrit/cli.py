"""Command-line surface.

Subcommands:
  decide D n            joint criteria decision, cross-checked by the oracle
  classify-pq p q       the solvable target among -1, p, q for D = pq
  classify-2p p         the solvable target among -1, 2, -2 for D = 2p
  scan                  criteria vs oracle over a whole family range
  verify-lemmas         numerical checks of the 2-adic character laws
  table                 classification table, json or csv

Records are emitted one JSON object per line on stdout (csv for table).
Exit codes: 0 success, 2 usage error, 3 internal inconsistency (criteria
disagreeing with the oracle anywhere is a finding, never swallowed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .intcore import _sieve
from .symbols import quartic_2_of_d
from .quadring import FAMILY_2D, classify_order, find_twist_point
from .localanalysis import character_table
from . import artin, criteria, pellsolver

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


def _emit(record: dict, out=None) -> None:
    print(json.dumps(record), file=out or sys.stdout)


def cmd_decide(args) -> int:
    t0 = time.perf_counter()
    verdict = artin.joint_artin_decide(args.D, args.n)
    oracle_status = "solvable" if pellsolver.minimal_solutions(args.D, args.n) else "unsolvable"
    record = {
        "D": args.D,
        "n": args.n,
        "status": verdict.status,
        "witness": list(verdict.witness) if verdict.witness else None,
        "provenance": verdict.provenance,
        "oracle_status": oracle_status,
        "timings": round(1000 * (time.perf_counter() - t0), 3),
    }
    _emit(record)
    if verdict.status != oracle_status:
        print(f"inconsistency at D={args.D}, n={args.n}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_classify_pq(args) -> int:
    target, verdict = criteria.classify_pq(args.p, args.q)
    _emit(
        {
            "p": args.p,
            "q": args.q,
            "target": target,
            "provenance": verdict.provenance,
            "witness": list(verdict.witness) if verdict.witness else None,
        }
    )
    return EXIT_OK


def cmd_classify_2p(args) -> int:
    target, verdict = criteria.classify_2p(args.p)
    _emit(
        {
            "p": args.p,
            "target": target,
            "provenance": verdict.provenance,
            "witness": list(verdict.witness) if verdict.witness else None,
        }
    )
    return EXIT_OK


# -- scan workers (top level so process pools can pickle them)


def _oracle_target(D: int, targets: tuple[int, ...], confirmed: int | None) -> int | None:
    # the first target the oracle solves; the criteria have already had the
    # oracle confirm their own target, so it is not asked again.  The others
    # take the oracle's complete search alone: an unsolvable target's local
    # label would only be thrown away
    for t in targets:
        if t == confirmed or pellsolver.minimal_solutions(D, t):
            return t
    return None


def _scan_pq_one(pair: tuple[int, int]) -> dict:
    p, q = pair
    target, verdict = criteria.classify_pq(p, q)
    oracle_target = _oracle_target(p * q, (-1, p, q), target)
    return {
        "family": "pq",
        "p": p,
        "q": q,
        "criteria_target": target,
        "oracle_target": oracle_target,
        "witness": list(verdict.witness) if verdict.witness else None,
        "agree": target == oracle_target,
    }


def _scan_2p_one(p: int) -> dict:
    target, verdict = criteria.classify_2p(p)
    oracle_target = _oracle_target(2 * p, (-1, 2, -2), target)
    return {
        "family": "2p",
        "p": p,
        "criteria_target": target,
        "oracle_target": oracle_target,
        "witness": list(verdict.witness) if verdict.witness else None,
        "agree": target == oracle_target,
    }


def _scan_221_one(n: int) -> dict:
    v = criteria.decide_221(n)
    # a solvable verdict carries the oracle's own confirmation and witness
    solvable = v.solvable or pellsolver.minimal_solutions(221, n)
    oracle_status = "solvable" if solvable else "unsolvable"
    return {
        "family": "221",
        "n": n,
        "criteria_status": v.status,
        "oracle_status": oracle_status,
        "witness": list(v.witness) if v.witness else None,
        "agree": v.status == oracle_status,
    }


def _scan_instances(family: str, maxval: int):
    if family == "pq":
        ps = [p for p in _sieve(maxval) if p % 4 == 1]
        work = []
        for i, p in enumerate(ps):
            for q in ps[i + 1 :]:
                if artin.cor14_applicable(p, q):
                    work.append((p, q))
        return _scan_pq_one, work
    if family == "2p":
        return _scan_2p_one, [p for p in _sieve(maxval) if p != 2]
    if family == "221":
        work = []
        for n in range(1, maxval + 1):
            work.append(n)
            work.append(-n)
        return _scan_221_one, work
    raise ValueError(f"unknown family {family}")


def cmd_scan(args) -> int:
    worker, instances = _scan_instances(args.family, args.max)
    if args.jobs > 1:
        # the pool pulls in multiprocessing, so only a parallel scan imports it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            records = list(pool.map(worker, instances, chunksize=16))
    else:
        records = [worker(x) for x in instances]
    disagreements = 0
    for rec in records:
        _emit(rec)
        if not rec["agree"]:
            disagreements += 1
            print(f"inconsistency: {rec}", file=sys.stderr)
    return EXIT_INCONSISTENT if disagreements else EXIT_OK


def cmd_verify_lemmas(args) -> int:
    failures = 0
    for d in range(2, args.max + 1):
        # d = 1 mod 8 first: D = 2d is a square when d = 2k^2, and
        # classify_order rejects a square
        D = 2 * d
        if d % 8 != 1 or classify_order(D).family != FAMILY_2D:
            continue
        tw = find_twist_point(D, 2)
        tab = character_table(D, tw)
        has_rep = artin.thm24_applicable(d)
        checks = {
            "norm_one_trivial": tab.chi_1 == 1,
            "two_matches_mod16": tab.chi_2 == (1 if d % 16 == 1 else -1),
            "neg_two_matches_quartic": tab.chi_neg2 == quartic_2_of_d(d),
            "neg_one_forced": (not has_rep) or tab.chi_neg1 == -1,
            "multiplicative": tab.chi_neg2 == tab.chi_neg1 * tab.chi_2,
        }
        record = {
            "d": d,
            "D": D,
            "twist": [tw.x0, tw.y0, tw.z0],
            "chi": [tab.chi_1, tab.chi_neg1, tab.chi_2, tab.chi_neg2],
            **checks,
        }
        _emit(record)
        if not all(checks.values()):
            failures += 1
            print(f"lemma check failed at d={d}: {record}", file=sys.stderr)
    return EXIT_INCONSISTENT if failures else EXIT_OK


def cmd_table(args) -> int:
    # open the output first, so an unwritable path fails before any work, but
    # without truncating: a scan that fails leaves an existing table as it was
    try:
        fh = open(args.out, "a", newline="" if args.format == "csv" else None)
    except OSError as exc:
        print(f"pellcrit: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    with fh:
        worker, instances = _scan_instances(args.family, args.max)
        records = [worker(x) for x in instances]
        fh.seek(0)
        fh.truncate()
        if args.format == "json":
            json.dump(records, fh, indent=1)
        elif records:
            import csv

            writer = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
            writer.writeheader()
            for rec in records:
                rec = dict(rec)
                if rec.get("witness") is not None:
                    rec["witness"] = "%d:%d" % tuple(rec["witness"])
                writer.writerow(rec)
    bad = sum(1 for rec in records if not rec["agree"])
    return EXIT_INCONSISTENT if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pellcrit",
        description="Decide solvability of x^2 - D y^2 = n by residue-symbol"
        " criteria, cross-checked against a continued-fraction oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one equation")
    p.add_argument("D", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("classify-pq", help="solvable target among -1, p, q")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_classify_pq)

    p = sub.add_parser("classify-2p", help="solvable target among -1, 2, -2")
    p.add_argument("p", type=int)
    p.set_defaults(func=cmd_classify_2p)

    p = sub.add_parser("scan", help="criteria vs oracle over a family range")
    p.add_argument("--family", choices=["pq", "2p", "221"], required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-lemmas", help="2-adic character law checks")
    p.add_argument("--family", choices=["2d"], default="2d")
    p.add_argument("--max", type=int, default=300)
    p.set_defaults(func=cmd_verify_lemmas)

    p = sub.add_parser("table", help="emit a classification table")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", required=True)
    p.add_argument("--family", choices=["pq", "2p", "221"], default="2p")
    p.add_argument("--max", type=int, default=200)
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # witnesses at large D outgrow the int-to-str limit (4,300 digits): lifted after
    # parsing, so an over-long argument is still refused, and restored on return
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for name in ("max", "jobs"):
            value = getattr(args, name, 1)
            if value < 1:
                raise ValueError(f"--{name} must be at least 1, got {value}")
        return args.func(args)
    except ValueError as exc:
        # arguments the parser accepts but the mathematics rejects
        print(f"pellcrit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # a criterion or the oracle broke one of its own invariants
        print(f"pellcrit: inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
