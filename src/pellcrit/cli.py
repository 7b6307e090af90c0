"""Command-line surface.

Subcommands:
  decide D n            joint criteria decision, checked by the oracle or a certificate
  classify-pq p q       the solvable target among -1, p, q for D = pq
  classify-2p p         the solvable target among -1, 2, -2 for D = 2p
  scan                  criteria vs oracle over a whole family range
  verify-lemmas         numerical checks of the 2-adic character laws
  table                 classification table, json or csv

Records are emitted one JSON object per line on stdout (csv for table).
Exit codes: 0 success, 2 usage error, 3 internal inconsistency (criteria
disagreeing with the oracle anywhere is a finding, never swallowed), 141 a
reader that closed its pipe before the output ended.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
import time
from collections import namedtuple
from itertools import combinations

from .intcore import _sieve
from .symbols import quartic_2_of_d
from .quadring import FAMILY_2D, classify_order, find_twist_point
from .localanalysis import character_table
from . import artin, check, criteria, pellsolver

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a writer whose reader left

# x^2 - pq y^2 in {-1, p, q} and x^2 - 2p y^2 in {-1, 2, -2}: the criterion's name in criteria
# (looked up per call, as a wrapper may replace it), params -> (D, the oracle's targets in order)
Family = namedtuple("Family", "params criterion targets help")
TARGET_FAMILIES = {
    "pq": Family(("p", "q"), "classify_pq", lambda p, q: (p * q, (-1, p, q)),
                 "solvable target among -1, p, q"),
    "2p": Family(("p",), "classify_2p", lambda p: (2 * p, (-1, 2, -2)),
                 "solvable target among -1, 2, -2"),
}


def cmd_decide(args) -> int:
    # every verdict has passed the oracle's search or its certificate, except a
    # local obstruction of the joint decision, which is certified here
    t0 = time.perf_counter()
    verdict = artin.joint_artin_decide(args.D, args.n)
    kind, _, l = (verdict.reason or "").partition(":")
    if kind == "local-obstruction" and not check.no_local_point(args.D, args.n, int(l)):
        raise ArithmeticError(f"local obstruction at {l} fails its check at D={args.D}, n={args.n}")
    record = {
        "D": args.D,
        "n": args.n,
        "status": verdict.status,
        "witness": verdict.witness,
        "provenance": verdict.provenance,
        "oracle_status": verdict.status,
        "timings": round(1000 * (time.perf_counter() - t0), 3),
    }
    print(json.dumps(record))
    return EXIT_OK


def cmd_classify(args) -> int:
    family = TARGET_FAMILIES[args.family]
    record = {name: getattr(args, name) for name in family.params}
    target, verdict = getattr(criteria, family.criterion)(*record.values())
    record.update(target=target, provenance=verdict.provenance, witness=verdict.witness)
    print(json.dumps(record))
    return EXIT_OK


# -- scan workers (top level so process pools can pickle them)


def _scan_target_one(name: str, params: tuple[int, ...]) -> dict:
    family = TARGET_FAMILIES[name]
    target, verdict = getattr(criteria, family.criterion)(*params)
    D, targets = family.targets(*params)
    # the first target the oracle solves.  The criterion's own target has been
    # confirmed already; the others take the oracle's complete search alone,
    # as an unsolvable target's local label would only be thrown away
    for oracle_target in targets:
        if oracle_target == target or pellsolver.minimal_solutions(D, oracle_target):
            break
    else:
        oracle_target = None
    record = {"family": name}
    for key, value in zip(family.params, params):
        record[key] = value
    record["criteria_target"] = target
    record["oracle_target"] = oracle_target
    record["witness"] = verdict.witness
    record["agree"] = target == oracle_target
    return record


def _scan_221_one(n: int) -> dict:
    # decide_221's verdicts have all passed confirm, so the oracle's status is the criterion's
    v = criteria.decide_221(n)
    return {
        "family": "221",
        "n": n,
        "criteria_status": v.status,
        "oracle_status": v.status,
        "witness": v.witness,
        "agree": True,
    }


def _scan_instances(family: str, maxval: int):
    if family == "221":
        return _scan_221_one, [m for n in range(1, maxval + 1) for m in (n, -n)]
    worker, ps = functools.partial(_scan_target_one, family), _sieve(maxval)
    if family == "pq":
        pairs = combinations([p for p in ps if p % 4 == 1], 2)
        return worker, [pq for pq in pairs if artin.cor14_applicable(*pq)]
    return worker, [(p,) for p in ps if p != 2]


def _records(args):
    worker, instances = _scan_instances(args.family, args.max)
    jobs = getattr(args, "jobs", 1)
    if jobs > 1:
        # the pool pulls in multiprocessing, so only a parallel scan imports it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(worker, instances, chunksize=16)
    else:
        yield from map(worker, instances)


def cmd_scan(args) -> int:
    # each record is printed as it comes, so a scan that fails keeps the ones before
    rc = EXIT_OK
    for rec in _records(args):
        print(json.dumps(rec))
        if not rec["agree"]:
            rc = EXIT_INCONSISTENT
            print(f"inconsistency: {rec}", file=sys.stderr)
    return rc


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
        checks = {
            "norm_one_trivial": tab.chi_1 == 1,
            "two_matches_mod16": tab.chi_2 == (1 if d % 16 == 1 else -1),
            "neg_two_matches_quartic": tab.chi_neg2 == quartic_2_of_d(d),
            "neg_one_forced": not artin.thm24_applicable(d) or tab.chi_neg1 == -1,
            "multiplicative": tab.chi_neg2 == tab.chi_neg1 * tab.chi_2,
        }
        record = {
            "d": d,
            "D": D,
            "twist": [tw.x0, tw.y0, tw.z0],
            "chi": [tab.chi_1, tab.chi_neg1, tab.chi_2, tab.chi_neg2],
            **checks,
        }
        print(json.dumps(record))
        if not all(checks.values()):
            failures += 1
            print(f"lemma check failed at d={d}: {record}", file=sys.stderr)
    return EXIT_INCONSISTENT if failures else EXIT_OK


def cmd_table(args) -> int:
    # open the output first, so an unwritable path fails before any work, but
    # without truncating: a scan that fails leaves an existing table as it
    # was.  A FIFO with no reader is refused (ENXIO) rather than waited for
    try:
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK, 0o666)
    except OSError as exc:
        print(f"pellcrit: error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    with open(fd, "w", newline="" if args.format == "csv" else None) as fh:
        os.set_blocking(fd, True)
        records = list(_records(args))
        # a regular file is replaced; a device or a pipe takes the table as it comes
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate(0)
        if args.format == "json":
            json.dump(records, fh, indent=1)
        elif records:
            import csv

            writer = csv.DictWriter(fh, fieldnames=list(records[0].keys()))
            writer.writeheader()
            for rec in records:
                w = rec["witness"]
                writer.writerow({**rec, "witness": "%d:%d" % w if w else None})
    return EXIT_OK if all(rec["agree"] for rec in records) else EXIT_INCONSISTENT


# built once per process: main reuses one tree, and parsing leaves it as it was
@functools.lru_cache(maxsize=1)
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

    for name, family in TARGET_FAMILIES.items():
        p = sub.add_parser(f"classify-{name}", help=family.help)
        for param in family.params:
            p.add_argument(param, type=int)
        p.set_defaults(func=cmd_classify, family=name)

    p = sub.add_parser("scan", help="criteria vs oracle over a family range")
    p.add_argument("--family", choices=[*TARGET_FAMILIES, "221"], required=True)
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
    p.add_argument("--family", choices=[*TARGET_FAMILIES, "221"], default="2p")
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
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # a reader left early (`scan ... | head -1`); if stdout's, its unwritten
        # rest goes to devnull, so the interpreter's last flush stays quiet
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
