"""Command-line surface.

Subcommands:
  decide D n            joint criteria decision, checked by the oracle or a certificate
  classify-pq p q       the solvable target among -1, p, q for D = pq
  classify-2p p         the solvable target among -1, 2, -2 for D = 2p
  scan                  criteria vs oracle over a whole family range
  verify-lemmas         numerical checks of the 2-adic character laws
  table                 classification table, json or csv

One table, COMMANDS, lists them; a call that names one builds its sub-parser
alone.  scan --jobs N is an upper bound on the workers.

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
_CHUNK = 16  # instances per task of a parallel scan

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
    family = TARGET_FAMILIES[args.command.removeprefix("classify-")]
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
    # the pool starts all its workers at once: no more than the chunks or the usable CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(getattr(args, "jobs", 1), (len(instances) + _CHUNK - 1) // _CHUNK, cpus or 1)
    if jobs > 1:
        # the pool pulls in multiprocessing, so only a parallel scan imports it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(worker, instances, chunksize=_CHUNK)
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


_FAMILY_CHOICES = [*TARGET_FAMILIES, "221"]
# the one list of commands, in help order: name -> (help, its arguments, func)
COMMANDS = {
    "decide": ("decide one equation", [("D", {"type": int}), ("n", {"type": int})], cmd_decide),
    **{f"classify-{name}": (family.help, [(param, {"type": int}) for param in family.params],
                            cmd_classify) for name, family in TARGET_FAMILIES.items()},
    "scan": ("criteria vs oracle over a family range", [
        ("--family", {"choices": _FAMILY_CHOICES, "required": True}),
        ("--max", {"type": int, "required": True}),
        ("--jobs", {"type": int, "default": 1}),
    ], cmd_scan),
    "verify-lemmas": ("2-adic character law checks", [
        ("--family", {"choices": ["2d"], "default": "2d"}),
        ("--max", {"type": int, "default": 300}),
    ], cmd_verify_lemmas),
    "table": ("emit a classification table", [
        ("--format", {"choices": ["json", "csv"], "default": "json"}),
        ("--out", {"required": True}),
        ("--family", {"choices": _FAMILY_CHOICES, "default": "2p"}),
        ("--max", {"type": int, "default": 200}),
    ], cmd_table),
}


# built once per key and process (parsing leaves a tree as it was): None or a command
@functools.lru_cache(maxsize=len(COMMANDS) + 1)
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pellcrit",
        description="Decide solvability of x^2 - D y^2 = n by residue-symbol"
        " criteria, cross-checked against a continued-fraction oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, arguments, func) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
            p.set_defaults(func=func)
    if command is not None:
        # an error at the root (unrecognized arguments) prints the full tree's usage
        parser.error = lambda message: build_parser().error(message)
    return parser


def main(argv=None) -> int:
    # a known command builds its sub-parser alone; help, no command or an unknown one the whole tree
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
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
