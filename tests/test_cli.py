import csv
import json
import os
import subprocess
import sys

import pytest

from pellcrit import artin, check, cli, intcore, pellsolver


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pellcrit.cli", *args],
        capture_output=True,
        text=True,
    )


def test_decide_solvable():
    res = run_cli("decide", "221", "17")
    assert res.returncode == 0
    rec = json.loads(res.stdout.strip())
    assert rec["status"] == "solvable"
    assert rec["witness"] == [119, 8]
    assert rec["status"] == rec["oracle_status"]
    assert rec["timings"] >= 0


def test_decide_global_obstruction():
    res = run_cli("decide", "82", "2")
    assert res.returncode == 0
    rec = json.loads(res.stdout.strip())
    assert rec["status"] == "unsolvable" and rec["witness"] is None


def test_classify_commands():
    res = run_cli("classify-2p", "113")
    rec = json.loads(res.stdout.strip())
    assert rec == {
        "p": 113,
        "target": -1,
        "provenance": "oracle",
        "witness": [15, 1],
    }
    res = run_cli("classify-pq", "17", "13")
    rec = json.loads(res.stdout.strip())
    assert rec["target"] == 17 and rec["witness"] == [119, 8]


def test_usage_error_exit_code():
    res = run_cli("decide", "221")
    assert res.returncode == 2
    res = run_cli("scan", "--family", "weird", "--max", "10")
    assert res.returncode == 2
    # parsed, but rejected by the library: one line on stderr, no traceback
    for args in (
        ("decide", "4", "1"),
        ("decide", "221", "0"),
        ("classify-pq", "4", "5"),
        ("scan", "--family", "2p", "--max", "-5"),
        ("scan", "--family", "2p", "--max", "0"),
        ("scan", "--family", "2p", "--max", "10", "--jobs", "-1"),
        ("scan", "--family", "2p", "--max", "10", "--jobs", "0"),
        ("verify-lemmas", "--max", "0"),
        ("table", "--out", os.devnull, "--max", "-1"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == "" and len(res.stderr.splitlines()) == 1, args
        assert "Traceback" not in res.stderr, args


def _loads_unlimited(line):
    # parsing a witness of more than 4,300 digits meets the int-to-str limit too
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.loads(line)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(line)
    finally:
        sys.set_int_max_str_digits(limit)


def test_witnesses_on_either_side_of_the_int_to_str_limit(capsys):
    # witnesses of 4,207 digits (under the 4,300-digit limit) and 4,365 digits
    # (over it) print in full, and main leaves its caller's limit as it was
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    for args, D, over in (
        (["classify-2p", "60002003"], 120004006, False),
        (["classify-2p", "60009347"], 120018694, True),
        (["decide", "120004006", "-2"], 120004006, False),
        (["decide", "120018694", "-2"], 120018694, True),
    ):
        assert cli.main(args) == cli.EXIT_OK, args
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1, args
        rec = _loads_unlimited(lines[0])
        x, y = rec["witness"]
        assert x * x - D * y * y == rec.get("target", rec.get("n")) == -2, args
        assert (x >= 10**4300) == over, args


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str limit"
)
def test_argument_over_the_int_to_str_limit_exits_2():
    # parsed under the limit, so argparse refuses it before any work; the
    # timeout catches a limit lifted too early, which would start factoring D
    res = subprocess.run(
        [sys.executable, "-m", "pellcrit.cli", "decide", "1" * 4302, "-2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 2
    assert res.stdout == "" and "Traceback" not in res.stderr


def test_verify_lemmas_rejects_other_families():
    res = run_cli("verify-lemmas", "--family", "3d", "--max", "10")
    assert res.returncode == 2
    assert res.stdout == "" and "Traceback" not in res.stderr


def test_decide_scans_for_a_local_obstruction_once(monkeypatch, capsys):
    # a locally obstructed decide runs the local test once and no search:
    # its oracle_status is the verdict's, once the obstruction is certified
    calls = []
    scan = intcore.local_obstruction_anywhere

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    for mod in (intcore, artin, pellsolver):
        monkeypatch.setattr(mod, "local_obstruction_anywhere", counted)
    assert cli.main(["decide", "34", "3"]) == cli.EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == rec["oracle_status"] == "unsolvable"
    assert rec["provenance"] == "artin"
    assert calls == [(34, 3)]


def test_decide_searches_once(monkeypatch, capsys):
    # the joint decision's confirm is the one oracle search; decide prints
    # the checked verdict's status as oracle_status
    calls = []
    search = pellsolver.minimal_solutions
    monkeypatch.setattr(
        pellsolver, "minimal_solutions", lambda D, n: calls.append((D, n)) or search(D, n)
    )
    assert cli.main(["decide", "221", "17"]) == cli.EXIT_OK
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] == rec["oracle_status"] == "solvable" and rec["witness"] == [119, 8]
    assert calls == [(221, 17)]


def test_decide_refuses_a_failed_certificate(monkeypatch, capsys):
    # the joint decision's local obstruction of 3 at D = 34 is certified by
    # check.no_local_point; a certificate that fails is an inconsistency
    assert artin.joint_artin_decide(34, 3).reason == "local-obstruction:17"
    monkeypatch.setattr(check, "no_local_point", lambda D, n, l: False)
    assert cli.main(["decide", "34", "3"]) == cli.EXIT_INCONSISTENT
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    assert "local obstruction at 17" in err


def test_classify_rejects_p_below_2(capsys):
    # each command names its own condition, not is_prime's domain
    for args, message in (
        (["classify-2p", "0"], "p must be an odd prime"),
        (["classify-2p", "-7"], "p must be an odd prime"),
        (["classify-pq", "0", "5"], "p, q must be distinct primes"),
        (["classify-pq", "5", "-13"], "p, q must be distinct primes"),
    ):
        assert cli.main(args) == 2, args
        assert capsys.readouterr().err == f"pellcrit: error: {message}\n", args


def test_scan_inconsistency_exit_code(monkeypatch, capsys):
    # an oracle that finds nothing contradicts every criterion that says solvable
    monkeypatch.setattr(pellsolver, "minimal_solutions", lambda D, n: [])
    assert cli.main(["scan", "--family", "2p", "--max", "20"]) == cli.EXIT_INCONSISTENT
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_scan_221_inconsistency_exit_code(monkeypatch, capsys):
    # each 221 record takes its oracle status from the checked verdict, so an
    # oracle that solves every n stops the scan at the first unsolvable
    # verdict (n = -1, the twist condition), with exit 3 and no traceback
    monkeypatch.setattr(pellsolver, "minimal_solutions", lambda D, n: [(1, 0)])
    assert cli.main(["scan", "--family", "221", "--max", "20"]) == cli.EXIT_INCONSISTENT
    out, err = capsys.readouterr()
    assert [json.loads(line)["n"] for line in out.splitlines()] == [1]
    assert len(err.splitlines()) == 1 and err.startswith("pellcrit: inconsistency: ")
    assert "Traceback" not in err


def test_scan_prints_each_record_before_the_next_is_computed(monkeypatch, capsys):
    # a worker that breaks an invariant on its third instance: the two records
    # before it are on stdout already, and the scan exits 3
    worker, calls = cli._scan_target_one, []

    def failing_worker(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ArithmeticError("third instance")
        return worker(*args)

    monkeypatch.setattr(cli, "_scan_target_one", failing_worker)
    assert cli.main(["scan", "--family", "2p", "--max", "50"]) == cli.EXIT_INCONSISTENT
    out, err = capsys.readouterr()
    assert [json.loads(line)["p"] for line in out.splitlines()] == [3, 5]
    assert err == "pellcrit: inconsistency: third instance\n" and len(calls) == 3


def test_help_from_the_one_parser_matches_a_fresh_process(monkeypatch, capsys):
    # main reuses one argparse tree, and its help is the bytes a new process prints
    monkeypatch.setenv("COLUMNS", "100")
    assert cli.build_parser() is cli.build_parser()
    for argv in (["--help"], ["scan", "--help"]):
        fresh = run_cli(*argv)
        assert fresh.returncode == 0 and fresh.stdout.startswith("usage: pellcrit")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out == fresh.stdout, argv


# help, missing arguments, invalid choices, unknown commands and extra arguments
ARGV_GRID = (
    [], ["--help"], ["-h"], ["-h", "scan"], ["--bogus"],
    ["scan", "--help"], ["decide", "-h"], ["classify-pq", "--help"], ["classify-2p", "-h"],
    ["verify-lemmas", "-h"], ["table", "--help"],
    ["decide", "221"], ["scan", "--family", "2p"], ["table"],
    ["scan", "--family", "weird", "--max", "10"], ["verify-lemmas", "--family", "3d"],
    ["decide", "x", "17"], ["frobnicate"], ["decid", "221", "17"],
    ["scan", "--family", "2p", "--max", "10", "--bogus"], ["classify-2p", "5", "7"],
)


def _exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


def test_one_command_tree_prints_the_full_trees_bytes(monkeypatch, capsys):
    # main parses with the root and one sub-parser when argv names a command; its
    # help, usage and errors are those of the full tree, root-level errors included
    full = cli.build_parser().parse_args
    for argv in ARGV_GRID:
        expected = _exit_and_output(capsys, full, argv)
        assert _exit_and_output(capsys, cli.main, argv) == expected, argv
    # with no argv, main reads sys.argv[1:] as parse_args does
    argv = ["scan", "--family", "2p", "--max", "10", "--bogus"]
    monkeypatch.setattr(sys, "argv", ["pellcrit", *argv])
    assert _exit_and_output(capsys, cli.main, None) == _exit_and_output(capsys, full, argv)
    monkeypatch.setattr(sys, "argv", ["pellcrit", "classify-2p", "5"])
    cli.build_parser.cache_clear()
    assert cli.main(None) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["target"] == -1
    # a command builds its own tree and not the full one
    info = cli.build_parser.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    usage = cli.build_parser("classify-2p").format_usage()
    assert usage == "usage: pellcrit [-h] {classify-2p} ...\n"
    assert cli.build_parser.cache_info().hits == 1


def test_scan_asks_the_oracle_ahead_of_the_target(monkeypatch, capsys):
    # the scan takes the criteria's confirmed target as solvable, but an
    # oracle that also solves -1 must still contradict every target 2 or -2;
    # the scan asks the oracle's search directly, and where -1 is truly
    # solvable the search keeps its own witness, which solve checks
    search = pellsolver.minimal_solutions
    monkeypatch.setattr(
        pellsolver,
        "minimal_solutions",
        lambda D, n: (search(D, n) or [(1, 1)]) if n == -1 else search(D, n),
    )
    assert cli.main(["scan", "--family", "2p", "--max", "13"]) == cli.EXIT_INCONSISTENT
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert {rec["p"]: rec["agree"] for rec in records} == {
        3: False, 5: True, 7: False, 11: False, 13: True
    }
    assert all(rec["oracle_target"] == -1 for rec in records)
    assert len(err.splitlines()) == 3


def test_scan_2p_walks_each_period_once_and_labels_nothing(monkeypatch, capsys):
    # one cold walk of sqrt(2p) per record, and the worker, oracle-target
    # check included, runs the complete search without computing a
    # local-obstruction label
    inside, labels = [], []
    worker = cli._scan_target_one

    def traced_worker(*args):
        inside.append(True)
        try:
            return worker(*args)
        finally:
            inside.pop()

    obstruction = pellsolver.local_obstruction_anywhere
    monkeypatch.setattr(cli, "_scan_target_one", traced_worker)
    monkeypatch.setattr(
        pellsolver,
        "local_obstruction_anywhere",
        lambda *args, **kwargs: labels.append(bool(inside)) or obstruction(*args, **kwargs),
    )
    pellsolver.cf_fundamental.cache_clear()
    pellsolver.plus_unit.cache_clear()
    pellsolver._oracle_plan.cache_clear()
    assert cli.main(["scan", "--family", "2p", "--max", "300"]) == cli.EXIT_OK
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 61 and all(rec["agree"] for rec in records)
    assert pellsolver.cf_fundamental.cache_info().misses == len(records)
    assert not any(labels)


def test_scan_records_round_trip():
    res = run_cli("scan", "--family", "2p", "--max", "60")
    assert res.returncode == 0
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert records and all(rec["agree"] for rec in records)
    ps = [rec["p"] for rec in records]
    assert ps == sorted(ps)


def test_scan_jobs_identical_records():
    # the pool pickles each family's worker, and its records come back in order
    for family, maxval in (("221", "40"), ("2p", "300"), ("pq", "120")):
        serial = run_cli("scan", "--family", family, "--max", maxval)
        parallel = run_cli("scan", "--family", family, "--max", maxval, "--jobs", "3")
        assert serial.returncode == parallel.returncode == 0, family
        assert serial.stdout and parallel.stdout == serial.stdout, family


def test_scan_pool_is_no_larger_than_its_chunks_or_cpus(monkeypatch, capsys):
    # the pool starts every worker at once, so --jobs is an upper bound: a stub
    # pool records its size and maps in this process, and no process starts
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    # (family, --max, --jobs, pool size or None for the serial path); 2p at
    # --max 300 has 61 instances (4 chunks of 16), 221 at --max 200 has 400
    for family, maxval, jobs, size in (
        ("2p", "3", "2", None),
        ("2p", "2", "8", None),
        ("2p", "300", "3", 3),
        ("2p", "300", "1000", 4),
        ("221", "200", "1000", 6),
        ("221", "200", "1", None),
    ):
        argv = ["scan", "--family", family, "--max", maxval]
        assert cli.main(argv) == cli.EXIT_OK
        serial = capsys.readouterr().out
        sizes.clear()
        assert cli.main([*argv, "--jobs", jobs]) == cli.EXIT_OK
        assert capsys.readouterr().out == serial, (family, maxval, jobs)
        assert sizes == ([size] if size else []), (family, maxval, jobs)


def test_scan_into_a_reader_that_closes_early():
    # `scan ... | head -1`: the reader takes one line and goes while most of the
    # output is unwritten; exit 141 as a shell reports SIGPIPE, with no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "pellcrit.cli", "scan", "--family", "221", "--max", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert json.loads(first)["n"] == 1
    assert err == b""


def test_cli_import_skips_the_pool_and_dataclasses():
    # start-up: only a parallel scan imports the pool, only a csv table imports csv,
    # and the records are tuple subclasses; modules the site hooks preload do not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pellcrit.cli\n"
        "heavy = {'dataclasses', 'inspect', 'concurrent.futures', 'multiprocessing', 'csv'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_verify_lemmas():
    res = run_cli("verify-lemmas", "--family", "2d", "--max", "120")
    assert res.returncode == 0
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert {rec["d"] for rec in records} == {17, 41, 73, 89, 97, 113}
    for rec in records:
        assert all(
            rec[k]
            for k in (
                "norm_one_trivial",
                "two_matches_mod16",
                "neg_two_matches_quartic",
                "neg_one_forced",
                "multiplicative",
            )
        )


def test_table_csv(tmp_path):
    out = tmp_path / "table.csv"
    res = run_cli("table", "--format", "csv", "--out", str(out), "--max", "40")
    assert res.returncode == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(row["agree"] == "True" for row in rows)


def test_table_json(tmp_path):
    out = tmp_path / "table.json"
    res = run_cli(
        "table", "--format", "json", "--out", str(out), "--family", "221", "--max", "25"
    )
    assert res.returncode == 0
    with open(out) as fh:
        rows = json.load(fh)
    assert len(rows) == 50 and all(r["agree"] for r in rows)


def test_table_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # the output is opened first: a missing directory is a usage error, with
    # one line on stderr and no scan computed
    scans = []
    instances = cli._scan_instances
    monkeypatch.setattr(cli, "_scan_instances", lambda *args: scans.append(args) or instances(*args))
    for fmt in ("json", "csv"):
        out = tmp_path / "no" / "such" / f"t.{fmt}"
        assert cli.main(["table", "--format", fmt, "--out", str(out), "--max", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pellcrit: error: cannot write {out}: No such file or directory\n"
        assert not out.exists()
    assert scans == []
    res = run_cli("table", "--out", str(tmp_path / "no" / "t.json"), "--max", "5")
    assert res.returncode == 2 and res.stdout == "" and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


def test_table_keeps_an_existing_out_when_the_scan_fails(tmp_path, monkeypatch, capsys):
    # --out is truncated only once the table is computed: a lying oracle makes
    # the scan fail (exit 3), and the earlier table is left as it was
    for fmt in ("json", "csv"):
        out = tmp_path / f"t.{fmt}"
        out.write_text("earlier table\n" * 100)
        with monkeypatch.context() as m:
            m.setattr(pellsolver, "minimal_solutions", lambda D, n: [])
            assert cli.main(["table", "--format", fmt, "--out", str(out), "--max", "5"]) == 3
        assert out.read_text() == "earlier table\n" * 100
        capsys.readouterr()
        # a run that succeeds replaces the longer earlier file entirely
        assert cli.main(["table", "--format", fmt, "--out", str(out), "--max", "5"]) == 0
        with open(out, newline="") as fh:
            rows = json.load(fh) if fmt == "json" else list(csv.DictReader(fh))
        assert len(rows) == 2 and all(str(r["agree"]) == "True" for r in rows)


def test_table_out_to_a_device_or_a_pipe(tmp_path):
    # only a regular file is truncated: /dev/null and a pipe take the table as
    # it comes, with the same bytes a file gets
    res = run_cli("table", "--out", os.devnull, "--max", "40")
    assert (res.returncode, res.stdout, res.stderr) == (0, "", "")
    for fmt in ("json", "csv"):
        out = tmp_path / f"t.{fmt}"
        args = ["table", "--format", fmt, "--max", "40", "--out"]
        assert run_cli(*args, str(out)).returncode == 0
        res = subprocess.run(
            [sys.executable, "-m", "pellcrit.cli", *args, "/dev/stdout"], capture_output=True
        )
        assert (res.returncode, res.stderr) == (0, b"")
        assert res.stdout == out.read_bytes() and res.stdout


def test_table_out_to_a_fifo_never_waits(tmp_path, capsys):
    # a FIFO with no reader is a usage error at once; with a reader it gets the table
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    res = subprocess.run(
        [sys.executable, "-m", "pellcrit.cli", "table", "--out", str(fifo), "--max", "5"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == f"pellcrit: error: cannot write {fifo}: No such device or address\n"
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert cli.main(["table", "--out", str(fifo), "--max", "5"]) == cli.EXIT_OK
        rows = json.loads(os.read(reader, 1 << 16))
    finally:
        os.close(reader)
    assert [row["p"] for row in rows] == [3, 5]
    assert capsys.readouterr() == ("", "")
