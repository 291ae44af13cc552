import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quotbox.cli import cli_main
from quotbox.partitions import count_box_partitions
from quotbox.verify import (
    VerificationReport,
    verify_hilb_counts,
    verify_product_formula,
    verify_rank2_free,
    verify_stanley,
)

ROOT = Path(__file__).resolve().parents[1]


def test_product_claim_passes():
    report = verify_product_formula((1, 1, 1), 3)
    assert report.ok
    assert report.lhs == report.rhs == [1, 3, 9, 25]
    assert report.first_mismatch is None
    assert report.wall_time >= 0
    assert report.params == {"v": [1, 1, 1], "order": 3}


def test_product_claim_order_zero():
    report = verify_product_formula((2, 2, 2), 0)
    assert report.ok and report.lhs == [1]


def test_stanley_claim():
    report = verify_stanley((2, 2, 1))
    assert report.ok
    assert report.lhs == [1, 1, 2, 1, 1]
    mirrored = verify_stanley((1, 2, 2))
    assert mirrored.lhs == report.lhs


def test_hilb_claim():
    report = verify_hilb_counts((2, 2, 2))
    assert report.ok
    assert report.lhs == [1, 1, 3, 3, 4, 3, 3, 1, 1]
    assert report.lhs == report.lhs[::-1]
    tiny = verify_hilb_counts((1, 1, 1))
    assert tiny.ok and tiny.lhs == [1, 1]


def test_rank2free_claim():
    report = verify_rank2_free(5)
    assert report.ok
    assert report.lhs == [1, 2, 7, 18, 47, 110]


def test_report_round_trip():
    report = verify_product_formula((2, 1, 1), 2)
    again = VerificationReport.from_json(report.to_json())
    assert again == report
    # only what to_json writes: floats and bools are not truncated
    for key, bad in [
        ("lhs", [1.9, True]),
        ("lhs", [1, 3, 9.0]),
        ("rhs", [1, 3, True]),
        ("rhs", "139"),
        ("first_mismatch", 1.0),
        ("first_mismatch", True),
        # fields summary() formats: a number, a string, an object
        ("wall_time", None),
        ("wall_time", "x"),
        ("wall_time", True),
        # summary() would print wall_time=nans or a negative time
        ("wall_time", math.nan),
        ("wall_time", math.inf),
        ("wall_time", -math.inf),
        ("wall_time", -5.0),
        ("wall_time", -1),
        ("params", [1]),
        ("params", "v=1"),
        ("claim", 7),
        ("claim", None),
    ]:
        payload = dict(json.loads(report.to_json()), **{key: bad})
        with pytest.raises(ValueError):
            VerificationReport.from_json(json.dumps(payload))
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "claim", "params", "lhs", "rhs", "status", "first_mismatch", "wall_time",
    }
    # a document that is not an object, or lacks a key, is a ValueError
    partial = {k: v for k, v in payload.items() if k != "wall_time"}
    for bad in ("{}", "[1]", "null", json.dumps(partial)):
        with pytest.raises(ValueError):
            VerificationReport.from_json(bad)


def test_failing_report_shape():
    failing = VerificationReport(
        claim="synthetic",
        params={},
        lhs=[1, 2, 3],
        rhs=[1, 2, 4],
        status="fail",
        first_mismatch=2,
        wall_time=0.0,
    )
    assert not failing.ok
    assert "first_mismatch=n2" in failing.summary()
    assert "lhs=3" in failing.summary() and "rhs=4" in failing.summary()


def test_summary_of_unequal_lengths():
    # from_json accepts lists of different lengths; the side that has
    # ended reads - at the mismatch
    for lhs, rhs, expected in [([1, 2], [1], "lhs=2 rhs=-"), ([1], [1, 2], "lhs=- rhs=2")]:
        report = VerificationReport.from_json(json.dumps({
            "claim": "synthetic", "params": {}, "lhs": lhs, "rhs": rhs,
            "status": "fail", "first_mismatch": 1, "wall_time": 0.0,
        }))
        assert f"first_mismatch=n1 {expected} " in report.summary()


def test_cli_series_output(capsys):
    assert cli_main(["series", "macmahon", "--order", "5"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 3 6 13 24"
    assert cli_main(["series", "boxgen", "--v", "2", "2", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 3 3 4 3 3 1 1"
    assert cli_main(["series", "boxgen", "--v", "1", "1", "1", "--order", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1 1 0 0 0"


def test_cli_count_output(capsys):
    assert cli_main(["count", "pp", "6"]) == 0
    assert capsys.readouterr().out.strip() == "48"
    assert cli_main(["count", "box", "--v", "1", "1", "1", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert cli_main(["count", "box", "--v", "2", "2", "2", "--n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert cli_main(["count", "box", "--v", "2", "2", "2", "--n", "8"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_count_box_agrees_with_enumeration(capsys):
    # the command reads one entry of the DP; the walk over every stack in
    # the box is the reference, and sizes past the volume count 0
    for v in [(1, 1, 1), (2, 1, 3), (2, 2, 2), (1, 3, 2)]:
        counts = count_box_partitions(v)
        for n in range(len(counts) + 2):
            args = ["count", "box", "--v", *map(str, v), "--n", str(n)]
            assert cli_main(args) == 0
            expected = counts[n] if n < len(counts) else 0
            assert capsys.readouterr().out.strip() == str(expected)


def test_cli_quot_output(capsys):
    assert cli_main(["quot", "euler", "--v", "1", "1", "1", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert cli_main(["quot", "series", "--v", "2", "1", "1", "--order", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 10"


def test_cli_quot_strata(capsys):
    code = cli_main(["quot", "euler", "--v", "1", "1", "1", "--n", "2", "--strata"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1] == "total 9"
    assert sum(1 for l in lines if l.startswith("stratum ")) == 9
    assert len(lines) == 10
    assert not any("infeasible" in l for l in lines)


def test_cli_quot_euler_routes_agree(capsys):
    # without --strata the series answers, with it the per-stratum listing
    argv = ["quot", "euler", "--v", "2", "1", "1", "--n", "5"]
    assert cli_main(argv) == 0
    pruned = capsys.readouterr().out.strip()
    assert cli_main(argv + ["--strata"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == f"total {pruned}"
    assert pruned == "175"


def test_cli_verify_pass_and_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = cli_main(
        ["verify", "product", "--v", "1", "1", "1", "--order", "3",
         "--json", str(path)]
    )
    assert code == 0
    assert "status=PASS" in capsys.readouterr().out
    report = VerificationReport.from_json(path.read_text())
    assert report.ok and report.claim == "product"

    assert cli_main(["verify", "stanley", "--v", "1", "2", "3"]) == 0
    assert cli_main(["verify", "hilb", "--v", "2", "2", "1"]) == 0
    assert cli_main(["verify", "rank2free", "--order", "4"]) == 0
    capsys.readouterr()


def test_cli_json_to_unwritable_path_is_a_usage_error(tmp_path, capsys):
    # a missing directory or a directory in place of the file: the error
    # on stderr, exit 2, no traceback, and the claim never runs
    argv = ["verify", "product", "--v", "1", "1", "1", "--order", "3", "--json"]
    for path, reason in [(tmp_path / "missing" / "x.json", "No such file"),
                         (tmp_path, "Is a directory")]:
        assert cli_main(argv + [str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid parameters: --json:") and reason in err
    # a name too long for the file system passes the directory checks, and
    # its open fails after the claim ran: still a usage error, no summary
    # printed, and no file
    assert cli_main(argv + [str(tmp_path / ("x" * 300))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invalid parameters: --json:")
    # a claim that raises leaves no file behind
    assert cli_main(argv[:-2] + ["9", "--json", str(tmp_path / "x.json")]) == 1
    assert "guard exceeded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_hilb_guard_bounds_the_search(capsys):
    # the default guard bounds the nodes of the antichain search, at most
    # (cells + 1) * ideals: 19 * 175 for (3,3,2), 37 * 4,116 for (3,3,4)
    assert cli_main(["verify", "hilb", "--v", "3", "3", "2"]) == 0
    assert "status=PASS" in capsys.readouterr().out
    assert cli_main(["verify", "hilb", "--v", "3", "3", "4"]) == 1
    assert "152292 nodes" in capsys.readouterr().err


def test_cli_verify_failure_exit(monkeypatch, capsys):
    import quotbox.cli as climod

    def fake(v):
        return VerificationReport(
            claim="stanley", params={"v": list(v)}, lhs=[1], rhs=[2],
            status="fail", first_mismatch=0, wall_time=0.0,
        )

    monkeypatch.setattr(climod, "verify_stanley", fake)
    assert cli_main(["verify", "stanley", "--v", "1", "1", "1"]) == 1
    assert "status=FAIL" in capsys.readouterr().out


def test_cli_guard_exit(capsys):
    assert cli_main(["count", "pp", "20"]) == 1
    assert "guard exceeded" in capsys.readouterr().err
    assert cli_main(["quot", "euler", "--v", "1", "1", "1", "--n", "9"]) == 1
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert cli_main([]) == 2
    assert cli_main(["bogus"]) == 2
    assert cli_main(["series"]) == 2
    assert cli_main(["series", "macmahon"]) == 2  # missing --order
    assert cli_main(["count", "box", "--v", "1", "1"]) == 2  # short triple
    assert cli_main(["quot", "euler", "--v", "1", "1", "1"]) == 2
    capsys.readouterr()


def test_cli_bad_values_are_usage_errors(capsys):
    assert cli_main(["series", "boxgen", "--v", "0", "1", "1"]) == 2
    assert cli_main(["series", "macmahon", "--order", "-2"]) == 2
    assert cli_main(["count", "pp", "-3"]) == 2
    assert cli_main(["count", "box", "--v", "1", "1", "1", "--n", "-1"]) == 2
    assert cli_main(["count", "box", "--v", "0", "1", "1", "--n", "0"]) == 2
    capsys.readouterr()
    # a guard below 0 is a bad value, not an exceeded guard
    for argv in (["quot", "series", "--v", "1", "1", "1", "--order", "3"],
                 ["count", "pp", "3"], ["verify", "rank2free", "--order", "3"]):
        assert cli_main(argv + ["--guard", "-1"]) == 2, argv
        assert capsys.readouterr().err.startswith("invalid parameters: guard")


def test_python_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "quotbox", "count", "box", "--v", "2", "2", "2", "--n", "4"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "4"


def test_package_surface():
    # every public name resolves; importing the package leaves the CLI
    # and argparse unloaded, so python -m quotbox.cli runs without a
    # RuntimeWarning about a module found in sys.modules
    import quotbox

    assert [name for name in quotbox.__all__ if not hasattr(quotbox, name)] == []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
        )

    probe = "import sys, quotbox; print({'quotbox.cli', 'argparse'} & set(sys.modules))"
    proc = run("-c", probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "set()\n", "")
    proc = run("-m", "quotbox.cli", "count", "pp", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "6\n", "")


def test_cli_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert cli_main(["verify", "--help"]) == 0
    capsys.readouterr()


def test_cli_random_argv_never_raises(capsys):
    rng = random.Random(3)
    pool = [
        "series", "count", "quot", "verify", "macmahon", "boxgen", "pp",
        "box", "euler", "product", "stanley", "--v", "--order", "--n",
        "--strata", "--guard", "--json", "1", "2", "0", "-1", "x", "--bogus",
    ]
    for _ in range(200):
        argv = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        code = cli_main(argv)
        assert code in (0, 1, 2), argv
    capsys.readouterr()


def test_report_reader_checks_derived_fields():
    # status is pass or fail, first_mismatch is where lhs and rhs first
    # differ, and a pass has none; a fail with equal lists stays legal,
    # since hilb can fail its palindrome check
    base = json.loads(verify_product_formula((1, 1, 1), 2).to_json())
    for change in [
        {"lhs": [1], "rhs": [2]},
        {"lhs": [1], "rhs": [2], "first_mismatch": 0},
        {"status": "ok"},
        {"status": "FAIL"},
        {"status": "fail", "first_mismatch": 0},
        {"lhs": [1, 2], "rhs": [1, 3], "status": "fail", "first_mismatch": 0},
        {"lhs": [1, 2], "rhs": [1], "status": "fail", "first_mismatch": None},
    ]:
        with pytest.raises(ValueError):
            VerificationReport.from_json(json.dumps(dict(base, **change)))
    for change in [
        {"status": "fail"},
        {"lhs": [1, 2], "rhs": [1, 3], "status": "fail", "first_mismatch": 1},
        {"lhs": [1, 2], "rhs": [1], "status": "fail", "first_mismatch": 1},
    ]:
        report = VerificationReport.from_json(json.dumps(dict(base, **change)))
        assert not report.ok


def test_stanley_box_walk_guard(monkeypatch, capsys):
    # (5, 5, 5) holds 267,227,532 partitions: the claim raises before the
    # walk starts, and the CLI reports the guard with exit 1
    import quotbox.partitions as partitions

    def no_walk(*args):
        raise AssertionError("walked past the guard")

    for walker in ("_stacks", "_count_stacks"):
        monkeypatch.setattr(partitions, walker, no_walk)
    with pytest.raises(partitions.GuardExceeded):
        verify_stanley((5, 5, 5))
    assert cli_main(["verify", "stanley", "--v", "5", "5", "5"]) == 1
    assert "guard exceeded" in capsys.readouterr().err


def test_readme_commands_exit_zero(tmp_path, capsys):
    # every command of the README's command-line block runs and exits 0
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("quotbox ")]
    commands = [shlex.split(line) for line in lines]
    assert len(commands) >= 10
    for argv in commands:
        argv = argv[1:]
        if "--json" in argv:
            i = argv.index("--json") + 1
            argv[i] = str(tmp_path / argv[i])
        assert cli_main(argv) == 0, argv
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
