import json
import random

from quotbox.cli import cli_main
from quotbox.verify import (
    VerificationReport,
    verify_hilb_counts,
    verify_product_formula,
    verify_rank2_free,
    verify_stanley,
)


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
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "claim", "params", "lhs", "rhs", "status", "first_mismatch", "wall_time",
    }


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
    assert sum(1 for l in lines if l.startswith("stratum ")) == 12
    assert any("infeasible" in l for l in lines)


def test_cli_quot_euler_routes_agree(capsys):
    # without --strata the pruned search answers, with it the full listing
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
    capsys.readouterr()


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
