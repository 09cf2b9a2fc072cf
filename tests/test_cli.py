"""Command-line entry point: exit codes, formats, output files, determinism."""

import json

import pytest

from qheis import audit
from qheis.cli import build_parser, main


def drop_seconds(doc):
    return [{k: v for k, v in r.items() if k != "seconds"} for r in doc["reports"]]


def test_qmatrix_passes(capsys):
    assert main(["qmatrix"]) == 0
    out = capsys.readouterr().out
    assert "2/2 checks passed" in out
    assert "[PASS]" in out


def test_json_envelope(capsys):
    assert main(["qmatrix", "--format", "json", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "qmatrix" and doc["seed"] == 5
    assert all(r["pass"] for r in doc["reports"])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["qmatrix", "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["suite"] == "qmatrix"


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."], ids=["no-dir", "a-dir"])
def test_unwritable_output_is_a_usage_error(where, tmp_path, capsys):
    # a missing parent directory and a directory itself: a one-line error, exit 2
    target = tmp_path / where
    assert main(["qmatrix", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {str(target)!r}")
    assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1


def test_impossible_tolerance_fails(monkeypatch, capsys):
    # a seeded fault, the closed-form spectrum off by 5, fails the command,
    # and no option can lift the tolerance over its residual of 5
    monkeypatch.setattr(audit, "Q_SPECTRUM", audit.Q_SPECTRUM + 5.0)
    assert main(["qmatrix"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] q-spectrum" in out and "1/2 checks passed" in out
    assert main(["qmatrix", "--format", "json"]) == 1
    verdicts = {r["check"]: r for r in json.loads(capsys.readouterr().out)["reports"]}
    assert verdicts["q-spectrum"]["pass"] is False
    assert verdicts["q-spectrum"]["max_residual"] == pytest.approx(5.0)
    assert verdicts["q-quadratic-form"]["pass"] is True
    with pytest.raises(SystemExit) as info:
        main(["qmatrix", "--tol", "1e300"])
    assert info.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2


def test_unknown_format():
    with pytest.raises(SystemExit) as info:
        main(["qmatrix", "--format", "yaml"])
    assert info.value.code == 2


@pytest.mark.parametrize("seed", ["-3", "1.5", "x"])
def test_bad_seed_is_a_usage_error(seed, capsys):
    with pytest.raises(SystemExit) as info:
        main(["qmatrix", "--seed", seed])
    assert info.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


def test_runs_are_deterministic(capsys):
    main(["verify-frames", "--format", "json"])
    first = json.loads(capsys.readouterr().out)
    main(["verify-frames", "--format", "json"])
    second = json.loads(capsys.readouterr().out)
    assert drop_seconds(first) == drop_seconds(second)


@pytest.mark.parametrize("samples", ["-3", "0", "ten"])
def test_samples_must_be_a_positive_integer(samples, capsys):
    with pytest.raises(SystemExit) as info:
        main(["qmatrix", "--samples", samples])
    assert info.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "abc"])
def test_tol_must_be_a_finite_nonnegative_number(tol, capsys):
    # there is no tolerance override: --tol is unknown, whatever its value
    with pytest.raises(SystemExit) as info:
        main(["qmatrix", "--tol", tol])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    ["verify-frames", "verify-conformal", "verify-extremal", "verify-cayley", "qmatrix",
     "all", "best-constant", "quotient-min"],
)
def test_tol_is_a_usage_error_on_every_command(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--tol", "1"])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_empty_cayley_point_set_is_an_error_not_a_usage_error(capsys):
    # seed 414 draws a single point with |q| = 0.36, so the Kelvin check,
    # which keeps only |q| > 0.5, is left without points
    assert main(["verify-cayley", "--samples", "1", "--seed", "414"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "|q| > 0.5" in err


def test_library_value_error_is_an_error_not_a_usage_error(monkeypatch, capsys):
    def broken(name, config):
        raise ValueError("raised inside the library")

    monkeypatch.setattr(audit, "run_suite", broken)
    assert main(["qmatrix"]) == 1
    assert capsys.readouterr().err == "error: raised inside the library\n"


def test_best_constant_csv_is_convergence_table(capsys):
    assert main(["best-constant", "--format", "csv", "--samples", "20000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "level,estimate,error_estimate,cells"
    assert len(lines) >= 3


@pytest.mark.parametrize(
    "argv", [["best-constant", "--samples", "20000"], ["qmatrix"], ["quotient-min"]],
    ids=lambda argv: argv[0],
)
def test_csv_lines_end_in_a_bare_newline(argv, capsys):
    # the convergence table of best-constant and the report tables alike
    assert main(argv + ["--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out and out.endswith("\n")


def test_best_constant_text(capsys):
    assert main(["best-constant", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "computed:" in out and "printed:" in out


def test_best_constant_json_has_one_report_per_ratio_line(monkeypatch, capsys):
    records = []
    reports_of = audit.best_constant_reports

    def kept(config):
        record, reports = reports_of(config)
        records.append(record)
        return record, reports

    monkeypatch.setattr(audit, "best_constant_reports", kept)
    assert main(["best-constant", "--format", "json", "--samples", "20000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["suite"] == "best-constant"
    (record,) = records
    assert [r["check"] for r in doc["reports"]] == [line.name for line in record.ratios]
    informational = [r for r in doc["reports"] if r["provenance"] == "informational"]
    assert [r["check"] for r in informational] == [
        line.name for line in record.ratios if line.informational
    ]
    assert len(informational) == 4 and all(r["tolerance"] == 1e9 for r in informational)


def test_quotient_min_command(capsys):
    assert main(["quotient-min", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = [r["check"] for r in doc["reports"]]
    assert checks == [
        "quotient-min-value", "quotient-min-center", "quotient-min-concentration",
        "quotient-min-defect",
    ]


def test_quotient_min_takes_no_samples(capsys):
    # the search draws no sample that --samples could size
    with pytest.raises(SystemExit) as info:
        main(["quotient-min", "--samples", "5"])
    assert info.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "verify-frames", "verify-conformal", "verify-extremal", "verify-cayley",
        "qmatrix", "all", "best-constant", "quotient-min",
    ):
        assert name in text
