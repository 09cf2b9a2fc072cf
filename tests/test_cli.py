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


def test_impossible_tolerance_fails(capsys):
    assert main(["qmatrix", "--tol", "1e-30"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 2


def test_unknown_format():
    with pytest.raises(SystemExit) as info:
        main(["qmatrix", "--format", "yaml"])
    assert info.value.code == 2


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


def test_best_constant_text(capsys):
    assert main(["best-constant", "--samples", "20000"]) == 0
    out = capsys.readouterr().out
    assert "computed:" in out and "printed:" in out


def test_quotient_min_command(capsys):
    assert main(["quotient-min", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    checks = [r["check"] for r in doc["reports"]]
    assert checks == ["quotient-min-value", "quotient-min-center", "quotient-min-concentration"]


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "verify-frames", "verify-conformal", "verify-extremal", "verify-cayley",
        "qmatrix", "all", "best-constant", "quotient-min",
    ):
        assert name in text
