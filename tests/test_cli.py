import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heckepoly.cli import MAX_DIM, MAX_LIST_M, MAX_PREC, MAX_SUM_M, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_bernoulli(capsys):
    status, out, _ = run_cli(capsys, "bernoulli", "--n", "12")
    assert status == 0
    assert out.strip() == "-691/2730"


def test_period_poly_json(capsys):
    status, out, _ = run_cli(capsys, "period-poly", "--level", "2", "--w", "6", "--n", "2", "--sign", "minus")
    assert status == 0
    payload = json.loads(out)
    assert payload["bound"] == 6
    assert payload["coeffs"] == ["0", "-1/15", "0", "1/3", "0", "-4/15", "0"]


def test_period_poly_parity_error(capsys):
    status, out, err = run_cli(capsys, "period-poly", "--level", "2", "--w", "6", "--n", "2", "--sign", "plus")
    assert status == 1
    assert out == ""
    assert json.loads(err)["error"]["code"] == "UnsupportedParity"


def test_hecke_matrix_golden(capsys):
    status, out, _ = run_cli(capsys, "hecke-matrix", "--level", "2", "--w", "10", "--m", "2")
    assert status == 0
    payload = json.loads(out)
    assert payload["T"] == [["-208", "36"], ["-1120", "184"]]
    assert payload["charpoly"] == ["2048", "24", "1"]
    assert payload["S1"][0][0] == "169538/2025"


def test_hecke_matrix_dimension_zero(capsys):
    status, out, err = run_cli(capsys, "hecke-matrix", "--level", "2", "--w", "4", "--m", "2")
    assert status == 1
    assert json.loads(err)["error"]["code"] == "EmptySpace"


def test_hecke_matrix_basis_deficient(capsys):
    status, _, err = run_cli(capsys, "hecke-matrix", "--level", "5", "--w", "6", "--m", "2")
    assert status == 1
    assert json.loads(err)["error"]["code"] == "BasisDeficient"


def test_charpoly_subcommand(capsys):
    status, out, _ = run_cli(capsys, "charpoly", "--level", "4", "--w", "8", "--m", "3")
    assert status == 0
    assert json.loads(out)["charpoly"] == ["-5548608", "-46800", "84", "1"]


def test_hecke_sum_raw_vs_corrected(capsys):
    args = ["hecke-sum", "--level", "2", "--w", "10", "--n", "2", "--m", "2"]
    status, corrected_out, _ = run_cli(capsys, *args)
    assert status == 0
    status, raw_out, _ = run_cli(capsys, *args, "--raw")
    assert status == 0
    corrected = json.loads(corrected_out)
    raw = json.loads(raw_out)
    assert corrected["corrected"] is True and raw["corrected"] is False
    assert corrected["coeffs"] != raw["coeffs"]


def test_hecke_sum_list_matrices(capsys):
    status, out, _ = run_cli(capsys, "hecke-sum", "--level", "4", "--w", "6", "--n", "2", "--m", "8", "--list-matrices")
    assert status == 0
    assert json.loads(out) == [[-1, -1, 4, -4], [-1, 1, -4, -4], [1, -1, 4, 4], [1, 1, -4, 4]]


def test_hecke_sum_list_matrices_cap(capsys):
    status, out, err = run_cli(
        capsys, "hecke-sum", "--level", "2", "--w", "6", "--n", "2", "--m", str(MAX_LIST_M + 1), "--list-matrices"
    )
    assert status == 1
    assert out == ""
    assert json.loads(err)["error"]["code"] == "PreconditionViolated"
    status, out, _ = run_cli(
        capsys, "hecke-sum", "--level", "5", "--w", "6", "--n", "2", "--m", str(MAX_LIST_M), "--list-matrices"
    )
    assert status == 0
    assert len(json.loads(out)) > 0


def test_hecke_sum_m_cap(capsys):
    status, out, err = run_cli(capsys, "hecke-sum", "--level", "2", "--w", "6", "--n", "2", "--m", str(MAX_SUM_M + 1))
    assert status == 1
    assert out == ""
    assert json.loads(err)["error"]["code"] == "PreconditionViolated"
    with pytest.raises(SystemExit):
        main(["hecke-sum", "--help"])
    assert "m <= %d" % MAX_SUM_M in capsys.readouterr().out


def test_q_series_precision_cap(capsys):
    for argv in (
        ("qexp", "--form", "E:4", "--prec", str(MAX_PREC + 1)),
        ("qexp", "--form", "eta:1^8,2^8", "--prec", "-1"),
        ("oracle-matrix", "--weight", "12", "--m", "2", "--prec", str(MAX_PREC + 1)),
        # the default precision m (k/4 + 2) = 2005 exceeds the cap
        ("oracle-matrix", "--weight", "12", "--m", str(MAX_PREC // 5 + 1)),
    ):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1, argv
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "PreconditionViolated"
        assert str(MAX_PREC) in error["message"]
    status, out, _ = run_cli(capsys, "qexp", "--form", "E:4", "--prec", str(MAX_PREC))
    assert status == 0
    assert len(json.loads(out)["coeffs"]) == MAX_PREC + 1


def test_dimension_cap(capsys):
    # d = 41 in each: level 5 at w = 82, level 2 at w = 166 and weight 168
    for argv in (
        ("hecke-matrix", "--level", "5", "--w", "82", "--m", "2"),
        ("charpoly", "--level", "2", "--w", "166", "--m", "3"),
        ("oracle-matrix", "--weight", "168", "--m", "2"),
    ):
        status, out, err = run_cli(capsys, *argv)
        assert status == 1, argv
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "PreconditionViolated"
        assert "dimension 41 exceeds the cap %d" % MAX_DIM in error["message"]
    for command in ("hecke-matrix", "charpoly", "oracle-matrix"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "<= %d" % MAX_DIM in capsys.readouterr().out


def test_charpoly_beyond_weight_62(capsys):
    status, out, _ = run_cli(capsys, "hecke-matrix", "--level", "3", "--w", "70", "--m", "2")
    assert status == 0
    payload = json.loads(out)
    assert len(payload["T"]) == 23
    coeffs = payload["charpoly"]
    assert len(coeffs) == 24 and coeffs[-1] == "1"
    assert all("/" not in c for c in coeffs)


def test_oracle_matrix_negative_prec(capsys):
    status, out, err = run_cli(capsys, "oracle-matrix", "--weight", "12", "--m", "2", "--prec", "-4")
    assert status == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "PreconditionViolated"
    assert "prec must be positive" in error["message"]


def test_hankel(capsys):
    status, out, _ = run_cli(capsys, "hankel", "--which", "1", "--n", "1")
    assert status == 0
    payload = json.loads(out)
    assert payload["det"] == payload["closed_form"] == "1/12"
    assert payload["equal"] is True


def test_qexp_eta(capsys):
    status, out, _ = run_cli(capsys, "qexp", "--form", "eta:1^8,2^8", "--prec", "5")
    assert status == 0
    payload = json.loads(out)
    assert payload["weight"] == 8
    assert payload["coeffs"] == ["0", "1", "-8", "12", "64", "-210"]


def test_qexp_eisenstein(capsys):
    status, out, _ = run_cli(capsys, "qexp", "--form", "Einf:4", "--prec", "4")
    assert status == 0
    payload = json.loads(out)
    assert payload["coeffs"][0] == "1"
    status, out, _ = run_cli(capsys, "qexp", "--form", "E0:4", "--prec", "4")
    assert json.loads(out)["coeffs"][0] == "0"
    status, _, err = run_cli(capsys, "qexp", "--form", "nonsense:4")
    assert status == 1
    assert json.loads(err)["error"]["code"] == "PreconditionViolated"


def test_oracle_matrix(capsys):
    status, out, _ = run_cli(capsys, "oracle-matrix", "--weight", "12", "--m", "2")
    assert status == 0
    payload = json.loads(out)
    assert payload["charpoly"] == ["2048", "24", "1"]


def test_verify_suite(capsys):
    status, out, _ = run_cli(capsys, "verify", "--suite", "hankel")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "suite hankel: 24/24 checks passed"
    assert all(line.startswith("ok") for line in lines[:-1])


def test_verify_paper_examples(capsys):
    status, out, _ = run_cli(capsys, "verify", "--suite", "paper-examples")
    assert status == 0
    assert out.strip().splitlines()[-1] == "suite paper-examples: 12/12 checks passed"


def test_verify_unknown_suite(capsys):
    status, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert status == 1
    assert json.loads(err)["error"]["code"] == "PreconditionViolated"


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bernoulli", "--n", "3", "--wat"])
    assert info.value.code == 1


def _child_env():
    # the child imports heckepoly from this checkout, as the test process does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def test_json_output_determinism():
    cmd = [sys.executable, "-m", "heckepoly", "hecke-matrix", "--level", "2", "--w", "14", "--m", "3"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=_child_env())
    second = subprocess.run(cmd, capture_output=True, check=True, env=_child_env())
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_console_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "heckepoly", "bernoulli", "--n", "0"], capture_output=True, text=True, env=_child_env()
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "1"
