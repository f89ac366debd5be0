import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from heckepoly.cli import LIMITS, main
from heckepoly.exactlinalg import charpoly
from heckepoly.qoracle import hecke_matrix_oracle
from heckepoly.serialize import coeffs_json
from heckepoly.verify import SUITES, Check

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _over_cap(name, value):
    return "%s = %s exceeds the cap %d" % (name, value, LIMITS[name])


def _help_shows_cap(capsys, command, name):
    """Whether ``command --help`` prints the cap "name <= cap" (argparse wraps lines at spaces and hyphens)."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return ("%s<=%d" % (name, LIMITS[name])).replace(" ", "") in "".join(capsys.readouterr().out.split())


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


def test_hecke_matrix_stdout_matches_every_bench_reference_hash(capsys):
    # bench/references.json maps "level,w,m" to the SHA-256 of the hecke-matrix stdout; the CLI JSON
    # is meant to stay byte-identical, so every recorded request must reproduce its hash
    references = json.loads((SRC.parent / "bench" / "references.json").read_text())
    assert references
    mismatched = []
    for key, digest in references.items():
        level, w, m = key.split(",")
        status, out, err = run_cli(capsys, "hecke-matrix", "--level", level, "--w", w, "--m", m)
        assert status == 0, (key, err)
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            mismatched.append(key)
    assert not mismatched, "stdout differs from the recorded hash for %s" % mismatched


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


def test_hecke_sum_has_no_corrected_switch(capsys):
    # the corrected sum is what omitting --raw selects, so there is no switch that names it
    with pytest.raises(SystemExit) as info:
        main(["hecke-sum", "--level", "2", "--w", "10", "--n", "2", "--m", "2", "--corrected"])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {
        "error": {"code": "PreconditionViolated", "message": "heckepoly: unrecognized arguments: --corrected"}
    }


def test_hecke_sum_list_matrices(capsys):
    status, out, _ = run_cli(capsys, "hecke-sum", "--level", "4", "--w", "6", "--n", "2", "--m", "8", "--list-matrices")
    assert status == 0
    assert json.loads(out) == [[-1, -1, 4, -4], [-1, 1, -4, -4], [1, -1, 4, 4], [1, 1, -4, 4]]


def test_hecke_sum_list_matrices_cap(capsys):
    cap = LIMITS["--list-matrices m"]
    status, out, err = run_cli(
        capsys, "hecke-sum", "--level", "2", "--w", "6", "--n", "2", "--m", str(cap + 1), "--list-matrices"
    )
    assert status == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "PreconditionViolated"
    assert error["message"] == _over_cap("--list-matrices m", cap + 1)
    assert _help_shows_cap(capsys, "hecke-sum", "--list-matrices m")
    status, out, _ = run_cli(capsys, "hecke-sum", "--level", "5", "--w", "6", "--n", "2", "--m", str(cap), "--list-matrices")
    assert status == 0
    assert len(json.loads(out)) > 0


_LIST_REFUSALS = {
    # each printed H_neg while the list mode skipped the sum mode's w + 1 and (level, w, n) checks
    "odd w": (("--w", "3", "--n", "99"), "w must be an even integer >= 2, got 3"),
    "n > w": (("--w", "6", "--n", "7"), "n must satisfy 0 <= n <= w"),
    "w + 1 over the cap": (("--w", "1100", "--n", "2"), "Bernoulli index = 1101 exceeds the cap 1100"),
    # in the sum mode's order: level, then w + 1, then the mode's own m cap, then (level, w, n)
    "level first": (("--level", "1", "--w", "1100", "--m", "1001"), "level must be at least 2, got 1"),
    "w + 1 before m": (("--w", "1100", "--m", "1001"), "Bernoulli index = 1101 exceeds the cap 1100"),
    "m before (w, n)": (("--w", "0", "--m", "1001"), "--list-matrices m = 1001 exceeds the cap 1000"),
}


@pytest.mark.parametrize("args, message", _LIST_REFUSALS.values(), ids=_LIST_REFUSALS)
def test_hecke_sum_list_matrices_checks_the_sum_modes_flags(capsys, args, message):
    defaults = {"--level": "2", "--w": "6", "--n": "2", "--m": "4"}
    defaults.update(zip(args[::2], args[1::2]))
    argv = ["hecke-sum", *(x for flag_value in defaults.items() for x in flag_value)]
    _assert_precondition(capsys, argv + ["--list-matrices"], message)


def test_hecke_sum_m_cap(capsys):
    # the product cap bounds m alone: w >= 2 gives w + 1 >= 3, so m stops at cap // 3 = 10,000
    cap = LIMITS["m (w + 1)"]
    for m in (cap // 3 + 1, 10**5 + 1, 10**9):
        argv = ("hecke-sum", "--level", "2", "--w", "2", "--n", "1", "--m", str(m))
        _assert_precondition(capsys, argv, _over_cap("m (w + 1)", "%d * 3" % m))
    assert _help_shows_cap(capsys, "hecke-sum", "m (w + 1)")


def test_q_series_precision_cap(capsys):
    cap = LIMITS["prec"]
    # the default precision P (k/4 + 2) of weight 12 is 5 P, P the largest prime of m: the prime 401, one past
    # cap / 5, takes it over the cap
    assert cap // 5 + 1 == 401
    default_over = 5 * 401
    for argv, message in (
        (("qexp", "--form", "E:4", "--prec", str(cap + 1)), _over_cap("prec", cap + 1)),
        (("qexp", "--form", "eta:1^8,2^8", "--prec", "-1"), "prec must be nonnegative, got -1"),
        (("oracle-matrix", "--weight", "12", "--m", "2", "--prec", str(cap + 1)), _over_cap("prec", cap + 1)),
        (("oracle-matrix", "--weight", "12", "--m", str(cap // 5 + 1)), _over_cap("prec", default_over)),
    ):
        _assert_precondition(capsys, argv, message)
    for command in ("qexp", "oracle-matrix"):
        assert _help_shows_cap(capsys, command, "prec")
    status, out, _ = run_cli(capsys, "qexp", "--form", "E:4", "--prec", str(cap))
    assert status == 0
    assert len(json.loads(out)["coeffs"]) == cap + 1


def test_dimension_cap(capsys):
    # d = 41, one over the cap of 40, in each: level 5 at w = 82, level 2 at w = 166 and weight 168
    assert LIMITS["cusp space dimension"] == 40
    for argv in (
        ("hecke-matrix", "--level", "5", "--w", "82", "--m", "2"),
        ("charpoly", "--level", "2", "--w", "166", "--m", "3"),
        ("oracle-matrix", "--weight", "168", "--m", "2"),
    ):
        _assert_precondition(capsys, argv, _over_cap("cusp space dimension", 41))
    for command in ("hecke-matrix", "charpoly", "oracle-matrix"):
        assert _help_shows_cap(capsys, command, "cusp space dimension")


def test_hecke_index_cap(capsys):
    cap = LIMITS["index m"]
    for command in ("hecke-matrix", "charpoly"):
        _assert_precondition(
            capsys, (command, "--level", "2", "--w", "10", "--m", str(cap + 1)), _over_cap("index m", cap + 1)
        )
        assert _help_shows_cap(capsys, command, "index m")
    status, out, _ = run_cli(capsys, "charpoly", "--level", "2", "--w", "10", "--m", str(cap))
    assert status == 0
    assert json.loads(out)["m"] == cap


def test_bernoulli_index_cap(capsys):
    # the cap is even, so w = cap is a valid weight whose B_(w+1) is one past the cap
    cap = LIMITS["Bernoulli index"]
    assert cap % 2 == 0
    for argv in (
        ("bernoulli", "--n", str(cap + 1)),
        ("period-poly", "--level", "2", "--w", str(cap), "--n", "2", "--sign", "minus"),
        ("hecke-sum", "--level", "2", "--w", str(cap), "--n", "2", "--m", "2"),
    ):
        _assert_precondition(capsys, argv, _over_cap("Bernoulli index", cap + 1))
        assert _help_shows_cap(capsys, argv[0], "Bernoulli index")


def test_eisenstein_weight_cap(capsys):
    # E_k needs B_k: an even weight past the Bernoulli index cap is refused before the recurrence runs
    k = LIMITS["Bernoulli index"] + 2
    for kind in ("E", "Einf", "E0"):
        _assert_precondition(capsys, ("qexp", "--form", "%s:%d" % (kind, k), "--prec", "5"), _over_cap("Bernoulli index", k))
    assert _help_shows_cap(capsys, "qexp", "Bernoulli index")


def test_eisenstein_weight_error_names_the_weight(capsys):
    for form, floor in (("E:3", 2), ("Einf:3", 4), ("E0:3", 4)):
        _assert_precondition(capsys, ("qexp", "--form", form, "--prec", "5"), "k must be an even integer >= %d, got 3" % floor)


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


def test_oracle_matrix_nonpositive_m(capsys):
    for m in ("0", "-1"):
        for prec in ((), ("--prec", "20")):
            _assert_precondition(capsys, ("oracle-matrix", "--weight", "12", "--m", m, *prec), "m must be positive")


def test_oracle_matrix_weight_must_be_even_and_at_least_4(capsys):
    for weight in (7, 2, -4):
        argv = ("oracle-matrix", "--weight", str(weight), "--m", "2")
        _assert_precondition(capsys, argv, "weight must be an even integer >= 4, got %d" % weight)
    for weight in (4, 6):
        status, out, err = run_cli(capsys, "oracle-matrix", "--weight", str(weight), "--m", "2")
        assert (status, out, json.loads(err)["error"]["code"]) == (1, "", "EmptySpace")


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
    captured = capsys.readouterr()
    assert captured.out == ""
    # a usage error is the same structured JSON error on stderr as any refused input
    assert json.loads(captured.err) == {
        "error": {"code": "PreconditionViolated", "message": "heckepoly: unrecognized arguments: --wat"}
    }


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


# SHA-256 of each --help at 80 columns, recorded before the period and T_m families shared one parent parser
# each; top-level and period-poly carry two renderings, Python 3.10-3.12's usage wrapping and 3.13's
_HELP_HASHES = {
    "": (
        "83cfdd34e4979eeb9847e4a8df60dea4687203c214d12553994c7a4720a4b111",
        "28e2231ec87b7e4248c17792ed38c8b549e769c48eeec5172f55b564addb65b0",
    ),
    "bernoulli": ("9252b4b60d09f913a1b276b48b3cb612fe653de37b11a09dcc8ddf24709ad398",),
    "period-poly": (
        "1aea155f51bf1d56b4fa56c4d2895e3cfa6e01bfc2f0b7240a379d6f7174e03d",
        "eeb5c53b2a002f0654ed026968e5c7a8f50acb1e5e6544b61f17ab173947dbea",
    ),
    "hecke-sum": ("9619c33824d0bf618215f7bbe717cf97f564adb874f89711150be1805c6d4f2d",),
    "hecke-matrix": ("800c344a53ee89996b28ddbf2858b1e991d8c2a195f356eb81942b9a56acdcf8",),
    "charpoly": ("9b8ae70214983191f3fa6579948c2d2c01ad79c0eae599fc0ac73cf422246eb2",),
    "hankel": ("da19d65b4d9d3c2bfd4cc2639e3a927b62828804f2a7d0d0c902da2e3a818a64",),
    "qexp": ("82f2f904bc1b42388624f02531cf3d1b9454da5d41ce146f16198462ce979c26",),
    "oracle-matrix": ("dde55284f620e151cf22cd29c0ef04575558832234c3224a201b1cf1e2c2dc92",),
    "verify": ("5ff6a510a52a1f111357fabd5aeacdf0912f8322691dff2605b9f591a397e59c",),
}


@pytest.mark.parametrize("command", list(_HELP_HASHES), ids=[c or "top-level" for c in _HELP_HASHES])
def test_help_text_hashes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    with pytest.raises(SystemExit) as info:
        main([command, "--help"] if command else ["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() in _HELP_HASHES[command]


CLOSED_PIPE_ARGV = {
    "verify-symmetry": ["verify", "--suite", "symmetry"],
    "list-matrices": ["hecke-sum", "--level", "2", "--w", "4", "--n", "2", "--m", "1000", "--list-matrices"],
}


@pytest.mark.skipif(sys.platform != "linux", reason="the pipe is sized with Linux's F_SETPIPE_SZ")
@pytest.mark.parametrize("unbuffered", (True, False), ids=("unbuffered", "buffered"))
@pytest.mark.parametrize("argv", CLOSED_PIPE_ARGV.values(), ids=CLOSED_PIPE_ARGV)
def test_closed_stdout_is_one_structured_error(argv, unbuffered):
    # the reader takes 10 bytes and closes the pipe; a one-page pipe holds less than either output,
    # so the command is still writing then, whether each print is written through or at the last flush
    import fcntl

    read_end, write_end = os.pipe()
    fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen(
        [sys.executable, "-m", "heckepoly", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env
    ) as proc:
        os.close(write_end)
        head = os.read(read_end, 10)
        os.close(read_end)
        _, err = proc.communicate(timeout=60)
    assert len(head) == 10
    assert proc.returncode == 1
    # one JSON line and nothing else: no traceback, no "Exception ignored" from the flush at exit
    assert json.loads(err) == {
        "error": {"code": "OutputClosed", "message": "stdout was closed before all output was written"}
    }


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int/str digit limit")
def test_results_past_the_int_str_digit_limit(capsys):
    # the charpoly has coefficients of more than 640 digits: at the lowered limit they are still printed,
    # the caller's limit reads the same afterwards, and user input is still parsed under Python's default
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        status, out, err = run_cli(capsys, "charpoly", "--level", "2", "--w", "80", "--m", "7")
        limit_after = sys.get_int_max_str_digits()
        form_status, form_out, form_err = run_cli(capsys, "qexp", "--form", "eta:1^" + "1" * 5000, "--prec", "5")
    finally:
        sys.set_int_max_str_digits(old)
    assert (status, err, limit_after) == (0, "", 640)
    coeffs = json.loads(out)["charpoly"]
    assert coeffs[-1] == "1"
    assert all(c.lstrip("-").isdigit() for c in coeffs)
    assert max(len(c) for c in coeffs) > 640
    assert (form_status, form_out) == (1, "")
    error = json.loads(form_err)["error"]
    assert error["code"] == "PreconditionViolated"
    assert "Exceeds the limit" in error["message"]


def _assert_precondition(capsys, argv, message):
    status, out, err = run_cli(capsys, *argv)
    assert (status, out) == (1, ""), argv
    error = json.loads(err)["error"]
    assert error["code"] == "PreconditionViolated"
    assert error["message"] == message


def test_qexp_form_shape_messages(capsys):
    # the two refusals of a malformed --form, in process, where the fuzz test's subprocesses check no text
    _assert_precondition(capsys, ("qexp", "--form", "eta:1"), "eta part '1' must look like delta^exponent")
    shape = "form must look like 'eta:1^8,2^8', 'E:k', 'Einf:k' or 'E0:k'"
    for form in ("eta", "eta:", "E:"):
        _assert_precondition(capsys, ("qexp", "--form", form), shape)


def test_eta_exponent_cap(capsys):
    # sum |r| = 302, over the cap of 300; eta:1^-299,299^1 sits at the cap (~10 s at prec 2000)
    assert LIMITS["eta sum |r|"] == 300
    _assert_precondition(capsys, ("qexp", "--form", "eta:1^-301,301^1", "--prec", "5"), _over_cap("eta sum |r|", 302))
    status, out, _ = run_cli(capsys, "qexp", "--form", "eta:1^-299,299^1", "--prec", "5")
    assert status == 0
    assert json.loads(out)["coeffs"][:2] == ["1", "299"]  # prod (1 - q^n)^-299 below q^299
    assert _help_shows_cap(capsys, "qexp", "eta sum |r|")


def test_oracle_work_cap(capsys):
    # d prec^2 = 40 * 296^2 and 2 * 1323^2 are just over the cap; 2 * 1322^2 is just under it
    assert 2 * 1322**2 <= LIMITS["d prec^2"] < min(40 * 296**2, 2 * 1323**2)
    _assert_precondition(
        capsys, ("oracle-matrix", "--weight", "164", "--m", "2", "--prec", "296"), _over_cap("d prec^2", "40 * 296^2")
    )
    _assert_precondition(
        capsys, ("oracle-matrix", "--weight", "12", "--m", "2", "--prec", "1323"), _over_cap("d prec^2", "2 * 1323^2")
    )
    status, out, _ = run_cli(capsys, "oracle-matrix", "--weight", "12", "--m", "2", "--prec", "1322")
    assert status == 0
    assert json.loads(out)["prec"] == 1322
    assert _help_shows_cap(capsys, "oracle-matrix", "d prec^2")


def test_oracle_index_cap_and_largest_prime_precision(capsys):
    # an explicit prec needs only P d rows, P the largest prime of m: weight 12 (d = 2), m = 12 takes prec 6
    status, out, _ = run_cli(capsys, "oracle-matrix", "--weight", "12", "--m", "12", "--prec", "6")
    assert status == 0
    served = json.loads(out)["charpoly"]
    status, out, _ = run_cli(capsys, "oracle-matrix", "--weight", "12", "--m", "12")
    assert (status, json.loads(out)["charpoly"]) == (0, served)
    status, out, err = run_cli(capsys, "oracle-matrix", "--weight", "12", "--m", "12", "--prec", "5")
    assert (status, out, json.loads(err)["error"]["code"]) == (1, "", "PrecisionTooLow")
    # m at the cap is served; one past it is refused before any work
    cap = LIMITS["oracle-matrix m"]
    status, out, _ = run_cli(capsys, "oracle-matrix", "--weight", "12", "--m", str(cap), "--prec", "40")
    assert status == 0
    argv = ("oracle-matrix", "--weight", "12", "--m", str(10**40), "--prec", "40")
    _assert_precondition(capsys, argv, _over_cap("oracle-matrix m", 10**40))
    assert _help_shows_cap(capsys, "oracle-matrix", "oracle-matrix m")


def test_oracle_matrix_default_precision_reads_the_largest_prime(capsys):
    # P (k/4 + 2), not m (k/4 + 2): weight 40, m = 256 takes 2 * 12 (under k/2 + 10 = 30), not 3072 over the cap
    for weight, m, prec in ((40, 256, 30), (12, 12, 16)):
        status, out, _ = run_cli(capsys, "oracle-matrix", "--weight", str(weight), "--m", str(m))
        assert status == 0
        payload = json.loads(out)
        assert payload["prec"] == prec
        assert payload["charpoly"] == coeffs_json(charpoly(hecke_matrix_oracle(weight, m))), (weight, m)


def test_hecke_sum_work_cap(capsys):
    # m (w + 1) = 28 * 1099 is refused before B_1099 is computed; 6000 * 5 sits at the cap
    assert LIMITS["m (w + 1)"] == 6000 * 5
    _assert_precondition(
        capsys, ("hecke-sum", "--level", "2", "--w", "1098", "--n", "2", "--m", "28"), _over_cap("m (w + 1)", "28 * 1099")
    )
    status, out, _ = run_cli(capsys, "hecke-sum", "--level", "2", "--w", "4", "--n", "2", "--m", "6000")
    assert status == 0
    assert json.loads(out)["m"] == 6000
    assert _help_shows_cap(capsys, "hecke-sum", "m (w + 1)")


def test_hankel_size_cap(capsys):
    # refused before the determinant is formed; n = 1 sits far under the cap
    cap = LIMITS["hankel n"]
    for which in ("1", "2", "3"):
        _assert_precondition(capsys, ("hankel", "--which", which, "--n", str(cap + 1)), _over_cap("hankel n", cap + 1))
    assert _help_shows_cap(capsys, "hankel", "hankel n")


def test_verify_weight_ceilings(capsys):
    # every suite with a ceiling refuses one more; the ceilings are the LIMITS entries the help prints
    bounded = {suite: ceiling for suite, (_, ceiling) in SUITES.items() if ceiling is not None}
    assert set(bounded) == {"bases", "theorem14", "oracle", "assembly", "hecke-relations"}
    for suite, cap in bounded.items():
        name = "%s --max-weight" % suite
        assert LIMITS[name] == cap
        _assert_precondition(capsys, ("verify", "--suite", suite, "--max-weight", str(cap + 1)), _over_cap(name, cap + 1))
        assert _help_shows_cap(capsys, "verify", name)
    # a ceiling bounds the suite's own weight only: an unbounded suite ignores the flag, as before
    status, out, _ = run_cli(capsys, "verify", "--suite", "hankel", "--max-weight", "1000")
    assert status == 0
    assert out.strip().splitlines()[-1] == "suite hankel: 24/24 checks passed"
    status, out, _ = run_cli(capsys, "verify", "--suite", "theorem14", "--max-weight", "12")
    assert status == 0
    assert out.strip().splitlines()[-1] == "suite theorem14: 3/3 checks passed"


def test_verify_reports_each_failure_and_exits_1(capsys, monkeypatch):
    # a suite of one passing check, one AssertionError and one other exception: each failure is named with its
    # detail, the summary counts it, and the exit status is 1
    def fails():
        raise AssertionError("T != T'")

    checks = [Check("passes", lambda: None), Check("asserts", fails), Check("raises", lambda: 1 // 0)]
    monkeypatch.setitem(SUITES, "mixed", (lambda: checks, None))
    status, out, err = run_cli(capsys, "verify", "--suite", "mixed")
    assert (status, err) == (1, "")
    assert out.splitlines() == [
        "ok   passes",
        "FAIL asserts: T != T'",
        "FAIL raises: ZeroDivisionError: integer division or modulo by zero",
        "suite mixed: 1/3 checks passed",
    ]


def test_ci_runs_every_suite_at_its_ceiling():
    # each suite has a CI step, and a bounded suite runs at exactly its ceiling, so raising one cannot leave CI
    # checking less
    workflow = (SRC.parent / ".github" / "workflows" / "tier1.yml").read_text()
    steps = re.findall(r"python -m heckepoly verify --suite (\S+)(?: --max-weight (\d+))?\n", workflow)
    assert sorted(suite for suite, _ in steps) == sorted(SUITES)
    assert {suite: int(bound) if bound else None for suite, bound in steps} == {
        name: ceiling for name, (_, ceiling) in SUITES.items()
    }


def test_verify_suite_with_no_checks_is_an_error(capsys):
    # a bound below a suite's first weight builds no checks; "0/0 checks passed" would read as a pass
    # hecke-relations starts at w = 6 at every level, for its pair and its square checks alike
    for suite, bound in (("bases", 4), ("oracle", 6), ("hecke-relations", 4)):
        _assert_precondition(
            capsys,
            ("verify", "--suite", suite, "--max-weight", str(bound)),
            "verify --suite %s --max-weight %d runs no checks" % (suite, bound),
        )


def test_only_hecke_matrix_json_forms_s1_and_s2(capsys, monkeypatch):
    from heckepoly import heckeop

    gram, calls = heckeop.gram, []

    def failing_gram(base, t):
        pytest.fail("S1/S2 formed on a T-only path")

    monkeypatch.setattr(heckeop, "gram", failing_gram)
    assert heckeop.hecke_matrix(2, 10, 2) == heckeop.ExactMatrix([[-208, 36], [-1120, 184]])
    assert heckeop.hecke_charpoly(2, 10, 2) == [2048, 24, 1]
    args = ("--level", "2", "--w", "10", "--m", "2")
    assert run_cli(capsys, "charpoly", *args)[0] == 0
    assert run_cli(capsys, "hecke-matrix", *args, "--format", "text")[0] == 0
    assert run_cli(capsys, "hecke-matrix", *args, "--format", "latex")[0] == 0

    def counting_gram(base, t):
        calls.append(len(base))
        return gram(base, t)

    monkeypatch.setattr(heckeop, "gram", counting_gram)
    status, out, _ = run_cli(capsys, "hecke-matrix", *args)
    assert status == 0 and calls == [2]
    assert json.loads(out)["S1"] and json.loads(out)["S2"]


def test_parser_built_once_per_process(capsys, monkeypatch):
    import heckepoly.cli as cli

    assert run_cli(capsys, "bernoulli", "--n", "4")[:2] == (0, "-1/30\n")
    built = cli._parser
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run_cli(capsys, "bernoulli", "--n", "6")[:2] == (0, "1/42\n")
    assert cli._parser is built
    monkeypatch.undo()
    # a fresh parser renders the same help as the reused one
    assert cli.build_parser().format_help() == built.format_help()


# SHA-256 of the concatenated stdout over each grid, recorded before S2 became S1 T and the text and
# LaTeX renderers became one: every printed polynomial and matrix must stay byte-identical
_PERIOD_GRID = [
    ("--level", str(level), "--w", str(w), "--n", str(n), "--sign", "plus" if n % 2 else "minus")
    for level in (2, 3, 4)
    for w in (6, 10)
    for n in range(1, w)
]
_HECKE_GRID = [("--level", str(level), "--w", str(w), "--m", str(m)) for level in (2, 3, 4, 5) for w in (12, 16) for m in (2, 3)]
_FORMAT_HASHES = {
    ("period-poly", "text"): "16e4a6f865a566fec6b5c66c3be81ffc26eb4fc5d5abeac9a9db3401ccbe24cf",
    ("period-poly", "latex"): "ff94790b1a429eeed237a5daa5d5481de98ff57d944798f1a8dc9364c477f689",
    ("hecke-matrix", "text"): "3d4e1f8a144e8e33c2e5e645b25160b22b1f26c786c4120135517aa7ee521ff8",
    ("hecke-matrix", "latex"): "cac4565c3433489e656a22fb79e175698daca87ca4d85b063779f1948bef2ba8",
}


@pytest.mark.parametrize("command, fmt", sorted(_FORMAT_HASHES))
def test_text_and_latex_stdout_hashes(capsys, command, fmt):
    digest = hashlib.sha256()
    for args in _PERIOD_GRID if command == "period-poly" else _HECKE_GRID:
        status, out, _ = run_cli(capsys, command, *args, "--format", fmt)
        assert status == 0, args
        digest.update(out.encode())
    assert digest.hexdigest() == _FORMAT_HASHES[command, fmt]


# bernoulli, hankel and qexp print str of each Fraction; SHA-256 of their concatenated stdout over this grid,
# recorded while they printed through a hand-written p/q formatter, so every printed rational stays byte-identical
_PRINT_GRID = (
    [("bernoulli", "--n", str(n)) for n in range(61)]
    + [("hankel", "--which", str(which), "--n", str(n)) for which in (1, 2, 3) for n in range(1, 9)]
    + [
        ("qexp", "--form", form, "--prec", str(prec))
        for form in ("eta:1^8,2^8", "eta:1^-24,2^48", "E:12", "Einf:8", "E0:10")
        for prec in (7, 25)
    ]
)
_PRINT_HASH = "ee83e1381c58fefb5ca556a9bc80d3d222a7474ea70e62519afe3a1ac9a0a2ad"


def test_rational_print_paths_stdout_hash(capsys):
    digest = hashlib.sha256()
    for argv in _PRINT_GRID:
        status, out, _ = run_cli(capsys, *argv)
        assert status == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == _PRINT_HASH


def test_readme_cli_examples_run(capsys):
    # every "heckepoly ..." line of the README's sh blocks, so the documented examples cannot drift
    readme = (SRC.parent / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines() if line.startswith("heckepoly ")]
    assert len(commands) >= 11
    for argv in commands:
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, ""), argv
        assert out


_W_ARGS = {
    "period-poly": ("--level", "2", "--n", "1", "--sign", "minus"),
    "hecke-sum": ("--level", "2", "--n", "1", "--m", "2"),
    "hecke-matrix": ("--level", "2", "--m", "2"),
    "charpoly": ("--level", "2", "--m", "2"),
}


@pytest.mark.parametrize("w", [-4, 0, 7])
@pytest.mark.parametrize("command", list(_W_ARGS))
def test_w_precondition_is_one_message(capsys, command, w):
    # PeriodContext and dim_cusp check w with one helper, so every command states it the same way
    status, out, err = run_cli(capsys, command, *_W_ARGS[command], "--w", str(w))
    assert (status, out) == (1, "")
    error = json.loads(err)["error"]
    assert error == {"code": "PreconditionViolated", "message": "w must be an even integer >= 2, got %d" % w}


# SHA-256 of status, stdout and stderr over each grid, recorded before the period basis and the diagonal part
# of its images were built from one pair of Bernoulli rows per index: hecke-sum at every interior n (odd n
# included: --raw answers them, the corrected sum refuses them) and period-poly at level 5 must stay
# byte-identical, errors included; "default" passes no flag, which selects the corrected sum
_SUM_GRID = [
    ("--level", str(level), "--w", str(w), "--n", str(n), "--m", str(m))
    for level in (2, 3, 4, 5)
    for w in (6, 10, 16)
    for n in range(1, w)
    for m in (1, 2, 4, 6, 12, 25)
]
_LEVEL5_GRID = [
    ("--level", "5", "--w", str(w), "--n", str(n), "--sign", sign)
    for w in (6, 10, 16)
    for n in range(1, w)
    for sign in ("plus", "minus")
]
_RUN_HASHES = {
    ("hecke-sum", "--raw"): "58cf04701145fa12de94893f5817ff2ae475bde40d39db93e42fb5687e07eb3b",
    ("hecke-sum", "default"): "db13e68fbf3ee6435aea0c2e35b7c4c87585e07bb0b09816e6f88ea35250b027",
    ("period-poly", "--format=json"): "087c22800d1acf463484d514cbf5b56fae6ae98a4d2c1072ca2ba6592b0c8758",
}


@pytest.mark.parametrize("command, mode", list(_RUN_HASHES))
def test_hecke_sum_and_level5_period_poly_hashes(capsys, command, mode):
    digest = hashlib.sha256()
    for args in _SUM_GRID if command == "hecke-sum" else _LEVEL5_GRID:
        status, out, err = run_cli(capsys, command, *args, *(() if mode == "default" else (mode,)))
        digest.update(("%d\n%s\n%s\n" % (status, out, err)).encode())
    assert digest.hexdigest() == _RUN_HASHES[command, mode]


# SHA-256 of status, stdout and stderr over the oracle's CLI, recorded before QSeries and BoundedPolynomial
# shared one integer-vector base: level-1 Eisenstein series and those at both cusps of Gamma0(2) (their
# refusal of k = 2 included), eta quotients of weights 0 to 12, and oracle matrices at every even weight
# up to 42 for m = -1 .. 12 and four prime powers (the refusals of m < 1 and of empty spaces included)
_QEXP_GRID = [
    ("--form", "%s:%d" % (kind, k), "--prec", "30") for kind in ("E", "Einf", "E0") for k in range(2, 41, 2)
] + [
    ("--form", "eta:" + parts, "--prec", "40")
    for parts in ("1^8,2^8", "1^24", "2^24", "2^12", "1^16,2^-8", "1^-8,2^16", "1^-24,2^24")
]
_ORACLE_GRID = [
    ("--weight", str(k), "--m", str(m)) for k in range(4, 43, 2) for m in (*range(-1, 13), 16, 27, 49, 64)
]
_ORACLE_HASH = "000ee85f531789ef240ef806f4f737983c445ee141a48e46fcc6e998b3a4d876"


def test_oracle_cli_grid_hash(capsys):
    digest = hashlib.sha256()
    for command, grid in (("qexp", _QEXP_GRID), ("oracle-matrix", _ORACLE_GRID)):
        for args in grid:
            status, out, err = run_cli(capsys, command, *args)
            digest.update(("%d\n%s\n%s\n" % (status, out, err)).encode())
    assert len(_QEXP_GRID) + len(_ORACLE_GRID) == 427
    assert digest.hexdigest() == _ORACLE_HASH
