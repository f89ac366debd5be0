import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from heckepoly.cli import LIMITS, main
from heckepoly.verify import SUITES

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


def test_hecke_sum_m_cap(capsys):
    cap = LIMITS["hecke-sum m"]
    _assert_precondition(
        capsys, ("hecke-sum", "--level", "2", "--w", "6", "--n", "2", "--m", str(cap + 1)), _over_cap("hecke-sum m", cap + 1)
    )
    assert _help_shows_cap(capsys, "hecke-sum", "hecke-sum m")


def test_q_series_precision_cap(capsys):
    cap = LIMITS["prec"]
    # the default precision m (k/4 + 2) of weight 12 is 5 m: one index past cap / 5 takes it over the cap
    default_over = 5 * (cap // 5 + 1)
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


def test_verify_suite_with_no_checks_is_an_error(capsys):
    # a bound below a suite's first weight builds no checks; "0/0 checks passed" would read as a pass
    # hecke-relations starts at w = 6 for both its pair and its prime-square checks
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
