"""Seeded fuzz of the CLI contract: every argument vector ends in a result or a structured error.

Each run must exit 0 with its output on stdout (JSON, or the documented text of ``bernoulli``,
``verify`` and ``--format text/latex``), or exit 1 with {"error": {"code", "message"}} on stderr and
nothing on stdout. Over-cap values come from the cap table ``cli.LIMITS`` and the verify ceilings in
``verify.SUITES``, so a new limit is fuzzed without new test code. Accepted values that sit at a cap
cost about 10 s each; the CI cap-edge step runs those, so every value here is refused at once or cheap.
"""

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

from heckepoly.cli import LIMITS, main
from heckepoly.heckeop import dim_cusp
from heckepoly.verify import SUITES

SEED = 20261018
RUNS = 200
SECONDS_PER_RUN = 5  # a cheap vector takes well under a second; an unbounded one runs far past this
PRESENT, ABSENT = "flag alone", "flag left out"  # a store_true flag's values


def _over(name):
    return str(LIMITS[name] + 1)


def _w_over_dimension_cap():
    w = 2
    while dim_cusp(2, w) <= LIMITS["cusp space dimension"]:
        w += 2
    return w  # level 2 has the smallest cusp spaces, so this w is over the cap at every level


NOT_INTS = ("-1", "0", "abc", "1.5", "")
W_OVER_DIM = _w_over_dimension_cap()
ETA_OVER = LIMITS["eta sum |r|"] + 1  # eta:1^-r,r^1 has sum |r| = r + 1 and leading exponent 0
FORMS = (
    ("eta:1^8,2^8", "eta:1^-24,2^48", "eta:" + "1^0," * 500 + "1^1,1^-1," * 100 + "1^24", "E:4", "Einf:6", "E0:8"),
    (
        "eta:1^-%d,%d^1" % (ETA_OVER, ETA_OVER),
        "E:%d" % (LIMITS["Bernoulli index"] + 2),
        "E0:%d" % (LIMITS["Bernoulli index"] + 2),
        *("E:3", "E:0", "E:-4", "E:x", "E:", "nonsense:4", ":", ""),
        *("eta:", "eta:1^", "eta:^2", "eta:1^x", "eta:1^7", "eta:0^24", "eta:1^-24", "eta:1^24,2^-1"),
    ),
)
# flag -> (valid values, edge values): one past each cap that reads the flag, 0, -1, parity and non-integers
LEVEL = (("2", "3", "4", "5"), ("7", "1", _over("level"), *NOT_INTS))
FORMAT = (("json", "text", "latex"), ("xml",))
SWITCH = ((PRESENT, ABSENT), ())
HECKE = {
    "--level": LEVEL,
    "--w": (("6", "8", "10", "12"), ("7", "2", str(W_OVER_DIM), *NOT_INTS)),
    "--m": (("1", "2", "3", "4", "9"), (_over("index m"), *NOT_INTS)),
}
PERIOD = {
    "--level": LEVEL,
    "--w": (("2", "6", "10"), ("7", str(LIMITS["Bernoulli index"]), *NOT_INTS)),
    "--n": (("1", "2", "3", "6"), ("11", *NOT_INTS)),
}
SUBCOMMANDS = {
    "bernoulli": {"--n": (("1", "12", "31"), (_over("Bernoulli index"), *NOT_INTS))},
    "period-poly": {**PERIOD, "--sign": (("plus", "minus"), ("zero",)), "--format": FORMAT},
    "hecke-sum": {
        **PERIOD,
        "--m": (("1", "2", "3", "8"), (_over("--list-matrices m"), _over("m (w + 1)"), *NOT_INTS)),
        "--raw": SWITCH,
        "--list-matrices": SWITCH,
    },
    "hecke-matrix": {**HECKE, "--format": FORMAT},
    "charpoly": HECKE,
    "hankel": {"--which": (("1", "2", "3"), ("4", "x")), "--n": (("1", "3", "6"), (_over("hankel n"), *NOT_INTS))},
    "qexp": {"--form": FORMS, "--prec": (("0", "5", "20", "200"), (_over("prec"), *NOT_INTS))},
    "oracle-matrix": {
        "--weight": (("8", "12", "16"), ("7", str(W_OVER_DIM + 2), *NOT_INTS)),
        # the prime 503 > cap / 4 takes the default precision P (k/4 + 2), P the largest prime of m, over the cap
        # at every weight k >= 8; a composite such as 501 = 3 * 167 is served at k = 8
        "--m": (("1", "2", "3", "5"), ("503", *NOT_INTS)),
        "--prec": (("5", "40", ABSENT), (_over("prec"), *NOT_INTS)),
    },
    "verify": {
        "--suite": (tuple(SUITES), ("bogus",)),
        # one past the highest ceiling is over every suite's own: a lower one is a costly weight for another suite
        "--max-weight": (("8", "10", ABSENT), ("4", str(max(c for _, c in SUITES.values() if c) + 1), *NOT_INTS)),
    },
}
TEXT_OUTPUT = {"bernoulli", "verify"}


def _draw(rng, command):
    """One argument vector: each flag takes an edge value with probability 0.15 and is left out with 0.04."""
    argv = [command]
    for flag, (valid, edges) in SUBCOMMANDS[command].items():
        draw = rng.random()
        value = ABSENT if draw < 0.04 else rng.choice(edges) if draw < 0.19 and edges else rng.choice(valid)
        if value is not ABSENT:
            argv += [flag] if value is PRESENT else [flag, value]
    if rng.random() < 0.03:
        argv.append("--bogus")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # usage errors
            status = exc.code
        except Exception as exc:  # a traceback breaks the contract: name the vector that raised it
            raise AssertionError("%r raised %r" % (argv, exc)) from exc
    return status, out.getvalue(), err.getvalue(), time.perf_counter() - start


# one vector per LIMITS entry, one past its cap (appended last) with every other argument valid
OVER_CAP = {
    "level": ["period-poly", "--w", "6", "--n", "2", "--sign", "minus", "--level"],
    "--list-matrices m": ["hecke-sum", "--level", "2", "--w", "6", "--n", "2", "--list-matrices", "--m"],
    "m (w + 1)": ["hecke-sum", "--level", "2", "--w", "0", "--n", "2", "--m"],
    "prec": ["qexp", "--form", "E:4", "--prec"],
    "cusp space dimension": ["charpoly", "--level", "2", "--m", "2", "--w", str(W_OVER_DIM)],
    "index m": ["charpoly", "--level", "2", "--w", "10", "--m"],
    "eta sum |r|": ["qexp", "--form", "eta:1^-%d,%d^1" % (ETA_OVER, ETA_OVER)],
    "d prec^2": ["oracle-matrix", "--weight", "12", "--m", "2", "--prec", "1323"],
    "oracle-matrix m": ["oracle-matrix", "--weight", "12", "--prec", "40", "--m"],
    "Bernoulli index": ["bernoulli", "--n"],
    "hankel n": ["hankel", "--which", "1", "--n"],
    **{"%s --max-weight" % suite: ["verify", "--suite", suite, "--max-weight"] for suite in SUITES if SUITES[suite][1]},
}


def test_every_argument_vector_ends_in_a_result_or_a_structured_error():
    assert set(OVER_CAP) == set(LIMITS), "each LIMITS entry needs an over-cap vector"
    vectors = [argv + [_over(name)] if argv[-1].startswith("--") else argv for name, argv in OVER_CAP.items()]
    rng = random.Random(SEED)
    commands = sorted(SUBCOMMANDS)
    vectors += [_draw(rng, commands[i % len(commands)]) for i in range(RUNS - len(vectors))]
    outcomes, refused = set(), set()
    for argv in vectors:
        status, out, err, seconds = _run(argv)
        assert seconds < SECONDS_PER_RUN, (argv, seconds)
        if status == 0:
            assert out and err == "", argv
            output_format = argv[argv.index("--format") + 1] if "--format" in argv else "json"
            if argv[0] not in TEXT_OUTPUT and output_format == "json":
                json.loads(out)
        else:
            assert (status, out) == (1, ""), (argv, status, out[:200])
            error = json.loads(err)["error"]
            assert set(error) == {"code", "message"}, argv
            assert all(isinstance(value, str) and value for value in error.values()), argv
            name, _, rest = error["message"].partition(" = ")
            if name in LIMITS and rest.endswith(" exceeds the cap %d" % LIMITS[name]):
                refused.add(name)
        outcomes.add((argv[0], status))
    assert refused == set(LIMITS), "caps never met in the one message format: %s" % (set(LIMITS) - refused)
    assert {command for command, _ in outcomes} == set(commands)
    assert {status for _, status in outcomes} == {0, 1}


def test_every_cap_is_shown_in_help():
    shown = ""
    for command in SUBCOMMANDS:
        status, out, _, _ = _run([command, "--help"])
        assert status == 0
        shown += "".join(out.split())  # argparse wraps lines at spaces and hyphens
    for name, cap in LIMITS.items():
        assert ("%s<=%d" % (name, cap)).replace(" ", "") in shown, name
