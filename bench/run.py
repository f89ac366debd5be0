"""heckepoly benchmark: one workload, measured end to end or layer by layer.

    python3 bench/run.py --workload highweight --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  ``--seconds`` sets the amount of work: the
number of whole rounds of requests that took about that long when the
benchmark was defined (workloads.rounds_for), so that every commit is
measured on the same requests.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer metrics, each as a line with name,
value and unit; then notes, a provenance line and, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.
``--workload all`` runs every workload in turn.

Each measurement runs in a fresh single-threaded process (worker.py) with
HECKEPOLY_WORKERS removed from its environment.  End-to-end timings are
reported at reference machine speed: each request's time, and each set-up
time, is scaled by the speed the machine showed while it ran (speed.py).
The raw timings are printed in the notes.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("HECKEPOLY_WORKERS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(workload, seed, mode, seconds=0.0, rounds=0):
    """Run worker.py once and return its JSON result."""
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    argv += ["--seconds", repr(seconds), "--rounds", str(rounds)]
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError("worker %s/%s failed (exit %d):\n%s" % (workload, mode, proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """The highest percentile with at least 10 samples beyond it, as (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], 100 * (n - 10) // n


def timings(setup_samples, latencies, wall_s):
    """setup_s, requests_per_s (per request, not yet per success), latency_p50_s, latency_tail_s."""
    value, _ = tail(latencies)
    return statistics.median(setup_samples), len(latencies) / wall_s, statistics.median(latencies), value


def scaled_sum(res):
    """Total request time at reference speed."""
    return sum(latency * f for latency, f in zip(res["latencies"], res["speed"]))


def end_to_end(workload, seed, seconds):
    """Timings at reference machine speed (speed.py); the raw timings go into the notes."""
    res = worker(workload, seed, "run", seconds)
    ok = res["attempted"] - res["failed"]
    raw = res["latencies"]
    scaled = [latency * f for latency, f in zip(raw, res["speed"])]
    setup_raw = [t for t, _ in res["setup_samples"]]
    setup = [t * f for t, f in res["setup_samples"]]
    wall = res["wall_s"] * sum(scaled) / sum(raw)
    setup_s, per_s, p50, tail_s = timings(setup, scaled, wall)
    metrics = {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (per_s * ok / res["attempted"], "1/s"),
        "latency_p50_s": (p50, "s"),
        "latency_tail_s": (tail_s, "s"),
        "success_frac": (ok / res["attempted"], "frac"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    raw_setup_s, raw_per_s, raw_p50, raw_tail_s = timings(setup_raw, raw, res["wall_s"])
    _, pct = tail(raw)
    notes = [
        "failed_frac %.6g frac (%d of %d attempted)" % (res["failed"] / res["attempted"], res["failed"], res["attempted"]),
        "latency_tail_s is p%d over %d samples; %d of %d generated requests sent in %d rounds"
        % (pct, len(raw), res["attempted"], res["generated"], res["rounds"]),
        "timings above are at reference speed (bench/speed.py); per-request speed factor median %.4f, range %.4f-%.4f"
        % (statistics.median(res["speed"]), min(res["speed"]), max(res["speed"])),
        "raw setup_s %.6g s, requests_per_s %.6g 1/s, latency_p50_s %.6g s, latency_tail_s %.6g s"
        % (raw_setup_s, raw_per_s * ok / res["attempted"], raw_p50, raw_tail_s),
    ]
    if workload != "crosscheck":
        notes.append("excluded: " + workloads.LEVEL5_EXCLUSION)
    return res, metrics, notes


def per_layer(workload, seed, seconds):
    """Traced loop over half the rounds, then the same rounds untraced to price the tracing."""
    res = worker(workload, seed, "trace", seconds / 2)
    replay = worker(workload, seed, "replay", rounds=res["rounds"])
    units = {name: unit for name, unit, _ in tracing.per_layer_catalogue()}
    layers = dict(res["layers"])
    layers["trace.overhead_frac"] = scaled_sum(res) / scaled_sum(replay) - 1
    metrics = {name: (layers[name], units[name]) for name in units}
    notes = ["%d traced requests; spans in .bench_out/" % res["attempted"]]
    notes += ["%s should move %s on %s" % (name, moves, where) for name, _, _, moves, where in tracing.TARGETS]
    if layers["trace.coverage"] < tracing.COVERAGE_FLOOR:
        notes.append("FLAG trace.coverage %.3f is below %.2f" % (layers["trace.coverage"], tracing.COVERAGE_FLOOR))
    notes += ["FLAG traced function missing from the program: %s" % name for name in res["missing"]]
    for key in ("attempted", "failed", "problems"):
        res[key] += replay[key]
    return res, metrics, notes


def provenance(workload, seed, seconds, trace):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heckepoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return "provenance workload=%s seed=%d seconds=%g trace=%d python=%s nproc=%s commit=%s src_sha256=%s" % (
        workload, seed, seconds, trace, platform.python_version(), len(os.sched_getaffinity(0)), commit,
        digest.hexdigest()[:16],
    )


def measure(workload, seed, seconds, trace):
    res, metrics, notes = (per_layer if trace else end_to_end)(workload, seed, seconds)
    for name, (value, unit) in metrics.items():
        print("%-48s %-22.10g %s" % (name, value, unit))
    for line in notes + ["FAILED " + p for p in res["problems"]]:
        print(line)
    print(provenance(workload, seed, seconds, trace))
    return res, {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "heckepoly" / "__init__.py").is_file():
        print("error: %s holds no heckepoly sources (src/heckepoly); run from a checkout" % ROOT, file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        res, got = measure(name, args.seed, args.seconds, args.trace)
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = name + "." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
