"""One workload in one fresh single-threaded process.

Started by run.py, never by hand.  Modes:

* ``setup``  import heckepoly, generate the requests, fill the Bernoulli cache,
             print the machine's speed factor over that time (speed.py), exit;
* ``run``    the same set-up, then a closed loop with one client over the
             rounds that ``--seconds`` buys (workloads.rounds_for); before
             each round and after the last it times SETUP_SAMPLES fresh
             ``setup`` processes, so that the set-up samples span the run;
             a speed probe (speed.py) runs during each request, in every mode;
* ``trace``  as ``run`` without the set-up samples, with every traced
             function wrapped in a span;
* ``replay`` the first ``--rounds`` rounds untraced, to price the tracing.

The last stdout line is one JSON object with the loop's raw results.
"""

import argparse
import gc
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# No round starts after STOP_FACTOR x --seconds.
STOP_FACTOR = 2.5
SETUP_SAMPLES = 2


def load_references():
    path = Path(__file__).with_name("references.json")
    return json.loads(path.read_text())


def make_executor(workload, references):
    """A function taking one request to None (passed the gate) or a failure reason."""
    if workload == "crosscheck":
        import heckepoly

        return lambda request: workloads.run_crosscheck(heckepoly, request)
    import heckepoly.cli

    def execute(request):
        status, out, err = workloads.run_cli(heckepoly.cli, request)
        return workloads.check_cli(request, status, out, err, references)

    return execute


def time_setup(workload, seed):
    """Wall time of one fresh process that only does the set-up, and its speed factor."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--mode", "setup"]
    t0 = perf_counter()
    # capture_output makes run() wait on the pipes; a bare timeout would poll the exit in coarse steps
    proc = subprocess.run(argv, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
    return perf_counter() - t0, json.loads(proc.stdout)["speed_factor"]


def closed_loop(rounds, execute, stop_at=float("inf"), tracer=None, between=None, probe=None):
    """Send each request after the previous one completed; start no round after ``stop_at``.

    ``stop_at`` only guards against a machine so slow that the run would
    overrun its time limit; normally every round given is sent.  ``between``
    runs before each round and after the last; its time is not in wall_s.
    Before each request the garbage collector empties every generation, also
    outside wall_s, so that a request's collections do not depend on the
    order the seed gave it.  With a ``probe``, each request's speed factor is
    recorded in ``speed``.
    """
    latencies, problems, factors = [], [], []
    done = 0
    paused = 0.0
    start = perf_counter()
    for batch in rounds:
        if between is not None:
            t0 = perf_counter()
            between()
            paused += perf_counter() - t0
        if perf_counter() >= stop_at:
            break
        done += 1
        for request in batch:
            t0 = perf_counter()
            gc.collect()
            paused += perf_counter() - t0
            if probe is not None:
                probe.start()
            t0 = perf_counter()
            try:
                if tracer is None:
                    problem = execute(request)
                else:
                    with tracer.request_span(len(latencies)):
                        problem = execute(request)
            except Exception as exc:  # a raising request is a failed request, never the end of the run
                problem = "%s: %s" % (type(exc).__name__, exc)
            latencies.append(perf_counter() - t0)
            if probe is not None:
                factors.append(probe.stop())
            if problem is not None:
                problems.append("%r: %s" % (tuple(request), problem))
    if between is not None and done == len(rounds):
        t0 = perf_counter()
        between()
        paused += perf_counter() - t0
    return {
        "rounds": done,
        "attempted": len(latencies),
        "failed": len(problems),
        "latencies": latencies,
        "wall_s": perf_counter() - start - paused,
        "problems": problems[:10],
        "speed": factors,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "replay"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=0)
    args = parser.parse_args(argv)
    probe = speed.Probe()
    if args.mode == "setup":
        probe.start()

    import heckepoly
    from heckepoly.exactnum import bernoulli_number

    if not Path(heckepoly.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("heckepoly was imported from %s, not from this checkout" % heckepoly.__file__)
    rounds = workloads.generate(args.workload, args.seed)
    bernoulli_number(workloads.max_bernoulli_index(rounds))
    execute = make_executor(args.workload, load_references())
    if args.mode == "setup":
        print(json.dumps({"speed_factor": probe.stop()}))
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    if args.mode == "replay":
        result = closed_loop(rounds[: args.rounds], execute, probe=probe)
    else:
        setup_samples = []

        def sample_setup():
            setup_samples.extend(time_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES))

        planned = rounds[: workloads.rounds_for(args.workload, args.seconds)]
        stop_at = perf_counter() + STOP_FACTOR * args.seconds
        if tracer is None:
            result = closed_loop(planned, execute, stop_at, between=sample_setup, probe=probe)
        else:
            result = closed_loop(planned, execute, stop_at, tracer, probe=probe)
        result["setup_samples"] = setup_samples
    result["generated"] = sum(map(len, rounds))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["missing"] = tracer.missing
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / ("spans-%s-seed%d.jsonl.gz" % (args.workload, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
