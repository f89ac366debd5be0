"""Run one workload once per seed and report the spread of every end-to-end metric.

    python3 bench/repeat.py --workload highweight --seeds 1-10 [--record bench/baseline.json]

The spread is the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median; it must stay below the
metric's bound in BENCHMARK.json.  The spread of the raw timings, before
scaling to reference speed (speed.py), is printed beside it.  ``--record`` stores the medians and
quartiles under the workload's name in a baseline file.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, hi = (int(x) for x in args.seeds.split("-"))

    values, raw = {}, {}
    for seed in range(lo, hi + 1):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed)]
        argv += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("seed %d: attempted %d failed %d  %s" % (seed, result["attempted"], result["failed"], "  ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        raw_line = next(line for line in proc.stdout.splitlines() if line.startswith("raw "))
        for name, value in re.findall(r"(\w+) ([-+.\deE]+) ", raw_line):
            raw.setdefault(name, []).append(float(value))

    summary = {}
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        summary[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        verdict = "ok" if spread < metric["bound"] / 3 else ("within bound" if spread <= metric["bound"] else "TOO WIDE")
        line = "%-16s median %-12.6g spread %.4f  bound %.2f  %-12s" % (metric["name"], med, spread, metric["bound"], verdict)
        if metric["name"] in raw:
            q1, med, q3 = statistics.quantiles(raw[metric["name"]], n=4)
            line += "  raw median %.6g spread %.4f" % (med, (q3 - q1) / med)
            summary[metric["name"]]["raw_spread"] = (q3 - q1) / med
        print(line)
    if args.record:
        baseline = json.loads(args.record.read_text()) if args.record.exists() else {}
        baseline[args.workload] = {"seeds": args.seeds, "seconds": spec["run_seconds"], "metrics": summary}
        args.record.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
