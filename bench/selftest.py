"""The benchmark's own tests.

    python3 bench/selftest.py

Kept out of the repository's pytest run on purpose: the smoke runs start
benchmark processes and take about a minute.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402

import heckepoly.cli  # noqa: E402


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def flat(workload, seed):
    return [r for batch in workloads.generate(workload, seed) for r in batch]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))
            self.assertNotEqual(workloads.generate(name, 7), workloads.generate(name, 8))

    def test_every_seed_sends_the_same_multiset(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(sorted(flat(name, 7)), sorted(flat(name, 8)))

    def test_references_cover_every_cli_request(self):
        refs = worker.load_references()
        for name in ("highweight", "largeindex"):
            self.assertTrue(all(r.key() in refs for r in flat(name, 0)))

    def test_highweight_uses_each_level_w_once(self):
        for seed in range(20):
            keys = [(r.level, r.w) for r in flat("highweight", seed)]
            self.assertEqual(len(keys), len(set(keys)))

    def test_ranges(self):
        for seed in range(5):
            for r in flat("highweight", seed):
                lo, hi = (40, 80) if r.level == 2 else (30, 50)
                self.assertTrue(lo <= r.w <= hi and r.m in (2, 3, 4, 5), r)
            for r in flat("largeindex", seed):
                self.assertTrue(2 <= r.level <= 5 and 12 <= r.w <= 30 and 48 <= r.m <= 256, r)
            for r in flat("crosscheck", seed):
                self.assertTrue(8 <= r.k <= 20 and r.k % 2 == 0, r)

    def test_level5_exclusion(self):
        for seed in range(20):
            for name in ("highweight", "largeindex"):
                for r in flat(name, seed):
                    self.assertFalse(r.level == 5 and r.w % 4 == 2, r)


class GateTest(unittest.TestCase):
    request = workloads.CliRequest(2, 10, 2)

    def setUp(self):
        status, self.out, self.err = workloads.run_cli(heckepoly.cli, self.request)
        self.assertEqual(status, 0)
        self.refs = {self.request.key(): hashlib.sha256(self.out.encode()).hexdigest()}

    def test_true_output_passes(self):
        self.assertIsNone(workloads.check_cli(self.request, 0, self.out, self.err, self.refs))

    def test_tampered_output_fails(self):
        payload = json.loads(self.out)
        payload["T"][0][0] = str(int(payload["T"][0][0]) + 1)
        tampered = json.dumps(payload)
        self.assertIsNotNone(workloads.check_cli(self.request, 0, tampered, "", self.refs))
        payload["charpoly"][0] = "1/2"
        self.assertIsNotNone(workloads.check_cli(self.request, 0, json.dumps(payload), "", {}))
        self.assertIsNotNone(workloads.check_cli(self.request, 0, self.out[:-5], "", {}))
        self.assertIsNotNone(workloads.check_cli(self.request, 1, "", "boom", {}))

    def test_loop_counts_failures_and_keeps_going(self):
        def execute(request):
            if request.m == 3:
                raise RuntimeError("raised")
            return "tampered" if request.m == 4 else None

        rounds = [[workloads.CliRequest(2, 10, m) for m in (2, 3)], [workloads.CliRequest(2, 10, m) for m in (4, 2)]]
        res = worker.closed_loop(rounds, execute, float("inf"))
        self.assertEqual((res["attempted"], res["failed"]), (4, 2))
        self.assertEqual(len(res["latencies"]), 4)


class SpeedTest(unittest.TestCase):
    def busy(self, seconds):
        t0 = perf_counter()
        while perf_counter() - t0 < seconds:
            pass

    def test_probe_samples_only_while_armed(self):
        probe = speed.Probe()
        probe.start()
        self.busy(0.1)
        self.assertGreater(probe.stop(), 0)
        taken = len(probe.samples)
        self.assertGreaterEqual(taken, 5)
        self.busy(0.05)
        self.assertEqual(len(probe.samples), taken)

    def test_factor_is_one_at_reference_speed(self):
        self.assertAlmostEqual(speed.factor([speed.REFERENCE_S] * 3), 1.0)
        self.assertAlmostEqual(speed.factor([2 * speed.REFERENCE_S]), 0.5)

    def test_loop_records_one_factor_per_request(self):
        rounds = [[workloads.CliRequest(2, 10, m) for m in (2, 3)], [workloads.CliRequest(2, 10, 4)]]
        res = worker.closed_loop(rounds, lambda request: self.busy(0.02), probe=speed.Probe())
        self.assertEqual(len(res["speed"]), 3)
        self.assertTrue(all(f > 0 for f in res["speed"]))


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_lists_every_per_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(listed, tracing.per_layer_catalogue())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))

    def test_each_workload_untraced(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"]]
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.check_result(run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0"), names)

    def test_traced(self):
        names = [name for name, _, _ in tracing.per_layer_catalogue()]
        self.check_result(run_bench("--workload", "largeindex", "--seed", "3", "--seconds", "2", "--trace", "1"), names)

    def test_refuses_without_program_sources(self):
        with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "highweight", "--seconds", "1", cwd=tmp, script=Path(tmp) / BENCH.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
