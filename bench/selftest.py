"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks self time on a hand-built span tree, that tracing puts every
wrapped attribute back, the speed probe's arithmetic and that it puts
the signal handler back, how a failed pretrain is reported, and that
every metric named in BENCHMARK.json is emitted for each workload in
both modes. The pretrain workloads run on a tiny dataset; the checks
workload runs its real suites, which take most of the two minutes.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402
import sys  # noqa: E402
import unittest  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import harness  # noqa: E402
from spans import SpanTable, Tracer, current_attributes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK = ROOT / ".bench_work" / "selftest"


def tiny(workload):
    """The workload on 4x40 images of 8x8, batch 16, one epoch."""
    cfg = copy.deepcopy(workload.config)
    cfg["io"]["synthetic"].update(per_class=40, size=8)
    cfg["train"].update(epochs=1, batch_size=16, probe_per_class=10)
    cfg["eval"].update(knn_k=5, probe_sizes=[5], pair_count=20)
    return replace(workload, config=cfg)


class SelfTime(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9] > b [6, 7]
        names = ["root", "a", "a1", "b"]
        t = SpanTable(names, name_id=[0, 1, 2, 3, 3],
                      start=[0.0, 1.0, 2.0, 5.0, 6.0], end=[10.0, 4.0, 3.0, 9.0, 7.0],
                      parent=[-1, 0, 1, 0, 3])
        self.assertEqual(t.self_time().tolist(), [3.0, 2.0, 1.0, 3.0, 1.0])
        self.assertEqual(t.self_total("b"), 4.0)
        self.assertEqual(t.inclusive("b"), 4.0)   # the nested b is inside the outer one
        self.assertEqual(t.calls("b"), 2)
        self.assertEqual(t.inclusive("missing"), 0.0)

    def test_tracer_records_parents(self):
        tracer = Tracer()
        tracer.run_starts.append(0)

        def inner():
            return 1

        def outer():
            return tracer.call("inner", inner) + 1

        self.assertEqual(tracer.call("outer", outer), 2)
        t = tracer.spans(0)
        self.assertEqual([t.names[i] for i in t.name_id], ["outer", "inner"])
        self.assertEqual(t.parent.tolist(), [-1, 0])
        self.assertGreaterEqual(t.self_time().min(), 0.0)


class Wrappers(unittest.TestCase):
    def test_install_and_restore(self):
        before = current_attributes()
        tracer = Tracer()
        tracer.install()
        try:
            during = current_attributes()
            self.assertTrue(all(during[k] is not before[k] for k in before))
        finally:
            tracer.uninstall()
        after = current_attributes()
        self.assertTrue(all(after[k] is before[k] for k in before))


class Probe(unittest.TestCase):
    def test_net_and_scaled_times_on_hand_made_jobs(self):
        probe = calibrate.SpeedProbe()
        ref = calibrate.REFERENCE_S
        # Jobs at 1, 2 and 3 s; the first two ran at half the reference
        # speed, the last at the reference speed.
        probe.starts, probe.durations = [1.0, 2.0, 3.0], [2 * ref, 2 * ref, ref]
        self.assertAlmostEqual(float(probe.net(0.5, 2.5)), 2.0 - 4 * ref)
        self.assertAlmostEqual(float(probe.factor(0.5, 2.5)), 0.5)
        self.assertAlmostEqual(float(probe.scaled(0.5, 2.5)), (2.0 - 4 * ref) * 0.5)
        self.assertAlmostEqual(float(probe.factor(2.5, 3.5)), 1.0)
        self.assertEqual(float(probe.factor(4.0, 5.0)), 1.0)   # no job there
        self.assertAlmostEqual(probe.net([0.0, 1.5], [1.5, 3.5]).tolist()[1], 2.0 - 3 * ref)

    def test_jobs_run_while_started_and_handler_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        probe = calibrate.SpeedProbe()
        probe.start()
        try:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        finally:
            probe.stop()
        self.assertGreater(len(probe.durations), 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


class FailureReport(unittest.TestCase):
    def test_pretrain_failure_names_epoch_and_step(self):
        workload = WORKLOADS["multihead-p1"]
        per_epoch = workload.steps_per_epoch
        cmd = harness.CommandRun("pretrain", 2, 1.0, "",
                                 "error: contract: log of a non-positive argument\n",
                                 [0.0] * (per_epoch + 3), 0.0, 1.0)
        self.assertEqual(harness._failure_detail(cmd, workload),
                         "exit 2 at epoch 1 step 3: error: contract: log of a non-positive "
                         "argument")


class ResultLine(unittest.TestCase):
    def test_failed_command_counts_but_only_a_failed_check_is_incorrect(self):
        ledger = harness.Ledger()
        ledger.record("gradcheck", False, "exit 2", check=False)
        ledger.record("case", True)
        line = harness.RunResult(ledger, {"setup_s": 1.5}, {}).line({"setup_s": "s"})
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (True, 2, 1))
        self.assertEqual(line["metrics"], {"setup_s": {"value": 1.5, "unit": "s"}})
        ledger.record("digest", False, "differs")
        self.assertFalse(harness.RunResult(ledger, {}, {}).line({})["correct"])


class EveryMetric(unittest.TestCase):
    """Each workload, both modes: all named metrics, finite, no failure,
    and the wrappers gone afterwards."""

    def run_mode(self, workload, trace: bool):
        names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
        work = WORK / f"{workload.name}-{int(trace)}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        before = current_attributes()
        result = harness.run_workload(workload, 3, 0.1, trace, work,
                                      per_layer=names, end_to_end_names=names)
        self.assertTrue(all(current_attributes()[k] is before[k] for k in before))
        units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        line = result.line(units)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(result.ledger.failures, [])
        self.assertTrue(line["correct"])
        self.assertEqual(list(line["metrics"]), names)
        for name, metric in line["metrics"].items():
            self.assertEqual(metric["unit"], units[name])
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        return {name: metric["value"] for name, metric in line["metrics"].items()}

    def test_pretrain_workloads(self):
        for name in ("baseline-p5", "multihead-p1"):
            with self.subTest(workload=name):
                workload = tiny(WORKLOADS[name])
                e2e = self.run_mode(workload, trace=False)
                self.assertGreater(e2e["step_ms_p50"], 0.0)
                layers = self.run_mode(workload, trace=True)
                self.assertEqual(layers["train.steps"], workload.pretrain_steps - 1)
                self.assertGreater(layers["augment.views"], 0)
                self.assertGreater(layers["nets.checkpoint_bytes"], 0)

    def test_checks_workload(self):
        workload = WORKLOADS["checks"]
        e2e = self.run_mode(workload, trace=False)
        self.assertGreater(e2e["session_s"], 0.0)
        layers = self.run_mode(workload, trace=True)
        self.assertGreater(layers["checks.cases"], 0)
        self.assertGreater(layers["tensor.finite_diff_check_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
