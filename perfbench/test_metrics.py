"""Tests of the benchmark's own metric math.

    python3 perfbench/test_metrics.py
"""

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402


def record(det, wall=None, lat_digest="0", traced=0):
    base = {"ops.attempted": 100, "ops.failed": 0, "sim.window_s": 10.0}
    base.update(det)
    return {"kind": "iteration", "traced": traced, "det": base,
            "wall": wall or {"wall_s": 1.0, "setup.testbed_s": 0.1,
                             "setup.preload_s": 0.0, "setup.mount_s": 0.0,
                             "peak_rss_mb": 1.0},
            "lat_digest": lat_digest, "error": ""}


CAL = {"sim.event_ns": 100.0, "crypto.send_record_ns": 1000.0,
       "crypto.recv_record_ns": 1000.0, "crypto.rsa_sign_ns": 1e6,
       "crypto.rsa_verify_ns": 1e4, "crypto.rsa_encrypt_ns": 1e4,
       "crypto.rsa_decrypt_ns": 1e6}
WALLS = {"wall_s": 2.0, "traced_s": 2.1,
         "setup.testbed_s": 0.1, "setup.preload_s": 0.0, "setup.mount_s": 0.0}


class PercentileChoice(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertFalse(metrics.has_tail(999, 0.99))
        self.assertTrue(metrics.has_tail(1000, 0.99))
        self.assertFalse(metrics.has_tail(9999, 0.999))
        self.assertTrue(metrics.has_tail(10000, 0.999))

    def reported(self, n):
        lat = sorted(range(1, n + 1))
        rec = record({"ops.attempted": n})
        return metrics.end_to_end(rec, [rec], lat)

    def test_end_to_end_reports_only_supported_tails(self):
        self.assertNotIn("sim_op_p99_ms", self.reported(999))
        out = self.reported(1000)
        self.assertIn("sim_op_p99_ms", out)
        self.assertNotIn("sim_op_p999_ms", out)
        self.assertIn("sim_op_p999_ms", self.reported(10000))
        self.assertIn("sim_op_p50_ms", self.reported(3))

    def test_nearest_rank(self):
        lat = list(range(1, 101))
        self.assertEqual(metrics.percentile(lat, 0, 0.5), 50)
        self.assertEqual(metrics.percentile(lat, 0, 0.99), 99)
        self.assertIsNone(metrics.percentile([], 0, 0.5))


class FailedOps(unittest.TestCase):
    def test_failed_ops_exceed_any_limit(self):
        # 1000 ops: at most 10 failures (1%) leave the p99 finite.
        self.assertEqual(metrics.percentile([1] * 990, 10, 0.99), 1)
        self.assertEqual(metrics.percentile([1] * 989, 11, 0.99), math.inf)
        self.assertEqual(metrics.percentile([], 5, 0.5), math.inf)

    def test_fail_ratio_and_goodput_count_failures(self):
        rec = record({"ops.attempted": 1000, "ops.failed": 20})
        out = metrics.end_to_end(rec, [rec], [1] * 980)
        self.assertAlmostEqual(out["op_fail_ratio"][0], 0.02)
        self.assertEqual(out["sim_op_p99_ms"][0], math.inf)
        self.assertAlmostEqual(out["sim_goodput_ops_per_s"][0], 98.0)
        self.assertAlmostEqual(out["ops_per_wall_s"][0], 980.0)


class RatiosKeepTheirBase(unittest.TestCase):
    def test_ratio_returns_base(self):
        self.assertEqual(metrics.ratio(3, 4), (0.75, 4))
        self.assertEqual(metrics.ratio(3, 0), (0.0, 0))

    def layer(self, det):
        return metrics.per_layer(record(det)["det"], CAL, WALLS)

    def test_absorb_ratio_and_its_base(self):
        out = self.layer({"sgfs.client_proxy.absorbed.reads": 30,
                          "sgfs.client_proxy.absorbed.getattrs": 10,
                          "sgfs.client_proxy.forwarded": 60})
        self.assertEqual(out["sgfs.client_proxy.absorbed"], 40)
        self.assertEqual(out["sgfs.client_proxy.forwarded"], 60)
        self.assertAlmostEqual(out["sgfs.client_proxy.absorb_ratio"], 0.4)

    def test_per_payload_byte_and_its_base(self):
        out = self.layer({"app.read_bytes": 600, "app.write_bytes": 400,
                          "crypto.records_sent": 10,
                          "crypto.bytes_sent": 1160,
                          "buf.bytes_copied": 500})
        self.assertEqual(out["app.payload_bytes"], 1000)
        self.assertEqual(out["net.wire_bytes"], 1200)
        self.assertAlmostEqual(out["net.wire_bytes_per_payload_byte"], 1.2)
        self.assertAlmostEqual(out["buf.bytes_copied_per_payload_byte"], 0.5)

    def test_invisible_base_is_not_applicable(self):
        out = self.layer({"buf.bytes_copied": 500})
        self.assertIsNone(out["app.payload_bytes"])
        self.assertIsNone(out["buf.bytes_copied_per_payload_byte"])
        self.assertIsNone(out["net.wire_bytes"])


class OtherWall(unittest.TestCase):
    def test_never_negative(self):
        self.assertEqual(metrics.other_wall(1.0, [0.7, 0.5]), 0.0)
        self.assertAlmostEqual(metrics.other_wall(1.0, [0.25, 0.25]), 0.5)

    def test_per_layer_clamps_overshooting_estimates(self):
        det = record({"sim.events": 10 ** 9})["det"]  # 100 s of engine time
        out = metrics.per_layer(det, CAL, WALLS)
        self.assertEqual(out["wall.other_s"], 0.0)
        self.assertAlmostEqual(out["sim.engine_wall_est_s"], 100.0)


class Determinism(unittest.TestCase):
    def test_detects_differences(self):
        a = record({"sim.events": 5})
        b = record({"sim.events": 6})
        c = record({"sim.events": 5}, lat_digest="1")
        self.assertEqual(metrics.deterministic_mismatches([a, a]), [])
        self.assertEqual(metrics.deterministic_mismatches([a, b]),
                         ["sim.events"])
        self.assertEqual(metrics.deterministic_mismatches([a, c]),
                         ["latencies"])

    def test_ignored_prefix(self):
        a = record({"trace.spans": 0})
        b = record({"trace.spans": 9}, traced=1)
        self.assertEqual(metrics.deterministic_mismatches([a, b],
                                                          ("trace.",)), [])

    def test_runner_flags_changed_sim_value(self):
        recs = [record({"sim.events": 5}), record({"sim.events": 7})]
        problems = run.check(recs, {"kind": "process", "spans": 0})
        self.assertTrue(any("sim.events" in p for p in problems))


class MeasuredWall(unittest.TestCase):
    def test_measured_wall_is_median(self):
        timed = [{"wall": {"wall_s": w}} for w in (1.0, 5.0, 1.2)]
        self.assertAlmostEqual(metrics.measured_wall(timed), 1.2)

    def test_reference_speed_scales_times_only(self):
        rec = record({}, wall={"wall_s": 3.0, "setup.testbed_s": 0.3,
                               "peak_rss_mb": 50.0, "host.ref_s": 0.2})
        out = metrics.at_reference_speed(rec, 0.2)
        self.assertAlmostEqual(out["wall"]["wall_s"],
                               3.0 * metrics.REF_NOMINAL_S / 0.2)
        self.assertAlmostEqual(out["wall"]["setup.testbed_s"],
                               0.3 * metrics.REF_NOMINAL_S / 0.2)
        self.assertEqual(out["wall"]["peak_rss_mb"], 50.0)
        self.assertEqual(rec["wall"]["wall_s"], 3.0)


class BenchmarkJson(unittest.TestCase):
    def test_names_match_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.E2E_REPORTED))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]],
                         [(n, u, b) for n, u, b, _ in metrics.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
