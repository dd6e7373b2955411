"""Tests of the benchmark's estimators and arrival schedule.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import random
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import stats  # noqa: E402


class TailRule(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        xs = list(range(1, 101))
        random.Random(0).shuffle(xs)
        self.assertEqual(stats.tail(xs), (90, 90.0, 100))

    def test_exactly_ten_beyond(self):
        xs = [float(i) for i in range(37)]
        value, pct, n = stats.tail(xs)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 27 / 37)
        self.assertEqual(n, 37)

    def test_eleven_samples_give_the_minimum(self):
        self.assertEqual(stats.tail([5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11])[0], 1)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_a_sweep_counts_once(self):
        # 40 sweeps of three, each resolved by its own drain: 40 samples,
        # and the tail is the 11th largest sweep, not the 4th
        records, lat = [], []
        for k in range(40):
            for _ in range(3):
                records.append({"drain": k, "due": 0.25 * k})
                lat.append(float(k))
        value, pct, n = stats.tail(stats.per_completion(records, lat))
        self.assertEqual((value, n), (29.0, 40))
        self.assertEqual(stats.tail(lat)[0], 36.0)

    def test_closed_loop_latencies_pass_through(self):
        records = [{"start": 0.0, "done": 1.0}] * 3
        self.assertEqual(stats.per_completion(records, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.tail([])


def back_to_back(durations):
    """Closed-loop records for consecutive requests."""
    t, out = 0.0, []
    for d in durations:
        out.append({"start": t, "done": t + d})
        t += d
    return out


REF = stats.PROBE_REF_S


class Scaling(unittest.TestCase):
    """Values scaled by the host probe around each request."""

    def rate(self, durations, probes):
        return len(durations) / sum(stats.scaled(stats.cycle_times(back_to_back(durations)),
                                                 probes))

    def test_uncontended_values_are_unchanged(self):
        xs = [0.1, 0.1, 0.2] * 4
        self.assertEqual(stats.scaled(xs, [REF] * len(xs)), xs)

    def test_a_contended_episode_is_removed(self):
        # a 3 s stretch where the core runs at half speed: requests and the
        # probe around them both take twice as long
        durations = [0.1] * 80 + [0.2] * 15 + [0.1] * 80
        probes = [REF] * 80 + [2 * REF] * 15 + [REF] * 80
        self.assertAlmostEqual(self.rate(durations, probes), 10.0)
        self.assertLess(len(durations) / sum(durations), 9.5)
        self.assertAlmostEqual(statistics.median(stats.scaled(durations, probes)), 0.1)

    def test_a_run_long_contention_is_removed(self):
        base = [0.1, 0.1, 0.2] * 40
        slow = [d * 1.7 for d in base]
        self.assertAlmostEqual(self.rate(base, [REF] * 120),
                               self.rate(slow, [1.7 * REF] * 120))

    def test_a_costlier_program_shows_in_full(self):
        # every request 20% slower at the same probe: the rate moves in full
        base = [0.1, 0.1, 0.2] * 40
        slow = [d * 1.2 for d in base]
        probes = [REF] * 120
        self.assertAlmostEqual(self.rate(base, probes) / self.rate(slow, probes), 1.2)

    def test_one_request_in_five_slower_shows(self):
        # intermittent work: every fifth request costs 50% more, which
        # adds 10% to the mean, and the rate is a mean over all requests
        base = [0.1, 0.1, 0.2] * 40
        slow = [d * 1.5 if i % 5 == 4 else d for i, d in enumerate(base)]
        probes = [REF] * 120
        self.assertAlmostEqual(self.rate(base, probes) / self.rate(slow, probes), 1.1)

    def test_median_sits_in_the_larger_kind(self):
        xs = [0.1, 0.1, 0.2] * 40
        self.assertEqual(statistics.median(stats.scaled(xs, [REF] * 120)), 0.1)

    def test_cycle_counts_the_gap_between_requests(self):
        recs = [{"start": 0.0, "done": 0.1}, {"start": 0.15, "done": 0.25}]
        self.assertEqual(stats.cycle_times(recs), [0.15, 0.1])


class ArrivalSchedule(unittest.TestCase):
    def test_same_seed_reproduces_exactly(self):
        a = stats.jittered_schedule(42, 4.0, 30.0)
        b = stats.jittered_schedule(42, 4.0, 30.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, stats.jittered_schedule(43, 4.0, 30.0))

    def test_rate_is_exact_per_slot(self):
        s = stats.jittered_schedule(7, 4.0, 30.0)
        self.assertEqual(len(s), 120)
        self.assertEqual(s, sorted(s))
        for k in range(120):
            self.assertTrue(k * 0.25 <= s[k] < (k + 1) * 0.25)

    def test_gaps_stay_apart_and_vary(self):
        s = stats.jittered_schedule(3, 4.0, 100.0)
        gaps = [b - a for a, b in zip(s, s[1:])]
        self.assertGreaterEqual(min(gaps), 0.25 * 0.4)
        self.assertLess(min(gaps), 0.25 * 0.5)
        self.assertGreater(max(gaps), 0.25 * 1.5)


class OpenLoopAccounting(unittest.TestCase):
    def test_latency_runs_from_due_when_the_generator_is_late(self):
        records = [
            {"due": 1.0, "submit": 1.0, "done": 1.05},
            # the generator was busy in a drain and submitted 300 ms late
            {"due": 1.1, "submit": 1.4, "done": 1.45},
        ]
        lat, late = stats.open_loop_latency(records)
        self.assertAlmostEqual(lat[0], 50.0)
        self.assertAlmostEqual(lat[1], 350.0)
        self.assertAlmostEqual(late[0], 0.0)
        self.assertAlmostEqual(late[1], 300.0)


if __name__ == "__main__":
    unittest.main()
