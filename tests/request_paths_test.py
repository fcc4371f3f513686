#!/usr/bin/env python3
"""One request, one answer, on every path of sunmap_cli.

Starts `sunmap_cli --serve` on a temporary socket, then checks that a
request gives the same report in-process, through `--call` and across
`--workers`, and that every input the request path cannot honour is
rejected by name.

  request_paths_test.py <path to sunmap_cli>

Registered with ctest as request_paths_test.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIFF_REPORTS = os.path.join(ROOT, "scripts", "diff_sweep_reports.py")
CLI = None  # Set from argv in __main__.

# Routing, objective, fault and fplan axes plus two base flags: 16 design
# points.
GRID = ["--app", "vopd", "--sweep", "--routing", "DO,MP",
        "--objective", "delay,weighted", "--w-delay", "2",
        "--faults", "none,n1", "--fplan-sizing-passes", "0,2",
        "--reheat", "1"]
# The simulated finalist tier: fault-aware scores, bursty simulation and
# the sim re-rank.
SIM_TIER = ["--app", "vopd", "--sweep", "--routing", "DO,MP,SM",
            "--objective", "delay,power", "--faults", "n1",
            "--sim-finalists", "3", "--sim-rank", "--sim-traffic", "bursty"]


class RequestPathsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        tmp = tempfile.TemporaryDirectory()
        cls.addClassCleanup(tmp.cleanup)
        cls.tmp = tmp.name
        cls.socket = os.path.join(cls.tmp, "daemon.sock")
        cls.daemon = subprocess.Popen(
            [CLI, "--serve", cls.socket], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        cls.addClassCleanup(cls.stop_daemon)
        deadline = time.monotonic() + 10
        while not os.path.exists(cls.socket):
            if time.monotonic() > deadline or cls.daemon.poll() is not None:
                raise RuntimeError("sunmap_cli --serve never came up")
            time.sleep(0.02)

    @classmethod
    def stop_daemon(cls):
        cls.daemon.send_signal(signal.SIGINT)
        try:
            cls.daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            cls.daemon.kill()
            cls.daemon.wait()

    def path(self, name):
        return os.path.join(self.tmp, name)

    def cli(self, *args):
        return subprocess.run([CLI, *args], capture_output=True, text=True,
                              timeout=300)

    def ok(self, *args):
        result = self.cli(*args)
        self.assertEqual(result.returncode, 0, result.stderr)
        return result

    def read(self, name):
        with open(self.path(name), "rb") as f:
            return f.read()

    def raw_request(self, text):
        """Sends raw request text to the daemon; returns its reply."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(self.socket)
            conn.sendall(text.encode())
            conn.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
        return reply.decode()

    def test_grid_is_one_report_on_every_path(self):
        self.ok(*GRID, "--json", self.path("grid.json"),
                "--csv", self.path("grid.csv"))
        self.ok(*GRID, "--call", self.socket, "--json",
                self.path("grid_call.json"))
        in_process = self.read("grid.json")
        self.assertEqual(len(json.loads(in_process)["points"]), 16)
        self.assertEqual(in_process, self.read("grid_call.json"))

        self.ok(*GRID, "--workers", "3", "--csv", self.path("grid_workers.csv"))
        diff = subprocess.run(
            [sys.executable, DIFF_REPORTS, self.path("grid.csv"),
             self.path("grid_workers.csv")], capture_output=True, text=True)
        self.assertEqual(diff.returncode, 0, diff.stdout)

    def test_sim_tier_is_one_report_at_any_thread_count_and_via_call(self):
        self.ok(*SIM_TIER, "--threads", "1", "--json", self.path("t1.json"))
        self.ok(*SIM_TIER, "--threads", "4", "--json", self.path("t4.json"))
        self.ok(*SIM_TIER, "--call", self.socket, "--json",
                self.path("t_call.json"))
        serial = self.read("t1.json")
        self.assertIn(b'"sim_winners"', serial)
        self.assertEqual(serial, self.read("t4.json"))
        self.assertEqual(serial, self.read("t_call.json"))

    def test_single_point_is_one_report_at_any_thread_count(self):
        # Single-point runs spread topologies over --threads workers and
        # size the finalist pool with it, like sweeps do.
        runs = []
        for threads in ("1", "4"):
            result = self.ok("--app", "mpeg4", "--routing", "SA",
                             "--sim-validate", "--threads", threads,
                             "--csv", self.path("single.csv"))
            runs.append((result.stdout, self.read("single.csv")))
        self.assertIn("Flit-level validation", runs[0][0])
        self.assertEqual(runs[0], runs[1])

    def test_validation_without_a_feasible_candidate_is_one_line(self):
        # No topology carries netproc16's min-path loads on 500 MB/s links,
        # so the finalist tier has nothing to simulate.
        result = self.cli("--app", "netproc16", "--routing", "MP",
                          "--sim-validate")
        self.assertEqual(result.returncode, 1, result.stderr)
        self.assertIn("Flit-level validation: no feasible candidate to "
                      "simulate.\n", result.stdout)
        self.assertNotIn("analytical (cyc)", result.stdout)
        self.assertIn("No feasible mapping", result.stdout)

    def test_daemon_rejects_unknown_and_repeated_keys_by_name(self):
        reply = self.raw_request("app=vopd\nbogus_key=1\n\n")
        self.assertTrue(reply.startswith("ERR "), reply)
        self.assertIn("bogus_key", reply)
        reply = self.raw_request("app=vopd\nroutings=DO\nroutings=MP\n\n")
        self.assertTrue(reply.startswith("ERR "), reply)
        self.assertIn("routings", reply)
        reply = self.raw_request("app=vopd\nsim_engine=cycle\n\n")
        self.assertTrue(reply.startswith("ERR "), reply)
        self.assertIn("unknown request key sim_engine", reply)

    def test_daemon_refuses_keys_that_size_memory_by_name(self):
        cases = [
            ("app=mwd\nsearches=rsa\nrestarts=1000000\n\n",
             ["annealing_restarts", "1000000"]),
            ("app=mwd\nfaults=rand\nfault_samples=2000000000\n\n",
             ["num_scenarios", "2000000000"]),
        ]
        for text, named in cases:
            with self.subTest(text=text):
                reply = self.raw_request(text)
                self.assertTrue(reply.startswith("ERR "), reply)
                for name in named:
                    self.assertIn(name, reply)

    def test_reheats_past_the_annealing_budget_are_refused(self):
        # At INT_MAX the reheat schedule's loop never ended.
        result = self.cli("--app", "vopd", "--search", "sa",
                          "--reheat", "2147483647")
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn("annealing_reheats", result.stderr)
        reply = self.raw_request(
            "app=vopd\nsearches=sa\nreheat=2147483647\n\n")
        self.assertTrue(reply.startswith("ERR "), reply)
        self.assertIn("annealing_reheats", reply)

    def test_sampler_keys_need_a_rand_fault_set(self):
        # Without a rand set the sampler values would be ignored and the
        # request would run fault-free.
        for args, key in ((["--fault-samples", "0", "--fault-seed", "9"],
                           "fault_samples=0"),
                          (["--faults", "n1", "--fault-seed", "9"],
                           "fault_seed=9")):
            with self.subTest(args=args):
                result = self.cli("--app", "vopd", *args)
                self.assertEqual(result.returncode, 2, result.stdout)
                self.assertIn(key, result.stderr)
        reply = self.raw_request("app=vopd\nfault_samples=0\nfault_seed=9\n\n")
        self.assertTrue(reply.startswith("ERR "), reply)
        self.assertIn("fault_samples=0", reply)

    def test_call_rejects_each_flag_it_cannot_honour(self):
        for flag in (["--file", self.path("app.cg")], ["--workers", "2"],
                     ["--checkpoint", self.path("c")], ["--resume"],
                     ["--progress"], ["--csv", self.path("x.csv")],
                     ["--floorplan"], ["--out", self.path("out")]):
            with self.subTest(flag=flag[0]):
                result = self.cli("--app", "vopd", "--sweep", "--call",
                                  self.socket, *flag)
                self.assertEqual(result.returncode, 2, result.stdout)
                self.assertIn(flag[0], result.stderr)
        self.assertFalse(os.path.exists(self.path("x.csv")))
        self.assertFalse(os.path.exists(self.path("out")))

    def test_removed_flags_are_unknown_arguments(self):
        for flag in (["--sweep", "--workers", "2", "--shards", "3"],
                     ["--sim-finalists", "1", "--sim-engine", "cycle"]):
            with self.subTest(flag=flag[-2]):
                result = self.cli("--app", "vopd", *flag)
                self.assertEqual(result.returncode, 2, result.stdout)
                self.assertIn("unknown argument " + flag[-2], result.stderr)

    def test_bad_flags_exit_2_naming_flag_and_value(self):
        cases = [
            (["--threads", "abc"], ["threads", "abc"]),
            (["--threads", "99999999999"], ["threads", "99999999999"]),
            (["--sweep", "--workers", "abc"], ["--workers", "abc"]),
            (["--serve-requests", "many"], ["--serve-requests", "many"]),
            (["--serve-threads", "2.5"], ["--serve-threads", "2.5"]),
            # Thread counts outside [1, 256], refused before any thread.
            (["--threads", "0"], ["threads=0", "[1, 256]"]),
            (["--threads", "257"], ["threads=257", "[1, 256]"]),
            (["--serve", self.path("bounded.sock"), "--serve-threads", "257"],
             ["accept_threads", "[1, 256]", "257"]),
            # Worker counts outside [1, 256], refused before any fork.
            (["--sweep", "--routing", "DO", "--workers", "-3"],
             ["--workers", "[1, 256]", "got -3"]),
            (["--routing", "DO", "--workers", "257"],
             ["--workers", "[1, 256]", "got 257"]),
            (["--routing", "DO", "--routing", "MP"], ["routings"]),
            (["--objective", "weighted", "--w-delay", "inf"],
             ["delay=inf"]),
            (["--faults", "0-1/s7", "--fault-penalty", "inf"],
             ["infeasible_penalty", "got inf"]),
            # Each would hold gigabytes; refused before any allocation.
            (["--search", "rsa", "--restarts", "1000000"],
             ["annealing_restarts", "1000000"]),
            (["--faults", "rand", "--fault-samples", "2000000000"],
             ["num_scenarios", "2000000000"]),
        ]
        for args, named in cases:
            with self.subTest(args=args):
                result = self.cli("--app", "vopd", *args)
                self.assertEqual(result.returncode, 2, result.stdout)
                for name in named:
                    self.assertIn(name, result.stderr)
        self.assertFalse(os.path.exists(self.path("bounded.sock")))

    def test_daemon_refuses_a_thread_count_above_the_bound(self):
        reply = self.raw_request("app=vopd\nthreads=257\n\n")
        self.assertTrue(reply.startswith("ERR "), reply)
        self.assertIn("threads=257", reply)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__)
        sys.exit(2)
    CLI = os.path.abspath(sys.argv.pop(1))
    unittest.main()
