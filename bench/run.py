"""End-to-end and per-layer benchmark of `pxthin run`.

Run from the root of a checkout:

    python3 bench/run.py --workload solve_sin_l7 --seed 0 --seconds 30 --trace 0

Workloads: solve_sin_l7, pipeline_affine_l7, verify_l5 (bench/workloads.py;
why each was chosen is in bench/NOTES.md).  The seed becomes the config's
`[solver] seed`.  Every `pxthin run` is a fresh process with BLAS threads
pinned to 1 and PXTHIN_THREADS unset, and is checked: exit 0,
`contracts_failed = none`, key summary values against the workload's
reference, and artifacts byte-identical across the repeats (the
`wall_time` column of solve_report.csv excluded).

--workload all runs the three in turn in one invocation.
--trace 0 prints run_s, setup_s and peak_rss_mb (medians) and failed_share.
--trace 1 pairs an untraced run with a traced one (bench/trace_run.py) and
prints the per-layer breakdown and trace.overhead_s.  The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; the full
record, with the environment and the config text, goes to
.bench_work/results/.  The exit code is 0 only when every run passed its
checks.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check_summary, config_text, read_summary  # noqa: E402

SETUP_REPEATS = 5
MIN_RUNS = 3
DEADLINE_S = 170.0         # every run of one invocation ends before this
RUN_CMD = ("import sys; from pxthin.cli import main; "
           "sys.exit(main(sys.argv[1:]))")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer units; any name not listed is a time in seconds
LAYER_UNITS = {"trace.layer_share": "share",
               "solver.ls_evals_per_iter": "calls/iter",
               "vxspace.modular_per_norm": "calls/norm",
               "solver.newton_iters": "count"}
# ROADMAP open item 1's table, for the recorded (not gated) cross-check
ROADMAP = {"mesh.build_s": 0.40, "solver.solve_s": 2.99}


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "count" if name.endswith("_calls") else "s"


def child_env(root):
    env = dict(os.environ)
    env.pop("PXTHIN_THREADS", None)
    for var in BLAS_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def environment(seed, text):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": {var: "1" for var in BLAS_VARS},
        "pxthin_threads": "unset",
        "seed": seed,
        "config": text,
    }


class Bench:
    """One invocation: a work directory, a deadline and the runs made so far."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.env = child_env(root)
        self.text = config_text(workload, seed)
        self.work = os.path.join(root, ".bench_work",
                                 "%s-s%d-%d" % (workload, seed, os.getpid()))
        self.start = time.perf_counter()
        self.attempted = 0
        self.problems = []         # (run label, message)
        self.failed_runs = 0
        self.first_hashes = None
        self.count = 0

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def child(self, argv, cwd):
        """Run one process to its end; return (wall s, exit code, peak RSS MB).

        The process is killed when the invocation's deadline passes.
        """
        with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
                open(os.path.join(cwd, "stderr.txt"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=cwd,
                                    env=self.env, stdout=out, stderr=err)
            reaped = {}

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.update(t=time.perf_counter(), status=status, usage=usage)

            waiter = threading.Thread(target=reap)
            waiter.start()
            waiter.join(max(1.0, self.remaining()))
            if waiter.is_alive():
                proc.kill()
                waiter.join()
            proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
        return (reaped["t"] - t0, proc.returncode,
                reaped["usage"].ru_maxrss / 1024.0)

    def new_dir(self, label):
        self.count += 1
        path = os.path.join(self.work, "%s%d" % (label, self.count))
        os.makedirs(path)
        with open(os.path.join(path, "run.cfg"), "w", encoding="utf-8") as f:
            f.write(self.text)
        return path

    def setup_sample(self):
        path = self.new_dir("setup")
        wall, code, _ = self.child(
            [os.path.join(HERE, "setup_probe.py"), "run.cfg",
             "1" if self.spec["solves"] else "0"], path)
        if code != 0:
            raise SystemExit("setup probe exited %d after %.1f s; see %s"
                             % (code, wall, path))
        with open(os.path.join(path, "stdout.txt"), encoding="utf-8") as f:
            return float(f.read().split()[-1])

    def checked_run(self, argv, label):
        """One `pxthin run`, checked; returns (wall s, peak RSS MB, run dir)."""
        path = self.new_dir(label)
        wall, code, rss = self.child(argv, path)
        self.attempted += 1
        problems = self.check(path, code)
        if problems:
            self.failed_runs += 1
            self.problems.extend((os.path.basename(path), p) for p in problems)
        shutil.rmtree(os.path.join(path, "out"), ignore_errors=True)
        return wall, rss, path

    def check(self, path, code):
        if code != 0:
            with open(os.path.join(path, "stderr.txt"), encoding="utf-8",
                      errors="replace") as f:
                tail = f.read().strip().splitlines()[-1:]
            return ["exit code %d %s" % (code, " ".join(tail))]
        out = os.path.join(path, "out")
        summary_path = os.path.join(out, "summary.txt")
        if not os.path.exists(summary_path):
            return ["no summary.txt"]
        problems = check_summary(self.workload, read_summary(summary_path))
        hashes = artifact_hashes(out)
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            differ = sorted(k for k in set(hashes) | set(self.first_hashes)
                            if hashes.get(k) != self.first_hashes.get(k))
            problems.append("artifacts differ from the first run: "
                            + ", ".join(differ))
        return problems

    def run_argv(self):
        return ["-c", RUN_CMD, "run", "run.cfg"]

    def trace_argv(self):
        return [os.path.join(HERE, "trace_run.py"), "run.cfg", "trace.json",
                "1" if self.spec.get("scan_after") else "0"]


def artifact_hashes(out):
    """sha256 of each artifact, without solve_report.csv's wall_time column."""
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            data = f.read()
        if name == "solve_report.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0]
                              for line in data.split(b"\n"))
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


def measure_end_to_end(bench, seconds):
    setup = [bench.setup_sample() for _ in range(SETUP_REPEATS)]
    walls, rss = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(walls) >= MIN_RUNS and elapsed + statistics.median(walls) > seconds:
            break
        if walls and bench.remaining() < 1.5 * max(walls):
            break
        wall, peak, _ = bench.checked_run(bench.run_argv(), "run")
        walls.append(wall)
        rss.append(peak)
    metrics = {"run_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(rss)}
    samples = {"run_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, samples


def measure_layers(bench, seconds):
    """Pairs of an untraced and a traced run; per-layer medians over pairs."""
    pairs = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if pairs and elapsed + elapsed / len(pairs) > seconds:
            break
        if pairs and bench.remaining() < 1.5 * elapsed / len(pairs):
            break
        plain, _, _ = bench.checked_run(bench.run_argv(), "run")
        traced, _, path = bench.checked_run(bench.trace_argv(), "trace")
        result_path = os.path.join(path, "trace.json")
        if not os.path.exists(result_path):
            break       # the traced process crashed; counted as failed
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
        traced_run = traced - result["post_s"]
        layer = dict(result["metrics"])
        layer["trace.run_s"] = traced_run
        layer["trace.overhead_s"] = traced_run - plain
        layer["trace.layer_share"] = result["covered_s"] / traced_run
        pairs.append(layer)
    if not pairs:
        raise SystemExit("no traced run completed: %s" % bench.problems)
    metrics = {k: statistics.median(p[k] for p in pairs) for k in pairs[0]}
    return metrics, {"pairs": pairs}


def report(bench, trace, metrics, samples):
    failed_share = bench.failed_runs / bench.attempted
    print("workload %s  seed %d  trace %d  runs %d  failed %d"
          % (bench.workload, bench.seed, trace, bench.attempted,
             bench.failed_runs))
    for name in sorted(metrics):
        print("  %-28s %14.6g %s" % (name, metrics[name], unit_of(name)))
    print("  %-28s %14.6g %s" % ("failed_share", failed_share, "share"))
    if trace:
        selfs = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
        print("  blocking layer (largest self time): %s"
              % max(selfs, key=selfs.get))
        if bench.workload == "solve_sin_l7":
            for name, base in sorted(ROADMAP.items()):
                print("  roadmap cross-check %s: %.3g s here, %.3g s in "
                      "ROADMAP item 1 (ratio %.2f)"
                      % (name, metrics[name], base, metrics[name] / base))
    for run, message in bench.problems:
        print("  CHECK FAILED %s: %s" % (run, message))
    record = {"workload": bench.workload, "trace": trace,
              "environment": environment(bench.seed, bench.text),
              "attempted": bench.attempted, "failed": bench.failed_runs,
              "failed_share": failed_share, "problems": bench.problems,
              "metrics": metrics, "samples": samples}
    results = os.path.join(bench.root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (bench.workload, bench.seed, trace)),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    env = record["environment"]
    print("  environment: nproc %d, python %s, numpy %s, scipy %s, "
          "BLAS threads 1, seed %d" % (env["nproc"], env["python"],
                                       env["numpy"], env["scipy"], bench.seed))


def run_workload(root, workload, args):
    bench = Bench(root, workload, args.seed)
    try:
        if args.trace:
            metrics, samples = measure_layers(bench, args.seconds)
        else:
            metrics, samples = measure_end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    report(bench, args.trace, metrics, samples)
    return bench, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs each workload in turn and prefixes "
                             "its metric names with the workload's")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pxthin", "cli.py")):
        print("error: no src/pxthin here; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        bench, found = run_workload(root, name, args)
        attempted += bench.attempted
        failed += bench.failed_runs
        prefix = name + "." if len(names) > 1 else ""
        metrics.update((prefix + k, {"value": v, "unit": unit_of(k)})
                       for k, v in found.items())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
