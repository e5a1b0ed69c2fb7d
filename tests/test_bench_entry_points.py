"""The benchmark's entry points, run as the benchmark runs them, so that a
rename they rely on fails here first."""

import importlib.util
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _config(tmp_path, workload, level):
    """The workload's seed-0 config at another mesh level, written to tmp_path."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(BENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    text, count = re.subn(r"^level = \d+$", "level = %d" % level,
                          workloads.config_text(workload, 0), flags=re.M)
    assert count == 1
    (tmp_path / "c.cfg").write_text(text)
    return "c.cfg"


def _run(tmp_path, script, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(BENCH, script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_setup_probe_prints_its_seconds(tmp_path):
    out = _run(tmp_path, "setup_probe.py", _config(tmp_path, "solve_sin_l7", 3), "1")
    assert float(out) > 0.0


def test_trace_run_times_the_scan_after_the_run(tmp_path):
    _run(tmp_path, "trace_run.py", _config(tmp_path, "pipeline_affine_l7", 6),
         "trace.json", "1")
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["metrics"]["analysis.scan_s"] > 0.0
    assert trace["metrics"]["comparison.reference_s"] > 0.0


def test_trace_run_counts_the_luxemburg_checks_as_a_layer(tmp_path):
    # the check's norms and modulars go through the public vxspace
    # functions, which the tracer wraps: three norms and two modulars per
    # trial, with the run's field and p = 3 each evaluated once
    _run(tmp_path, "trace_run.py", _config(tmp_path, "verify_l5", 3),
         "trace.json", "0")
    trials = int(re.search(r"^luxemburg_trials = (\d+)$",
                           (tmp_path / "c.cfg").read_text(), re.M).group(1))
    metrics = json.loads((tmp_path / "trace.json").read_text())["metrics"]
    assert metrics["vxspace.luxemburg_calls"] == 3 * trials
    assert metrics["vxspace.modular_calls"] == 2 * trials
    assert metrics["exponent.eval_calls"] == 2
