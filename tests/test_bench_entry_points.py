"""The benchmark's entry points, run as the benchmark runs them, so that a
rename they rely on fails here first."""

import importlib.util
import json
import os
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
    text = workloads.config_text(workload, 0)
    assert "level = 7" in text
    (tmp_path / "c.cfg").write_text(text.replace("level = 7", "level = %d" % level))
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
