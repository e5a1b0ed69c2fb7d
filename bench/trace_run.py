"""Run `pxthin run <config>` in this process with a span around each layer call.

    python3 bench/trace_run.py <config> <result.json> <scan: 0|1>

Every public function of the layer modules (mesh, exponent, energy, solver,
vxspace, comparison, analysis) is wrapped under each name through which
pxthin code reaches it, e.g. `pxthin.solver.hessian` as well as
`pxthin.energy.hessian`, together with `ExponentField.eval`,
`EnergySetup.__init__` and the cli entry points `run_command` and
`luxemburg_identity_checks`.  A span is (name, start, end, parent); spans
stay in memory and the per-layer metrics computed from them are written to
<result.json> when the run has ended.

With scan = 1, `higher_integrability_scan` is then called on the run's
solved u and w at the CLI's default scan radius, outside the run, to fill
`analysis.scan_s` (see NOTES.md for why the workload cannot run `scan`).
"""

import functools
import inspect
import json
import math
import os
import sys
import time

import pxthin
import pxthin.cli as cli
from workloads import read_summary

LAYERS = ("mesh", "exponent", "energy", "solver", "vxspace", "comparison",
          "analysis")
# any other cli function is part of cli self time
CLI_ENTRIES = ("run_command", "luxemburg_identity_checks")
METHODS = ((pxthin.ExponentField, "eval", "exponent.eval"),
           (pxthin.EnergySetup, "__init__", "energy.EnergySetup"))


class Tracer:
    """In-memory spans of one single-threaded run."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, newton iterations]
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "solver.solve":
                span[4] = sum(result[1].iterations)
            return result
        return traced


def install(tracer):
    """Replace every layer entry point, under every pxthin name bound to it."""
    names = {}
    for layer in LAYERS:
        module = sys.modules["pxthin." + layer]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                names[obj] = layer + "." + attr
    for attr in CLI_ENTRIES:
        names[getattr(cli, attr)] = "cli." + attr
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    modules = [m for key, m in sys.modules.items()
               if key == "pxthin" or key.startswith("pxthin.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    for cls, attr, name in METHODS:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))


def breakdown(spans):
    """Per-layer metrics of one run's spans; see NOTES.md for each name."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_solve = [False] * n
    in_norm = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
        in_solve[i] = name == "solver.solve" or (parent >= 0 and in_solve[parent])
        in_norm[i] = (name == "vxspace.luxemburg_norm"
                      or (parent >= 0 and in_norm[parent]))
    own = [dur[i] - child[i] for i in range(n)]

    def total(name, values=dur):
        return sum(v for s, v in zip(spans, values) if s[0] == name)

    def calls(name, where=None):
        return sum(1 for i, s in enumerate(spans)
                   if s[0] == name and (where is None or where[i]))

    def layer_self(layer):
        return sum(v for s, v in zip(spans, own) if s[0].startswith(layer + "."))

    newton = sum(s[4] for s in spans if s[0] == "solver.solve")
    norms = calls("vxspace.luxemburg_norm")
    root = [i for i, s in enumerate(spans) if s[0] == "cli.run_command"]
    m = {
        "mesh.build_s": total("mesh.build"),
        "mesh.text_calls": calls("mesh.mesh_text"),
        "mesh.text_s": total("mesh.mesh_text"),
        "mesh.submesh_s": total("mesh.extract_halfball_submesh"),
        "mesh.self_s": layer_self("mesh"),
        "exponent.eval_calls": calls("exponent.eval"),
        "exponent.eval_s": total("exponent.eval"),
        "exponent.self_s": layer_self("exponent"),
        "energy.setup_calls": calls("energy.EnergySetup"),
        "energy.setup_s": total("energy.EnergySetup"),
        "energy.energy_calls": calls("energy.energy"),
        "energy.energy_s": total("energy.energy"),
        "energy.residual_calls": calls("energy.residual"),
        "energy.residual_s": total("energy.residual"),
        "energy.hessian_calls": calls("energy.hessian"),
        "energy.hessian_s": total("energy.hessian"),
        "energy.self_s": layer_self("energy"),
        "solver.solve_calls": calls("solver.solve"),
        "solver.solve_s": total("solver.solve"),
        "solver.newton_iters": newton,
        "solver.self_s": total("solver.solve", own),
        "solver.ls_evals_per_iter":
            calls("energy.energy", in_solve) / newton if newton else 0.0,
        "solver.vi_check_s": total("solver.vi_check"),
        "solver.save_s": total("solver.save_solution"),
        "vxspace.modular_calls": calls("vxspace.modular"),
        "vxspace.modular_s": total("vxspace.modular"),
        "vxspace.luxemburg_calls": norms,
        "vxspace.luxemburg_s": total("vxspace.luxemburg_norm"),
        "vxspace.modular_per_norm":
            calls("vxspace.modular", in_norm) / norms if norms else 0.0,
        "vxspace.campanato_s": total("vxspace.campanato_profile"),
        "vxspace.self_s": layer_self("vxspace"),
        "comparison.reference_s": total("comparison.build_reference"),
        "comparison.reflect_s": total("comparison.reflect_and_check"),
        "comparison.M_s": total("comparison.compute_M"),
        "comparison.decay_s": total("comparison.comparison_decay"),
        "comparison.self_s": layer_self("comparison"),
        "analysis.iteration_s": total("analysis.iteration_suite"),
        "analysis.monotonicity_s": total("analysis.monotonicity_check"),
        "analysis.holder_s": total("analysis.gradient_holder_fit"),
        "analysis.self_s": layer_self("analysis"),
        "cli.luxemburg_checks_s": total("cli.luxemburg_identity_checks"),
        "cli.self_s": total("cli.run_command", own),
    }
    # time inside run_command that some layer span covers
    covered = sum(dur[i] for i, s in enumerate(spans) if s[3] in root)
    return m, covered


def scan_after_run(config_path):
    """Time higher_integrability_scan on the run's u and w, as `scan` would."""
    config = cli.parse_config(config_path)
    outdir = config["output"]["dir"]
    exponent = config["exponent"]
    field = pxthin.ExponentField(exponent["family"], exponent["coefficients"],
                                 beta=exponent["beta"],
                                 holder_seminorm=exponent["holder_seminorm"])
    mesh = pxthin.build(config["mesh"]["level"], config["mesh"]["grading"])
    u = pxthin.load_solution(os.path.join(outdir, "u.txt"), mesh)
    w = pxthin.load_solution(os.path.join(outdir, "w.txt"), mesh)
    summary = read_summary(os.path.join(outdir, "summary.txt"))
    center = config["scan"]["center"]
    # the CLI's default radius (cli.run_command, experiment "scan")
    r_adm = pxthin.admissible_radius(field, float(summary["M"]))
    radius = min(0.95 * r_adm, (0.75 - math.hypot(*center)) / 2.0)
    t0 = time.perf_counter()
    pxthin.higher_integrability_scan(u, w, field, center, radius)
    return time.perf_counter() - t0


def main(config_path, result_path, scan):
    tracer = Tracer()
    install(tracer)
    status = cli.main(["run", config_path])
    run_end = time.perf_counter()
    metrics, covered = breakdown(tracer.spans)
    metrics["analysis.scan_s"] = (scan_after_run(config_path)
                                   if scan and status == 0 else 0.0)
    # post_s: time this process spent after the run, which the caller
    # subtracts from the process wall time to get the traced run_s
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "covered_s": covered,
                   "post_s": time.perf_counter() - run_end}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1"))
