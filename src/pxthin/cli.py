"""Command line front end: configured runs and summary merging.

Configs are plain text ``key = value`` files with ``[section]`` headers.  A
config either parses completely or the run is rejected with a line/field
diagnostic; unknown sections and unknown keys are errors, not warnings.

Exit codes: 0 all asserted contracts passed, 1 a contract was violated (the
violated invariant is named on stderr), 2 configuration or I/O failure.
"""

import argparse
import copy
import csv
import io
import os
import sys

import numpy as np

from .analysis import (ALPHA0, MONO_GAMMA, checked_gamma_range,
                       checked_outer_balls, checked_scan_radius,
                       gradient_holder_fit, higher_integrability_scan,
                       iteration_suite, monotonicity_check, theoretical_alpha)
from .comparison import FREEZE_SIGMA0, build_reference, comparison_decay
from .energy import EnergySetup
from .errors import (ConfigError, ConvergenceError, FormatError,
                     PreconditionError, PxthinError, ResolutionError,
                     ResourceError, checked_trials)
from .exponent import FAMILIES, ExponentField, checked_beta
from .mesh import (ARC, _finite, _text_lines, _write_text, build,
                   checked_center, checked_grading, checked_level,
                   checked_radii, save_mesh)
from .solver import (EPS_SCHEDULE, ObstacleProblem, checked_tol, load_solution,
                     save_solution, solve, vi_check)
from .vxspace import luxemburg_identity_checks

_PRESETS = ("linear_xn", "signorini32", "custom")

_REQUIRED = object()


def _conv_int(text):
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError("not an integer")


def _conv_seed(text):
    seed = _conv_int(text)
    if seed < 0:
        raise ValueError("a seed must be >= 0, got %d" % seed)
    return seed


def _checked(check, conv):
    """conv, then a library check; its PreconditionError or ResourceError is
    a bad value."""
    def converter(text):
        try:
            return check(conv(text))
        except (PreconditionError, ResourceError) as exc:
            raise ValueError(str(exc))
    return converter


_conv_trials = _checked(checked_trials, _conv_int)


def _conv_floats(text):
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise ValueError("expected a comma separated list of numbers")
    return [_finite(p) for p in parts]


def _conv_point(text):
    coords = _conv_floats(text)
    if len(coords) != 2:
        raise ValueError("expected two coordinates")
    return coords


def _conv_points(text):
    groups = [g for g in text.split(";") if g.strip()]
    if not groups:
        raise ValueError("expected 'x1, x2' pairs separated by ';'")
    return [_conv_point(g) for g in groups]


def _choice(options):
    def conv(text):
        if text not in options:
            raise ValueError("expected one of: " + ", ".join(options))
        return text
    return conv


def _conv_experiments(text):
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ValueError("expected a comma separated list of experiments")
    known = [row[0] for row in _EXPERIMENTS]
    for name in names:
        if name not in known:
            raise ValueError("unknown experiment %r; expected one of: %s"
                             % (name, ", ".join(known)))
    return names


# schema: section -> key -> (converter, default); _REQUIRED marks mandatory keys
_SCHEMA = {
    "exponent": {
        "family": (_choice(FAMILIES), _REQUIRED),
        "coefficients": (_conv_floats, _REQUIRED),
        "beta": (_checked(checked_beta, _finite), 1.0),
        "holder_seminorm": (_finite, None),
    },
    "mesh": {
        "level": (_checked(checked_level, _conv_int), _REQUIRED),
        "grading": (_checked(checked_grading, _finite), 0),
    },
    "boundary": {
        "preset": (_choice(_PRESETS), _REQUIRED),
        "scale": (_finite, 1.0),
        "file": (str, None),
    },
    "solver": {
        "tol": (_checked(checked_tol, _finite), 1e-10),
        "seed": (_conv_seed, 0),
        "vi_trials": (_conv_trials, 100),
    },
    "experiments": {
        "run": (_conv_experiments, ["solve"]),
    },
    "freeze": {
        "center": (_conv_point, [-0.35, 0.0]),
        "radii": (_conv_floats, [0.2, 0.1, 0.05]),
    },
    "scan": {
        "center": (_conv_point, [0.0, 0.0]),
        "radius": (_finite, None),
    },
    "holder": {
        "centers": (_conv_points, [[0.0, 0.0]]),
        "radii": (_conv_floats, None),
    },
    "verify": {
        "iteration_trials": (_conv_trials, 10000),
        "monotonicity_trials": (_conv_trials, 100000),
        "luxemburg_trials": (_conv_trials, 100),
    },
    "output": {
        "dir": (str, _REQUIRED),
        "name": (str, None),
    },
}


def parse_config(path):
    """Read and validate a config file; raise ConfigError with a diagnostic.

    config["exponent"]["field"] is the ExponentField the section describes.
    """
    try:
        lines = _text_lines(path)
    except FormatError as exc:
        raise ConfigError("cannot read config %s" % exc)

    raw = {}
    section = None
    for number, line in lines:
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise ConfigError("line %d: malformed section header %r"
                                  % (number, text))
            section = text[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError("line %d: unknown section [%s]" % (number, section))
            raw.setdefault(section, {})
            continue
        if "=" not in text:
            raise ConfigError("line %d: expected 'key = value', got %r"
                              % (number, text))
        if section is None:
            raise ConfigError("line %d: key outside any [section]" % number)
        key, value = text.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError("line %d: unknown key '%s' in [%s]"
                              % (number, key, section))
        if key in raw[section]:
            raise ConfigError("line %d: duplicate key '%s' in [%s]"
                              % (number, key, section))
        if value == "":
            raise ConfigError("line %d: empty value for '%s' in [%s]"
                              % (number, key, section))
        raw[section][key] = (number, value)

    config = {}
    for section, keys in _SCHEMA.items():
        config[section] = {}
        for key, (converter, default) in keys.items():
            if section in raw and key in raw[section]:
                number, value = raw[section][key]
                try:
                    config[section][key] = converter(value)
                except ValueError as exc:
                    raise ConfigError("line %d: bad value for [%s] %s: %s"
                                      % (number, section, key, exc))
            elif default is _REQUIRED:
                raise ConfigError("missing required key: [%s] %s" % (section, key))
            else:
                # a copy, so a caller that edits its config edits no default
                config[section][key] = copy.deepcopy(default)

    if config["boundary"]["preset"] == "custom":
        if config["boundary"]["file"] is None:
            raise ConfigError("missing required key: [boundary] file "
                              "(needed by preset = custom)")
    elif config["boundary"]["file"] is not None:
        raise ConfigError("[boundary] file is only valid with preset = custom")
    exponent = config["exponent"]
    try:
        exponent["field"] = ExponentField(
            exponent["family"], exponent["coefficients"], beta=exponent["beta"],
            holder_seminorm=exponent["holder_seminorm"])
    except PreconditionError as exc:
        raise ConfigError("[exponent] %s" % exc)
    return config


def normalize_experiments(requested):
    """The requested experiments and all they consume, in run order."""
    chosen = set(requested)
    # an experiment needs only earlier ones, so one backward pass closes
    for name, needs, _, _ in reversed(_EXPERIMENTS):
        if name in chosen:
            chosen.update(needs)
    return [row[0] for row in _EXPERIMENTS if row[0] in chosen]


def _f17(value):
    return "%.17g" % float(value)


def _join17(values):
    return ";".join(_f17(v) for v in values)


def _write_csv(path, header, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, text.getvalue())


def boundary_values(config, mesh, config_dir):
    """Nodal boundary/start data for the configured preset."""
    section = config["boundary"]
    preset = section["preset"]
    scale = section["scale"]
    x = mesh.vertices
    if preset == "linear_xn":
        base = x[:, 1].copy()
    elif preset == "signorini32":
        radius = np.hypot(x[:, 0], x[:, 1])
        theta = np.arctan2(x[:, 1], x[:, 0])
        base = radius ** 1.5 * np.cos(1.5 * theta)
    else:
        path = section["file"]
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        base = load_solution(path, mesh).values
    return scale * base


class _Run:
    """What the experiment steps of one run share: inputs, results so far,
    summary rows and contract checks."""

    def __init__(self, config, config_dir, field, mesh, summary):
        self.config = config
        self.config_dir = config_dir
        self.field = field
        self.mesh = mesh
        self.outdir = config["output"]["dir"]
        self.tol = config["solver"]["tol"]
        self.seed = config["solver"]["seed"]
        self.summary = summary
        self.checks_run = 0
        self.violations = []
        self.problem = None
        self.u = None
        self.solve_failed = False
        self.w = None
        self.reference = None   # ReferenceReport: M, ordering, reflection
        self.decay = None       # DecayReport of the freeze step

    def path(self, name):
        return os.path.join(self.outdir, name)

    def check(self, contract, detail):
        """Count a contract; a detail other than None says how it failed."""
        self.checks_run += 1
        if detail is not None:
            self.violations.append((contract, detail))

    def check_bound(self, contract, quantity, value, bound, upper=True):
        """Add the summary row `quantity`, and check its value against its
        upper (or lower) bound, which nan never keeps."""
        self.summary.append((quantity, _f17(value)))
        kept = value <= bound if upper else value >= bound
        self.check(contract, None if kept else "%s = %s %s %r" % (
            quantity, _f17(value), ">" if upper else "<", float(bound)))

    def write_summary(self, *extra):
        failed = ";".join(v[0] for v in self.violations) or "none"
        rows = self.summary + [("contracts_checked", str(self.checks_run)),
                               ("contracts_failed", failed)] + list(extra)
        _write_text(self.path("summary.txt"),
                    "".join("%s = %s\n" % row for row in rows))


def _run_rows(config, field, mesh, experiments):
    """Summary rows that describe the run before any experiment."""
    boundary = config["boundary"]
    name = config["output"]["name"] or \
        os.path.basename(os.path.normpath(config["output"]["dir"]))
    rows = [
        ("name", name),
        ("family", config["exponent"]["family"]),
        ("coefficients", _join17(config["exponent"]["coefficients"])),
        ("beta", _f17(field.beta)),
        ("holder_seminorm", _f17(field.holder_seminorm)),
        ("gamma1", _f17(field.gamma1)),
        ("gamma2", _f17(field.gamma2)),
        ("level", str(config["mesh"]["level"])),
        ("grading", _f17(config["mesh"]["grading"])),
        ("num_vertices", str(mesh.num_vertices)),
        ("num_triangles", str(mesh.num_triangles)),
        ("h_max", _f17(mesh.h_max)),
        ("preset", boundary["preset"]),
        ("scale", _f17(boundary["scale"])),
        ("tol", _f17(config["solver"]["tol"])),
        ("seed", str(config["solver"]["seed"])),
        ("experiments", ";".join(experiments)),
    ]
    if boundary["preset"] == "custom":
        rows.append(("preset_file", boundary["file"]))
    return rows


def _solve_step(run):
    g = boundary_values(run.config, run.mesh, run.config_dir)
    run.problem = ObstacleProblem(EnergySetup(run.mesh, run.field), g)
    detail = None
    try:
        run.u, report = solve(run.problem, run.tol)
    except ConvergenceError as exc:
        run.u, report, detail = exc.best, exc.info, str(exc)
        run.solve_failed = True
    run.check("solve_converged", detail)
    save_solution(run.u, run.path("u.txt"))
    iterations, level_iterations = (";".join(map(str, counts)) for counts in (
        report.iterations, report.level_iterations))
    _write_csv(run.path("solve_report.csv"),
               "newton_iterations,energy,free_residual,complementarity,"
               "active_count,tol,cg_steps,level_newton_iterations,"
               "level_cg_steps,wall_time".split(","),
               [[iterations, _f17(report.energy), _f17(report.free_residual),
                 _f17(report.complementarity), str(len(report.active_set)),
                 _f17(run.tol), ";".join(map(str, report.cg_steps)),
                 level_iterations, ";".join(map(str, report.level_cg_steps)),
                 _f17(report.wall_time)]])
    run.summary.extend([
        ("energy", _f17(report.energy)),
        ("newton_iterations", iterations),
        ("level_newton_iterations", level_iterations),
        ("free_residual", _f17(report.free_residual)),
        ("complementarity", _f17(report.complementarity)),
        ("active_count", str(len(report.active_set))),
        ("eps_schedule", _join17(EPS_SCHEDULE)),
    ])
    if run.solve_failed:
        return
    vi_trials = run.config["solver"]["vi_trials"]
    vi_min = vi_check(run.problem, run.u, vi_trials, run.seed)
    run.summary.extend([("vi_trials", str(vi_trials)), ("vi_min", _f17(vi_min))])
    run.check_bound("vi_nonnegative", "vi_violation", max(0.0, -vi_min), 1e-8)


def _write_comparison(run):
    # the reference step writes the summary row; freeze rewrites the file
    # with its radius rows in front
    ref, decay = run.reference, run.decay
    rows = []
    tail = ["", ""]
    if decay is not None:
        for values in zip(decay.radii, decay.p2, decay.error, decay.energy_2r,
                          decay.ratio, decay.energy_sub_u, decay.energy_sub_u0):
            rows.append(["radius"] + [_f17(v) for v in values] + [""] * 5)
        tail = [_f17(decay.sigma1), _f17(decay.fitted_rate)]
    rows.append(["summary"] + [""] * 7 + [_f17(ref.M), _f17(ref.ordering_margin),
                                          _f17(ref.reflect_residual)] + tail)
    _write_csv(run.path("comparison.csv"),
               "kind,radius,p2,error,energy_2r,ratio,int_du_p2,int_du0_p2,"
               "M,ordering_margin,reflect_residual,sigma1,fitted_rate".split(","),
               rows)


def _reference_step(run):
    run.w, ref = build_reference(run.u, run.problem, run.tol)
    run.reference = ref
    save_solution(run.w, run.path("w.txt"))
    arc = np.flatnonzero(run.mesh.vertex_tags == ARC)[0]
    run.summary.append(("m_used", _f17(run.w.values[arc])))
    run.check_bound("ordering_u_ge_w", "ordering_margin", ref.ordering_margin,
                    -1e-8, upper=False)
    run.check_bound("odd_reflection_residual", "reflect_residual",
                    ref.reflect_residual, max(1e-8, 10.0 * run.tol))
    run.summary.append(("M", _f17(ref.M)))
    _write_comparison(run)


def _freeze_plan(run):
    # comparison_decay's checks, in its order
    cfg = run.config["freeze"]
    checked_center(cfg["center"])
    checked_radii(cfg["radii"], 3, cfg["center"], run.mesh.h_max)


def _freeze_step(run):
    cfg = run.config["freeze"]
    decay = comparison_decay(run.u, run.field, cfg["center"], cfg["radii"],
                             run.reference.M, tol=run.tol)
    slack = min(a - b for a, b in zip(decay.energy_sub_u, decay.energy_sub_u0))
    run.summary.extend([
        ("freeze_center", _join17(cfg["center"])),
        ("freeze_sigma0", _f17(FREEZE_SIGMA0)),
        ("sigma1", _f17(decay.sigma1)),
        ("freeze_radii", _join17(decay.radii)),
        ("freeze_p2", _join17(decay.p2)),
        ("freeze_error", _join17(decay.error)),
        ("freeze_energy_2r", _join17(decay.energy_2r)),
        ("freeze_ratio", _join17(decay.ratio)),
    ])
    run.check_bound("frozen_energy_ordering", "dugedu0_slack", slack, -1e-10,
                    upper=False)
    run.summary.append(("decay_rate", _f17(decay.fitted_rate)))
    run.decay = decay
    _write_comparison(run)


def _scan_step(run):
    cfg = run.config["scan"]
    scan = higher_integrability_scan(run.u, run.w, run.field, cfg["center"],
                                     cfg["radius"])
    rows = [["c_sigma", _f17(scan.radius), _f17(sigma), _f17(c)]
            for sigma, c in zip(scan.sigma_grid, scan.c_sigma)]
    for rho, ratios in zip(scan.rh_radii, scan.rh_ratios):
        rows.extend(["reverse_holder", _f17(rho), _f17(sigma), _f17(ratio)]
                    for sigma, ratio in zip(scan.sigma_grid, ratios))
    _write_csv(run.path("scan.csv"), ["kind", "radius", "sigma", "value"], rows)
    run.summary.extend([("scan_center", _join17(cfg["center"])),
                        ("scan_radius", _f17(scan.radius)),
                        ("admissible_r", _f17(scan.admissible_r))])
    # the grid always holds 0, and sigma0 is a grid value
    c_sigma = dict(zip(scan.sigma_grid, scan.c_sigma))
    run.check_bound("c_at_sigma_zero", "c_zero", c_sigma[0.0], 1.0 + 1e-9)
    run.summary.extend([("sigma0", _f17(scan.sigma0)),
                        ("c_sigma0", _f17(c_sigma[scan.sigma0]))])


def _scan_plan(run):
    # higher_integrability_scan's checks at M = 1, before M is known: the
    # radius they allow and the default radius only shrink as M grows, and
    # so do the ball selections, which fail here only if they fail for certain
    cfg = run.config["scan"]
    center = checked_center(cfg["center"])
    r, _ = checked_scan_radius(cfg["radius"], run.field, 1.0, center)
    checked_outer_balls(run.mesh, center, r)


def _holder_radii(run):
    """The configured holder radii, or by default 8 from 0.25 down to
    4 h_max; a mesh too coarse for the default is rejected."""
    radii = run.config["holder"]["radii"]
    h_max = run.mesh.h_max
    if radii is not None:
        return checked_radii(radii, 2, h_max=h_max)
    if not 4.0 * h_max < 0.25:
        raise ResolutionError(
            "default radii run from 0.25 down to 4*h_max and need "
            "4*h_max < 0.25, but level %d has h_max = %s; set [holder] radii "
            "or refine the mesh" % (run.config["mesh"]["level"], _f17(h_max)))
    return list(np.geomspace(0.25, 4.0 * h_max, 8))


def _holder_plan(run):
    cfg = run.config["holder"]
    for center in cfg["centers"]:
        checked_center(center)
    _holder_radii(run)


def _holder_step(run):
    cfg = run.config["holder"]
    radii = _holder_radii(run)
    fit = gradient_holder_fit(run.u, run.field, cfg["centers"], radii)
    rows = []
    for center, profile, alpha in zip(fit.centers, fit.profiles, fit.alphas):
        for radius, integral, mean in zip(profile.radii, profile.integrals,
                                          profile.means):
            rows.append([_f17(v) for v in (center[0], center[1], profile.p, radius,
                                           integral, mean, profile.lam, alpha)])
    _write_csv(run.path("holder.csv"),
               "center_x1,center_x2,p,radius,integral,mean,lam,alpha".split(","),
               rows)
    run.summary.extend([
        ("holder_centers", ";".join(_join17(c) for c in cfg["centers"])),
        ("holder_radii", _join17(radii)),
        ("alpha_origin", _f17(fit.alphas[0])),
        ("alpha_min", _f17(fit.alpha_min)),
        ("alpha0_assumed", _f17(ALPHA0)),
        ("alpha_theory", _f17(theoretical_alpha(run.field.beta, run.field.gamma2))),
    ])


def _verify_plan(run):
    # the monotonicity check's rule, before any step: its range, the hull of
    # MONO_GAMMA and the field's, breaks it only where the field's does
    checked_gamma_range(run.field.gamma1, run.field.gamma2)


# verify's sampled checks in run order: the [verify] key of the trial count,
# the measurement (n, mesh, field, seed -> values), and per value its summary
# key, contract, bound and whether that is an upper bound. The monotonicity
# check covers MONO_GAMMA and the field's own exponent range.
_VERIFY_CHECKS = (
    ("iteration_trials", lambda n, mesh, field, seed: [iteration_suite(n, seed)],
     [("iteration_worst_slack", "iteration_lemma", 0.0, False)]),
    ("monotonicity_trials", lambda n, mesh, field, seed: [monotonicity_check(
        min(MONO_GAMMA[0], field.gamma1), max(MONO_GAMMA[1], field.gamma2), n, seed)],
     [("monotonicity_worst", "monotonicity_bound", 1.0, True)]),
    ("luxemburg_trials", lambda n, mesh, field, seed: luxemburg_identity_checks(
        mesh, field, n, seed + 7919),
     [("luxemburg_unit_dev", "luxemburg_unit_modular", 1e-10, True),
      ("luxemburg_homog_rel", "luxemburg_homogeneity", 1e-9, True),
      ("luxemburg_const_rel", "luxemburg_constant_exponent", 1e-9, True)]),
)


def _verify_step(run):
    # every check measures before any row is added, so one that raises
    # leaves no verify rows in the summary
    cfg = run.config["verify"]
    measured = [(key, rows, measure(cfg[key], run.mesh, run.field, run.seed))
                for key, measure, rows in _VERIFY_CHECKS]
    for key, rows, values in measured:
        run.summary.append((key, str(cfg[key])))
        for (quantity, contract, bound, upper), value in zip(rows, values):
            run.check_bound(contract, quantity, value, bound, upper)


# the experiments in run order: name, the experiments whose results it
# consumes (u from solve, w and M from reference), its plan (the checks that
# need only the config and the mesh, run before any step) and its step
_EXPERIMENTS = (
    ("solve", (), None, _solve_step),
    ("reference", ("solve",), None, _reference_step),
    ("freeze", ("solve", "reference"), _freeze_plan, _freeze_step),
    ("scan", ("solve", "reference"), _scan_plan, _scan_step),
    ("holder", ("solve",), _holder_plan, _holder_step),
    ("verify", (), _verify_plan, _verify_step),
)


def run_command(config_path):
    """Execute the experiments requested by a config file.

    A step that raises leaves a summary of the rows so far plus
    `failed_step`, and the run exits 2 with the step named on stderr.
    """
    config = parse_config(config_path)
    experiments = normalize_experiments(config["experiments"]["run"])
    outdir = config["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    field = config["exponent"]["field"]
    mesh = build(config["mesh"]["level"], config["mesh"]["grading"])
    save_mesh(mesh, os.path.join(outdir, "mesh.txt"))
    chosen = [row for row in _EXPERIMENTS if row[0] in experiments]
    # every plan before the first step
    work = ([(name, needs, plan) for name, needs, plan, _ in chosen if plan]
            + [(name, needs, step) for name, needs, _, step in chosen])
    run = _Run(config, os.path.dirname(os.path.abspath(config_path)), field,
               mesh, _run_rows(config, field, mesh, experiments))
    for name, needs, step in work:
        if run.solve_failed and needs:
            continue    # nothing that consumes u runs on an unconverged solve
        try:
            step(run)
        except PxthinError as exc:
            run.write_summary(("failed_step", name))
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 2
    run.write_summary()
    for contract, detail in run.violations:
        print("contract violated: %s (%s)" % (contract, detail), file=sys.stderr)
    if run.violations:
        return 1
    print("run complete: %s" % run.path("summary.txt"))
    return 0


def report_command(directory):
    """Merge every run summary under a directory into one CSV."""
    if not os.path.isdir(directory):
        print("error: no such directory: %s" % directory, file=sys.stderr)
        return 2
    paths = []
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        if "summary.txt" in files:
            paths.append(os.path.join(root, "summary.txt"))
    runs = []
    keys = set()
    for path in sorted(paths):
        pairs = {}
        for number, line in _text_lines(path):
            if "=" not in line:
                raise FormatError("%s line %d: expected 'key = value'"
                                  % (path, number))
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
        run_name = pairs.get("name") or \
            os.path.relpath(os.path.dirname(path), directory)
        runs.append((run_name, path, pairs))
        keys.update(pairs)
    keys.discard("name")
    columns = ["run"] + sorted(keys)
    runs.sort(key=lambda item: (item[0], item[1]))
    out = os.path.join(directory, "report.csv")
    _write_csv(out, columns, ([run_name] + [pairs.get(key, "") for key in columns[1:]]
                              for run_name, _path, pairs in runs))
    print(out)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pxthin",
        description="variable-exponent thin obstacle experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a configured experiment run")
    p_run.add_argument("config", help="path to a key = value config file")
    p_report = sub.add_parser("report", help="merge run summaries into one CSV")
    p_report.add_argument("directory", help="directory holding run output dirs")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_command(args.config)
        return report_command(args.directory)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (PxthinError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
