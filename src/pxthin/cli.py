"""Command line front end: configured runs, summary merging, standalone checks.

Configs are plain text ``key = value`` files with ``[section]`` headers.  A
config either parses completely or the run is rejected with a line/field
diagnostic; unknown sections and unknown keys are errors, not warnings.

Exit codes: 0 all asserted contracts passed, 1 a contract was violated (the
violated invariant is named on stderr), 2 configuration or I/O failure.
"""

import argparse
import math
import os
import sys

import numpy as np

from .analysis import (admissible_radius, gradient_holder_fit,
                       higher_integrability_scan, iteration_suite,
                       monotonicity_check, theoretical_alpha)
from .comparison import build_reference, compute_M, comparison_decay, reflect_and_check
from .energy import EnergySetup
from .errors import ConfigError, ConvergenceError, FormatError, PxthinError
from .exponent import ExponentField
from .mesh import build, save_mesh
from .solver import ObstacleProblem, save_solution, solve, vi_check
from .vxspace import FeFunction, luxemburg_norm, modular

EXPERIMENT_ORDER = ("solve", "reference", "freeze", "scan", "holder", "verify")

# experiments pull in what they consume: u from solve, w and M from reference
_NEEDS = {
    "reference": ("solve",),
    "freeze": ("solve", "reference"),
    "scan": ("solve", "reference"),
    "holder": ("solve",),
}

_FAMILIES = ("constant", "affine", "radial", "sinusoidal")
_PRESETS = ("linear_xn", "signorini32", "offset_const", "custom")

_REQUIRED = object()


def _conv_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _conv_int(text):
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError("not an integer")


def _conv_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected true or false")


def _conv_floats(text):
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise ValueError("expected a comma separated list of numbers")
    return [_conv_float(p) for p in parts]


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


def _conv_str(text):
    return text


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
    for name in names:
        if name not in EXPERIMENT_ORDER:
            raise ValueError("unknown experiment %r; expected one of: %s"
                             % (name, ", ".join(EXPERIMENT_ORDER)))
    return names


# schema: section -> key -> (converter, default); _REQUIRED marks mandatory keys
_SCHEMA = {
    "exponent": {
        "family": (_choice(_FAMILIES), _REQUIRED),
        "coefficients": (_conv_floats, _REQUIRED),
        "beta": (_conv_float, 1.0),
        "holder_seminorm": (_conv_float, None),
    },
    "mesh": {
        "level": (_conv_int, _REQUIRED),
        "grading": (_conv_float, 0.0),
    },
    "boundary": {
        "preset": (_choice(_PRESETS), _REQUIRED),
        "offset": (_conv_float, 1.0),
        "scale": (_conv_float, 1.0),
        "file": (_conv_str, None),
    },
    "solver": {
        "tol": (_conv_float, 1e-10),
        "eps_schedule": (_conv_floats, None),
        "seed": (_conv_int, 0),
        "vi_trials": (_conv_int, 100),
    },
    "experiments": {
        "run": (_conv_experiments, ["solve"]),
    },
    "reference": {
        "m_override": (_conv_float, None),
    },
    "freeze": {
        "center": (_conv_point, [-0.35, 0.0]),
        "radii": (_conv_floats, [0.2, 0.1, 0.05]),
        "sigma0": (_conv_float, 0.1),
        # free experiment parameters: recorded in the summary, not consumed
        "delta": (_conv_float, None),
        "theta": (_conv_float, None),
        "tau": (_conv_float, None),
    },
    "scan": {
        "center": (_conv_point, [0.0, 0.0]),
        "radius": (_conv_float, None),
        "sigma_grid": (_conv_floats, None),
    },
    "holder": {
        "centers": (_conv_points, [[0.0, 0.0]]),
        "radii": (_conv_floats, None),
        "alpha0": (_conv_float, 0.5),
    },
    "verify": {
        "iteration_trials": (_conv_int, 10000),
        "monotonicity_trials": (_conv_int, 100000),
        "luxemburg_trials": (_conv_int, 100),
        "gamma1": (_conv_float, 1.1),
        "gamma2": (_conv_float, 10.0),
    },
    "output": {
        "dir": (_conv_str, _REQUIRED),
        "name": (_conv_str, None),
        "plots": (_conv_bool, False),
    },
}


def parse_config(path):
    """Read and validate a config file; raise ConfigError with a diagnostic."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config %r: %s" % (path, exc))

    raw = {}
    section = None
    for number, line in enumerate(lines, start=1):
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
                config[section][key] = default

    if config["boundary"]["preset"] == "custom":
        if config["boundary"]["file"] is None:
            raise ConfigError("missing required key: [boundary] file "
                              "(needed by preset = custom)")
    elif config["boundary"]["file"] is not None:
        raise ConfigError("[boundary] file is only valid with preset = custom")
    return config


def normalize_experiments(requested):
    # closure under data dependencies, then the fixed execution order
    chosen = set(requested)
    grew = True
    while grew:
        grew = False
        for name in tuple(chosen):
            for dep in _NEEDS.get(name, ()):
                if dep not in chosen:
                    chosen.add(dep)
                    grew = True
    return [name for name in EXPERIMENT_ORDER if name in chosen]


def _f17(value):
    return "%.17g" % float(value)


def _join17(values):
    return ";".join(_f17(v) for v in values)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _csv_field(text):
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


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
    elif preset == "offset_const":
        base = np.full(mesh.num_vertices, section["offset"])
    else:
        path = section["file"]
        if not os.path.isabs(path):
            path = os.path.join(config_dir, path)
        base = _read_nodal_file(path, mesh.num_vertices)
    return scale * base


def _read_nodal_file(path, num_vertices):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise FormatError("cannot read nodal file %r: %s" % (path, exc))
    values = np.full(num_vertices, np.nan)
    count = 0
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise FormatError("%s line %d: expected '<index> <value>'" % (path, number))
        try:
            index = int(parts[0], 10)
            value = float(parts[1])
        except ValueError:
            raise FormatError("%s line %d: expected '<index> <value>'" % (path, number))
        if not 0 <= index < num_vertices:
            raise FormatError("%s line %d: vertex index %d out of range [0, %d)"
                              % (path, number, index, num_vertices))
        if not math.isfinite(value):
            raise FormatError("%s line %d: value is not finite" % (path, number))
        if not math.isnan(values[index]):
            raise FormatError("%s line %d: duplicate vertex index %d"
                              % (path, number, index))
        values[index] = value
        count += 1
    if count != num_vertices:
        raise FormatError("%s: got %d nodal values, mesh has %d vertices"
                          % (path, count, num_vertices))
    return values


def _exact_target(config, g):
    """Closed-form solution nodal values when the configured run has one."""
    section = config["boundary"]
    preset = section["preset"]
    scale = section["scale"]
    exponent = config["exponent"]
    constant_p = (exponent["family"] == "constant")
    if preset == "offset_const":
        if scale * section["offset"] >= 0.0:
            return g
        return None
    if preset in ("linear_xn", "signorini32") and scale >= 0.0 and constant_p \
            and exponent["coefficients"][0] == 2.0:
        return g
    return None


def luxemburg_identity_checks(mesh, field, trials, seed):
    """Worst deviations of the three norm identities over random nodal fields.

    Returns (unit modular deviation, homogeneity relative error, constant
    exponent closed-form relative error).  The closed form uses p = 3.
    """
    rng = np.random.default_rng(seed)
    const_field = ExponentField("constant", [3.0])
    worst_unit = 0.0
    worst_homog = 0.0
    worst_const = 0.0
    n = mesh.num_vertices
    for _ in range(trials):
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
        if not np.any(values):
            continue
        f = FeFunction(mesh, values)
        nu = luxemburg_norm(f, field)
        unit = abs(modular(FeFunction(mesh, values / nu), field) - 1.0)
        worst_unit = max(worst_unit, unit)
        s = 10.0 ** rng.uniform(-1.0, 1.0)
        nu_scaled = luxemburg_norm(FeFunction(mesh, s * values), field)
        worst_homog = max(worst_homog, abs(nu_scaled - s * nu) / (s * nu))
        closed = modular(f, const_field) ** (1.0 / 3.0)
        nu_const = luxemburg_norm(f, const_field)
        worst_const = max(worst_const, abs(nu_const - closed) / closed)
    return worst_unit, worst_homog, worst_const


def _loglog_svg(path, title, xs, ys, xlabel, ylabel):
    """Minimal log-log SVG plot; skipped when fewer than two positive points."""
    points = [(x, y) for x, y in zip(xs, ys) if x > 0.0 and y > 0.0]
    if len(points) < 2:
        return False
    lx = [math.log10(p[0]) for p in points]
    ly = [math.log10(p[1]) for p in points]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if x1 - x0 < 1e-12:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0

    def px(v):
        return 60.0 + 380.0 * (v - x0) / (x1 - x0)

    def py(v):
        return 320.0 - 280.0 * (v - y0) / (y1 - y0)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="480" height="360" '
             'viewBox="0 0 480 360">',
             '<rect x="0" y="0" width="480" height="360" fill="white"/>',
             '<rect x="60" y="40" width="380" height="280" fill="none" '
             'stroke="black"/>',
             '<text x="240" y="20" text-anchor="middle" font-size="13">%s</text>'
             % title,
             '<text x="250" y="350" text-anchor="middle" font-size="11">%s</text>'
             % xlabel,
             '<text x="14" y="180" text-anchor="middle" font-size="11" '
             'transform="rotate(-90 14 180)">%s</text>' % ylabel,
             '<text x="60" y="334" text-anchor="middle" font-size="10">%.3g</text>'
             % 10.0 ** x0,
             '<text x="440" y="334" text-anchor="middle" font-size="10">%.3g</text>'
             % 10.0 ** x1,
             '<text x="54" y="324" text-anchor="end" font-size="10">%.3g</text>'
             % 10.0 ** y0,
             '<text x="54" y="46" text-anchor="end" font-size="10">%.3g</text>'
             % 10.0 ** y1]
    coords = " ".join("%.6g,%.6g" % (px(a), py(b)) for a, b in zip(lx, ly))
    parts.append('<polyline points="%s" fill="none" stroke="steelblue" '
                 'stroke-width="1.5"/>' % coords)
    for a, b in zip(lx, ly):
        parts.append('<circle cx="%.6g" cy="%.6g" r="3" fill="steelblue"/>'
                     % (px(a), py(b)))
    parts.append('</svg>')
    _write_text(path, "\n".join(parts) + "\n")
    return True


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    return rows[0], rows[1:]


def _plot_from_csvs(outdir):
    # plots are rebuilt from the emitted CSV data, never from in-memory state
    made = []
    comparison = os.path.join(outdir, "comparison.csv")
    if os.path.exists(comparison):
        header, rows = _read_csv(comparison)
        ker = header.index("kind")
        radius_col = header.index("radius")
        ratio_col = header.index("ratio")
        xs, ys = [], []
        for row in rows:
            if row[ker] == "radius" and row[radius_col] and row[ratio_col]:
                xs.append(float(row[radius_col]))
                ys.append(float(row[ratio_col]))
        if _loglog_svg(os.path.join(outdir, "decay.svg"),
                       "normalized frozen-exponent comparison error",
                       xs, ys, "radius", "normalized error"):
            made.append("decay.svg")
    holder = os.path.join(outdir, "holder.csv")
    if os.path.exists(holder):
        header, rows = _read_csv(holder)
        cx = header.index("center_x1")
        cy = header.index("center_x2")
        radius_col = header.index("radius")
        integral_col = header.index("integral")
        first = None
        xs, ys = [], []
        for row in rows:
            key = (row[cx], row[cy])
            if first is None:
                first = key
            if key != first:
                continue
            xs.append(float(row[radius_col]))
            ys.append(float(row[integral_col]))
        if _loglog_svg(os.path.join(outdir, "campanato.svg"),
                       "gradient oscillation profile",
                       xs, ys, "radius", "Campanato integral"):
            made.append("campanato.svg")
    return made


def run_command(config_path):
    """Execute the experiments requested by a config file."""
    config = parse_config(config_path)
    config_dir = os.path.dirname(os.path.abspath(config_path))
    experiments = normalize_experiments(config["experiments"]["run"])
    outdir = config["output"]["dir"]
    os.makedirs(outdir, exist_ok=True)
    name = config["output"]["name"]
    if name is None:
        name = os.path.basename(os.path.normpath(outdir))

    exponent_cfg = config["exponent"]
    field = ExponentField(exponent_cfg["family"], exponent_cfg["coefficients"],
                          beta=exponent_cfg["beta"],
                          holder_seminorm=exponent_cfg["holder_seminorm"])
    mesh = build(config["mesh"]["level"], config["mesh"]["grading"])
    save_mesh(mesh, os.path.join(outdir, "mesh.txt"))

    tol = config["solver"]["tol"]
    eps_schedule = config["solver"]["eps_schedule"]
    seed = config["solver"]["seed"]

    summary = [
        ("name", name),
        ("family", exponent_cfg["family"]),
        ("coefficients", _join17(exponent_cfg["coefficients"])),
        ("beta", _f17(field.beta)),
        ("holder_seminorm", _f17(field.holder_seminorm)),
        ("gamma1", _f17(field.gamma1)),
        ("gamma2", _f17(field.gamma2)),
        ("level", str(config["mesh"]["level"])),
        ("grading", _f17(config["mesh"]["grading"])),
        ("num_vertices", str(mesh.num_vertices)),
        ("num_triangles", str(mesh.num_triangles)),
        ("h_max", _f17(mesh.h_max)),
        ("preset", config["boundary"]["preset"]),
        ("scale", _f17(config["boundary"]["scale"])),
        ("tol", _f17(tol)),
        ("seed", str(seed)),
        ("experiments", ";".join(experiments)),
    ]
    if config["boundary"]["preset"] == "offset_const":
        summary.append(("offset", _f17(config["boundary"]["offset"])))
    if config["boundary"]["preset"] == "custom":
        summary.append(("preset_file", config["boundary"]["file"]))

    violations = []
    checks_run = [0]

    def check(contract, ok, detail):
        checks_run[0] += 1
        if not ok:
            violations.append((contract, detail))

    u = None
    problem = None
    w = None
    reference_report = None
    m_value = None

    if "solve" in experiments:
        g = boundary_values(config, mesh, config_dir)
        setup = EnergySetup(mesh, field)
        problem = ObstacleProblem(setup, g)
        solve_failed = False
        solve_detail = ""
        try:
            u, solve_report = solve(problem, tol, eps_schedule=eps_schedule)
        except ConvergenceError as exc:
            u = exc.best
            solve_report = exc.info
            solve_failed = True
            solve_detail = str(exc)
        check("solve_converged", not solve_failed, solve_detail)
        save_solution(u, mesh, os.path.join(outdir, "u.txt"))
        _write_text(os.path.join(outdir, "solve_report.csv"),
                    "newton_iterations,energy,free_residual,complementarity,"
                    "active_count,tol,wall_time\n"
                    + ";".join(str(k) for k in solve_report.iterations) + ","
                    + _f17(solve_report.energy) + ","
                    + _f17(solve_report.free_residual) + ","
                    + _f17(solve_report.complementarity) + ","
                    + str(len(solve_report.active_set)) + ","
                    + _f17(solve_report.tol) + ","
                    + _f17(solve_report.wall_time) + "\n")
        summary.extend([
            ("energy", _f17(solve_report.energy)),
            ("newton_iterations", ";".join(str(k) for k in solve_report.iterations)),
            ("free_residual", _f17(solve_report.free_residual)),
            ("complementarity", _f17(solve_report.complementarity)),
            ("active_count", str(len(solve_report.active_set))),
            ("eps_schedule", _join17(solve_report.eps_schedule)),
        ])
        target = _exact_target(config, g)
        if target is not None:
            summary.append(("max_nodal_error",
                            _f17(np.max(np.abs(u.values - target)))))
        if solve_failed:
            experiments = [e for e in experiments if e == "verify"]
        else:
            vi_trials = config["solver"]["vi_trials"]
            vi_min = vi_check(problem, u, vi_trials, seed)
            vi_violation = max(0.0, -vi_min)
            summary.extend([
                ("vi_trials", str(vi_trials)),
                ("vi_min", _f17(vi_min)),
                ("vi_violation", _f17(vi_violation)),
            ])
            check("vi_nonnegative", vi_violation <= 1e-8,
                  "vi_violation = %s > 1e-08" % _f17(vi_violation))

    if "reference" in experiments:
        w, reference_report = build_reference(
            u, problem, tol=tol, eps_schedule=eps_schedule,
            m_override=config["reference"]["m_override"])
        reference_report.reflect_residual = reflect_and_check(w, field)
        m_value = compute_M(u, w, field)
        reference_report.M = m_value
        save_solution(w, mesh, os.path.join(outdir, "w.txt"))
        summary.extend([
            ("m_used", _f17(w.values[np.flatnonzero(mesh.vertex_tags == 1)[0]])),
            ("ordering_margin", _f17(reference_report.ordering_margin)),
            ("reflect_residual", _f17(reference_report.reflect_residual)),
            ("M", _f17(m_value)),
        ])
        check("ordering_u_ge_w", reference_report.ordering_margin >= -1e-8,
              "min(u - w) = %s < -1e-08" % _f17(reference_report.ordering_margin))
        reflect_cap = max(1e-8, 10.0 * tol)
        check("odd_reflection_residual",
              reference_report.reflect_residual <= reflect_cap,
              "residual = %s > %s" % (_f17(reference_report.reflect_residual),
                                      _f17(reflect_cap)))

    decay_report = None
    if "freeze" in experiments:
        freeze_cfg = config["freeze"]
        decay_report = comparison_decay(
            u, field, np.asarray(freeze_cfg["center"]), freeze_cfg["radii"],
            M_value=m_value, sigma0=freeze_cfg["sigma0"], tol=tol,
            eps_schedule=eps_schedule)
        slack = min(a - b for a, b in zip(decay_report.energy_sub_u,
                                          decay_report.energy_sub_u0))
        summary.extend([
            ("freeze_center", _join17(freeze_cfg["center"])),
            ("freeze_sigma0", _f17(freeze_cfg["sigma0"])),
            ("sigma1", _f17(decay_report.sigma1)),
            ("freeze_radii", _join17(decay_report.radii)),
            ("freeze_p2", _join17(decay_report.p2)),
            ("freeze_error", _join17(decay_report.error)),
            ("freeze_energy_2r", _join17(decay_report.energy_2r)),
            ("freeze_ratio", _join17(decay_report.ratio)),
            ("dugedu0_slack", _f17(slack)),
            ("decay_rate", _f17(decay_report.fitted_rate)),
        ])
        for key in ("delta", "theta", "tau"):
            if freeze_cfg[key] is not None:
                summary.append(("freeze_" + key, _f17(freeze_cfg[key])))
        check("frozen_energy_ordering", slack >= -1e-10,
              "min int(|Du|^p2 - |Du0|^p2) = %s < -1e-10" % _f17(slack))

    if reference_report is not None or decay_report is not None:
        header = ("kind,radius,p2,error,energy_2r,ratio,int_du_p2,int_du0_p2,"
                  "M,ordering_margin,reflect_residual,sigma1,fitted_rate")
        rows = [header]
        if decay_report is not None:
            for i, radius in enumerate(decay_report.radii):
                rows.append(",".join([
                    "radius", _f17(radius), _f17(decay_report.p2[i]),
                    _f17(decay_report.error[i]), _f17(decay_report.energy_2r[i]),
                    _f17(decay_report.ratio[i]),
                    _f17(decay_report.energy_sub_u[i]),
                    _f17(decay_report.energy_sub_u0[i]),
                    "", "", "", "", ""]))
        tail = ["summary", "", "", "", "", "", "", ""]
        tail.append(_f17(m_value) if m_value is not None else "")
        tail.append(_f17(reference_report.ordering_margin)
                    if reference_report is not None else "")
        tail.append(_f17(reference_report.reflect_residual)
                    if reference_report is not None else "")
        tail.append(_f17(decay_report.sigma1) if decay_report is not None else "")
        tail.append(_f17(decay_report.fitted_rate)
                    if decay_report is not None else "")
        rows.append(",".join(tail))
        _write_text(os.path.join(outdir, "comparison.csv"), "\n".join(rows) + "\n")

    if "scan" in experiments:
        scan_cfg = config["scan"]
        center = np.asarray(scan_cfg["center"])
        radius = scan_cfg["radius"]
        r_adm = admissible_radius(field, m_value)
        if radius is None:
            # largest admissible radius that keeps the doubled ball inside
            geom_cap = (0.75 - math.hypot(*scan_cfg["center"])) / 2.0
            radius = min(0.95 * r_adm, geom_cap)
        scan_report = higher_integrability_scan(
            u, w, field, center, radius,
            sigma_grid=scan_cfg["sigma_grid"])
        rows = ["kind,radius,sigma,value"]
        for sigma, c in zip(scan_report.sigma_grid, scan_report.c_sigma):
            rows.append("c_sigma,%s,%s,%s" % (_f17(radius), _f17(sigma), _f17(c)))
        for rho, ratios in zip(scan_report.rh_radii, scan_report.rh_ratios):
            for sigma, ratio in zip(scan_report.sigma_grid, ratios):
                rows.append("reverse_holder,%s,%s,%s"
                            % (_f17(rho), _f17(sigma), _f17(ratio)))
        _write_text(os.path.join(outdir, "scan.csv"), "\n".join(rows) + "\n")
        c_zero = scan_report.c_sigma[list(scan_report.sigma_grid).index(0.0)]
        index0 = list(scan_report.sigma_grid).index(scan_report.sigma0) \
            if scan_report.sigma0 in list(scan_report.sigma_grid) else -1
        summary.extend([
            ("scan_center", _join17(scan_cfg["center"])),
            ("scan_radius", _f17(radius)),
            ("admissible_r", _f17(scan_report.admissible_r)),
            ("c_zero", _f17(c_zero)),
            ("sigma0", _f17(scan_report.sigma0)),
            ("c_sigma0", _f17(scan_report.c_sigma[index0]) if index0 >= 0 else "nan"),
        ])
        check("c_at_sigma_zero", c_zero <= 1.0 + 1e-9,
              "c(0) = %s > 1 + 1e-09" % _f17(c_zero))

    if "holder" in experiments:
        holder_cfg = config["holder"]
        radii = holder_cfg["radii"]
        if radii is None:
            radii = list(np.geomspace(0.25, 4.0 * mesh.h_max, 8))
        holder_report = gradient_holder_fit(u, field, holder_cfg["centers"], radii)
        holder_report.alpha_theory = theoretical_alpha(
            holder_cfg["alpha0"], field.beta, field.gamma2)
        rows = ["center_x1,center_x2,p,radius,integral,mean,lam,alpha"]
        for i, profile in enumerate(holder_report.profiles):
            for radius, integral, mean in zip(profile.radii, profile.integrals,
                                              profile.means):
                rows.append(",".join([
                    _f17(holder_report.centers[i][0]),
                    _f17(holder_report.centers[i][1]),
                    _f17(profile.p), _f17(radius), _f17(integral), _f17(mean),
                    _f17(profile.lam), _f17(holder_report.alphas[i])]))
        _write_text(os.path.join(outdir, "holder.csv"), "\n".join(rows) + "\n")
        summary.extend([
            ("holder_centers", ";".join(_join17(c) for c in holder_cfg["centers"])),
            ("holder_radii", _join17(radii)),
            ("alpha_origin", _f17(holder_report.alphas[0])),
            ("alpha_min", _f17(holder_report.alpha_min)),
            ("alpha0_assumed", _f17(holder_cfg["alpha0"])),
            ("alpha_theory", _f17(holder_report.alpha_theory)),
        ])

    if "verify" in experiments:
        verify_cfg = config["verify"]
        worst_slack = iteration_suite(verify_cfg["iteration_trials"], seed)
        worst_ratio = monotonicity_check(verify_cfg["gamma1"], verify_cfg["gamma2"],
                                         verify_cfg["monotonicity_trials"], seed)
        unit, homog, const = luxemburg_identity_checks(
            mesh, field, verify_cfg["luxemburg_trials"], seed + 7919)
        summary.extend([
            ("iteration_trials", str(verify_cfg["iteration_trials"])),
            ("iteration_worst_slack", _f17(worst_slack)),
            ("monotonicity_trials", str(verify_cfg["monotonicity_trials"])),
            ("monotonicity_worst", _f17(worst_ratio)),
            ("luxemburg_trials", str(verify_cfg["luxemburg_trials"])),
            ("luxemburg_unit_dev", _f17(unit)),
            ("luxemburg_homog_rel", _f17(homog)),
            ("luxemburg_const_rel", _f17(const)),
        ])
        check("iteration_lemma", worst_slack >= 0.0,
              "worst slack = %s < 0" % _f17(worst_slack))
        check("monotonicity_bound", worst_ratio <= 1.0,
              "worst LHS/RHS = %s > 1" % _f17(worst_ratio))
        check("luxemburg_unit_modular", unit <= 1e-10,
              "deviation = %s > 1e-10" % _f17(unit))
        check("luxemburg_homogeneity", homog <= 1e-9,
              "relative error = %s > 1e-09" % _f17(homog))
        check("luxemburg_constant_exponent", const <= 1e-9,
              "relative error = %s > 1e-09" % _f17(const))

    summary.append(("contracts_checked", str(checks_run[0])))
    summary.append(("contracts_failed",
                    ";".join(v[0] for v in violations) if violations else "none"))

    _write_text(os.path.join(outdir, "summary.txt"),
                "".join("%s = %s\n" % (k, v) for k, v in summary))

    if config["output"]["plots"]:
        _plot_from_csvs(outdir)

    if violations:
        for contract, detail in violations:
            print("contract violated: %s (%s)" % (contract, detail),
                  file=sys.stderr)
        return 1
    print("run complete: %s" % os.path.join(outdir, "summary.txt"))
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
        with open(path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle.read().splitlines(), start=1):
                if not raw.strip():
                    continue
                if "=" not in raw:
                    raise FormatError("%s line %d: expected 'key = value'"
                                      % (path, number))
                key, value = raw.split("=", 1)
                pairs[key.strip()] = value.strip()
        run_name = pairs.get("name") or \
            os.path.relpath(os.path.dirname(path), directory)
        runs.append((run_name, path, pairs))
        keys.update(pairs)
    keys.discard("name")
    columns = ["run"] + sorted(keys)
    runs.sort(key=lambda item: (item[0], item[1]))
    lines = [",".join(columns)]
    for run_name, _path, pairs in runs:
        row = [_csv_field(run_name)]
        row.extend(_csv_field(pairs.get(key, "")) for key in columns[1:])
        lines.append(",".join(row))
    out = os.path.join(directory, "report.csv")
    _write_text(out, "\n".join(lines) + "\n")
    print(out)
    return 0


def verify_command(trials, seed):
    """Standalone certified-inequality checks; exit 0 iff everything holds."""
    worst_slack = iteration_suite(trials, seed)
    ok_iter = worst_slack >= 0.0
    print("iteration_lemma: %s  trials=%d  worst_slack=%.3g"
          % ("PASS" if ok_iter else "FAIL", trials, worst_slack))

    mono_trials = 10 * trials
    worst_ratio = monotonicity_check(1.1, 10.0, mono_trials, seed)
    ok_mono = worst_ratio <= 1.0
    print("monotonicity: %s  trials=%d  worst_ratio=%.6g"
          % ("PASS" if ok_mono else "FAIL", mono_trials, worst_ratio))

    lux_trials = max(1, trials // 100)
    mesh = build(4)
    field = ExponentField("sinusoidal", [2.0, 0.5, math.pi])
    unit, homog, const = luxemburg_identity_checks(mesh, field, lux_trials,
                                                   seed + 7919)
    ok_lux = unit <= 1e-10 and homog <= 1e-9 and const <= 1e-9
    print("luxemburg: %s  trials=%d  unit_dev=%.3g  homog_rel=%.3g  const_rel=%.3g"
          % ("PASS" if ok_lux else "FAIL", lux_trials, unit, homog, const))

    return 0 if (ok_iter and ok_mono and ok_lux) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pxthin",
        description="variable-exponent thin obstacle experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a configured experiment run")
    p_run.add_argument("config", help="path to a key = value config file")
    p_report = sub.add_parser("report", help="merge run summaries into one CSV")
    p_report.add_argument("directory", help="directory holding run output dirs")
    p_verify = sub.add_parser("verify",
                              help="standalone certified-inequality checks")
    p_verify.add_argument("--trials", type=int, default=10000)
    p_verify.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run_command(args.config)
        if args.command == "report":
            return report_command(args.directory)
        return verify_command(args.trials, args.seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PxthinError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
