"""Config parsing, the run and report commands, and artifact layout."""

import csv
import hashlib
import os
import pathlib
import re
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pxthin import (ConfigError, ExponentField, FeFunction, NumericError, build,
                    load_solution, save_solution)
from pxthin import analysis, cli, comparison
from pxthin.analysis import MONO_GAMMA, SIGMA_GRID
from pxthin.cli import (boundary_values, main, normalize_experiments,
                        parse_config)
from pxthin.mesh import MAX_GRADING, MAX_LEVEL


def write_config(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def solves(monkeypatch):
    """The problems that runs solve, in order: "constrained" or "reference"."""
    kinds = []

    def counted(real):
        def solve(problem, *args, **kwargs):
            kinds.append("constrained" if problem.obstacle.any() else "reference")
            return real(problem, *args, **kwargs)
        return solve

    for module in (cli, comparison):
        monkeypatch.setattr(module, "solve", counted(module.solve))
    return kinds


BASE = """\
[exponent]
family = constant
coefficients = 2.0

[mesh]
level = 3

[boundary]
preset = signorini32

[output]
dir = {out}
"""


# ------------------------------------------------------------------ parsing

def test_parse_config_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path / "a.cfg",
                                    BASE.format(out=tmp_path / "o")))
    assert cfg["exponent"]["family"] == "constant"
    assert cfg["exponent"]["coefficients"] == [2.0]
    assert cfg["exponent"]["beta"] == 1.0
    assert cfg["mesh"]["level"] == 3
    assert cfg["mesh"]["grading"] == 0.0
    assert cfg["boundary"]["scale"] == 1.0
    assert cfg["solver"]["tol"] == 1e-10
    assert cfg["solver"]["vi_trials"] == 100
    assert cfg["experiments"]["run"] == ["solve"]
    assert cfg["freeze"]["radii"] == [0.2, 0.1, 0.05]
    assert cfg["verify"]["monotonicity_trials"] == 100000
    # the monotonicity check reads its exponent range from the field
    with pytest.raises(ConfigError, match=r"^line 14: unknown key 'gamma1' in \[verify\]$"):
        parse_config(write_config(tmp_path / "b.cfg", BASE.format(out=tmp_path / "o")
                                  + "[verify]\ngamma1 = 1.1\n"))


def test_each_parse_hands_out_fresh_defaults(tmp_path):
    # a caller that edits one parsed config edits no default of the next
    path = write_config(tmp_path / "a.cfg", BASE.format(out=tmp_path / "o"))
    cfg = parse_config(path)
    cfg["freeze"]["radii"].append(0.01)
    cfg["holder"]["centers"][0][0] = 0.3
    cfg["experiments"]["run"].append("verify")
    again = parse_config(path)
    assert again["freeze"]["radii"] == [0.2, 0.1, 0.05]
    assert again["holder"]["centers"] == [[0.0, 0.0]]
    assert again["experiments"]["run"] == ["solve"]
    assert again["freeze"]["center"] == [-0.35, 0.0]


@pytest.mark.parametrize("line,fragment", [
    ("[exponent\n", "line 1"),
    ("[exponent]\nbogus_key = 3\n", "bogus_key"),
    ("[nosuch]\n", "nosuch"),
    ("family = constant\n", "outside"),
    ("[exponent]\nfamily = constant\nfamily = affine\n", "duplicate"),
    ("[exponent]\nfamily =\n", "line 2"),
    ("[exponent]\nfamily = constant\ncoefficients = 2.0\n"
     "[mesh]\nlevel = abc\n", "level"),
    ("[freeze]\ndelta = 0.1\n", "delta"),
    ("[reference]\n", "reference"),
])
def test_parse_config_diagnostics(tmp_path, line, fragment):
    path = write_config(tmp_path / "bad.cfg", line)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert fragment in str(err.value)


def test_parse_config_missing_required(tmp_path):
    path = write_config(tmp_path / "bad.cfg",
                        "[exponent]\nfamily = constant\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "coefficients" in str(err.value)


def test_parse_config_custom_needs_file(tmp_path):
    text = BASE.format(out=tmp_path / "o").replace(
        "preset = signorini32", "preset = custom")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path / "c.cfg", text))
    assert "file" in str(err.value)


def test_parse_config_file_only_for_custom(tmp_path):
    text = BASE.format(out=tmp_path / "o").replace(
        "preset = signorini32", "preset = signorini32\nfile = g.txt")
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path / "c.cfg", text))


def test_experiment_dependency_closure():
    assert normalize_experiments(["solve"]) == ["solve"]
    assert normalize_experiments(["freeze"]) == ["solve", "reference", "freeze"]
    assert normalize_experiments(["verify"]) == ["verify"]
    assert normalize_experiments(["holder", "scan"]) == [
        "solve", "reference", "scan", "holder"]


def test_unknown_experiment_rejected(tmp_path):
    text = BASE.format(out=tmp_path / "o") + "\n[experiments]\nrun = nosuch\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path / "e.cfg", text))
    assert "nosuch" in str(err.value)


# ----------------------------------------------------------------- boundary

def test_boundary_presets(tmp_path):
    mesh = build(3)
    cfg = parse_config(write_config(tmp_path / "a.cfg",
                                    BASE.format(out=tmp_path / "o")))
    g = boundary_values(cfg, mesh, str(tmp_path))
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    th = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    assert np.allclose(g, r ** 1.5 * np.cos(1.5 * th))

    cfg["boundary"]["preset"] = "linear_xn"
    cfg["boundary"]["scale"] = 2.0
    assert np.array_equal(boundary_values(cfg, mesh, str(tmp_path)),
                          2.0 * mesh.vertices[:, 1])

    # constant data is a custom file
    save_solution(FeFunction(mesh, np.full(mesh.num_vertices, 0.75)),
                  str(tmp_path / "g.txt"))
    cfg["boundary"].update(preset="custom", file="g.txt", scale=1.0)
    assert np.all(boundary_values(cfg, mesh, str(tmp_path)) == 0.75)


# ----------------------------------------------------------------- commands

@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    out = tmp / "out"
    cfg = tmp / "run.cfg"
    cfg.write_text(BASE.format(out=out) + """
[experiments]
run = solve, reference, verify

[verify]
iteration_trials = 200
monotonicity_trials = 500
luxemburg_trials = 4
""")
    code = main(["run", str(cfg)])
    assert code == 0
    return out


def test_run_artifacts_present(run_dir):
    outdir = run_dir
    for name in ("mesh.txt", "u.txt", "w.txt", "solve_report.csv",
                 "summary.txt"):
        assert (outdir / name).exists(), name


def test_run_summary_contents(run_dir):
    text = (run_dir / "summary.txt").read_text()
    entries = dict(line.split(" = ", 1) for line in text.splitlines())
    assert entries["family"] == "constant"
    assert entries["level"] == "3"
    assert float(entries["energy"]) > 0.0
    assert float(entries["vi_violation"]) <= 1e-8
    assert float(entries["ordering_margin"]) >= -1e-8
    assert float(entries["reflect_residual"]) <= 1e-8
    assert entries["contracts_failed"] == "none"
    assert int(entries["contracts_checked"]) >= 8
    assert "wall" not in text


def test_solve_report_labels_wall_time_last(run_dir):
    with open(run_dir / "solve_report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "wall_time"
    assert len(rows) == 2


def test_reals_use_17_significant_digits(run_dir):
    text = (run_dir / "summary.txt").read_text()
    entries = dict(line.split(" = ", 1) for line in text.splitlines())
    # a solved energy is an irrational-looking float; check digit count
    mantissa = re.sub(r"[-.e+]", "", entries["energy"].split("e")[0])
    assert len(mantissa.lstrip("0")) >= 16


def test_report_merges_runs(tmp_path, run_dir):
    code = main(["report", str(run_dir)])
    assert code == 0
    report = run_dir / "report.csv"
    with open(report) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "run"
    assert rows[1][0] == "out"  # defaults to the output dir basename
    first = report.read_bytes()
    assert main(["report", str(run_dir)]) == 0
    assert report.read_bytes() == first


def test_report_quotes_names_the_csv_way(tmp_path):
    name = 'pipe, with "comma"'
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "summary.txt").write_text("name = %s\nenergy = 1\n" % name)
    assert main(["report", str(tmp_path)]) == 0
    text = (tmp_path / "report.csv").read_text()
    assert text == 'run,energy\n"pipe, with ""comma""",1\n'
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["run", "energy"], [name, "1"]]


def test_report_missing_and_empty_dirs(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 0
    with open(empty / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["run"]]


# the README's verify run: the sinusoidal field at L4, here at seed 3 with
# 200 / 2000 / 2 trials
VERIFY_RUN = """\
[exponent]
family = sinusoidal
coefficients = 2, 0.5, 3.141592653589793
[mesh]
level = 4
[boundary]
preset = signorini32
[solver]
seed = 3
[experiments]
run = verify
[verify]
iteration_trials = 200
monotonicity_trials = 2000
luxemburg_trials = 2
[output]
dir = {out}
"""


def test_verify_subcommand(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "v.cfg", VERIFY_RUN.format(out=out))
    assert main(["run", cfg]) == 0
    summary = dict(row.split(" = ", 1)
                   for row in (out / "summary.txt").read_text().splitlines())
    assert [float(summary[key]) for key in (
        "iteration_worst_slack", "monotonicity_worst", "luxemburg_unit_dev",
        "luxemburg_homog_rel", "luxemburg_const_rel")] == [
        6.7012106303460719e-40, 0.62352152005916706, 2.2204460492503131e-16,
        1.3509802644452257e-16, 2.1736477245310313e-16]


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path / "bad.cfg", "[mesh]\nlevel = 3\n")
    assert main(["run", bad]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def custom_config(tmp_path, data_path):
    """A BASE config at level 3 whose arc data is the solution file data_path."""
    return write_config(tmp_path / "c.cfg", BASE.format(out=tmp_path / "o").replace(
        "preset = signorini32", "preset = custom\nfile = %s" % data_path))


def test_custom_nodal_file(tmp_path, run_dir):
    # a run's own u.txt, at the same level, is custom data g equal to u
    u_path = run_dir / "u.txt"
    mesh = build(3)
    g = boundary_values(parse_config(custom_config(tmp_path, u_path)), mesh,
                        str(tmp_path))
    assert g.tobytes() == load_solution(str(u_path), mesh).values.tobytes()
    save_solution(FeFunction(mesh, g), str(tmp_path / "g.txt"))
    assert (tmp_path / "g.txt").read_bytes() == u_path.read_bytes()
    # relative to the config's directory, and through a whole run
    assert main(["run", custom_config(tmp_path, "g.txt")]) == 0
    summary = (tmp_path / "o" / "summary.txt").read_text()
    assert "preset_file = g.txt\n" in summary


def test_custom_file_errors_exit_2(tmp_path, capsys):
    g = tmp_path / "g.txt"
    cfg = custom_config(tmp_path, g)
    # the old '<index> <value>' format is no solution file
    mesh = build(3)
    g.write_text("".join("%d 0.5\n" % i for i in range(mesh.num_vertices)))
    assert main(["run", cfg]) == 2
    assert "%s line 1: " % g in capsys.readouterr().err
    # a solution of another level or grading is on a different mesh
    for other in (build(2), build(3, grading=1)):
        save_solution(FeFunction(other, other.vertices[:, 1].copy()), str(g))
        assert main(["run", cfg]) == 2
        assert "different mesh" in capsys.readouterr().err


# every input the CLI reads, as a file with one byte that is not UTF-8 or as
# a path that does not exist: the CLI exits 2 with one diagnostic line naming
# the file, so no traceback
@pytest.mark.parametrize("case", ["undecodable", "missing"])
@pytest.mark.parametrize("reader", ["config", "custom", "summary"])
def test_unreadable_inputs_exit_2_naming_the_file(tmp_path, capsys, reader, case):
    bad = tmp_path / "bad.txt"
    if case == "undecodable":
        bad.write_bytes(b"x = \xff\n")
    named = bad
    if reader == "config":
        argv, prefix = ["run", str(bad)], "config error: cannot read config "
    elif reader == "custom":
        argv, prefix = ["run", custom_config(tmp_path, bad)], "error: solve: "
    else:
        named = tmp_path / "runs" / "a" / "summary.txt"
        named.parent.mkdir(parents=True)
        named.symlink_to(bad)
        argv, prefix = ["report", str(tmp_path / "runs")], "error: "
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix + str(named) + ": ")
    assert len(err.splitlines()) == 1
    if reader == "custom":
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert summary.endswith("failed_step = solve\n")


def test_determinism_modulo_wall_time(tmp_path):
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(BASE.format(out=out).replace(
            f"dir = {out}", f"dir = {out}\nname = same") + """
[experiments]
run = solve, reference
""")
        assert main(["run", str(cfg)]) == 0
        outs.append(out)
    for fname in ("mesh.txt", "u.txt", "w.txt", "summary.txt"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        assert a == b, fname
    ra = (outs[0] / "solve_report.csv").read_text().splitlines()
    rb = (outs[1] / "solve_report.csv").read_text().splitlines()
    assert ra[0] == rb[0]
    assert ra[1].rsplit(",", 1)[0] == rb[1].rsplit(",", 1)[0]


# sha256 of the artifacts of an L4 solve, reference, freeze, holder run at
# one BLAS thread, recorded with inexact Newton systems (solver.ETA_MAX)
# nested over the mesh levels, on the numpy Galerkin operators and dense
# coarse solves (the same at two BLAS threads); refactors must leave every
# byte as it is
PINNED_L4_SHA256 = {
    "mesh.txt": "1131b3cd05eddc5211f347ba432081588dfd545a03a781aa6f31dcb5cde927c9",
    "u.txt": "6c6ce26aa61ae71f4e2d96a23b18681e1a567de3d10fe126d8a45291ce8c0e88",
    "w.txt": "70ebca312a127c9fe302560e4c9e4f980b7e36c8c60447a2c361c180528f77c3",
    "comparison.csv": "c22c897697967d6a987c3acfed4bacb9eda38952e76f5d4d233c8a6e0cc64f64",
    "holder.csv": "1223e17715a24264f28282515d2bf0677fb99752503802ec9a85ebcebe06c2a7",
}


def test_l4_pipeline_artifacts_keep_their_bytes(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "l4.cfg", f"""\
[exponent]
family = affine
coefficients = 2, 0.3, 0
[mesh]
level = 4
[boundary]
preset = signorini32
scale = 0.25
[experiments]
run = solve, reference, freeze, holder
[freeze]
center = 0, 0
radii = 0.35, 0.25, 0.17
[holder]
radii = 0.5, 0.4, 0.3
[output]
dir = {out}
""")
    assert main(["run", cfg]) == 0
    for name, digest in PINNED_L4_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# sha256 of scan.csv and summary.txt of an affine [2, 0.3, 0] L6 linear_xn
# solve, reference, scan run at radius 0.035, named scan_pin, at one BLAS
# thread (the same at two): c_sigma rows and one ball of reverse-Hoelder rows
PINNED_SCAN_SHA256 = {
    "scan.csv": "a26d8bd16904872c071ca67515327ee70353a70d985c5ce33e73e697f6455ede",
    "summary.txt": "638436fb33acda6000091c30abae04985cc09c354b06b261877319eddeb4638e",
}


def test_scan_artifacts_keep_their_bytes(tmp_path):
    out = tmp_path / "scan_pin"
    cfg = write_config(tmp_path / "scan.cfg", f"""\
[exponent]
family = affine
coefficients = 2, 0.3, 0
[mesh]
level = 6
[boundary]
preset = linear_xn
[experiments]
run = solve, reference, scan
[scan]
radius = 0.035
[output]
dir = {out}
""")
    assert main(["run", cfg]) == 0
    for name, digest in PINNED_SCAN_SHA256.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_scan_writes_one_row_per_radius_and_sigma(tmp_path):
    out = tmp_path / "scan"
    cfg = write_config(tmp_path / "scan.cfg", """\
[exponent]
family = constant
coefficients = 2.0

[mesh]
level = 6

[boundary]
preset = linear_xn

[experiments]
run = solve, reference, scan

[scan]
radius = 0.035

[output]
dir = %s
""" % out)
    assert main(["run", cfg]) == 0
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert summary["contracts_failed"] == "none"
    assert float(summary["scan_radius"]) <= float(summary["admissible_r"])
    with open(out / "scan.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "radius", "sigma", "value"]
    c_rows = [r for r in rows[1:] if r[0] == "c_sigma"]
    rh_rows = [r for r in rows[1:] if r[0] == "reverse_holder"]
    assert len(c_rows) + len(rh_rows) == len(rows) - 1
    assert [(float(r[1]), float(r[2])) for r in c_rows] == [(0.035, s) for s in SIGMA_GRID]
    assert float(c_rows[0][3]) == float(summary["c_zero"])
    radii = sorted({float(r[1]) for r in rh_rows}, reverse=True)
    assert radii and radii[0] == 0.07
    assert [(float(r[1]), float(r[2])) for r in rh_rows] == \
        [(rho, sigma) for rho in radii for sigma in SIGMA_GRID]
    # at sigma = 0 the reverse-Hoelder ratio compares a ball's mean with itself
    assert all(float(r[3]) == 1.0 for r in rh_rows if float(r[2]) == 0.0)


def test_failed_step_is_named_and_summarized(tmp_path, capsys):
    # at L4 even the largest scan radius any M allows holds fewer than 3
    # whole elements, so the scan's plan stops the run before any solve
    out = tmp_path / "fail"
    cfg = write_config(tmp_path / "fail.cfg", """\
[exponent]
family = sinusoidal
coefficients = 2.0, 0.5, 3.141592653589793

[mesh]
level = 4

[boundary]
preset = signorini32

[experiments]
run = solve, reference, scan

[output]
dir = %s
""" % out)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "scan: ball selections are too coarse" in err
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert summary["failed_step"] == "scan"
    assert summary["experiments"] == "solve;reference;scan"
    assert "M" not in summary and "scan_radius" not in summary
    assert not (out / "u.txt").exists() and not (out / "scan.csv").exists()


@pytest.mark.parametrize("p", ["200", "1100"])
def test_verify_rejects_an_exponent_its_samples_overflow_before_any_step(
        tmp_path, capsys, monkeypatch, p):
    # verify's plan applies the monotonicity check's rule to the field's
    # gamma2, so neither the solve nor a sample starts
    monkeypatch.setattr(cli, "solve", None)
    out = tmp_path / "big_p"
    cfg = write_config(tmp_path / "big_p.cfg", f"""\
[exponent]
family = constant
coefficients = {p}
[mesh]
level = 2
[boundary]
preset = signorini32
[experiments]
run = solve, verify
[output]
dir = {out}
""")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert f"error: verify: gamma2 = {float(p)} exceeds" in err
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert summary["failed_step"] == "verify"
    assert "energy" not in summary and "monotonicity_worst" not in summary
    assert not (out / "u.txt").exists()


README_EXAMPLE = """\
[exponent]
family = sinusoidal
coefficients = 2.0, 0.5, 3.141592653589793
[mesh]
level = {level}
[boundary]
preset = signorini32
[experiments]
run = solve, reference, freeze, scan, holder, verify
[output]
dir = {out}
"""


def test_every_key_the_readme_prose_names_is_a_schema_key():
    # a `[section] key` anywhere in the README, so a retired key cannot
    # linger in the docs
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text("utf-8")
    named = set(re.findall(r"\[(\w+)\] (\w+)", readme))
    schema = {(section, key) for section, entries in cli._SCHEMA.items()
              for key in entries}
    assert named and sorted(named - schema) == []


def test_the_readme_config_block_names_every_schema_key():
    # each `key = ...` line of the README's "Config format" block, commented
    # or not, against the parser's schema
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text("utf-8")
    block = readme.split("### Config format", 1)[1].split("```ini\n", 1)[1]
    keys, section = set(), None
    for line in block.split("\n```", 1)[0].splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif match := re.match(r"#? ?(\w+) = ", line):
            keys.add((section, match.group(1)))
    assert keys == {(section, key) for section, entries in cli._SCHEMA.items()
                    for key in entries}
    assert len(keys) == 24


def test_readme_example_scan_below_level_8_starts_no_solve(tmp_path, capsys,
                                                           solves):
    # the default scan radius is at most 0.0060 for this field whatever M
    # is, and at L7 that ball holds no whole element
    cfg = write_config(tmp_path / "r.cfg", README_EXAMPLE.format(
        level=7, out=tmp_path / "o"))
    assert main(["run", cfg]) == 2
    assert solves == []
    assert re.search(r"error: scan: ball selections are too coarse: about "
                     r"\(0\.0, 0\.0\), radius 0\.0060\d+ holds 0 elements and "
                     r"radius 0\.012\d+ holds 4;", capsys.readouterr().err)


def test_scan_plan_selects_only_the_balls_it_checks(monkeypatch, mesh7):
    # the plan checks the 2r and r balls alone; at the default radius of
    # this field at L7 the scan would select two smaller balls too
    selections = []

    def counted(mesh, center, radius):
        selections.append(radius)
        return real(mesh, center, radius)

    real = analysis.ball_element_mask
    monkeypatch.setattr(analysis, "ball_element_mask", counted)
    run = SimpleNamespace(config={"scan": {"center": [0.0, 0.0], "radius": None}},
                          field=ExponentField("affine", [2.0, 0.3, 0.0]), mesh=mesh7)
    cli._scan_plan(run)
    assert len(selections) == 2


def test_coarse_mesh_rejects_default_holder_radii_before_solving(tmp_path, capsys):
    # at L4, 4 h_max = 0.31 > 0.25: the default radii would increase
    out = tmp_path / "holder"
    cfg = write_config(tmp_path / "holder.cfg", f"""\
[exponent]
family = affine
coefficients = 2, 0.3, 0
[mesh]
level = 4
[boundary]
preset = signorini32
[experiments]
run = solve, holder
[output]
dir = {out}
""")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    h_max = build(4).h_max
    assert "error: holder:" in err
    assert "level 4" in err and "%.17g" % h_max in err and "4*h_max < 0.25" in err
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert summary["failed_step"] == "holder"
    assert not (out / "u.txt").exists()


REFERENCE_RUN = """\
[exponent]
family = constant
coefficients = {p}
[mesh]
level = 3
[boundary]
preset = signorini32
scale = {scale}
[solver]
tol = {tol}
[experiments]
run = solve, reference
[output]
dir = {out}
"""


def test_reference_worker_error_is_named_after_the_solve(tmp_path, capsys,
                                                         monkeypatch):
    def failing(problem, *args, **kwargs):
        raise NumericError("reference solve broke")

    # build_reference reaches solve through its own module
    monkeypatch.setattr(comparison, "solve", failing)
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "r.cfg", REFERENCE_RUN.format(
        p=2.0, scale=1.0, tol=1e-10, out=out))
    assert main(["run", cfg]) == 2
    assert "error: reference: reference solve broke" in capsys.readouterr().err
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert summary["failed_step"] == "reference"
    assert "vi_min" in summary and "m_used" not in summary
    assert (out / "u.txt").exists() and not (out / "w.txt").exists()


def test_stagnated_solve_skips_the_reference_and_the_process_ends(tmp_path):
    # p = 8 with data x10 stagnates; no reference solve is started
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "s.cfg", REFERENCE_RUN.format(
        p=8.0, scale=10.0, tol=1e-14, out=out))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "pxthin.cli", "run", cfg],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "contract violated: solve_converged" in done.stderr
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert summary["contracts_failed"] == "solve_converged"
    assert "m_used" not in summary and "failed_step" not in summary
    assert (out / "u.txt").exists() and not (out / "w.txt").exists()


# ------------------------------------------------------- no scipy in any run

NO_SCIPY_CHILD = """\
import sys

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import pxthin
seen = [loaded()]
import pxthin.cli
seen.append(loaded())
assert pxthin.cli.main(["run", sys.argv[1]]) == 0
seen.append(loaded())
print(seen)
"""


def test_verify_runs_never_import_scipy(tmp_path):
    # the solves assemble and solve on numpy kernels, so a run of every
    # experiment loads no scipy module
    cfg = write_config(tmp_path / "v.cfg", f"""\
[exponent]
family = constant
coefficients = 2.0
[mesh]
level = 5
[boundary]
preset = linear_xn
[experiments]
run = solve, reference, freeze, scan, holder, verify
[freeze]
center = 0, 0
radii = 0.3, 0.2, 0.12
[verify]
iteration_trials = 50
monotonicity_trials = 1000
luxemburg_trials = 2
[output]
dir = {tmp_path / "o"}
""")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, cfg],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[[], [], []]"
    summary = (tmp_path / "o" / "summary.txt").read_text()
    assert "contracts_failed = none" in summary
    for key in ("energy", "M", "freeze_ratio", "c_zero", "alpha_origin",
                "luxemburg_unit_dev"):
        assert f"\n{key} = " in summary, key


@pytest.mark.parametrize("p,scale,tol,status,kinds", [
    (2.0, 1.0, 1e-10, 0, ["constrained", "reference"]),
    (8.0, 10.0, 1e-14, 1, ["constrained"]),     # the solve stagnates
], ids=["converged", "stagnated"])
def test_the_reference_is_solved_after_the_solve_and_only_on_success(
        tmp_path, solves, p, scale, tol, status, kinds):
    threads = threading.enumerate()
    cfg = write_config(tmp_path / "r.cfg", REFERENCE_RUN.format(
        p=p, scale=scale, tol=tol, out=tmp_path / "out"))
    assert main(["run", cfg]) == status
    assert solves == kinds
    assert threading.enumerate() == threads


# ------------------------------------------------------- early rejections

TRIAL_KEYS = [("solver", "vi_trials"), ("verify", "iteration_trials"),
              ("verify", "monotonicity_trials"), ("verify", "luxemburg_trials")]


@pytest.mark.parametrize("section,key", TRIAL_KEYS)
@pytest.mark.parametrize("value", ["0", "-5"])
def test_trial_counts_below_one_are_config_errors(tmp_path, section, key, value):
    text = BASE.format(out=tmp_path / "o") + "[%s]\n%s = %s\n" % (section, key, value)
    path = write_config(tmp_path / "t.cfg", text)
    line = text.splitlines().index("%s = %s" % (key, value)) + 1
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "line %d: bad value for [%s] %s" % (line, section, key) in str(err.value)
    assert "at least one trial" in str(err.value)


def test_zero_vi_trials_are_rejected_before_the_solve(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "t.cfg",
                       BASE.format(out=out) + "[solver]\nvi_trials = 0\n")
    assert main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "u.txt").exists()


@pytest.mark.parametrize("section,line,fragment", [
    ("freeze", "radii = 0.1, 0.2", "need at least 3 radii"),
    ("freeze", "radii = 0.2, 0.3, 0.1", "strictly decreasing"),
    ("freeze", "radii = 0.5, 0.4, 0.35", "3/4 ball"),
    ("freeze", "radii = 0.3, 0.2, 0.01", "2*h_max"),
    ("holder", "radii = 0.1", "need at least 2 radii"),
    ("holder", "radii = 0.1, 0.2", "strictly decreasing"),
    ("holder", "radii = 0.2, 0.01", "2*h_max"),
    ("holder", "centers = 0.0, 0.3", "thin line with |x1| <= 1/2"),
    ("freeze", "center = 0.0, 0.1", "thin line with |x1| <= 1/2"),
    ("scan", "radius = 0.5", "3/4 ball"),
    ("scan", "radius = 0.2", "exceeds the admissible radius 0.125 at M = 1"),
    ("scan", "radius = 0.1", "ball selections are too coarse"),
    ("scan", "center = 0.1, 0.2", "thin line with |x1| <= 1/2"),
])
def test_bad_radii_are_rejected_before_any_solve(tmp_path, capsys, section, line,
                                                 fragment):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "r.cfg", BASE.format(out=out)
                       + "[experiments]\nrun = %s\n[%s]\n%s\n" % (section, section, line))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "error: %s:" % section in err and fragment in err
    summary = dict(row.split(" = ", 1)
                   for row in (out / "summary.txt").read_text().splitlines())
    assert summary["failed_step"] == section
    assert not (out / "u.txt").exists()


def _graded(tmp_path, text):
    return write_config(tmp_path / "g.cfg", BASE.format(out=tmp_path / "o").replace(
        "level = 3", "level = 3\ngrading = %s" % text))


@pytest.mark.parametrize("text", ["-2", "0.4", "2.6"])
def test_grading_must_be_a_whole_count(tmp_path, text):
    with pytest.raises(ConfigError, match=r"\[mesh\] grading: grading must be a whole"):
        parse_config(_graded(tmp_path, text))


@pytest.mark.parametrize("text", ["2", "2.0"])
def test_whole_gradings_are_counts(tmp_path, text):
    assert parse_config(_graded(tmp_path, text))["mesh"]["grading"] == 2


def _bad_counts(key, bound):
    # an int beyond the floats, a float far beyond any count, and one past
    # each end of [0, bound]
    return st.tuples(st.just(key), st.one_of(
        st.integers(min_value=bound + 1).map(str),
        st.integers(300, 4000).map(lambda n: "1" + "0" * n),
        st.floats(bound + 1.0, 1.7e308).map(repr),
        st.sampled_from([str(bound + 1), "-1"])))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(_bad_counts("level", MAX_LEVEL), _bad_counts("grading", MAX_GRADING)))
@example(("level", "1" + "0" * 4000))
def test_huge_counts_are_config_errors_before_any_mesh(tmp_path, capsys, monkeypatch,
                                                       case):
    # a huge grading passed its check and then built for minutes, or raised
    # OverflowError, as did a level beyond the floats; a 4,001-digit level
    # was printed whole, on a 4,082-byte line
    monkeypatch.setattr(cli, "build", lambda *args: pytest.fail("a mesh was built"))
    key, text = case
    out = tmp_path / "o"
    line = "level = %s" % text if key == "level" else "level = 3\ngrading = %s" % text
    cfg = write_config(tmp_path / "n.cfg", BASE.format(out=out).replace("level = 3", line))
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert not out.exists()


@pytest.mark.parametrize("family,coefficients,gammas", [
    ("constant", "2.0", MONO_GAMMA),
    ("sinusoidal", "2, 0.5, 3.141592653589793", MONO_GAMMA),
    ("constant", "12.0", (MONO_GAMMA[0], 12.0)),
    ("radial", "1.05, 10", (1.05, 1.05 + 10.0)),
])
def test_verify_checks_monotonicity_on_mono_gamma_and_the_field_range(
        tmp_path, monkeypatch, family, coefficients, gammas):
    # inside MONO_GAMMA the check keeps its calibrated constant's range; a
    # field reaching past it widens the range to the hull of the two
    calls = []

    def recorded(*args):
        calls.append(args)
        return 0.5

    monkeypatch.setattr(cli, "monotonicity_check", recorded)
    text = BASE.format(out=tmp_path / "o").replace(
        "family = constant\ncoefficients = 2.0",
        "family = %s\ncoefficients = %s" % (family, coefficients))
    cfg = write_config(tmp_path / "v.cfg", text + "[experiments]\nrun = verify\n"
                       + SMALL_VERIFY)
    assert main(["run", cfg]) == 0
    assert calls == [gammas + (500, 0)]


def test_negative_seeds_are_rejected(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "s.cfg", BASE.format(out=out) + "[solver]\nseed = -1\n")
    assert main(["run", cfg]) == 2
    assert "bad value for [solver] seed: a seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old,new,fragment", [
    ("coefficients = 2.0", "coefficients = 2.0\nbeta = 2",
     "line 4: bad value for [exponent] beta: beta must lie in (0, 1], got 2.0"),
    ("level = 3", "level = 11",
     "line 6: bad value for [mesh] level: level must be at most 10, got 11"),
    ("level = 3", "level = -1",
     "line 6: bad value for [mesh] level: level must be >= 0, got -1"),
    ("family = constant\ncoefficients = 2.0", "family = affine\ncoefficients = 2, 0.3",
     "[exponent] family 'affine' needs 3 coefficients, got 2"),
    ("coefficients = 2.0", "coefficients = 1.0",
     "[exponent] exponent must stay > 1 on the half-disk; minimum is 1.0"),
    ("[output]", "[solver]\ntol = 1\n[output]",
     "line 12: bad value for [solver] tol: tol must lie in [1e-14, 1e-4], got 1.0"),
    # the regularization ladder is no setting
    ("[output]", "[solver]\neps_schedule = 0.5, 1e-9\n[output]",
     "line 12: unknown key 'eps_schedule' in [solver]"),
    # the monotonicity range is the field's, the scan grid and constant data
    # are no settings: constant data is a custom file
    ("[output]", "[verify]\ngamma1 = 0.9\n[output]",
     "line 12: unknown key 'gamma1' in [verify]"),
    ("[output]", "[verify]\ngamma2 = 12\n[output]",
     "line 12: unknown key 'gamma2' in [verify]"),
    ("[output]", "[scan]\nsigma_grid = 0.1, 0.2\n[output]",
     "line 12: unknown key 'sigma_grid' in [scan]"),
    # the majorant's sigma0 and the theory's alpha0 are constants
    ("[output]", "[holder]\nalpha0 = 1.5\n[output]",
     "line 12: unknown key 'alpha0' in [holder]"),
    ("[output]", "[freeze]\nsigma0 = -1\n[output]",
     "line 12: unknown key 'sigma0' in [freeze]"),
    ("preset = signorini32", "preset = signorini32\noffset = 0.75",
     "line 10: unknown key 'offset' in [boundary]"),
    # the CSVs are the artifacts; no option redraws them as SVGs
    ("[output]", "[output]\nplots = true",
     "line 12: unknown key 'plots' in [output]"),
    ("preset = signorini32", "preset = offset_const",
     "line 9: bad value for [boundary] preset: expected one of: linear_xn, "
     "signorini32, custom"),
], ids=["beta_2", "level_11", "level_-1", "affine_2_coefficients", "constant_1",
        "tol_1", "eps_schedule_0.5", "gamma1_0.9", "gamma2_12", "sigma_grid_0.1_0.2",
        "alpha0_1.5", "sigma0_-1", "offset_0.75", "plots_true", "offset_const"])
def test_exponent_and_level_errors_are_config_errors(tmp_path, capsys, old, new,
                                                     fragment):
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "x.cfg", BASE.format(out=out).replace(old, new))
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == "config error: %s\n" % fragment
    assert not out.exists()


def test_a_seminorm_below_the_proven_bound_is_a_config_error(tmp_path, capsys):
    # affine [2, 0.3, 0] at beta = 0.5 has the seminorm 0.3 * 2^0.5, which
    # a sampled quotient, 0.41296, underestimated: 0.42 passed
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "x.cfg", BASE.format(out=out).replace(
        "family = constant\ncoefficients = 2.0",
        "family = affine\ncoefficients = 2, 0.3, 0\nbeta = 0.5\nholder_seminorm = 0.42"))
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: [exponent] declared holder_seminorm 0.42 must be finite and "
        "at least the proven bound L * 2^(1-beta) = %r\n" % (0.3 * 2.0 ** 0.5))
    assert not (out / "mesh.txt").exists()


# ------------------------------------------------------- contract table

def _returning(value):
    return lambda real: lambda *args, **kwargs: value


def _changed(**attrs):
    """The real function, with attributes of its result overwritten; of a
    (w, report) result, of the report."""
    def patch(real):
        def changed(*args, **kwargs):
            result = real(*args, **kwargs)
            report = result[1] if isinstance(result, tuple) else result
            for name, value in attrs.items():
                setattr(report, name, value)
            return result
        return changed
    return patch


SMALL_VERIFY = """
[verify]
iteration_trials = 200
monotonicity_trials = 500
luxemburg_trials = 2
"""
FREEZE_L3 = """
[freeze]
center = 0, 0
radii = 0.37, 0.35, 0.33
"""
# the admissible radius at M = 1: the scan's plan passes at L3, since this
# ball holds the 4 elements at the origin
SCAN_L3 = """
[scan]
radius = 0.125
"""
FAKE_SCAN = SimpleNamespace(radius=0.05, sigma_grid=[0.0], c_sigma=[2.0],
                            sigma0=0.0, admissible_r=0.1, rh_radii=[],
                            rh_ratios=[])


# contract, experiment, extra config, patched cli name, patch, expected detail
BOUNDED_CONTRACTS = [
    ("vi_nonnegative", "solve", "", "vi_check", _returning(-1.0),
     "vi_violation = 1 > 1e-08"),
    ("ordering_u_ge_w", "reference", "", "build_reference",
     _changed(ordering_margin=-1.0), "ordering_margin = -1 < -1e-08"),
    ("odd_reflection_residual", "reference", "", "build_reference",
     _changed(reflect_residual=1.0), "reflect_residual = 1 > 1e-08"),
    ("frozen_energy_ordering", "freeze", FREEZE_L3, "comparison_decay",
     _changed(energy_sub_u=[0.0] * 3, energy_sub_u0=[1.0] * 3),
     "dugedu0_slack = -1 < -1e-10"),
    ("c_at_sigma_zero", "scan", SCAN_L3, "higher_integrability_scan",
     _returning(FAKE_SCAN), "c_zero = 2 > 1.000000001"),
    ("iteration_lemma", "verify", SMALL_VERIFY, "iteration_suite",
     _returning(-1.0), "iteration_worst_slack = -1 < 0.0"),
    ("monotonicity_bound", "verify", SMALL_VERIFY, "monotonicity_check",
     _returning(2.0), "monotonicity_worst = 2 > 1.0"),
    ("luxemburg_unit_modular", "verify", SMALL_VERIFY, "luxemburg_identity_checks",
     _returning((1.0, 0.0, 0.0)), "luxemburg_unit_dev = 1 > 1e-10"),
    ("luxemburg_homogeneity", "verify", SMALL_VERIFY, "luxemburg_identity_checks",
     _returning((0.0, 1.0, 0.0)), "luxemburg_homog_rel = 1 > 1e-09"),
    ("luxemburg_constant_exponent", "verify", SMALL_VERIFY,
     "luxemburg_identity_checks", _returning((0.0, 0.0, 1.0)),
     "luxemburg_const_rel = 1 > 1e-09"),
]


@pytest.mark.parametrize("contract,experiment,extra,name,patch,detail",
                         BOUNDED_CONTRACTS, ids=[c[0] for c in BOUNDED_CONTRACTS])
def test_bounded_contract_violation_names_quantity_value_and_bound(
        tmp_path, capsys, monkeypatch, contract, experiment, extra, name, patch,
        detail):
    monkeypatch.setattr(cli, name, patch(getattr(cli, name)))
    out = tmp_path / "o"
    cfg = write_config(tmp_path / "c.cfg", BASE.format(out=out)
                       + "[experiments]\nrun = %s\n" % experiment + extra)
    assert main(["run", cfg]) == 1
    assert "contract violated: %s (%s)\n" % (contract, detail) in capsys.readouterr().err
    summary = dict(row.split(" = ", 1)
                   for row in (out / "summary.txt").read_text().splitlines())
    assert summary["contracts_failed"] == contract
    quantity, value = detail.split(" ")[0], detail.split(" ")[2]
    assert summary[quantity] == value


# summary.txt of an L3 solve, verify run named summary_pin, recorded with
# inexact Newton systems nested over the mesh levels, on the numpy Galerkin
# operators and dense coarse solves, at one BLAS thread (and the same at two)
PINNED_SOLVE_VERIFY_SUMMARY = \
    "23129cbb290a7c66f62bfe26c5dcfbe1ba13b68bb006fbd906dcee27473fdaed"


def test_solve_verify_summary_keeps_its_bytes(tmp_path):
    out = tmp_path / "summary_pin"
    cfg = write_config(tmp_path / "p.cfg", BASE.format(out=out) + """
[experiments]
run = solve, verify
[verify]
iteration_trials = 200
monotonicity_trials = 500
luxemburg_trials = 4
""")
    assert main(["run", cfg]) == 0
    digest = hashlib.sha256((out / "summary.txt").read_bytes()).hexdigest()
    assert digest == PINNED_SOLVE_VERIFY_SUMMARY
