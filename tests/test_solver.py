"""Constrained solver behavior on configurations with known outcomes.

Expected numbers were frozen from independent closed forms where available
(mean-value identity for the no-contact case) and otherwise pinned once from
a converged run so regressions are loud.
"""

import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pxthin import (ConvergenceError, EnergySetup, ExponentField, FeFunction,
                    FormatError, ObstacleProblem, PreconditionError,
                    ResolutionError, ResourceError, build,
                    energy, extract_halfball_submesh, hessian, load_solution,
                    residual, save_solution, solve, vi_check)
from pxthin import comparison, solver
from pxthin.cli import boundary_values
from pxthin.comparison import reference_problem
from pxthin.energy import MAX_EPSILON
from pxthin.mesh import INTERIOR, THIN, TriMesh
from pxthin.sparse import PatternMatrix
from conftest import FAMILIES, csr, g_signorini32


def _data(mesh, preset, scale=1.0, offset=1.0):
    """The CLI's data of a preset; "constant" is offset everywhere, the
    data of a custom file of np.full values."""
    if preset == "constant":
        return scale * np.full(mesh.num_vertices, offset)
    boundary = {"preset": preset, "scale": scale, "file": None}
    return boundary_values({"boundary": boundary}, mesh, ".")


def _linear_problem(mesh, field):
    g = mesh.vertices[:, 1].copy()
    return ObstacleProblem(EnergySetup(mesh, field), g), g


def test_linear_data_never_touches_the_obstacle(mesh4, p2):
    problem, g = _linear_problem(mesh4, p2)
    u, report = solve(problem, 1e-10)
    assert len(report.active_set) == 0
    assert report.free_residual <= 1e-10
    assert report.complementarity <= 1e-10
    # p = 2 makes the energy quadratic: one step on the coarsest level,
    # whose systems are factorized, and two on each finer level, whose
    # first system is solved only to ETA_MAX
    assert report.iterations == [1, 0, 0, 0, 0, 0, 4]
    assert report.level_iterations == [1, 2, 2]
    assert report.energy == pytest.approx(0.31992639450094962, rel=1e-12)
    # arc data reproduced exactly, obstacle respected
    arc = problem.setup.mesh.vertex_tags == 1
    thin = problem.setup.mesh.vertex_tags == 2
    assert np.max(np.abs(u.values[arc] - g[arc])) == 0.0
    assert np.min(u.values[thin]) >= -1e-12


def test_no_contact_solution_matches_mean_value_oracle(mesh4, p2):
    # with no contact the minimizer is harmonic with a reflection-even
    # extension, so its center value is the boundary average of |x2|,
    # i.e. (1/2pi) int |sin| = 2/pi
    problem, _ = _linear_problem(mesh4, p2)
    u, _ = solve(problem, 1e-10)
    origin = np.flatnonzero(np.all(mesh4.vertices == 0.0, axis=1))[0]
    assert abs(u.values[origin] - 2.0 / np.pi) <= 5e-4


def test_signorini_benchmark_active_set(solved_p2_sig32_l5):
    problem, u, report, g = solved_p2_sig32_l5
    assert len(report.active_set) == 32
    assert report.energy == pytest.approx(1.1779734576818952, rel=1e-12)
    # the data itself solves the problem, so the solve reproduces it
    h = problem.setup.mesh.h_max
    assert np.max(np.abs(u.values - g)) <= 5.0 * h
    thin = problem.setup.mesh.vertex_tags == 2
    assert np.min(u.values[thin]) >= -1e-12
    # active vertices sit where the data vanishes, on the negative axis side
    active_x = problem.setup.mesh.vertices[report.active_set, 0]
    assert np.all(active_x <= 0.0)


def test_quartic_exponent_newton_path(mesh4):
    field = ExponentField("constant", [4.0])
    g = g_signorini32(mesh4)
    problem = ObstacleProblem(EnergySetup(mesh4, field), g)
    u, report = solve(problem, 1e-10)
    assert report.iterations == [4, 1, 1, 1, 0, 0, 8]
    assert report.level_iterations == [7, 4, 4]
    assert report.energy == pytest.approx(0.96094389310606343, rel=1e-12)
    assert len(report.active_set) == 16


def test_variable_exponent_solve(mesh4, sin_field):
    g = g_signorini32(mesh4)
    problem = ObstacleProblem(EnergySetup(mesh4, sin_field), g)
    u, report = solve(problem, 1e-10)
    assert report.iterations == [3, 1, 1, 1, 0, 0, 6]
    assert report.level_iterations == [6, 3, 3]
    assert report.energy == pytest.approx(1.2033467697871849, rel=1e-12)
    assert len(report.active_set) == 15
    assert report.free_residual <= 1e-10
    assert report.complementarity <= 1e-10


def test_solver_is_deterministic(mesh4, sin_field):
    g = g_signorini32(mesh4)
    u1, _ = solve(ObstacleProblem(EnergySetup(mesh4, sin_field), g), 1e-10)
    u2, _ = solve(ObstacleProblem(EnergySetup(mesh4, sin_field), g), 1e-10)
    assert np.array_equal(u1.values, u2.values)


def test_variational_inequality_on_random_directions(solved_p2_sig32_l5):
    problem, u, _, _ = solved_p2_sig32_l5
    worst = vi_check(problem, u, 100, 0)
    assert worst >= -1e-8
    # same trials and seed reproduce the same worst value
    assert vi_check(problem, u, 100, 0) == worst


def test_feasible_start_clamps_the_thin_boundary(mesh4, p2):
    g = mesh4.vertices[:, 1] - 0.5
    problem = ObstacleProblem(EnergySetup(mesh4, p2), g)
    start = problem.feasible(g.copy())
    thin = mesh4.vertex_tags == 2
    assert np.min(start[thin]) >= 0.0
    arc = mesh4.vertex_tags == 1
    assert np.array_equal(start[arc], g[arc])


def test_obstacle_problem_masks(mesh4, p2):
    g = np.zeros(mesh4.num_vertices)
    arc = mesh4.vertex_tags == 1
    thin = mesh4.vertex_tags == 2
    problem = ObstacleProblem(EnergySetup(mesh4, p2), g)
    assert np.array_equal(problem.obstacle, thin)
    assert np.array_equal(problem.dirichlet, arc)
    free = ObstacleProblem(EnergySetup(mesh4, p2), g, obstacle=False)
    assert not free.obstacle.any()
    assert np.array_equal(free.dirichlet, arc | thin)


def test_obstacle_free_solve_keeps_its_thin_data(mesh4, sin_field):
    # Dirichlet data on Arc and 0 on Thin; no vertex is ever active
    thin = mesh4.vertex_tags == 2
    g = np.where(mesh4.vertex_tags == 1, mesh4.vertices[:, 1] - 0.5, 0.0)
    problem = ObstacleProblem(EnergySetup(mesh4, sin_field), g, obstacle=False)
    u, report = solve(problem, 1e-10)
    assert len(report.active_set) == 0
    assert report.complementarity == 0.0
    assert report.free_residual <= 1e-10
    assert u.values[thin].tobytes() == np.zeros(int(thin.sum())).tobytes()
    assert vi_check(problem, u, 20, 0) >= -1e-8


def test_vi_check_needs_no_dirichlet_vertices(p2):
    # a hand-made mesh with no tags: nothing is fixed and nothing constrained
    mesh = TriMesh([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)],
                   [(0, 1, 2), (0, 2, 3)])
    problem = ObstacleProblem(EnergySetup(mesh, p2), np.full(4, 0.25))
    assert not problem.dirichlet.any() and not problem.obstacle.any()
    u, _ = solve(problem, 1e-10)
    assert np.isfinite(vi_check(problem, u, 20, 0))


def test_tolerance_window_is_enforced(mesh4, p2):
    problem, _ = _linear_problem(mesh4, p2)
    with pytest.raises(PreconditionError):
        solve(problem, 1e-3)
    with pytest.raises(PreconditionError):
        solve(problem, 1e-15)


def test_stagnated_solve_reports_its_best_iterate(mesh3):
    # p = 8 with data x10 stagnates far above tol = 1e-14, on the coarsest
    # level; its best iterate is prolonged to the problem's mesh
    field = ExponentField("constant", [8.0])
    problem = ObstacleProblem(EnergySetup(mesh3, field), 10.0 * g_signorini32(mesh3))
    with pytest.raises(ConvergenceError) as caught:
        solve(problem, 1e-14)
    best, report = caught.value.best, caught.value.info
    assert best.mesh is mesh3 and len(report.level_iterations) == 1
    assert report.stages[-1][:2] == (2, 0.01)
    assert np.isfinite([report.energy, report.free_residual,
                        report.complementarity]).all()
    assert report.energy == energy(problem.setup.with_epsilon(0.0), best.values)
    assert len(report.active_set) > 0
    assert report.wall_time > 0.0
    assert best.values[problem.arc].tobytes() == problem.g[problem.arc].tobytes()


def test_stall_names_its_eps_stage(mesh3):
    # it names the level too: the stall ends on the coarsest, MG_COARSEST = 2
    field = ExponentField("constant", [8.0])
    problem = ObstacleProblem(EnergySetup(mesh3, field), 10.0 * g_signorini32(mesh3))
    with pytest.raises(ConvergenceError, match=r"on level 2 \(1 of 2\) in eps stage "
                       r"0\.01 \(1 of 7\); best KKT measure \d") as caught:
        solve(problem, 1e-14)
    # the report's last row is the stage the message names
    assert caught.value.info.stages[-1][:2] == (2, 0.01)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.sampled_from(FAMILIES),
       st.sampled_from(("linear_xn", "signorini32", "constant")),
       st.sampled_from((1e-2, 0.25, 1.0, 4.0)), st.floats(-2.0, 2.0))
def test_solve_returns_g_on_arc_bit_for_bit(level, field, preset, scale, offset):
    # the CLI starts the reference solve from min(g on Arc) before u exists
    mesh = build(level)
    g = _data(mesh, preset, scale, offset)
    problem = ObstacleProblem(EnergySetup(mesh, field), g)
    try:
        u, _ = solve(problem, 1e-10)
    except ConvergenceError as exc:
        u = exc.best
    assert u.values[problem.arc].tobytes() == g[problem.arc].tobytes()
    from_u = reference_problem(problem, u.values)
    assert from_u.g.tobytes() == reference_problem(problem, g).g.tobytes()


# the known stall: on the coarsest level, in the first eps stage
@example(3, ExponentField("constant", [8.0]), "signorini32", 10.0, 1e-14)
@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.sampled_from(FAMILIES),
       st.sampled_from(("linear_xn", "signorini32", "constant")),
       st.just(1.0), st.just(1e-10))
def test_report_holds_the_kkt_values_of_the_returned_iterate(level, field, preset,
                                                             scale, tol):
    mesh = build(level)
    problem = ObstacleProblem(EnergySetup(mesh, field), _data(mesh, preset, scale))
    try:
        u, report = solve(problem, tol)
    except ConvergenceError as exc:
        u, report = exc.best, exc.info
    # the first level runs one eps stage after another, so this is the last
    eps = solver.EPS_SCHEDULE[len(report.iterations) - 1]
    r = residual(problem.setup.with_epsilon(eps), u.values)
    active, _, free_res, comp = solver._kkt(problem, u.values, r)
    assert (report.free_residual, report.complementarity) == (free_res, comp)
    exact_zero = problem.obstacle & (u.values == 0.0)
    assert np.array_equal(report.active_set, np.flatnonzero(active | exact_zero))
    assert sum(report.iterations) == sum(report.level_iterations)
    assert sum(report.cg_steps) == sum(report.level_cg_steps)


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 5), st.sampled_from(FAMILIES))
def test_report_rows_follow_the_nested_eps_ladder(level, field):
    # every eps stage on the first level, then the last one per finer level;
    # the four count lists are sums of the rows' counts
    mesh = build(level)
    problem = ObstacleProblem(EnergySetup(mesh, field), g_signorini32(mesh))
    _, report = solve(problem, 1e-10)
    first = min(solver.MG_COARSEST, level)
    ladder = ([(first, eps) for eps in solver.EPS_SCHEDULE]
              + [(k, solver.EPS_SCHEDULE[-1]) for k in range(first + 1, level + 1)])
    assert [row[:2] for row in report.stages] == ladder
    systems, cg_steps = (sum(row[column] for row in report.stages) for column in (2, 3))
    assert sum(report.iterations) == sum(report.level_iterations) == systems
    assert sum(report.cg_steps) == sum(report.level_cg_steps) == cg_steps
    assert len(report.level_iterations) == len(report.level_cg_steps) == level - first + 1


def test_the_eps_ladder_keeps_its_rules():
    # non-empty, strictly decreasing, inside the regularization the energy
    # accepts, and fine enough at the end to stand for eps = 0
    ladder = solver.EPS_SCHEDULE
    assert len(ladder) >= 1
    assert all(b < a for a, b in zip(ladder, ladder[1:]))
    assert all(0.0 < eps <= MAX_EPSILON for eps in ladder)
    assert ladder[-1] <= 1e-8


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, 1e-3, 1e-15])
def test_bad_tol_is_rejected_before_any_stage(mesh4, p2, monkeypatch, tol):
    def no_stage(*args):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(solver, "_solve_stage", no_stage)
    problem, _ = _linear_problem(mesh4, p2)
    with pytest.raises(PreconditionError, match="tol must lie in"):
        solve(problem, tol)


def test_boundary_data_shape_checked(mesh4, p2):
    with pytest.raises(PreconditionError):
        ObstacleProblem(EnergySetup(mesh4, p2), np.zeros(3))


def test_solution_roundtrip(tmp_path, solved_p2_sig32_l5):
    problem, u, _, _ = solved_p2_sig32_l5
    mesh = problem.setup.mesh
    path = tmp_path / "u.txt"
    save_solution(u, str(path))
    loaded = load_solution(str(path), mesh)
    assert np.array_equal(loaded.values, u.values)


def test_solution_file_is_bound_to_its_mesh(tmp_path, solved_p2_sig32_l5, mesh4):
    problem, u, _, _ = solved_p2_sig32_l5
    path = tmp_path / "u.txt"
    save_solution(u, str(path))
    with pytest.raises(FormatError):
        load_solution(str(path), mesh4)


def test_truncated_solution_file_rejected(tmp_path, mesh4, p2):
    problem, _ = _linear_problem(mesh4, p2)
    u, _ = solve(problem, 1e-10)
    path = tmp_path / "u.txt"
    save_solution(u, str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError):
        load_solution(str(path), mesh4)


# a malformed number in each numeric field the solution reader parses: the
# index of its line to corrupt, the field and its new text
MALFORMED_NUMBERS = [
    (0, 2, "1.5"),          # the header's value count
    (1, 1, "x"),            # a value line's vertex index
    (2, 2, "1,5"),          # a value
    (2, 2, "nan"),          # values that are not finite
    (2, 2, "inf"),
    (2, 2, "1e999"),
]


@pytest.mark.parametrize("index,field,text", MALFORMED_NUMBERS,
                         ids=["count", "u_index", "value", "nan", "inf", "overflow"])
def test_malformed_numbers_name_the_file_and_the_line(tmp_path, index, field, text):
    mesh = build(1)
    path = tmp_path / "u.txt"
    save_solution(FeFunction(mesh, mesh.vertices[:, 1].copy()), str(path))
    lines = path.read_text().splitlines()
    parts = lines[index].split()
    parts[field] = text
    lines[index] = " ".join(parts)
    # a leading blank line: the reader skips it, and the numbers count it
    path.write_text("\n" + "\n".join(lines) + "\n")
    number = index + 2
    with pytest.raises(FormatError, match="^%s line %d: " % (re.escape(str(path)),
                                                            number)):
        load_solution(str(path), mesh)


@pytest.mark.parametrize("case", ["undecodable", "missing"])
def test_unreadable_files_are_format_errors_naming_the_file(tmp_path, case):
    path = tmp_path / "in.txt"
    if case == "undecodable":
        path.write_bytes(b"m 0 \xff\n")
    with pytest.raises(FormatError, match="^%s: " % re.escape(str(path))):
        load_solution(str(path), build(1))


def test_fe_function_data_accepted(mesh4, p2):
    g = FeFunction(mesh4, mesh4.vertices[:, 1].copy())
    problem = ObstacleProblem(EnergySetup(mesh4, p2), g)
    u, _ = solve(problem, 1e-10)
    assert u.values.shape == (mesh4.num_vertices,)


def _newton_system(level, grading, field, eps, seed, ball=None):
    """hessian() at a random state, with a random active subset of Thin; on
    the half-ball submesh about (x1, 0) of radius r when ball = (x1, r)."""
    mesh = build(level, grading)
    if ball is not None:
        mesh, _ = extract_halfball_submesh(mesh, (ball[0], 0.0), ball[1])
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, mesh.num_vertices)
    H = hessian(EnergySetup(mesh, field).with_epsilon(eps), v)
    thin = mesh.vertex_tags == THIN
    free = (mesh.vertex_tags == INTERIOR) | (thin & (rng.random(mesh.num_vertices) < 0.5))
    return mesh, H, free, rng.standard_normal(int(free.sum()))


def _free_solve(H, free, rhs, mesh):
    """The Newton direction at the solver's tightest tolerance."""
    return solver._free_solve(H, free, rhs, mesh, solver.CG_RTOL)[0]


# a half-ball submesh's V-cycle steps to cuts of its source's coarser
# meshes, with the coarse vertices that have no kept fine copy truncated
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2), st.sampled_from(FAMILIES),
       st.sampled_from(solver.EPS_SCHEDULE), st.integers(0, 2 ** 32 - 1),
       st.none() | st.tuples(st.floats(-0.5, 0.5), st.floats(0.25, 0.75)))
def test_multigrid_direction_matches_direct_solve(level, grading, field, eps, seed,
                                                  ball):
    try:
        mesh, H, free, rhs = _newton_system(level, grading, field, eps, seed, ball)
    except (PreconditionError, ResolutionError):    # a ball the mesh cannot resolve
        assume(False)
    x = _free_solve(H, free, rhs, mesh)
    direct = spla.spsolve(csr(H)[free][:, free].tocsc(), rhs)
    assert x is not None
    assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)


def test_unconverged_cg_gives_no_direction(monkeypatch):
    mesh, H, free, rhs = _newton_system(5, 0, FAMILIES[3], 1e-8, 0)
    monkeypatch.setattr(solver, "CG_MAXITER", 2)
    # the steps CG took are counted all the same
    assert solver._free_solve(H, free, rhs, mesh, solver.CG_RTOL) == (None, 2)


def test_singular_free_block_gives_no_direction():
    mesh = TriMesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                   [(0, 1, 2), (0, 2, 3)])
    H = PatternMatrix(mesh.p1_pattern, np.zeros((mesh.p1_pattern.width, 4)))
    free = np.ones(4, dtype=bool)
    assert _free_solve(H, free, np.ones(4), mesh) is None


def test_a_mesh_without_a_coarser_mesh_is_solved_densely_up_to_a_size(
        monkeypatch, p2):
    mesh = build(3)
    flat = TriMesh(mesh.vertices, mesh.triangles, mesh.vertex_tags)
    problem = ObstacleProblem(EnergySetup(flat, p2), g_signorini32(flat))
    free = int(np.count_nonzero(~problem.dirichlet))
    monkeypatch.setattr(solver, "DENSE_MAX", free)
    u, _ = solve(problem, 1e-10)
    # one vertex fewer allowed: rejected before any Newton system, by count
    monkeypatch.setattr(solver, "DENSE_MAX", free - 1)
    monkeypatch.setattr(solver, "hessian", None)
    with pytest.raises(ResourceError, match=f"at most {free - 1} free vertices; "
                                            f"this one has {free}$"):
        solve(problem, 1e-10)
    # the built mesh of the same size walks its hierarchy instead
    monkeypatch.setattr(solver, "hessian", hessian)
    built, _ = solve(ObstacleProblem(EnergySetup(mesh, p2), problem.g), 1e-10)
    assert np.abs(built.values - u.values).max() <= 20 * 1e-10


def test_a_one_level_v_cycle_is_rejected_by_its_dense_size(monkeypatch, p2):
    # build(6)'s L5 made by hand and L6 chained onto it: L6 has a coarser
    # mesh, but a two-mesh hierarchy gives its V-cycle one level, so its
    # whole free block, 8,064 x 8,064 after the first active set (520 MB and
    # one LU per CG step), would be solved densely
    mesh = build(6)
    coarse = mesh.coarser
    flat = TriMesh(coarse.vertices, coarse.triangles, coarse.vertex_tags)
    chained = TriMesh(mesh.vertices, mesh.triangles, mesh.vertex_tags, flat, mesh.parents)
    assert chained.below is flat and solver._v_cycle_meshes(chained) == [chained]
    problem = ObstacleProblem(EnergySetup(chained, p2), g_signorini32(chained))
    free = int(np.count_nonzero(~problem.dirichlet))
    assert free == 8128 > solver.DENSE_MAX

    def dense(*args):
        raise AssertionError("a dense block was formed")

    monkeypatch.setattr(PatternMatrix, "dense", dense)
    monkeypatch.setattr(solver, "hessian", None)
    with pytest.raises(ResourceError, match=f"at most {solver.DENSE_MAX} free vertices; "
                                            f"this one has {free}$"):
        solve(problem, 1e-10)


def test_projected_steps_pass_armijo_along_the_projected_arc():
    # p = 8 with ten times the signorini32 data: early Newton directions are
    # no descent directions, and the projected gradient fallback clamps at
    # the obstacle where -r pushes a vertex at 0 further down. Armijo tested
    # against t r.d counted those clamped components, so no step passed
    # and the solve stalled at a KKT measure of 1.6e5; measured 31 systems
    mesh = build(2)
    problem = ObstacleProblem(EnergySetup(mesh, ExponentField("constant", [8.0])),
                              10.0 * g_signorini32(mesh))
    u, report = solve(problem, 1e-7)
    assert max(report.free_residual, report.complementarity) <= 1e-7
    assert sum(report.iterations) <= 40
    assert vi_check(problem, u, 100, 0) >= -1e-6


# Over all 72 (level, family, preset, problem) cases the largest nodal
# difference is 9.7e-10 (L5, sinusoidal, constant -0.5, constrained): both
# solves stop at a KKT measure of at most tol = 1e-10, by different paths.
# The constant data -0.5 puts the whole Thin segment in contact
@settings(max_examples=10, deadline=None)
@given(st.integers(3, 5), st.sampled_from(FAMILIES),
       st.sampled_from(("linear_xn", "signorini32", "constant")), st.booleans())
def test_nested_solve_agrees_with_the_plain_ladder(level, field, preset, reference):
    # a mesh made outside build keeps no hierarchy, so it runs every eps
    # stage on itself
    mesh = build(level)
    flat = TriMesh(mesh.vertices, mesh.triangles, mesh.vertex_tags)
    assert flat.coarser is None and flat.hierarchy == (flat,)
    results = []
    for m in (mesh, flat):
        problem = ObstacleProblem(EnergySetup(m, field), _data(m, preset, offset=-0.5))
        if reference:
            problem = reference_problem(problem, problem.g)
        results.append(solve(problem, 1e-10))
    (u, report), (u_flat, report_flat) = results
    assert len(report.level_iterations) == level - solver.MG_COARSEST + 1
    assert len(report_flat.level_iterations) == 1
    assert np.array_equal(report.active_set, report_flat.active_set)
    assert report.energy == pytest.approx(report_flat.energy, rel=1e-12)
    assert np.abs(u.values - u_flat.values).max() <= 20 * 1e-10


def test_solves_walk_the_mesh_hierarchy_and_build_no_mesh(monkeypatch, sin_field):
    # the coarse levels are the meshes build linked, so their CSR patterns
    # are built once and serve the constrained and the reference solve
    mesh = build(5)
    problem = ObstacleProblem(EnergySetup(mesh, sin_field), g_signorini32(mesh))
    made = []
    init = TriMesh.__init__

    def counted_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    def counted_solve(*args, **kwargs):
        before = len(made)
        result = solve(*args, **kwargs)
        assert len(made) == before, "a solve constructed a mesh"
        return result

    monkeypatch.setattr(TriMesh, "__init__", counted_init)
    monkeypatch.setattr(comparison, "solve", counted_solve)
    u, report = counted_solve(problem, 1e-10)
    coarse = mesh.hierarchy[solver.MG_COARSEST:-1]
    assert len(report.level_iterations) == len(coarse) + 1
    assert all("p1_pattern" in vars(m) for m in coarse)
    patterns = [m.p1_pattern for m in coarse]
    comparison.build_reference(u, problem)
    assert all(m.p1_pattern is p for m, p in zip(coarse, patterns))


@pytest.mark.parametrize("reference", [False, True])
def test_fine_level_newton_count_does_not_grow_with_the_level(mesh4, mesh6,
                                                              sin_field, reference):
    fine = []
    for mesh in (mesh4, mesh6):
        problem = ObstacleProblem(EnergySetup(mesh, sin_field), g_signorini32(mesh))
        if reference:
            problem = reference_problem(problem, problem.g)
        _, report = solve(problem, 1e-10)
        fine.append(report.level_iterations[-1])
    assert fine[1] <= fine[0]


def test_no_energy_is_evaluated_twice(monkeypatch, mesh4, sin_field):
    # the line search's energy of the accepted step serves the next iterate
    seen = []

    def counted(setup, v):
        seen.append((setup.epsilon, np.asarray(v, dtype=float).tobytes()))
        return energy(setup, v)

    monkeypatch.setattr(solver, "energy", counted)
    problem = ObstacleProblem(EnergySetup(mesh4, sin_field), g_signorini32(mesh4))
    u, report = solve(problem, 1e-10)
    assert max(report.iterations) >= 2      # a stage that takes a second step
    assert len(seen) == len(set(seen))
    assert report.energy == energy(problem.setup, u)


def _exact_and_inexact(problem):
    """(u, report) of the default solve and of one with every Newton system
    solved to CG_RTOL."""
    inexact = solve(problem, 1e-10)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "ETA_MAX", solver.CG_RTOL)
        exact = solve(problem, 1e-10)
    return inexact, exact


# Over all 64 (level, family, scale) cases the largest nodal difference is
# 3.8e-11 (L4, p = 2, scale 0.01): both solves meet the same absolute KKT
# tol, and a residual of 1e-10 leaves a nodal error up to 1e-10 / lambda_min
@settings(max_examples=24, deadline=None)
@given(st.integers(2, 5), st.sampled_from(FAMILIES),
       st.sampled_from((0.01, 0.25, 1.0, 4.0)))
def test_inexact_newton_agrees_with_exact_newton(level, field, scale):
    mesh = build(level)
    problem = ObstacleProblem(EnergySetup(mesh, field), scale * g_signorini32(mesh))
    (u, report), (u_exact, report_exact) = _exact_and_inexact(problem)
    assert np.array_equal(report.active_set, report_exact.active_set)
    assert np.abs(u.values - u_exact.values).max() <= 1e-10
    assert report.energy == pytest.approx(report_exact.energy, rel=1e-12)


def test_inexact_newton_saves_cg_steps(mesh5, sin_field):
    # measured: 39 CG steps (Newton [4, 1, 1, 0, 0, 0, 0]) against 98 for
    # exact systems (same Newton counts), a ratio of 0.40
    problem = ObstacleProblem(EnergySetup(mesh5, sin_field), g_signorini32(mesh5))
    (_, report), (_, report_exact) = _exact_and_inexact(problem)
    assert len(report.cg_steps) == len(report.iterations)
    assert sum(report.cg_steps) < 0.6 * sum(report_exact.cg_steps)


# Invariants of the discrete problem, each bound provisional until the
# solver's round-off floor is measured. A constant exponent makes the energy
# p-homogeneous and the obstacle is a cone, so data s g has the minimizer
# s u(g), met at the KKT tolerance scaled by s^(p-1); measured over these 18
# cases: at most 4.5e-13 (L4, p = 4, s = 10)
@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.sampled_from((2.0, 3.0, 4.0)), st.sampled_from((0.1, 10.0)))
def test_scaled_data_scales_the_solution(level, p, s):
    mesh = build(level)
    field = ExponentField("constant", [p])
    g = g_signorini32(mesh)
    u, _ = solve(ObstacleProblem(EnergySetup(mesh, field), g), 1e-10)
    u_s, _ = solve(ObstacleProblem(EnergySetup(mesh, field), s * g), 1e-10 * s ** (p - 1.0))
    assert np.abs(u_s.values / s - u.values).max() <= 1e-10


def _mirror(mesh):
    """The vertex at (-x1, x2) of each vertex: build's meshes are symmetric
    about the x2 axis to the bit."""
    index = {(x1, x2): i for i, (x1, x2) in enumerate(mesh.vertices.tolist())}
    return np.array([index[(-x1, x2)] for x1, x2 in mesh.vertices.tolist()])


# even fields and even data give an even solution, up to the round-off of
# the mirrored arithmetic; measured over these 12 cases: at most 2.2e-16,
# with 7, 13 and 25 active vertices at L2, L3 and L4
@settings(max_examples=8, deadline=None)
@given(st.integers(2, 4), st.sampled_from((
    ExponentField("constant", [2.0]), ExponentField("constant", [3.0]),
    ExponentField("radial", [2.2, 0.4]), ExponentField("affine", [2.0, 0.0, 0.3]))))
def test_even_problems_have_even_solutions(level, field):
    mesh = build(level)
    mirror = _mirror(mesh)
    g = mesh.vertices[:, 0] ** 2 - 0.9
    u, report = solve(ObstacleProblem(EnergySetup(mesh, field), g), 1e-10)
    assert np.abs(u.values - u.values[mirror]).max() <= 1e-12
    assert np.array_equal(np.sort(mirror[report.active_set]), report.active_set)


# lower data give a lower solution (comparison principle); measured over
# these 9 cases: min(u2 - u1) = 0.0, met at the vertices in contact in both
@settings(max_examples=6, deadline=None)
@given(st.integers(2, 4), st.sampled_from((0.01, 0.1, 0.5)))
def test_lower_data_give_a_lower_solution(level, c):
    mesh = build(level)
    field = ExponentField("sinusoidal", [2.0, 0.5, np.pi])
    g2 = g_signorini32(mesh)
    g1 = g2 - c * (1.0 + np.cos(3.0 * mesh.vertices[:, 0]))
    u1, _ = solve(ObstacleProblem(EnergySetup(mesh, field), g1), 1e-10)
    u2, _ = solve(ObstacleProblem(EnergySetup(mesh, field), g2), 1e-10)
    assert (u2.values - u1.values).min() >= -1e-10
