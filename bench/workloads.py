"""The benchmark's workloads: generated configs and the output checks.

Each workload is a `pxthin run` config built from the workload seed, which
becomes `[solver] seed`.  The reference values below were measured at the
commit that introduced the benchmark; the tolerances are ones a correct
solver that converges to the same `tol = 1e-10` by another path can meet
(see NOTES.md for the reasoning behind each).
"""

import math

SIN_COEFFS = "2, 0.5, %.17g" % math.pi

WORKLOADS = {
    "solve_sin_l7": {
        "why": "one constrained L7 solve: solver Newton loop and sparse direct "
               "solve dominate, vxspace and analysis idle",
        "solves": True,
        "config": """\
[exponent]
family = sinusoidal
coefficients = {sin}
[mesh]
level = 7
[boundary]
preset = signorini32
[solver]
seed = {seed}
vi_trials = 100
[experiments]
run = solve
[output]
dir = out
""",
        "reference": {
            "energy": 1.2037358985567603,
            "active_count": 125,
        },
    },
    "pipeline_affine_l7": {
        "why": "five solves of three sizes plus reference, decay, holder fit "
               "and artifact I/O: per-solve set-up and writes show here",
        "solves": True,
        "scan_after": True,
        "config": """\
[exponent]
family = affine
coefficients = 2, 0.3, 0
[mesh]
level = 7
[boundary]
preset = signorini32
scale = 0.25
[solver]
seed = {seed}
vi_trials = 100
[experiments]
run = solve, reference, freeze, holder
[output]
dir = out
""",
        "reference": {
            "energy": 0.076227851907189281,
            "active_count": 135,
            "alpha_origin": 0.79363133131630403,
            "freeze_ratio": [1.2744180589867521e-07, 1.7748322242123717e-08,
                             1.4599009697659138e-09],
        },
    },
    "verify_l5": {
        "why": "verify only: vxspace Luxemburg norms and analysis lemma checks "
               "do all the work, solver and energy none",
        "solves": False,
        "config": """\
[exponent]
family = sinusoidal
coefficients = {sin}
[mesh]
level = 5
[boundary]
preset = signorini32
[solver]
seed = {seed}
[experiments]
run = verify
[verify]
iteration_trials = 3000
monotonicity_trials = 1000000
luxemburg_trials = 20
[output]
dir = out
""",
        "reference": {
            # these depend on the seed's random fields, so the reference is
            # the bound a correct norm must meet, not a measured value
            "luxemburg_unit_dev": 1e-10,
            "luxemburg_homog_rel": 1e-9,
            "luxemburg_const_rel": 1e-9,
        },
    },
}

# key -> (kind, tolerance): "rel" and "abs" bound |value - reference|,
# "max" means value <= reference; NOTES.md gives the reason for each
TOLERANCES = {
    "energy": ("rel", 1e-8),
    "active_count": ("abs", 2),
    "alpha_origin": ("abs", 1e-4),
    "freeze_ratio": ("rel", 1e-2),
    "luxemburg_unit_dev": ("max", None),
    "luxemburg_homog_rel": ("max", None),
    "luxemburg_const_rel": ("max", None),
}


def config_text(name, seed):
    """The config file text of one workload at one seed; it writes to out/."""
    return WORKLOADS[name]["config"].format(sin=SIN_COEFFS, seed=int(seed))


def read_summary(path):
    with open(path, "r", encoding="utf-8") as handle:
        pairs = (line.split("=", 1) for line in handle if "=" in line)
        return {k.strip(): v.strip() for k, v in pairs}


def _within(kind, tol, got, want):
    if kind == "max":
        return got <= want
    return abs(got - want) <= tol * (abs(want) if kind == "rel" else 1.0)


def check_summary(name, summary):
    """Problems with one run's summary against the workload's reference.

    Returns a list of messages; an empty list means the run is correct.
    """
    problems = []
    if summary.get("contracts_failed") != "none":
        problems.append("contracts_failed = %s" % summary.get("contracts_failed"))
    for key, want in WORKLOADS[name]["reference"].items():
        if key not in summary:
            problems.append("summary lacks %s" % key)
            continue
        got = [float(t) for t in summary[key].split(";")]
        want = want if isinstance(want, list) else [want]
        kind, tol = TOLERANCES[key]
        if len(got) != len(want) or not all(
                _within(kind, tol, g, w) for g, w in zip(got, want)):
            rule = ("<= %s" % want if kind == "max"
                    else "within %s %g of %s" % (kind, tol, want))
            problems.append("%s = %s, expected %s" % (key, summary[key], rule))
    return problems
