"""One round of one benchmark workload, run in a fresh process.

    python3 bench/workload.py --workload levelset --seed 3 --trace 0 \
        --spawned-at <time.monotonic() of the parent at spawn> --workdir DIR

A round builds its inputs from the seed, runs the timed body (calls into
`sil`'s public API), checks every output against properties the method
must have or against values computed apart from `sil`, and prints one JSON
object as its last line.  bench/run.py starts the rounds and aggregates
them.
"""

import os

# BLAS and OpenMP threads are pinned before numpy is imported: with
# OpenBLAS's default of two threads on a two-core machine the second core
# burns CPU without a steady wall-time gain and turns into noise.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

_t_import = time.perf_counter()
sys.path.insert(0, SRC)
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sil  # noqa: E402
from sil import (cli, extremals, functionals, grids, harness,  # noqa: E402
                 kernels, norms, oneil, potentials, rearrange)
from sil.errors import SilError  # noqa: E402
from sil.params import Params  # noqa: E402

import checks  # noqa: E402
from spans import Tracer, install  # noqa: E402

IMPORT_S = time.perf_counter() - _t_import

P2 = Params(2, 1.0)
SCENARIO_IDS = ("ruf_sharp", "ruf_supercritical", "adachi_rate", "trace_sharp",
                "hyperbolic", "bessel", "lemma_suite")
BOUNDED = {"ruf_sharp", "bessel", "lemma_suite"}


# ---------------------------------------------------------------------------
# inputs shared by the workloads
# ---------------------------------------------------------------------------

def random_source(rng, grid, support=1.0):
    """A few random log-normal bumps inside the support ball, as in the
    scenario harness's random profiles; values are not normalized."""
    t = np.log(grid)
    vals = np.zeros_like(grid)
    for _ in range(rng.integers(2, 5)):
        center = rng.uniform(math.log(support * 1e-3), math.log(support))
        width = rng.uniform(0.2, 1.5)
        height = rng.uniform(0.2, 2.0)
        vals += height * np.exp(-((t - center) / width) ** 2)
    vals[grid > support] = 0.0
    return vals


def unit_source(rng, grid, n=2):
    """random_source rescaled to unit L^2 norm (trapezoid in log r)."""
    vals = random_source(rng, grid)
    return vals / math.sqrt(checks.lp_norm_pth_log_grid(grid, vals, n, 2.0))


class Ops:
    """Counts the operations of a round; a SilError fails one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except SilError as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


# ---------------------------------------------------------------------------
# scenarios: `sil run` in process, seven default scenarios
# ---------------------------------------------------------------------------

def scenarios_inputs(seed, workdir):
    with open(os.path.join(HERE, "scenarios.json")) as fh:
        cfg = json.load(fh)
    cfg["seed"] = seed
    for entry in cfg["scenarios"]:
        entry["seed"] = seed
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    wanted = [sc for sc in harness.default_scenarios(seed)
              if sc.id != "oneil_garsia"]
    return {"config": path, "out": os.path.join(workdir, "out"),
            "matches_defaults": harness.parse_config(path) == wanted}


def scenarios_body(inp, ops):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--config", inp["config"], "--out", inp["out"]])
    ops.attempted += len(SCENARIO_IDS)
    return {"code": code}


def scenarios_check(inp, out, ops):
    problems = []
    done = [sid for sid in SCENARIO_IDS
            if os.path.exists(os.path.join(inp["out"], f"{sid}.json"))]
    # a numeric failure (exit code 3) leaves no output: every scenario failed
    ops.failed += len(SCENARIO_IDS) - len(done)
    if out["code"] != 0 and done:
        problems.append(f"sil run exit code {out['code']}")
    for sid in done:
        path = os.path.join(inp["out"], f"{sid}.json")
        with open(path) as fh:
            res = json.load(fh)
        want = "bounded" if sid in BOUNDED else "rate_confirmed"
        if res["verdict"] != want:
            problems.append(f"{sid}: verdict {res['verdict']}, want {want}")
        if sid == "ruf_sharp":
            worst = max(abs(pt["ruf_norm"] - 1.0) for pt in res["points"])
            if not worst <= 1e-6:
                problems.append(f"ruf_sharp: paired norm off by {worst:.2e}")
        if sid == "bessel" and not abs(res["fit"]["mass"] - 1.0) <= 1e-3:
            problems.append(f"bessel: kernel mass {res['fit']['mass']}")
    rho = np.array([0.3, 0.5, 1.0, 2.0, 4.0])
    gap = checks.max_relative_gap(kernels.hyperbolic_h2_exact(3, rho),
                                  checks.hyperbolic_green_h3(rho))
    if not gap <= 1e-6:
        problems.append(f"hyperbolic_h2_exact off the closed form by {gap:.2e}")
    return problems


# ---------------------------------------------------------------------------
# levelset: O'Neil-Garsia level-set chain on seeded admissible profiles
# ---------------------------------------------------------------------------

LEVELSET_PHIS = 4       # transformed profiles phi -> state_from_phi
LEVELSET_SOURCES = 1    # radial sources -> garsia_transform
LEVELSET_DUAL = 1       # radial sources -> dual_path_values


def levelset_inputs(seed, workdir):
    rng = np.random.default_rng(seed)
    x = np.linspace(-40.0, 40.0, 2001)
    bc = 2.0  # b' = n/alpha for (n, alpha) = (2, 1)
    phis = []
    for _ in range(LEVELSET_PHIS):
        raw = np.abs(rng.normal(size=x.size))
        raw[np.abs(x) > rng.uniform(5.0, 30.0)] = 0.0
        nrm = float(np.trapezoid(raw**bc, x)) ** (1.0 / bc)
        phis.append(raw / nrm * rng.uniform(0.3, 1.0))
    grid = grids.log_grid(1e-6, 1e3, 3000)
    sources = [grids.RadialFunction(grid, unit_source(rng, grid), 2)
               for _ in range(LEVELSET_SOURCES + LEVELSET_DUAL)]
    return {"x": x, "phis": phis, "sources": sources}


def levelset_body(inp, ops):
    prof = oneil.kernel_profile(kernels.riesz_kernel(P2), truncation_radius=1.0)

    def from_phi(phi):
        state = oneil.state_from_phi(phi, inp["x"], prof, P2)
        return state.d_star, oneil.garsia_integral(state)

    def from_source(f):
        state = oneil.garsia_transform(rearrange.decreasing_rearrangement(f),
                                       prof, P2)
        return state.d_star, oneil.garsia_integral(state)

    def dual(f):
        return oneil.dual_path_values(rearrange.decreasing_rearrangement(f),
                                      prof, P2)

    states = [ops.run(from_phi, phi) for phi in inp["phis"]]
    split = LEVELSET_SOURCES
    states += [ops.run(from_source, f) for f in inp["sources"][:split]]
    duals = [ops.run(dual, f) for f in inp["sources"][split:]]
    return {"states": states, "duals": duals}


def levelset_check(inp, out, ops):
    problems = []
    for k, item in enumerate(out["states"]):
        if item is None:
            continue
        d_star, res = item
        if res["f_min"] < -d_star - 1e-9:
            problems.append(f"state {k}: min F {res['f_min']} below -d* {-d_star}")
        exact = checks.exact_exp_integral(res["y_grid"], res["f_values"])
        for key in ("integral", "layer_cake"):
            gap = abs(res[key] - exact) / exact
            if not gap <= 0.01:
                problems.append(f"state {k}: {key} off exact by {gap:.2%}")
    for k, res in enumerate(out["duals"]):
        if res is None:
            continue
        gap = abs(res["path_a"] - res["path_b"]) / res["path_b"]
        if not gap <= 0.02:
            problems.append(f"dual {k}: paths differ by {gap:.2%}")
    return problems


# ---------------------------------------------------------------------------
# profiles: single-shot library calls on seeded radial sources
# ---------------------------------------------------------------------------

PROFILE_SOURCES = 4
PROFILE_NODES = 4096
GRADIENT_EPS = 1e-3
KERNEL_T = (1e-2, 1.0)


def _bump(r):
    return np.exp(-1.0 / np.clip(1.0 - r**2, 1e-12, None)) * (r < 1.0)


def profiles_inputs(seed, workdir):
    rng = np.random.default_rng(seed)
    g = grids.log_grid(1e-6, 1e3, PROFILE_NODES)
    # capped at 8 and scaled down, as in acceptance criterion 12, so that
    # e^{a u^2} with a <= 2 stays finite and the functional checks bite
    sources = [grids.RadialFunction(
        g, np.minimum(unit_source(rng, g), 8.0) * rng.uniform(0.2, 1.0), 2)
        for _ in range(PROFILE_SOURCES)]
    ts = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 8))
    coeffs = rng.uniform(0.5, 2.0, PROFILE_SOURCES)
    ga = grids.anchored_log_grid(1.0, 1e-6, 1e3)
    gg = grids.anchored_log_grid(1.0, 1e-6, 1e2)
    grad_source = grids.indicator_values(gg, 1.0, GRADIENT_EPS) / (2.0 * math.pi * gg)
    return {
        "sources": sources, "ts": ts, "coeffs": coeffs, "t_probe": 0.1,
        "cart": grids.CartesianField.from_callable(
            lambda x, y: _bump(np.hypot(x, y)), 2, 2.0, 512),
        "bump": grids.RadialFunction(g, _bump(g), 2),
        "ball": grids.RadialFunction(ga, grids.indicator_values(ga, 1.0), 3),
        "gradient": grids.RadialFunction(gg, grad_source, 2),
        "inverse": grids.RadialFunction(g, grids.indicator_values(g, 1.0) / g, 2),
    }


def profiles_body(inp, ops):
    k2 = kernels.riesz_kernel(P2)
    prof = oneil.kernel_profile(k2, truncation_radius=1.0)
    ball = functionals.FunctionalSpec.sharp(P2, 1.0 / math.pi,
                                            functionals.Domain.ball(1.0))
    annulus = functionals.FunctionalSpec.sharp(
        P2, 1.0 / math.pi, functionals.Domain.annulus(0.1, 0.5))

    def one_source(f, coeff):
        RF = grids.RadialFunction
        csv = RF.from_csv(f.to_csv())
        js = RF.from_json(f.to_json())
        tf = potentials.radial_convolve(f, k2)
        fs = rearrange.decreasing_rearrangement(f)
        tfs = rearrange.decreasing_rearrangement(tf)
        whole = functionals.FunctionalSpec(
            gamma_coeff=coeff, power=P2.beta,
            domain=functionals.Domain.whole_space(), regularized=True,
            order=P2.regularization_order)
        try:
            sandwich = rearrange.regularization_sandwich(f, coeff, P2.p_crit)
        except AssertionError as exc:
            sandwich = str(exc)
        return {
            "csv": csv, "json": js, "fs": fs,
            "rhs": oneil.oneil_rhs(fs, prof, inp["ts"]),
            "lhs": tfs.fstarstar_at(inp["ts"]),
            "norms": {p: norms.lp_norm(f, p) for p in (1.0, 2.0, 4.0)},
            "rv": rearrange.rearrangement_value(f, inp["t_probe"]),
            "ball": functionals.mt_functional(tf, ball),
            "annulus": functionals.mt_functional(tf, annulus),
            "whole": functionals.mt_functional(f, whole),
            "sandwich": sandwich,
        }

    out = {"sources": [ops.run(one_source, f, c)
                       for f, c in zip(inp["sources"], inp["coeffs"])]}
    out["cart"] = ops.run(lambda: (
        potentials.cartesian_convolve(inp["cart"], k2),
        potentials.radial_convolve(inp["bump"], k2)))
    out["ball"] = ops.run(potentials.radial_convolve, inp["ball"],
                          kernels.riesz_kernel(Params(3, 2.0)))
    out["gradient"] = ops.run(lambda: potentials.radial_convolve(
        inp["gradient"], kernels.gradient_kernel(2, 1), source="radial_vector"))
    out["inverse"] = ops.run(lambda: [
        rearrange.rearrangement_value(inp["inverse"], t) for t in KERNEL_T])
    return out


def profiles_check(inp, out, ops):
    problems = []
    for k, (f, res) in enumerate(zip(inp["sources"], out["sources"])):
        if res is None:
            continue
        for name in ("csv", "json"):
            back = res[name]
            gap = max(checks.max_relative_gap(back.values, f.values),
                      checks.max_relative_gap(back.grid, f.grid))
            if not gap <= 1e-12 or back.n != f.n \
                    or back.tail_exponent != f.tail_exponent:
                problems.append(f"source {k}: {name} round trip off by {gap:.2e}")
        for p, norm in res["norms"].items():
            gap = abs(res["fs"].p_norm_pth_power(p) - norm**p) / norm**p
            if not gap <= 1e-6:
                problems.append(f"source {k}: int (f*)^{p:g} off by {gap:.2e}")
        slack = (res["rhs"] - res["lhs"]) / np.maximum(res["rhs"], 1e-12)
        if not np.min(slack) > -1e-3:
            problems.append(f"source {k}: majorant slack {np.min(slack):.2e}")
        # the sub-cell inversion lies within a few cells of the sorted step
        # profile: up to two crossing cells per bump at any level
        t = inp["t_probe"]
        fstar = res["fs"].fstar
        j = int(np.searchsorted(res["fs"].t_grid, t))
        lo = fstar[min(j + 8, fstar.size - 1)]
        hi = fstar[max(j - 8, 0)]
        if not lo <= res["rv"] <= hi:
            problems.append(f"source {k}: f*({t}) = {res['rv']} outside "
                            f"[{lo}, {hi}]")
        ball, annulus, whole = res["ball"], res["annulus"], res["whole"]
        if not (math.isfinite(ball.value) and annulus.value <= ball.value
                and ball.value >= math.pi * (1 - 1e-3)):
            problems.append(f"source {k}: functionals ball {ball.value}, "
                            f"annulus {annulus.value}")
        if isinstance(res["sandwich"], str):
            problems.append(f"source {k}: {res['sandwich']}")
        else:
            lower, middle, upper = res["sandwich"]
            if not lower <= middle * (1 + 1e-12) + 1e-12 <= upper * (1 + 2e-12) + 2e-12:
                problems.append(f"source {k}: sandwich {lower} {middle} {upper}")
            if not (whole.value == middle
                    or abs(whole.value - middle) <= 1e-9 * middle):
                problems.append(f"source {k}: whole-space functional "
                                f"{whole.value} vs sandwich middle {middle}")
    if out["cart"] is not None:
        tf2, tfr = out["cart"]
        rad = inp["cart"].radii()
        mask = (rad > 0.05) & (rad < 1.9)
        gap = checks.max_relative_gap(tf2.values[mask], tfr.interp(rad[mask]))
        if not gap <= 1e-2:
            problems.append(f"cartesian vs radial engines differ by {gap:.2e}")
    if out["ball"] is not None:
        r = inp["ball"].grid
        sel = r >= 1.0
        want = checks.ball_potential_n3(r[sel])
        gap = float(np.max(np.abs(out["ball"].values[sel] - want) / want))
        if not gap <= 1e-3:
            problems.append(f"n=3 ball potential off (4 pi/3)/r by {gap:.2e}")
    if out["gradient"] is not None:
        want = checks.gradient_center_value(GRADIENT_EPS)
        gap = abs(abs(out["gradient"].values[0]) - want) / want
        if not gap <= 2e-3:
            problems.append(f"gradient centre value off by {gap:.2e}")
    if out["inverse"] is not None:
        want = checks.inverse_radius_rearrangement(np.array(KERNEL_T))
        gap = float(np.max(np.abs(np.array(out["inverse"]) - want) / want))
        if not gap <= 1e-3:
            problems.append(f"f* of |x|^-1 on B1 off sqrt(pi/t) by {gap:.2e}")
    return problems


WORKLOADS = {
    "scenarios": (scenarios_inputs, scenarios_body, scenarios_check),
    "levelset": (levelset_inputs, levelset_body, levelset_check),
    "profiles": (profiles_inputs, profiles_body, profiles_check),
}


# ---------------------------------------------------------------------------
# tracing targets: span name and counters for each public function
# ---------------------------------------------------------------------------

def _size(key):
    return lambda args, kwargs, result: np.size(getattr(args[0], key))


def trace_targets():
    seen_tables = {}

    def new_table(args, kwargs, table):
        fresh = id(table) not in seen_tables
        seen_tables[id(table)] = table
        return int(fresh)

    RF, CF = grids.RadialFunction, grids.CartesianField
    text_bytes = {"grids.bytes": lambda args, kwargs, result: len(result)}
    return [
        (potentials, "angular_weight_table", "potentials.angular_weight_table",
         {"counters": {"potentials.angular_weight_table_builds": new_table},
          "peak": True}),
        (potentials, "radial_convolve", "potentials.radial_convolve",
         {"counters": {"potentials.radial_convolve_nodes": _size("grid")}}),
        (potentials, "cartesian_convolve", "potentials.cartesian_convolve",
         {"counters": {"potentials.cartesian_convolve_cells": _size("values")}}),
        (kernels, "bessel_kernel", "kernels.bessel_kernel",
         {"counters": {"kernels.bessel_kernel_nodes":
                       lambda args, kwargs, result: np.size(args[2])},
          "peak": True}),
        (kernels, "hyperbolic_h2_exact", "kernels.hyperbolic_h2_exact", {}),
        (oneil, "garsia_integral", "oneil.garsia_integral",
         {"counters": {"oneil.y_samples":
                       lambda args, kwargs, result: len(result["y_grid"])}}),
        (oneil, "F_functional", "oneil.F_functional", {}),
        (oneil, "oneil_rhs", "oneil.oneil_rhs", {}),
        (oneil, "dual_path_values", "oneil.dual_path_values", {}),
        (oneil, "garsia_transform", "oneil.garsia_transform", {}),
        (oneil, "state_from_phi", "oneil.state_from_phi", {}),
        (oneil, "kernel_profile", "oneil.kernel_profile", {}),
        (rearrange, "rearrangement_value", "rearrange.rearrangement_value", {}),
        (rearrange, "distribution_function", "rearrange.distribution_function", {}),
        (rearrange, "decreasing_rearrangement",
         "rearrange.decreasing_rearrangement", {}),
        (rearrange, "regularization_sandwich",
         "rearrange.regularization_sandwich", {}),
        (RF, "to_csv", "grids.csv", {"counters": text_bytes}),
        (RF, "from_csv", "grids.csv", {}),
        (CF, "to_csv", "grids.csv", {"counters": text_bytes}),
        (CF, "from_csv", "grids.csv", {}),
        (RF, "to_json", "grids.json", {"counters": text_bytes}),
        (RF, "from_json", "grids.json", {}),
        (CF, "to_json", "grids.json", {"counters": text_bytes}),
        (CF, "from_json", "grids.json", {}),
        (extremals, "adams_family", "extremals.adams_family",
         {"counters": {"extremals.family_nodes":
                       lambda args, kwargs, fam: fam.profile.grid.size}}),
        (extremals, "attach_potential", "extremals.attach_potential", {}),
        (extremals, "normalize_ruf", "extremals.normalize_ruf", {}),
        (extremals, "dilated_family", "extremals.dilated_family", {}),
        # hyperbolic_log_family builds on moser_log_family, so the nodes of
        # both kinds are counted once, at moser_log_family
        (extremals, "moser_log_family", "extremals.log_family",
         {"counters": {"extremals.family_nodes":
                       lambda args, kwargs, fam: fam.profile.grid.size}}),
        (extremals, "hyperbolic_log_family", "extremals.log_family", {}),
        (functionals, "mt_functional", "functionals.mt_functional", {}),
        (functionals, "shifted_functional_bounds",
         "functionals.shifted_functional_bounds", {}),
        (norms, "lp_norm", "norms.lp_norm", {}),
        (harness, "run_scenario", "harness.run_scenario",
         {"label": lambda args: f"harness.{args[0].id}_s"}),
        (cli, "main", "cli.main", {}),
    ]


def layer_metrics(tracer, targets):
    """Every per-layer number of a traced round; zero where nothing ran."""
    out = {}
    for _, _, name, opts in targets:
        out[name + "_s"] = 0.0
        out[name + "_calls"] = 0
        for counter in opts.get("counters", {}):
            out[counter] = 0
        if opts.get("peak"):
            out[name + "_peak_mb"] = 0.0
    for sid in SCENARIO_IDS:
        out[f"harness.{sid}_s"] = 0.0
    for name, value in tracer.self_times().items():
        out[name + "_s"] = value
    out.update(tracer.counts)
    out.update(tracer.inclusive)
    for name, value in tracer.peaks.items():
        out[name + "_peak_mb"] = value
    return out


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)
    if not os.path.abspath(sil.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sil imported from {sil.__file__}, not from {SRC}")
    make_inputs, body, check = WORKLOADS[args.workload]

    tracer = targets = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-{args.seed}")
        targets = trace_targets()
        install(tracer, targets)

    t_inputs = time.perf_counter()
    inp = make_inputs(args.seed, args.workdir)
    inputs_s = time.perf_counter() - t_inputs

    ops = Ops()
    cpu0 = os.times()
    setup_s = time.monotonic() - args.spawned_at
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    out = body(inp, ops)
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    cpu1 = os.times()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = check(inp, out, ops)
    result = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "setup_s": setup_s, "import_s": IMPORT_S, "inputs_s": inputs_s,
        "wall_s": wall_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted, "failed": ops.failed,
        "correct": not problems, "problems": problems, "errors": ops.errors,
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.workload == "scenarios":
        result["config_matches_defaults"] = inp["matches_defaults"]
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, targets)
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
