"""Command-line entry point.

    sil run --config cfg.json [--out dir] [--seed N]
    sil constants --n 2 --alpha 1
    sil potential --kernel riesz --n 2 --alpha 1 --in f.csv --out Tf.csv
    sil rearrange --in f.csv [--measure lebesgue|density.csv]
    sil functional --coeff sharp --set ball:r|annulus:a,b|complement:r|halfspace|all --in u.csv [--measure ...]
    sil extremal --kind adams --eps 1e-3 --out profile.csv
    sil garsia --kernel riesz --n 2 --alpha 1 --f f.csv

Exit codes: 0 ok, 1 verdict violation, 2 config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .constants import SharpConstants, sharp_gamma
from .errors import ConfigError, DomainError, NumericError, SilError
from .functionals import Domain, FunctionalSpec, mt_functional
from .grids import RadialFunction
from .harness import default_scenarios, parse_config, run_all
from .kernels import (bessel_kernel_spec, gradient_kernel,
                      hyperbolic_kernel_spec, riesz_kernel)
from .measures import MeasureDensity
from .oneil import (garsia_samples, garsia_transform, kernel_profile,
                    level_set_measure)
from .params import Params
from .potentials import radial_convolve
from .rearrange import decreasing_rearrangement
from .extremals import (adams_family, hyperbolic_log_family, moser_log_family)


def _params_from(args) -> Params:
    try:
        return Params(n=args.n, alpha=args.alpha, q=args.q, sigma=args.sigma)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _read_profile(path: str) -> RadialFunction:
    """The radial profile in the CSV file at path; a file that cannot be
    opened or parsed is a config error."""
    try:
        with open(path) as fh:
            return RadialFunction.from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _write(text: str, path) -> None:
    """text to the file at path, or to stdout when path is None; a file
    that cannot be written is a config error."""
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_measure(text, n):
    if text in (None, "lebesgue"):
        return None
    prof = _read_profile(text)
    return MeasureDensity(kind="radial", n=n,
                          radial_density=lambda r: prof.interp(r))


def _kernel_from(name: str, params: Params):
    if name == "riesz":
        return riesz_kernel(params)
    if name == "gradient":
        if not float(params.alpha).is_integer():
            raise ConfigError(f"the gradient kernel needs an integer order, "
                              f"got alpha={params.alpha}")
        return gradient_kernel(params.n, int(params.alpha))
    if name == "bessel":
        return bessel_kernel_spec(params)
    if name == "hyperbolic":
        try:
            return hyperbolic_kernel_spec(params)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown kernel {name!r}")


def cmd_run(args) -> int:
    if args.config:
        scenarios = parse_config(args.config)
    else:
        scenarios = default_scenarios(seed=args.seed)
    if args.seed is not None:
        for sc in scenarios:
            sc.seed = args.seed
    summary = run_all(scenarios, out_dir=args.out)
    for res in summary["results"]:
        print(f"{res.scenario:20s} {res.verdict}")
    print(json.dumps({"schema": 1, "counts": summary["counts"]}, sort_keys=True))
    return 1 if summary["violations"] else 0


def cmd_constants(args) -> int:
    params = _params_from(args)
    g = _kernel_from(args.kernel, params) if args.kernel else None
    sc = SharpConstants.compute(args.n, args.alpha, g)
    print(json.dumps({"schema": 1, **sc.as_dict()}, sort_keys=True))
    return 0


def cmd_potential(args) -> int:
    params = _params_from(args)
    kernel = _kernel_from(args.kernel, params)
    tf = radial_convolve(_read_profile(args.infile), kernel)
    _write(tf.to_csv(), args.out)
    return 0


def cmd_rearrange(args) -> int:
    f = _read_profile(args.infile)
    nu = _load_measure(args.measure, f.n)
    prof = decreasing_rearrangement(f, nu)
    lines = ["t,fstar,fstarstar"]
    for t, a, b in zip(prof.t_grid, prof.fstar, prof.fstarstar):
        lines.append(f"{t:.17g},{a:.17g},{b:.17g}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_functional(args) -> int:
    u = _read_profile(args.infile)
    params = _params_from(args)
    base = sharp_gamma(params.n, int(params.alpha)) if args.gamma is None \
        else args.gamma
    scale = {"sharp": 1.0, "sharp*theta": args.theta,
             "sharp*(1+delta)": 1.0 + args.delta}[args.coeff]
    try:
        domain = Domain.parse(args.set)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    nu = _load_measure(args.measure, u.n)
    spec = FunctionalSpec.sharp(params, base * scale, domain,
                                regularized=not domain.bounded, measure=nu)
    res = mt_functional(u, spec)
    print(json.dumps({"schema": 1, "value": res.value,
                      "log_value": res.log_value,
                      "truncation_error": res.truncation_error},
                     sort_keys=True))
    return 0


def cmd_extremal(args) -> int:
    params = _params_from(args)
    try:
        if args.kind == "adams":
            fam = adams_family(riesz_kernel(params), args.eps)
        elif args.kind == "moser":
            fam = moser_log_family(args.n, args.alpha, args.eps)
        elif args.kind == "hyperbolic":
            fam = hyperbolic_log_family(args.n, args.alpha, args.eps)
        else:
            raise ConfigError(f"unknown family kind {args.kind!r}")
    except DomainError as exc:
        raise ConfigError(f"--eps {args.eps:g}: {exc}") from exc
    _write(fam.profile.to_csv(), args.out)
    return 0


def cmd_garsia(args) -> int:
    params = _params_from(args)
    if params.sigma != 1.0:
        # the chain knows O'Neil's constant C0 for sigma = 1 only
        raise ConfigError(f"garsia needs sigma = 1, got sigma={params.sigma}")
    kernel = _kernel_from(args.kernel, params)
    trunc = 1.0 if kernel.kind == "homogeneous" else None
    prof = kernel_profile(kernel, truncation_radius=trunc)
    fs = decreasing_rearrangement(_read_profile(args.f))
    state = garsia_transform(fs, prof, params)
    ys, fvals = garsia_samples(state)
    lam_probe = np.linspace(-state.d_star, 10.0, 40)
    measures = level_set_measure(lam_probe, ys, fvals)
    fitted_c5 = float(np.max(measures / (np.abs(lam_probe) + state.d_star)))
    print(json.dumps({
        "schema": 1, "J": prof.J, "d_star": state.d_star,
        "fitted_C5": fitted_c5,
        "integral": float(np.trapezoid(np.exp(-fvals), ys)),
    }, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sil", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run scenario suite")
    run.add_argument("--config", default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=cmd_run)

    # the sharp constants and the radial engine take homogeneous kernels
    # only; the Garsia chain also samples the Bessel and hyperbolic ones
    homogeneous = ["riesz", "gradient"]

    def common(p, kernel_default=None,
               kernels=homogeneous + ["bessel", "hyperbolic"]):
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--sigma", type=float, default=1.0)
        p.add_argument("--q", type=float, default=1.0)
        if kernel_default is not None:
            p.add_argument("--kernel", default=kernel_default, choices=kernels)

    cst = sub.add_parser("constants", help="print the sharp constants as JSON")
    common(cst)
    cst.add_argument("--kernel", default=None, choices=homogeneous)
    cst.set_defaults(func=cmd_constants)

    pot = sub.add_parser("potential", help="convolve a radial profile")
    common(pot, kernel_default="riesz", kernels=homogeneous)
    pot.add_argument("--in", dest="infile", required=True)
    pot.add_argument("--out", default=None)
    pot.set_defaults(func=cmd_potential)

    rer = sub.add_parser("rearrange", help="emit the rearranged profile CSV")
    rer.add_argument("--in", dest="infile", required=True)
    rer.add_argument("--measure", default="lebesgue")
    rer.add_argument("--out", default=None)
    rer.set_defaults(func=cmd_rearrange)

    fun = sub.add_parser("functional", help="evaluate an exponential functional")
    common(fun)
    fun.add_argument("--coeff", default="sharp",
                     choices=["sharp", "sharp*theta", "sharp*(1+delta)"])
    fun.add_argument("--theta", type=float, default=0.5)
    fun.add_argument("--delta", type=float, default=0.25)
    fun.add_argument("--gamma", type=float, default=None)
    fun.add_argument("--set", default="ball:1")
    fun.add_argument("--measure", default="lebesgue")
    fun.add_argument("--in", dest="infile", required=True)
    fun.set_defaults(func=cmd_functional)

    ext = sub.add_parser("extremal", help="emit a saturating-family profile")
    common(ext)
    ext.add_argument("--kind", default="adams",
                     choices=["adams", "moser", "hyperbolic"])
    ext.add_argument("--eps", type=float, required=True)
    ext.add_argument("--out", default=None)
    ext.set_defaults(func=cmd_extremal)

    gar = sub.add_parser("garsia", help="level-set machinery diagnostics")
    common(gar, kernel_default="riesz")
    gar.add_argument("--f", required=True)
    gar.set_defaults(func=cmd_garsia)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, SilError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
