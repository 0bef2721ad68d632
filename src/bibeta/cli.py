"""Command-line surface: sampling, densities, posteriors, tables, closure checks.

Every subcommand is reproducible per (flags, seed): identical invocations
write identical bytes.  Validation failures exit nonzero with a single-line
JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, NoReturn, Optional, Sequence

from . import __version__, families
from .families import FamilySpec, an8_embedding, complement
from .grids import DEFAULT_GRID_SAMPLES, density_grid
from .inference import (
    DiagnosticData,
    PriorSpec,
    joint_posterior,
    marginal_csv,
    pi_posterior,
    posterior_summary,
    predictive_propensity,
)
from .sampling import RngState, sample_pairs
from .special import BetaParams
from .survivability import (
    Interdependent,
    SurvivabilityScenario,
    reproduce_table,
    survivability,
    table_csv,
)
from .synth import SynthConfig, generate, true_params
from .serialize import csv_text, json_text, write_text


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as CliError, so they follow the JSON error contract."""

    def error(self, message: str) -> NoReturn:
        raise CliError(message)


def _parse_floats(text: str, what: str) -> List[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise CliError(f"could not parse {what} {text!r}: {exc}") from None


def _parse_beta(text: str, what: str) -> BetaParams:
    values = _parse_floats(text, what)
    if len(values) != 2:
        raise CliError(f"{what} needs exactly two values a,b, got {text!r}")
    return BetaParams(values[0], values[1])


def _family_from_flags(variant: Optional[str], alphas: Optional[str], prefix: str = "--") -> FamilySpec:
    if variant is None:
        raise CliError(f"missing {prefix}family")
    if alphas is None:
        raise CliError(f"family {variant!r} needs {prefix}alphas")
    return FamilySpec(variant, tuple(_parse_floats(alphas, f"{prefix}alphas")))


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            write_text(out, text)
        except OSError as exc:
            raise CliError(f"could not write {out!r}: {exc.strerror or exc}") from None


def _meta(args: argparse.Namespace, keys: Sequence[str]) -> dict:
    meta = {k: getattr(args, k.replace("-", "_")) for k in keys}
    meta["version"] = __version__
    return meta


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> None:
    family = _family_from_flags(args.family, args.alphas)
    if args.n < 0:
        raise CliError(f"--n must be >= 0, got {args.n}")
    rng = RngState(args.seed, args.stream)
    x, y = sample_pairs(rng, family, args.n)
    if args.format == "csv":
        _emit(csv_text(["x", "y"], zip(x.tolist(), y.tolist())), args.out)
    else:
        meta = _meta(args, ["family", "alphas", "n", "seed", "stream"])
        _emit(json_text(meta, {"x": x.tolist(), "y": y.tolist()}), args.out)


def _cmd_density(args: argparse.Namespace) -> None:
    family = _family_from_flags(args.family, args.alphas)
    rng = RngState(args.seed, args.stream)
    grid = density_grid(family, m=args.m, n_samples=args.mc_samples, rng=rng)
    _emit(grid.to_csv() if args.format == "csv" else grid.to_json(), args.out)


def _cmd_posterior(args: argparse.Namespace) -> None:
    prior_family = _family_from_flags(args.prior_family, args.prior_alphas, "--prior-")
    prior = PriorSpec(prior_family, _parse_beta(args.pi_prior, "--pi-prior"))
    rng = RngState(args.seed, args.stream)
    truth = None
    if args.data is not None:
        from decimal import Decimal

        # float() sets the syntax and rejects inf and nan; Decimal keeps every digit
        values = _parse_floats(args.data, "--data")
        counts = [Decimal(v) for v in args.data.split(",")]
        integers = all(v.is_integer() and c == c.to_integral_value() for v, c in zip(values, counts))
        if len(values) != 4 or not integers:
            raise CliError(f"--data needs four integers n,n1,k1,k2, got {args.data!r}")
        try:
            d = DiagnosticData(*map(int, counts))
        except ValueError as exc:
            raise CliError(str(exc)) from None
    elif args.synth_n is not None:
        config = SynthConfig(
            pi=args.synth_pi,
            n=args.synth_n,
            mu0=args.synth_mu0,
            mu1=args.synth_mu1,
            t=args.synth_t,
            rng=RngState(args.seed, args.stream + 1),
        )
        d = generate(config)
        truth = true_params(config)
    else:
        raise CliError("posterior needs either --data n,n1,k1,k2 or --synth-n (with synth flags)")

    if args.out in (None, "-"):
        raise CliError("posterior writes multiple files and needs --out PREFIX")
    # fail before the prior grid is built, not when the first file is written
    directory = os.path.dirname(args.out) or "."
    if not os.path.isdir(directory):
        raise CliError(f"could not write {args.out!r}: no directory {directory!r}")
    gp = joint_posterior(d, prior, m=args.m, rng=rng, prior_samples=args.mc_samples)
    summary = posterior_summary(gp)
    pi_post = pi_posterior(d, prior.pi_prior)
    lam, psi = predictive_propensity(gp)
    out = args.out
    _emit(gp.to_csv(), f"{out}.weights.csv")
    _emit(gp.to_json(seed=rng.identity), f"{out}.grid.json")
    _emit(marginal_csv(gp, "eta"), f"{out}.marginal_eta.csv")
    _emit(marginal_csv(gp, "theta"), f"{out}.marginal_theta.csv")
    meta = _meta(args, ["m", "seed", "stream", "prior_family"])
    data = {
        "data": {"n": d.n, "n1": d.n1, "k1": d.k1, "k2": d.k2},
        "mean_eta": summary.mean_eta,
        "mean_theta": summary.mean_theta,
        "mode_cell": list(summary.mode_cell),
        "correlation": summary.correlation,
        "pi_posterior": [pi_post.a, pi_post.b],
        "predictive_positive": lam,
        "predictive_negative": psi,
    }
    if truth is not None:
        data["true_eta"] = truth[0]
        data["true_theta"] = truth[1]
    _emit(json_text(meta, data), f"{out}.summary.json")


def _cmd_tables(args: argparse.Namespace) -> None:
    _emit(table_csv(reproduce_table(args.table)), args.out)


# rounding allowance of a mean or correlation assembled from a few float operations
_ROUNDING = 8 * 2.0**-52


def _closure_oracle(family: FamilySpec, flipped: FamilySpec, which: str) -> dict:
    """Per statistic: (complemented original, returned spec, tolerance), all exact.

    Means come from marginal_params and correlations from product_moment,
    through survivability's (E XY - E X E Y)/sqrt(V_x V_y).  Complementing a
    coordinate maps its mean m to 1 - m and flips the correlation's sign.
    """
    flip_x, flip_y = which in ("x", "both"), which in ("y", "both")
    f, g = (survivability(SurvivabilityScenario(Interdependent(s))) for s in (family, flipped))
    (fx, fy), (gx, gy) = f.component_survivability, g.component_survivability
    return {
        "mean_x": (1.0 - fx if flip_x else fx, gx, _ROUNDING),
        "mean_y": (1.0 - fy if flip_y else fy, gy, _ROUNDING),
        "correlation": (
            -f.correlation if flip_x != flip_y else f.correlation,
            g.correlation,
            f.corr_std_error + g.corr_std_error + _ROUNDING,
        ),
    }


def _cmd_closure_check(args: argparse.Namespace) -> None:
    family = _family_from_flags(args.family, args.alphas)
    flipped = complement(family, args.which)
    back = complement(flipped, args.which)
    checks = _closure_oracle(family, flipped, args.which)
    passed = all(abs(a - b) <= tol for a, b, tol in checks.values())
    meta = _meta(args, ["family", "alphas", "which"])
    data = {
        "complement": flipped.label(),
        "double_complement": back.label(),
        "involution": an8_embedding(back) == an8_embedding(family),
        "oracle": {
            k: {"complemented_original": a, "returned_spec": b, "tolerance": tol}
            for k, (a, b, tol) in checks.items()
        },
        "oracle_passed": passed,
    }
    _emit(json_text(meta, data), args.out)
    if not passed:
        raise CliError("equality-in-law oracle failed for the complemented spec")


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _add_family_flags(p: argparse.ArgumentParser, prefix: str = "") -> None:
    dash = f"--{prefix}" if prefix else "--"
    p.add_argument(f"{dash}family", choices=sorted(families.VARIANTS), default=None)
    p.add_argument(
        f"{dash}alphas", default=None, help="comma-separated alpha vector (indep: a_x,b_x,a_y,b_y)"
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    p.add_argument("--config", default=None, help="JSON file of flag defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bibeta",
        description="Bivariate beta families, screening-test inference, survivability tables",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw (x, y) pairs from a family")
    _add_family_flags(p)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("density", help="density grid of a family")
    _add_family_flags(p)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--mc-samples", type=int, default=DEFAULT_GRID_SAMPLES)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("posterior", help="grid posterior from counts or synthetic data")
    p.add_argument(
        "--data", default=None, help="observed counts n,n1,k1,k2 (takes precedence over --synth-n)"
    )
    p.add_argument("--synth-pi", type=float, default=0.35)
    p.add_argument("--synth-n", type=int, default=None)
    p.add_argument("--synth-mu0", type=float, default=3.0)
    p.add_argument("--synth-mu1", type=float, default=4.0)
    p.add_argument("--synth-t", type=float, default=3.25)
    _add_family_flags(p, "prior-")
    p.add_argument("--pi-prior", default="1,1", help="a,b of the beta prior on prevalence")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--mc-samples", type=int, default=DEFAULT_GRID_SAMPLES)
    _add_common(p)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("tables", help="reproduce a published survivability table")
    p.add_argument("--table", type=int, choices=[4, 5, 6], required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser(
        "closure-check",
        help="complement a family and check its moments exactly",
        description="Complement a family and compare the returned spec's marginal means and "
        "correlation with those of the complemented original, all exact (marginal_params, "
        "product_moment). Nothing is sampled: --seed and --stream are ignored.",
    )
    _add_family_flags(p)
    p.add_argument("--which", choices=["x", "y", "both"], default="y")
    _add_common(p)
    p.set_defaults(func=_cmd_closure_check)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: List[str]) -> argparse.Namespace:
    # config values fill in flags the user left unset: they go before the
    # user's flags and argparse keeps a flag's last occurrence.  argparse's
    # conversion, choice and required checks thus cover config values too.
    finder = _Parser(add_help=False)
    finder.add_argument("--config", default=None)
    path = finder.parse_known_args(argv[1:])[0].config
    overrides = {}
    if path:
        try:
            with open(path) as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"could not read --config {path!r}: {exc}") from None
        if not isinstance(overrides, dict):
            raise CliError("--config must contain a JSON object of flag values")
    filled = []
    for key, value in overrides.items():
        if value is not None:
            filled.extend([f"--{key.replace('_', '-')}", str(value)])
    args, unknown = parser.parse_known_args(argv[:1] + filled + argv[1:])
    for key in overrides:
        if not hasattr(args, key.replace("-", "_")):
            raise CliError(f"--config key {key!r} is not a flag of this subcommand")
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
        args.func(args)
    except (ValueError, MemoryError) as exc:  # validation errors and grids too large to allocate
        sys.stderr.write(json.dumps({"error": str(exc) or type(exc).__name__}) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
