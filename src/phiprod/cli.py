"""Command-line front end.

Closed-form evaluation of the CDF product integrals, pmf/sampling for the
sign-vector distribution, randomized verification suites, and table/figure
data emission. Exit codes: 0 success, 1 verification failure, 2 usage or
domain error. All floating-point output uses 17 significant digits and LF
line endings so runs are byte-reproducible, except ``verify --json``, which
reports each check's wall time as ``elapsed_s``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys

import numpy as np

from . import oracles, verify
from .identities import ScalarMixParams, VectorMixParams, cdf_product_scalar, \
    cdf_product_vector
from .mvn_cdf import MvnEstimate
from .pd_matrix import PdMatrix
from .probit_bernoulli import ProbitBernoulli, SignVector

_FMT = "%.17g"
# the defaults of --accuracy (verify's is 1e-5) and --draws, at which table runs
_ACCURACY = 1e-6
_DRAWS = 1_000_000


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _parse_reals(text: str) -> np.ndarray:
    try:
        return np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"expected comma-separated reals, got {text!r}") from exc


def _read_json(path: str, kind: str):
    """The parsed JSON file ``path``; ``kind`` names it in the error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {kind} file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{kind} file {path!r} is not valid JSON: {exc}") from exc


def _load_cov(path: str) -> PdMatrix:
    return PdMatrix.from_json_dict(_read_json(path, "matrix"))


def _model(args) -> ProbitBernoulli:
    """The sign-vector model of ``--mu`` and ``--cov``."""
    return ProbitBernoulli(_parse_reals(args.mu), _load_cov(args.cov))


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _estimate_report(command: str, est: MvnEstimate) -> dict:
    return {"command": command, **dataclasses.asdict(est)}


def _scalar_oracle(params: ScalarMixParams, est: MvnEstimate, accuracy: float) -> dict:
    """The closed form ``est`` against the adaptive quadrature oracle."""
    ref, cert = oracles.cdf_product_scalar_adaptive(params)
    tolerance = accuracy + est.err_estimate + cert
    diff = abs(est.value - ref)
    return {"value": ref, "certificate": cert, "abs_diff": diff,
            "tolerance": tolerance, "pass": diff <= tolerance}


def _vector_oracle(params: VectorMixParams, est: MvnEstimate, draws: int,
                   seed: int) -> dict:
    """The closed form ``est`` against the Monte Carlo oracle."""
    mc, se = oracles.cdf_product_vector_mc(params, draws=draws, seed=seed)
    threshold = oracles.mc_threshold(se, est.err_estimate)
    diff = abs(est.value - mc)
    return {"estimate": mc, "std_error": se, "draws": draws, "abs_diff": diff,
            "threshold": threshold, "pass": diff <= threshold}


def cmd_scalar(args) -> int:
    params = ScalarMixParams(mu=args.mu, sigma2=args.sigma2,
                             m=_parse_reals(args.m), v=_parse_reals(args.v))
    est = cdf_product_scalar(params, accuracy=args.accuracy, seed=args.seed)
    report = _estimate_report("scalar", est)
    if args.oracle:
        o = report["oracle"] = _scalar_oracle(params, est, args.accuracy)
    if args.json:
        _emit_json(report)
    else:
        print(f"closed form  = {_fmt(est.value)}  "
              f"(err_estimate {_fmt(est.err_estimate)}, {est.method})")
        if args.oracle:
            print(f"quadrature   = {_fmt(o['value'])}  "
                  f"(adaptive, certificate {_fmt(o['certificate'])})")
            print(f"abs diff     = {_fmt(o['abs_diff'])}  "
                  f"[{'PASS' if o['pass'] else 'FAIL'} at {_fmt(o['tolerance'])}]")
    return 1 if args.oracle and not o["pass"] else 0


def cmd_vector(args) -> int:
    params = VectorMixParams(mu=_parse_reals(args.mu), sigma=_load_cov(args.cov),
                             m=_parse_reals(args.m), v=_parse_reals(args.v))
    est = cdf_product_vector(params, accuracy=args.accuracy, seed=args.seed)
    report = _estimate_report("vector", est)
    if args.oracle:
        o = report["oracle"] = _vector_oracle(params, est, args.draws, args.seed)
    if args.json:
        _emit_json(report)
    else:
        print(f"closed form  = {_fmt(est.value)}  "
              f"(err_estimate {_fmt(est.err_estimate)}, {est.method})")
        if args.oracle:
            print(f"monte carlo  = {_fmt(o['estimate'])} +- {_fmt(o['std_error'])}  "
                  f"({args.draws} draws)")
            print(f"abs diff     = {_fmt(o['abs_diff'])}  "
                  f"[{'PASS' if o['pass'] else 'FAIL'} at 3 combined SE = "
                  f"{_fmt(o['threshold'])}]")
    return 1 if args.oracle and not o["pass"] else 0


def cmd_pmf(args) -> int:
    d = _model(args)
    est = d.pmf(SignVector(tuple(_parse_reals(args.y))), accuracy=args.accuracy,
                seed=args.seed)
    if args.json:
        _emit_json(_estimate_report("pmf", est))
    else:
        print(f"pmf = {_fmt(est.value)}  "
              f"(err_estimate {_fmt(est.err_estimate)}, {est.method})")
    return 0


def cmd_sample(args) -> int:
    draws = _model(args).sample(args.n, seed=args.seed)
    if args.json:
        _emit_json({"command": "sample", "count": args.n, "seed": args.seed,
                    "draws": draws.tolist()})
    else:
        out = sys.stdout
        for row in draws:
            out.write(",".join(str(int(s)) for s in row))
            out.write("\n")
    return 0


def cmd_normalize(args) -> int:
    d = _model(args)
    total = d.normalization(accuracy=args.accuracy, seed=args.seed)
    budget = 2**d.dim * args.accuracy
    if args.json:
        _emit_json({"command": "normalize", "total": total,
                    "deviation": abs(total - 1.0), "budget": budget})
    else:
        print(f"total     = {_fmt(total)}")
        print(f"deviation = {_fmt(abs(total - 1.0))}  (budget {_fmt(budget)})")
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suites([args.suite], trials=args.trials, seed=args.seed,
                                accuracy=args.accuracy, perturb=args.perturb)
    all_pass = all(r.passed for r in results)
    if args.json:
        _emit_json({"command": "verify",
                    "checks": [{"suite": r.suite, "name": r.name, "pass": r.passed,
                                "detail": r.detail, "elapsed_s": r.elapsed_s}
                               for r in results],
                    "pass": all_pass})
    else:
        width = max(len(f"{r.suite}/{r.name}") for r in results)
        for r in results:
            label = f"{r.suite}/{r.name}"
            print(f"{'PASS' if r.passed else 'FAIL'}  {label:<{width}}  {r.detail}")
        print(f"{'OK' if all_pass else 'FAILED'}: "
              f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if all_pass else 1


def _table_rows(records, seed: int):
    rows = []
    for index, rec in enumerate(records):
        try:
            if not isinstance(rec, dict):
                raise ValueError("record must be a JSON object")
            kind = rec.get("id")
            if kind == "scalar":
                params = ScalarMixParams(mu=float(rec["mu"]), sigma2=float(rec["sigma2"]),
                                         m=rec["m"], v=rec["v"])
                est = cdf_product_scalar(params, accuracy=_ACCURACY, seed=seed)
                oracle = _scalar_oracle(params, est, _ACCURACY)["value"]
            elif kind == "vector":
                cov = PdMatrix.from_entries(len(rec["m"]), rec["cov"])
                params = VectorMixParams(mu=rec["mu"], sigma=cov, m=rec["m"], v=rec["v"])
                est = cdf_product_vector(params, accuracy=_ACCURACY, seed=seed)
                oracle = _vector_oracle(params, est, _DRAWS, seed)["estimate"]
            else:
                raise ValueError(f"unknown identity id {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"record {index}: {exc}") from exc
        params_json = json.dumps({k: v for k, v in rec.items() if k != "id"},
                                 sort_keys=True)
        rows.append({"id": kind, "params": params_json, "closed": est.value,
                     "oracle": oracle, "absdiff": abs(est.value - oracle)})
    return rows


def cmd_table(args) -> int:
    records = _read_json(args.spec, "spec")
    if not isinstance(records, list):
        raise ValueError("spec file must contain a JSON array of records")
    rows = _table_rows(records, args.seed)
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
        return 0
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["id", "params", "closed", "oracle", "absdiff"])
    for row in rows:
        writer.writerow([row["id"], row["params"], _fmt(row["closed"]),
                         _fmt(row["oracle"]), _fmt(row["absdiff"])])
    return 0


def cmd_figure(args) -> int:
    if not abs(args.rho) < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {args.rho!r}")
    if args.grid < 2:
        raise ValueError(f"grid must be >= 2, got {args.grid!r}")
    if not args.extent > 0.0:
        raise ValueError(f"extent must be positive, got {args.extent!r}")
    rho = args.rho
    axis = np.linspace(-args.extent, args.extent, args.grid)
    norm = 1.0 / (2.0 * math.pi * math.sqrt(1.0 - rho * rho))
    quad = 1.0 / (1.0 - rho * rho)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["z1", "z2", "density", "in_region"])
    for z1 in axis:
        for z2 in axis:
            density = norm * math.exp(-0.5 * quad * (z1 * z1 - 2 * rho * z1 * z2 + z2 * z2))
            in_region = 1 if (z1 <= 0.0 and z2 <= 0.0) else 0
            writer.writerow([_fmt(z1), _fmt(z2), _fmt(density), str(in_region)])
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a token starting with a dash and a digit,
    such as ``-1,1``, as an option's value: argparse's own negative-number
    test matches a single number only, so ``--y -1,1`` would read ``-1,1``
    as an option. No option here starts with a dash and a digit. Subparsers
    are built with the parser's own class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares one option for the subcommands sharing it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def _accuracy(default: float) -> argparse.ArgumentParser:
    """The one ``--accuracy`` declaration; verify's default differs."""
    return _option("--accuracy", type=float, default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phiprod",
        description="Gaussian CDF product integrals, orthant probabilities and the "
                    "sign-vector probit Bernoulli distribution, with verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _option("--seed", type=int, default=0)
    as_json = _option("--json", action="store_true")
    accuracy = _accuracy(_ACCURACY)
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--mu", required=True, help="comma-separated means")
    model.add_argument("--cov", required=True, help="JSON matrix file {dim, entries}")

    p = sub.add_parser("scalar", parents=[accuracy, seed, as_json],
                       help="closed form for the scalar-mixing CDF product")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--m", required=True, help="comma-separated offsets")
    p.add_argument("--v", required=True, help="comma-separated positive widths")
    p.add_argument("--oracle", action="store_true",
                   help="also run the quadrature oracle and compare")
    p.set_defaults(func=cmd_scalar)

    p = sub.add_parser("vector", parents=[model, accuracy, seed, as_json],
                       help="closed form for the vector-mixing CDF product")
    p.add_argument("--m", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--draws", type=int, default=_DRAWS, help="MC oracle draws")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_vector)

    p = sub.add_parser("pmf", parents=[model, accuracy, seed, as_json],
                       help="probability of one sign vector")
    p.add_argument("--y", required=True, help="comma-separated entries, each -1 or 1")
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("sample", parents=[model, seed, as_json],
                       help="seeded draws from the sign-vector distribution")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("normalize", parents=[model, accuracy, seed, as_json],
                       help="sum the pmf over the whole support")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("verify", parents=[_accuracy(1e-5), seed, as_json],
                       help="run randomized property suites")
    p.add_argument("--suite", default="all",
                   choices=verify.SUITE_NAMES + ("all",))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="testing aid: bias injected into the checked values")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", parents=[seed],
                       help="closed form vs oracle for a batch of records")
    p.add_argument("--spec", required=True, help="JSON array of identity records")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure", help="bivariate density grid over the sign region")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--extent", type=float, default=3.5)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
