"""Command-line front end for the pipeline.

Exit status: 0 success, 1 domain error, 2 usage error, 3 tensor budget
exceeded.  Weight arguments are comma-separated Dynkin labels in the
standard node order (for E8 the branch node is 2, attached to node 4).
Text output for polynomials uses the fixture grammar byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from importlib import resources

from . import charlib, csop, zpoly
from .errors import BudgetError, LiecharError
from .repth import DEFAULT_TENSOR_BUDGET, Algebra
from .rootsys import roots_to_json
from .zpoly import ZPolynomial, parse_poly, print_poly

_PACKAGED_OPERATOR = {"E8": "e8_delta1_operator.txt"}


def _packaged_operator_path(label):
    name = _PACKAGED_OPERATOR.get(label or "")
    if name is None:
        return None
    return resources.files("liechar").joinpath("data", name)


def _parse_weight(text: str, rank: int, parser: argparse.ArgumentParser):
    try:
        labels = tuple(int(x) for x in text.split(","))
    except ValueError:
        parser.error(f"cannot parse weight {text!r}: expected comma-separated integers")
    if len(labels) != rank:
        parser.error(f"weight {text!r} has {len(labels)} labels, algebra rank is {rank}")
    return labels


def _parse_rational(text: str, parser: argparse.ArgumentParser) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse rational {text!r}")


def _emit(args, text_lines, json_obj):
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _algebra(args) -> Algebra:
    budget = getattr(args, "budget", None)
    if budget is None:
        budget = DEFAULT_TENSOR_BUDGET
    return Algebra(args.algebra, tensor_budget=budget)


def _cache(args, algebra: Algebra) -> charlib.CharacterCache:
    cache_dir = getattr(args, "cache_dir", None) or charlib.default_cache_dir()
    return charlib.CharacterCache(algebra, cache_dir=cache_dir)


def _operator_records(args, algebra: Algebra):
    path = args.fixtures
    if path is None and not args.no_fixtures:
        packaged = _packaged_operator_path(algebra.cartan.label)
        if packaged is not None:
            return zpoly.read_fixture_text(packaged.read_text("utf-8"),
                                           algebra.rank)
        return None
    if path is None:
        return None
    return zpoly.read_fixture_file(path, algebra.rank)


def _operator_for(args, algebra: Algebra, poly: ZPolynomial,
                  cache: charlib.CharacterCache) -> csop.Delta1Operator:
    pairs = set()
    for j in range(1, algebra.rank + 1):
        dj = poly.partial_derivative(j)
        if dj.is_zero:
            continue
        for k in range(j, algebra.rank + 1):
            if not dj.partial_derivative(k).is_zero:
                pairs.add((j, k))
    return csop.build_delta1(algebra, cache, pairs=pairs)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_cartan(args, parser):
    algebra = _algebra(args)
    cm = algebra.cartan
    _emit(args,
          [" ".join(str(x) for x in row) for row in cm.entries],
          cm.to_json_dict())
    return 0


def _cmd_roots(args, parser):
    algebra = _algebra(args)
    roots = algebra.roots
    lines = [
        ",".join(str(c) for c in root.coeffs) + " | " +
        ",".join(str(l) for l in root.labels)
        for root in roots
    ]
    lines.append(f"count: {len(roots)}")
    _emit(args, lines, {"count": len(roots), "roots": roots_to_json(roots)})
    return 0


def _cmd_dim(args, parser):
    algebra = _algebra(args)
    w = _parse_weight(args.weight, algebra.rank, parser)
    value = algebra.weyl_dim(w)
    _emit(args, [str(value)], {"labels": list(w), "dim": str(value)})
    return 0


def _cmd_mult(args, parser):
    algebra = _algebra(args)
    w = _parse_weight(args.weight, algebra.rank, parser)
    table = algebra.freudenthal(w)
    _emit(args,
          [f"{','.join(str(x) for x in wt)} {m}" for wt, m in table.items()],
          table.to_json_dict())
    return 0


def _cmd_tensor(args, parser):
    algebra = _algebra(args)
    left = _parse_weight(args.left, algebra.rank, parser)
    right = _parse_weight(args.right, algebra.rank, parser)
    dec = algebra.tensor_decompose(left, right)
    _emit(args,
          [f"{','.join(str(x) for x in wt)} {m}" for wt, m in dec.items()],
          dec.to_json_dict())
    return 0


def _cmd_epsilon(args, parser):
    algebra = _algebra(args)
    w = _parse_weight(args.weight, algebra.rank, parser)
    kappa = _parse_rational(args.kappa, parser)
    # str of a Fraction is "n" or "n/d"
    value = str(csop.epsilon(algebra, w, kappa))
    _emit(args, [value],
          {"labels": list(w), "kappa": str(kappa), "epsilon": value})
    return 0


def _cmd_bcoeffs(args, parser):
    algebra = _algebra(args)
    values = csop.b_coeffs(algebra)
    _emit(args,
          [f"b[{j + 1}] = {v}*z{j + 1}" for j, v in enumerate(values)],
          {"b": [str(v) for v in values]})
    return 0


def _cmd_acoeff(args, parser):
    algebra = _algebra(args)
    j, k = args.j, args.k
    if not (1 <= j <= algebra.rank and 1 <= k <= algebra.rank):
        raise LiecharError(f"indices ({j}, {k}) out of range 1..{algebra.rank}")
    poly = csop.a_coeff(algebra, j, k, _cache(args, algebra))
    _emit(args,
          [f"a[{min(j, k)},{max(j, k)}] = {print_poly(poly)}"],
          {"j": min(j, k), "k": max(j, k), "provenance": "computed",
           "poly": print_poly(poly)})
    return 0


def _cmd_char(args, parser):
    algebra = _algebra(args)
    w = _parse_weight(args.weight, algebra.rank, parser)
    cache = _cache(args, algebra)
    poly = cache.character_poly(w)
    _emit(args, [print_poly(poly)],
          {"labels": list(w), "poly": print_poly(poly)})
    return 0


def _cmd_delta1_apply(args, parser):
    algebra = _algebra(args)
    text = args.poly if args.poly is not None else sys.stdin.read()
    poly = parse_poly(text, algebra.rank)
    cache = _cache(args, algebra)
    operator = _operator_for(args, algebra, poly, cache)
    result = operator.apply(poly)
    _emit(args, [print_poly(result)], {"poly": print_poly(result)})
    return 0


def _cmd_verify(args, parser):
    algebra = _algebra(args)
    w = _parse_weight(args.weight, algebra.rank, parser)
    cache = _cache(args, algebra)
    chi = cache.character_poly(w)
    operator = _operator_for(args, algebra, chi, cache)
    eigen = charlib.verify_eigen(algebra, w, chi, operator)
    dim = charlib.dim_identity(algebra, w, chi)
    lines = [
        f"eigen: {'PASS' if eigen.ok else 'FAIL'} (expected {eigen.expected})",
        f"dim: {'PASS' if dim.ok else 'FAIL'} ({dim.value} vs {dim.expected})",
    ]
    _emit(args, lines, {
        "labels": list(w),
        "eigen": {"ok": eigen.ok, "expected": str(eigen.expected),
                  "residual": print_poly(eigen.residual)},
        "dim": {"ok": dim.ok, "value": str(dim.value),
                "expected": str(dim.expected)},
    })
    return 0 if (eigen.ok and dim.ok) else 1


def _cmd_fixtures_check(args, parser):
    algebra = _algebra(args)
    rank = algebra.rank
    records = zpoly.read_fixture_file(args.path, rank)
    chi_records = [r for r in records if r.kind == "chi"]
    operator_records = _operator_records(args, algebra)
    cache = _cache(args, algebra)
    # with fixture tables available the operator loads directly; otherwise
    # every coefficient is computed through the character cache
    provider = None if operator_records else cache
    operator = csop.build_delta1(algebra, provider,
                                 fixture_records=operator_records)
    failures = 0
    skipped = 0
    lines = []
    results = []
    for record in chi_records:
        m = record.index
        dim = charlib.dim_identity(algebra, m, record.poly)
        eigen = charlib.verify_eigen(algebra, m, record.poly, operator)
        try:
            recomputed = cache.character_poly(m)
            recompute = "PASS" if recomputed == record.poly else "FAIL"
        except BudgetError:
            recompute = "SKIP"
            skipped += 1
        dim_s = "PASS" if dim.ok else "FAIL"
        eigen_s = "PASS" if eigen.ok else "FAIL"
        if not dim.ok or not eigen.ok or recompute == "FAIL":
            failures += 1
        labels = ",".join(str(x) for x in m)
        lines.append(f"chi[{labels}]: dim={dim_s} eigen={eigen_s} "
                     f"recompute={recompute}")
        results.append({"labels": list(m), "dim": dim_s, "eigen": eigen_s,
                        "recompute": recompute})
    summary = (f"checked {len(chi_records)} records: "
               f"{len(chi_records) - failures} pass, {failures} fail"
               + (f" ({skipped} recomputations skipped over budget)"
                  if skipped else ""))
    lines.append(summary)
    _emit(args, lines, {"records": results, "failures": failures,
                        "skipped": skipped})
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, budget=False, cache=False, fixtures=False):
    sub.add_argument("algebra", help="algebra type, e.g. E8, A2, D4")
    if budget:
        sub.add_argument("--budget", type=int, default=None,
                         help="most distinct weights a tensor product may "
                              f"visit (default {DEFAULT_TENSOR_BUDGET})")
    if cache:
        sub.add_argument("--cache-dir", default=None,
                         help="character cache root (default: "
                              f"${charlib.CACHE_ENV_VAR})")
    if fixtures:
        sub.add_argument("--fixtures", default=None,
                         help="operator fixture file (default: packaged E8 tables)")
        sub.add_argument("--no-fixtures", action="store_true",
                         help="compute the operator, not the packaged tables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liechar",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("cartan", help="print the Cartan matrix")
    _add_common(sub)
    sub.set_defaults(func=_cmd_cartan)

    sub = subs.add_parser("roots", help="list the positive roots")
    _add_common(sub)
    sub.set_defaults(func=_cmd_roots)

    sub = subs.add_parser("dim", help="dimension of an irreducible module")
    _add_common(sub)
    sub.add_argument("weight")
    sub.set_defaults(func=_cmd_dim)

    sub = subs.add_parser("mult", help="dominant weight multiplicities")
    _add_common(sub)
    sub.add_argument("weight")
    sub.set_defaults(func=_cmd_mult)

    sub = subs.add_parser("tensor", help="tensor product decomposition")
    _add_common(sub, budget=True)
    sub.add_argument("left")
    sub.add_argument("right")
    sub.set_defaults(func=_cmd_tensor)

    sub = subs.add_parser("epsilon", help="excitation energy of a level")
    _add_common(sub)
    sub.add_argument("weight")
    sub.add_argument("--kappa", default="1", help="coupling (rational, default 1)")
    sub.set_defaults(func=_cmd_epsilon)

    sub = subs.add_parser("bcoeffs", help="first-order operator coefficients")
    _add_common(sub)
    sub.set_defaults(func=_cmd_bcoeffs)

    sub = subs.add_parser("acoeff", help="second-order operator coefficient")
    _add_common(sub, budget=True, cache=True)
    sub.add_argument("j", type=int)
    sub.add_argument("k", type=int)
    sub.set_defaults(func=_cmd_acoeff)

    sub = subs.add_parser("char", help="irreducible character polynomial")
    _add_common(sub, budget=True, cache=True)
    sub.add_argument("weight")
    sub.set_defaults(func=_cmd_char)

    sub = subs.add_parser("delta1-apply", help="apply the operator to a polynomial")
    _add_common(sub, budget=True, cache=True)
    sub.add_argument("--poly", default=None,
                     help="polynomial text (default: read stdin)")
    sub.set_defaults(func=_cmd_delta1_apply)

    sub = subs.add_parser("verify", help="eigen-equation and dimension identity")
    _add_common(sub, budget=True, cache=True)
    sub.add_argument("weight")
    sub.set_defaults(func=_cmd_verify)

    sub = subs.add_parser("fixtures-check", help="batch-verify a chi fixture file")
    sub.add_argument("path")
    _add_common(sub, budget=True, cache=True, fixtures=True)
    sub.set_defaults(func=_cmd_fixtures_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LiecharError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
