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
from importlib import resources
from typing import TYPE_CHECKING

from . import zpoly
from .errors import BudgetError, LiecharError
from .repth import DEFAULT_TENSOR_BUDGET, Algebra, epsilon
from .rootsys import build_cartan, roots_to_json
from .zpoly import ZPolynomial, parse_poly, print_poly

# charlib, csop and fractions are imported where they are used: a cartan,
# roots, dim, mult or tensor request loads none of them, and a char request
# loads only charlib
if TYPE_CHECKING:
    from fractions import Fraction

    from . import charlib, csop

def _parse_weight(text: str, rank: int, parser: argparse.ArgumentParser):
    try:
        labels = tuple(int(x) for x in text.split(","))
    except ValueError:
        parser.error(f"cannot parse weight {text!r}: expected comma-separated integers")
    if len(labels) != rank:
        parser.error(f"weight {text!r} has {len(labels)} labels, algebra rank is {rank}")
    return labels


def _parse_rational(text: str, parser: argparse.ArgumentParser) -> Fraction:
    from fractions import Fraction

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
        return Algebra(args.algebra)
    return Algebra(args.algebra, tensor_budget=budget)


def _cache(args, algebra: Algebra) -> charlib.CharacterCache:
    from . import charlib

    cache_dir = getattr(args, "cache_dir", None) or charlib.default_cache_dir()
    return charlib.CharacterCache(algebra, cache_dir=cache_dir)


def _operator_records(args, algebra: Algebra):
    """The operator tables of ``--fixtures``; else none under
    ``--no-fixtures`` or off E8; else the packaged E8 tables."""
    if args.fixtures is not None:
        return zpoly.read_fixture_file(args.fixtures, algebra.rank)
    if args.no_fixtures or algebra.cartan.label != "E8":
        return None
    packaged = resources.files("liechar").joinpath(
        "data", "e8_delta1_operator.txt")
    return zpoly.read_fixture_text(packaged.read_text("utf-8"), algebra.rank)


def _operator_for(algebra: Algebra, poly: ZPolynomial,
                  cache: charlib.CharacterCache) -> csop.Delta1Operator:
    """The operator with the pairs (j, k), j <= k, that applying it to
    ``poly`` reads: those :func:`csop._read_pairs` gives for one of its
    monomials."""
    from . import csop

    pairs = {pair for exps in poly.terms for pair, _ in csop._read_pairs(exps)}
    return csop.build_delta1(algebra, cache, pairs=pairs)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_cartan(args, parser):
    cm = build_cartan(args.algebra)
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
    value = str(epsilon(algebra, w, kappa))
    _emit(args, [value],
          {"labels": list(w), "kappa": str(kappa), "epsilon": value})
    return 0


def _cmd_bcoeffs(args, parser):
    from . import csop

    algebra = _algebra(args)
    values = csop.b_coeffs(algebra)
    _emit(args,
          [f"b[{j + 1}] = {v}*z{j + 1}" for j, v in enumerate(values)],
          {"b": [str(v) for v in values]})
    return 0


def _cmd_acoeff(args, parser):
    from . import csop

    algebra = _algebra(args)
    j, k = args.j, args.k
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
    operator = _operator_for(algebra, poly, cache)
    result = operator.apply(poly)
    _emit(args, [print_poly(result)], {"poly": print_poly(result)})
    return 0


def _cmd_verify(args, parser):
    from . import charlib, csop

    algebra = _algebra(args)
    w = _parse_weight(args.weight, algebra.rank, parser)
    # the operator's preconditions, simply laced and integral eps, are
    # checked before the character is computed
    csop.b_coeffs(algebra)
    cache = _cache(args, algebra)
    chi = cache.character_poly(w)
    operator = _operator_for(algebra, chi, cache)
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
    from . import charlib, csop

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
    # at the identity element each z_i is dim V_{λ_i}, and every a[j,k]
    # vanishes there; the first pair that does not is reported
    broken = False
    for (j, k), entry in sorted(operator.entries.items()):
        value = entry.evaluate(algebra._fundamental_dims)
        if value:
            print(f"a[{j},{k}] = {value} at the fundamental dimensions, "
                  "expected 0", file=sys.stderr)
            broken = True
            break
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
    return 1 if failures or broken else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, budget=False, cache=False, fixtures=False):
    sub.set_defaults(subparser=sub)
    sub.add_argument("algebra", help="algebra type, e.g. E8, A2, D4")
    if budget:
        sub.add_argument("--budget", type=int, default=None,
                         help="most distinct weights the smaller factor of "
                              "a tensor product may have, an upper bound on "
                              "the weights it sums (default "
                              f"{DEFAULT_TENSOR_BUDGET})")
    if cache:
        sub.add_argument("--cache-dir", default=None,
                         help="character cache root (default: "
                              "$LIECHAR_CACHE)")
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
    sub.add_argument("--kappa", default="1",
                     help="coupling (rational, default 1); a negative "
                          "fraction is written --kappa=-1/2")
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
    # argparse reads the value -- (of --opt=--, or a bare -- where a
    # positional goes) as the list [], and applies neither type nor choices
    for owner in (parser, args.subparser):
        for action in owner._actions:
            if getattr(args, action.dest, None) == []:
                owner.error(str(argparse.ArgumentError(
                    action, "expected one argument")))
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
