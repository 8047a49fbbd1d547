"""Command-line front end.

One subcommand per math-facing operation, reports on stdout as JSON
(default) or flattened text.  Identical argv and seed produce
byte-identical output: keys are sorted, enumeration orders are fixed,
and the verify-all report strips wall-clock fields.  Output is built in
full and written once.

Exit codes: 0 for an answered query, 1 for a violated mathematical
invariant, 2 for usage errors (including non-prime moduli and malformed
class expressions), 3 for a refused oversized computation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import (
    PRINTABLE_BITS,
    SCAN_LIMIT,
    CatalogTooLargeError,
    DecompositionDefectError,
    InvariantError,
    NotPrimeError,
    ParseError,
    bounded_count,
)
from .exterior import Multivector, monomials, parse, pullback_coords
from .extraspecial import center, commutator, group_type, make_group
from .inflation import (
    certificate,
    counterexample,
    ideal_component,
    quotient_basis,
    theorem1_verify,
    vanishing_space,
)
from .isotropic import _count_bits, count_isotropic, enumerate_isotropic
from .prime_linalg import Subspace, check_prime
from .symplectic import (
    SIGMA,
    SymplecticSpace,
    decompose,
    ladder,
    premet_suprunenko,
    sl2_check,
)
from .verify import run_all


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")


def _prime(text: str) -> int:
    try:
        return check_prime(_integer(text))
    except NotPrimeError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _positive(text: str) -> int:
    if (value := _integer(text)) < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    if (value := _integer(text)) < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _check_degree(r: int, m: int):
    if not 0 <= r <= 2 * m:
        raise ValueError(f"degree {r} out of range 0..{2 * m}")


def _class_from(args, space: SymplecticSpace) -> Multivector:
    return parse(args.class_expr, space.p, space.m)


def _mv_strings(space: SymplecticSpace, r: int, sub: Subspace) -> list:
    return [
        str(Multivector.from_coords(space.p, space.m, r, row))
        for row in sub.basis.entries
    ]


def _degree_report(args, command: str, basis_of):
    """A basis report in one degree; ``basis_of(space, r)`` lists it, or
    refuses it past VANISHING_LIMIT coordinates before building any."""
    m, r = args.rank, args.degree
    _check_degree(r, m)
    space = SymplecticSpace(args.prime, m)
    basis = basis_of(space, r)
    return {"command": command, "p": space.p, "m": space.m, "degree": args.degree,
            "dim": len(basis), "basis": basis}, 0


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, exit code)


def _cmd_sl2_check(args):
    rep = sl2_check(SymplecticSpace(args.prime, args.rank))
    payload = {"command": "sl2-check", **rep.to_json()}
    return payload, 0 if rep.ok else 1


def _cmd_decompose(args):
    space = SymplecticSpace(args.prime, args.rank)
    alpha = _class_from(args, space)
    e, beta = decompose(space, alpha)
    payload = {
        "command": "decompose",
        "p": space.p,
        "m": space.m,
        "input": str(alpha),
        "degree": None if alpha.is_zero() else alpha.degree(),
        "e": str(e),
        "beta": str(beta),
        "sigma": SIGMA,
    }
    return payload, 0


def _cmd_ideal_basis(args):
    return _degree_report(args, "ideal-basis", lambda space, r: _mv_strings(
        space, r, ideal_component(space, r)))


def _cmd_quotient_basis(args):
    return _degree_report(args, "quotient-basis", lambda space, r: list(
        map(space.order.mono_name, quotient_basis(space, r))))


def _cmd_vanishing_space(args):
    return _degree_report(args, "vanishing-space", lambda space, r: _mv_strings(
        space, r, vanishing_space(space, r)))


def _cmd_theorem1(args):
    space = SymplecticSpace(args.prime, args.rank)
    sandwiches = theorem1_verify(space)
    payload = {
        "command": "theorem1",
        "p": space.p,
        "m": space.m,
        "collapse_expected": space.p > space.m,
        "max_gap": max(s.gap for s in sandwiches),
        "degrees": [s.to_json() for s in sandwiches],
    }
    return payload, 0


def _cmd_counterexample(args):
    space = SymplecticSpace(args.prime, args.rank)
    cx = counterexample(space)
    payload = {
        "command": "counterexample",
        "p": space.p,
        "m": space.m,
        "found": cx is not None,
        "degree": None if cx is None else cx.degree(),
        "class": None if cx is None else str(cx),
    }
    return payload, 0


def _cmd_certificate(args):
    space = SymplecticSpace(args.prime, args.rank)
    target = _class_from(args, space)
    rep = certificate(space, target)
    payload = {"command": "certificate", **rep.to_json()}
    return payload, 0


def _cmd_isotropic(args):
    space = SymplecticSpace(args.prime, args.rank)
    if args.dim > space.m:
        raise ValueError(
            f"isotropic dimension {args.dim} exceeds m = {space.m}")
    p, m, r = space.p, space.m, args.dim
    base = {"command": "isotropic", "p": p, "m": m, "dim": r, "enumerated": not args.count_only}
    if args.count_only:
        # an exact count is answered only while it prints, sized before it is built
        return {**base, "count": bounded_count(lambda: count_isotropic(p, m, r), 1 << PRINTABLE_BITS,
                                                "subspaces", _count_bits(p, m, r))}, 0
    catalog = enumerate_isotropic(space, r)
    lines = [{"basis": [list(row) for row in sub.basis.entries]}
             for sub in catalog]
    return lines + [{**base, "count": catalog.count}], 0


def _cmd_group(args):
    group = make_group(args.prime, args.rank)
    space = SymplecticSpace(args.prime, args.rank)
    base = {"command": "group", "p": group.p, "m": group.m, "op": args.op}
    if args.op == "order":
        return {**base, "order": bounded_count(group.order, 1 << PRINTABLE_BITS,
                                               "group elements", group.order_bits())}, 0
    if args.op == "center":
        elems = center(group)
        return {
            **base,
            "size": len(elems),
            "elements": [str(el) for el in elems],
        }, 0
    if args.op == "commutator-form":
        bounded_count(lambda: group.n ** 2, SCAN_LIMIT, "element pairs")
        gens = group.generators()
        matrix = [
            [commutator(a, b).z for b in gens]
            for a in gens
        ]
        expected = [
            [space.pairing(a.v, b.v) for b in gens]
            for a in gens
        ]
        if matrix != expected:
            raise InvariantError(
                "commutators disagree with the symplectic pairing")
        return {**base, "matrix": matrix, "matches_pairing": True}, 0
    # args.op == "type"
    return {**base, **group_type(group)}, 0


def _cmd_premet_suprunenko(args):
    rep = premet_suprunenko(args.prime, args.rank, args.degree)
    return {"command": "premet-suprunenko", **rep.to_json()}, 0


def _cmd_ladder(args):
    space = SymplecticSpace(args.prime, args.rank)
    seed = _class_from(args, space)
    seq = ladder(space, seed)
    payload = {
        "command": "ladder",
        "p": space.p,
        "m": space.m,
        "start": str(seq.start),
        "weight": seq.weight,
        "length": len(seq),
        "entries": [str(entry) for entry in seq.entries],
    }
    return payload, 0


def _cmd_restrict(args):
    space = SymplecticSpace(args.prime, args.rank)
    target = _class_from(args, space)
    if target.is_zero():
        raise ValueError("class is zero")
    degree = target.degree()
    with open(args.subspace, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    if (not isinstance(rows, list)
            or not all(isinstance(r, list) for r in rows)):
        raise ValueError("subspace file must hold a JSON array of rows")
    # bool is a subclass of int, so JSON true would pass isinstance
    if not all(type(v) is int for r in rows for v in r):
        raise ValueError("subspace entries must be integers")
    sub = Subspace.from_rows(space.p, space.n, rows)
    rest = pullback_coords(sub.basis.transpose(), degree, target.terms)
    terms = [{"monomial": "^".join(f"e{i + 1}" for i in mono) or "1", "coeff": coeff}
             for mono, coeff in zip(monomials(sub.dim, degree), rest) if coeff]
    payload = {
        "command": "restrict",
        "p": space.p,
        "m": space.m,
        "degree": degree,
        "input": str(target),
        "sub_dim": sub.dim,
        "zero": not terms,
        "terms": terms,
    }
    return payload, 0


def _strip_timing(report: dict) -> dict:
    """Remove wall-clock fields so identical argv gives identical bytes."""
    out = {k: v for k, v in report.items()
           if k not in ("total_seconds", "in_budget")}
    out["criteria"] = [
        {k: v for k, v in crit.items()
         if k not in ("seconds", "in_budget")}
        for crit in report["criteria"]
    ]
    return out


def _cmd_verify_all(args):
    report = run_all(grid=args.grid, seed=args.seed)
    payload = {"command": "verify-all", **_strip_timing(report)}
    return payload, 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# parser assembly and output


def _add_common(sp, prime=True, rank=True, degree=False, class_expr=False):
    if prime:
        sp.add_argument("-p", "--prime", type=_prime, required=True,
                        help="prime modulus")
    if rank:
        sp.add_argument("-m", "--rank", type=_positive, required=True,
                        help="number of hyperbolic pairs (ambient dim 2m)")
    if degree:
        sp.add_argument("-r", "--degree", type=_nonnegative, required=True,
                        help="wedge degree")
    if class_expr:
        sp.add_argument("--class", dest="class_expr", required=True,
                        metavar="EXPR",
                        help="multivector, e.g. 'x1^y1 + 2*x2^y2'")
    sp.add_argument("--format", choices=("json", "text"), default="json",
                    help="output format (default json)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for randomized checks")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every call of ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="infker",
        description="Exact computations around the inflation kernel of "
                    "extraspecial p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, help, handler, the common options taken, further arguments
    for name, text, handler, common, extra in (
        ("sl2-check", "verify the operator triple relations", _cmd_sl2_check, {}, ()),
        ("decompose", "split a class into primitive plus lowered", _cmd_decompose,
         {"class_expr": True}, ()),
        ("ideal-basis", "basis of the ideal component in one degree", _cmd_ideal_basis,
         {"degree": True}, ()),
        ("quotient-basis", "standard monomials modulo the ideal", _cmd_quotient_basis,
         {"degree": True}, ()),
        ("vanishing-space", "classes pulling back to zero on all Lagrangians",
         _cmd_vanishing_space, {"degree": True}, ()),
        ("theorem1", "ideal vs vanishing space in every degree", _cmd_theorem1, {}, ()),
        ("counterexample", "first class in the gap, if any", _cmd_counterexample, {}, ()),
        ("certificate", "pointwise membership test for one class", _cmd_certificate,
         {"class_expr": True}, ()),
        ("isotropic", "catalog of totally isotropic subspaces", _cmd_isotropic, {}, (
            ("--dim", dict(type=_nonnegative, required=True,
                           help="dimension of the listed subspaces")),
            ("--count-only", dict(action="store_true",
                                  help="closed-form count, no enumeration")))),
        ("group", "extraspecial group computations", _cmd_group, {}, (
            ("--op", dict(required=True,
                          choices=("center", "order", "commutator-form", "type"))),)),
        ("premet-suprunenko", "irreducibility predicate for a primitive piece",
         _cmd_premet_suprunenko, {"degree": True}, ()),
        ("ladder", "divided-power string through a primitive seed", _cmd_ladder,
         {"class_expr": True}, ()),
        ("restrict", "pull a class back to a subspace", _cmd_restrict, {"class_expr": True}, (
            ("--subspace", dict(required=True, metavar="FILE",
                                help="JSON file with an array of basis rows")),)),
    ):
        sp = sub.add_parser(name, help=text)
        _add_common(sp, **common)
        for flag, kwargs in extra:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("verify-all",
                        help="run the acceptance battery")
    sp.add_argument("--grid", choices=("small", "full"), default="small")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(handler=_cmd_verify_all)

    return parser


def _text_lines(value, prefix=""):
    if isinstance(value, dict):
        if not value:
            yield f"{prefix}: (empty)"
            return
        for key in sorted(value):
            head = f"{prefix}.{key}" if prefix else str(key)
            yield from _text_lines(value[key], head)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            yield f"{prefix}: [{', '.join(str(v) for v in value)}]"
        else:
            for i, v in enumerate(value):
                yield from _text_lines(v, f"{prefix}[{i}]")
    else:
        yield f"{prefix}: {value}"


_ASCII = json.encoder.encode_basestring_ascii


def _json_indented(value, indent: str = "\n", seen: dict | None = None) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, joined from parts, a
    list of plain ints in one pass: with ``indent``, ``json`` is pure Python.
    A dict met again at the same indent (certificate records share their
    witnesses) is written once: ``seen`` maps (id, indent) to its text for
    one top-level call, while ``value`` keeps every object it holds alive."""
    if type(value) is int:
        return int.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return _ASCII(value)
    if seen is None:
        seen = {}
    if isinstance(value, dict):
        if not value:
            return "{}"
        key = (id(value), indent)
        if key not in seen:
            inner = indent + "  "
            seen[key] = "{" + inner + ("," + inner).join([
                _ASCII(k if isinstance(k, str) else json.dumps(k)) + ": "
                + _json_indented(v, inner, seen) for k, v in sorted(value.items())]) + indent + "}"
        return seen[key]
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        if type(value[0]) is int and all(type(v) is int for v in value):  # not bools
            return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]"
        return "[" + inner + ("," + inner).join([
            _json_indented(v, inner, seen) for v in value]) + indent + "]"
    return json.dumps(value)  # floats (NaN and infinities too), int subclasses


def _render(payload, fmt: str) -> str:
    if isinstance(payload, list):
        if fmt == "json":
            return "\n".join(
                json.dumps(rec, sort_keys=True) for rec in payload)
        blocks = ["\n".join(_text_lines(rec)) for rec in payload]
        return "\n--\n".join(blocks)
    if fmt == "json":
        return _json_indented(payload)
    return "\n".join(_text_lines(payload))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        payload, code = args.handler(args)
    except (NotPrimeError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CatalogTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DecompositionDefectError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(_render(payload, args.format) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
