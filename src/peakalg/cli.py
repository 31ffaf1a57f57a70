"""Command-line front end: build tables, run verification suites, and
import/export group-algebra elements as JSON.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or cap error
(a malformed PEAKALG_CAP or JSON element, a coefficient with a zero
denominator, an out-of-range number, a label with a member out of range,
repeated or empty as in "{0,,2}", a signed composition with an empty part
as in "(1,,2)", or a check that reaches a rank beyond an enumeration or
BFS cap, among them; no report is written),
3 a check raised an unexpected exception (its status in the report is
"error").
"""

from __future__ import annotations

import argparse
import json
import sys

from .perms import STRUCTURE_CAPS, CapExceeded, parse_cap_env


def _write_out(text: str, out: str | None):
    """Write text, ending in a newline, to the file out or to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_caps(deep: bool) -> dict:
    sig = {f"Sig{ctype}": caps[deep] for ctype, caps in STRUCTURE_CAPS.items()}
    return {"P": 6, "whp": 6, "solB": sig["SigB"], **sig}


TABLE_CAPS = _table_caps(False)
TABLE_CAPS_DEEP = _table_caps(True)


def build_table(algebra: str, n: int, deep: bool = False):
    """The StructureTable of `table --algebra algebra --n n [--deep]`."""
    cap = (TABLE_CAPS_DEEP if deep else TABLE_CAPS)[algebra]
    if n > cap:
        raise CapExceeded(f"table {algebra} is capped at n={cap} (use --deep for more)")
    if algebra == "P":
        from .peak import peak_table

        return peak_table(n)
    if algebra == "whp":
        from .commutative import whp_table

        return whp_table(n)
    if algebra == "solB":
        from .commutative import solhat_table

        return solhat_table(n)
    from .bases import structure_constants

    ctype = {"SigA": "A", "SigB": "B", "SigD": "D"}[algebra]
    return structure_constants(ctype, n, deep=deep)


def cmd_table(args) -> int:
    table = build_table(args.algebra, args.n, args.deep)
    write = {"csv": table.to_csv, "json": table.json_text, "pretty": table.pretty}[args.format]
    _write_out(write(), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, args.n_max, deep=args.deep, jobs=args.jobs)
    if args.format == "json":
        _write_out(report.to_json(include_times=args.times), args.out)
    else:
        _write_out(report.pretty(), args.out)
    if report.errored:
        return 3
    return 0 if report.passed else 1


def _parse_alpha(text: str) -> tuple:
    from .mr import comp_from_text

    return comp_from_text(text)


def _build_element(args):
    from .algebra import AlgElem
    from .perms import GeneratorSet, PeakIndex

    kind = args.kind
    n = args.n
    if kind == "identity":
        return AlgElem.unit(args.group, n)
    if kind in ("Y", "X"):
        ctype = {"S": "A", "B": "B", "D": "D"}[args.group]
        from .bases import x_basis, y_basis

        gs = GeneratorSet.parse(ctype, n, args.label or "{}")
        return (y_basis if kind == "Y" else x_basis)(ctype, n, gs.mask)
    if kind in ("Y0", "X0"):
        from .maps import x0_basis, y0_basis

        gs = GeneratorSet.parse("B", n, args.label or "{}")
        return (y0_basis if kind == "Y0" else x0_basis)(n, gs.mask)
    if kind in ("P", "Pint"):
        from .peak import interior_peak_basis, peak_basis

        mask = PeakIndex.parse(n, args.label or "{}", interior=kind == "Pint").mask
        return (peak_basis if kind == "P" else interior_peak_basis)(n, mask)
    if kind in ("T", "S", "Stilde"):
        from .mr import mr_basis

        return mr_basis(kind, n, _parse_alpha(args.alpha or f"({n})"))
    if kind in ("y", "x", "y0", "x0", "p", "pint"):
        from .commutative import graded_builder

        if args.j is None:
            raise ValueError(f"kind {kind} needs --j")
        return graded_builder(kind, n, args.j)
    raise ValueError(f"unknown element kind {kind!r}")


def cmd_export(args) -> int:
    from .algebra import elem_to_json

    elem = _build_element(args)
    _write_out(json.dumps(elem_to_json(elem), indent=2), args.out)
    return 0


#: each --map name and the function of peakalg.maps it applies
MAPS = {
    "phi": "phi",
    "psi": "psi",
    "chi": "chi",
    "sigma": "sigma_map",
    "rho": "rho_map",
    "beta": "beta_map",
    "beta2": "beta2_map",
    "gamma": "gamma_map",
    "pi": "pi_map",
    "theta": "theta",
    "theta_pm": "theta_pm",
}


def cmd_apply(args) -> int:
    from . import maps
    from .algebra import elem_from_json, elem_to_json

    with open(args.infile) as fh:
        elem = elem_from_json(json.load(fh))
    image = getattr(maps, MAPS[args.map])(elem)
    _write_out(json.dumps(elem_to_json(image), indent=2), args.out)
    return 0


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than lo (argparse names the
    flag when it rejects a value and exits 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, not {value}")
        return value

    return parse


def build_parser(suites=()) -> argparse.ArgumentParser:
    """The parser; suites names the --suite choices besides "all"."""
    parser = argparse.ArgumentParser(
        prog="peakalg",
        description="descent and peak algebras of types A, B, D: tables, "
        "verification suites, element I/O",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="emit a multiplication table")
    t.add_argument("--algebra", choices=sorted(TABLE_CAPS), required=True)
    t.add_argument("--n", type=_int_at_least(0), required=True)
    t.add_argument("--format", choices=("csv", "json", "pretty"), default="pretty")
    t.add_argument("--deep", action="store_true")
    t.add_argument("--out")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=["all", *sorted(suites)], default="all")
    v.add_argument("--n-max", type=_int_at_least(0), default=4)
    v.add_argument("--deep", action="store_true")
    v.add_argument("--jobs", type=_int_at_least(1), default=1)
    v.add_argument("--format", choices=("json", "pretty"), default="pretty")
    v.add_argument("--times", action="store_true", help="include wall times in JSON")
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("export", help="export a named element as JSON")
    e.add_argument(
        "kind",
        choices=(
            "identity",
            "Y",
            "X",
            "Y0",
            "X0",
            "P",
            "Pint",
            "T",
            "S",
            "Stilde",
            "y",
            "x",
            "y0",
            "x0",
            "p",
            "pint",
        ),
    )
    e.add_argument("--group", choices=("S", "B", "D"), default="S")
    e.add_argument("--n", type=_int_at_least(0), required=True)
    e.add_argument("--label", help="generator subset, e.g. \"{0,2}\" or \"{1',1}\"")
    e.add_argument("--alpha", help="signed composition, e.g. \"(2,-1,1)\"")
    e.add_argument("--j", type=int, help="graded index for y/x/y0/x0/p/pint")
    e.add_argument("--out")
    e.set_defaults(func=cmd_export)

    a = sub.add_parser("apply", help="apply a named map to a JSON element")
    a.add_argument("--map", choices=sorted(MAPS), required=True)
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out")
    a.set_defaults(func=cmd_apply)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    suites = ()
    if argv[:1] == ["verify"]:  # only verify pays for the suite registry
        from .verify import SUITES as suites
    args = build_parser(suites).parse_args(argv)
    try:
        parse_cap_env()  # a malformed PEAKALG_CAP is a usage error
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
