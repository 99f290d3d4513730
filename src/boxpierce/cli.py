"""Command-line surface: gen | nu | tau | pierce | bounds | verify.

Instances and reports are JSON documents; `-` means stdin/stdout, so
commands compose in pipes (`boxpierce gen gadget | boxpierce pierce
--algo twoline | boxpierce verify`). Exit codes are the machine
contract: 0 success, 1 I/O or parse failure, 2 precondition violated,
3 exact-oracle cap exceeded. Human-readable diagnostics go to stderr
and may change between versions.

Each handler imports the modules that only it uses, so a process loads
just what its subcommand runs: `verify` never loads the generators, the
oracles, the bound tables or the piercing algorithms, and `gen` loads
neither the oracles nor the piercing algorithms. A command runs with the
cyclic garbage collector off, since everything it builds is acyclic and
freed by reference counting; `main` restores the collector's state.

Instances travel as their documents' `[lo, hi]` rows. Every `gen` kind
writes the rows its generator lays out, and `verify` checks the rows of
the instance it verifies by the reader's rules and tests each against
the points, so neither builds a `Box`. Only `pierce`, whose algorithms
take a `BoxFamily`, builds one, and its report embeds the rows it
checked.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .geometry import DEFAULT_CAP, CapExceeded, _check_lines
from .instances import (
    InstanceFormatError,
    _checked_rows,
    _instance_obj,
    _instance_of,
    _loads,
    _parse_report,
    _read_text,
    _report_obj,
    _Rows,
    _verify_rows,
    _write_text,
    dumps_canonical,
    load_instance,
    verify_to_obj,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_PRECONDITION = 2
EXIT_CAP = 3


class PreconditionError(ValueError):
    """Inputs are well-formed but incompatible with the requested command."""


class _RuleNames:
    """The `bounds.BoundRule` values, read only when argparse checks or prints them."""

    def __iter__(self):
        from .bounds import BoundRule
        return (rule.value for rule in BoundRule)

    def __contains__(self, name) -> bool:
        return name in list(self)


def _add_cap_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help=f"exact-oracle size cap (default {DEFAULT_CAP})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxpierce",
        description="Piercing sets for axis-parallel box families, with exact "
                    "oracles and certified size guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_gadget = gen_sub.add_parser("gadget", help="the 5-box two-line worst case")
    g_gadget.add_argument("--out", default="-")
    g_ext = gen_sub.add_parser("extremal", help="disjoint gadget copies with packing number N")
    g_ext.add_argument("n", type=int)
    g_ext.add_argument("--out", default="-")
    g_rand = gen_sub.add_parser("random", help="seeded random family")
    g_rand.add_argument("--boxes", type=int, required=True)
    g_rand.add_argument("--dim", type=int, default=2)
    g_rand.add_argument("--range", type=int, nargs=2, default=(0, 20), metavar=("LO", "HI"))
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.add_argument("--two-line", action="store_true",
                        help="clamp each box onto one of two horizontal lines")
    g_rand.add_argument("--lines", type=int, nargs=2, default=None, metavar=("C1", "C2"))
    g_rand.add_argument("--out", default="-")

    p_nu = sub.add_parser("nu", help="exact packing number with witness")
    p_nu.add_argument("instance", nargs="?", default="-")
    _add_cap_flag(p_nu)

    p_tau = sub.add_parser("tau", help="exact piercing number with witness")
    p_tau.add_argument("instance", nargs="?", default="-")
    _add_cap_flag(p_tau)

    p_pierce = sub.add_parser("pierce", help="run a piercing algorithm")
    p_pierce.add_argument("instance", nargs="?", default="-")
    p_pierce.add_argument("--algo", choices=("twoline", "planar", "ddim"), required=True)
    p_pierce.add_argument("--policy", choices=("balanced", "dp"), default="balanced")
    p_pierce.add_argument("--out", default="-")
    _add_cap_flag(p_pierce)

    p_bounds = sub.add_parser("bounds", help="emit a bound-rule table as CSV")
    # a metavar keeps argparse from listing the choices while it builds the parser
    p_bounds.add_argument("rule", choices=_RuleNames(), metavar="rule",
                          help="one of %(choices)s")
    p_bounds.add_argument("max_n", type=int)
    p_bounds.add_argument("max_d", type=int, nargs="?", default=2)
    p_bounds.add_argument("--out", default="-")

    p_verify = sub.add_parser("verify", help="check a piercing against its instance")
    p_verify.add_argument("points", nargs="?", default="-",
                          help="pierce report or bare points document")
    p_verify.add_argument("--instance", default=None,
                          help="instance file; defaults to the one embedded in the report")

    return parser


def _cmd_gen(args) -> int:
    from .generators import (_GADGET_LINES, EXTREMAL_TAG, GADGET_TAG, RandomSpec, _extremal_rows,
                             _random_lines, _random_rows, random_meta)
    if args.kind == "gadget":
        doc = _Rows(2, _extremal_rows(2), _GADGET_LINES,
                    {"generator": GADGET_TAG, "description": "5-box two-line family, nu=2 tau=3"})
    elif args.kind == "extremal":
        doc = _Rows(2, _extremal_rows(args.n), _GADGET_LINES,
                    {"generator": EXTREMAL_TAG, "n": args.n,
                     "description": f"two-line family with nu={args.n}, tau=floor(3n/2)"})
    else:
        spec = RandomSpec(n_boxes=args.boxes, dim=args.dim,
                          coord_range=tuple(args.range), seed=args.seed,
                          two_line=args.two_line,
                          lines=tuple(args.lines) if args.lines else None)
        doc = _Rows(spec.dim, list(_random_rows(spec)), _random_lines(spec), random_meta(spec))
    # the rows are written as they are laid out, under the certificate check each `gen_*`
    # family gets: no Box is built only to be written
    _check_lines(doc.lines, doc.dim, doc.boxes)
    _write_text(args.out, dumps_canonical(_instance_obj(doc)))
    return EXIT_OK


def _cmd_nu(args) -> int:
    from .oracles import nu_exact
    family = load_instance(args.instance).family
    result = nu_exact(family, args.cap)
    sys.stdout.write(dumps_canonical({"nu": result.nu, "witness": list(result.witness)}))
    return EXIT_OK


def _cmd_tau(args) -> int:
    from .oracles import tau_exact
    family = load_instance(args.instance).family
    result = tau_exact(family, args.cap)
    sys.stdout.write(dumps_canonical({
        "tau": result.tau,
        "witness": [list(p.coords) for p in result.witness],
    }))
    return EXIT_OK


def _cmd_pierce(args) -> int:
    from .piercing import pierce_ddim, pierce_planar, pierce_two_lines
    doc = _checked_rows(_loads(_read_text(args.instance)))
    family = _instance_of(doc).family
    if args.algo == "twoline":
        report = pierce_two_lines(family, args.cap)
    elif args.algo == "planar":
        report = pierce_planar(family, args.policy, args.cap)
    else:
        report = pierce_ddim(family, args.policy, args.cap)
    # the report embeds the rows just checked: exact ints, so equal to what `instance_to_obj` builds
    embedded = _instance_obj(doc)
    _write_text(args.out, dumps_canonical(_report_obj(report, args.algo, args.policy, embedded)))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from .bounds import BoundRule, build_table, table_to_csv
    table = build_table(BoundRule(args.rule), args.max_n, args.max_d)
    _write_text(args.out, table_to_csv(table))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.points == "-" and args.instance == "-":
        raise PreconditionError("stdin can feed only one of POINTS and --instance")
    text = _read_text(args.points)
    # the instance is checked and tested as rows: verify builds no Box
    doc = _checked_rows(_loads(_read_text(args.instance))) if args.instance is not None else None
    # the points must match the instance they are checked against
    points, embedded, guarantee = _parse_report(text, doc.dim if doc is not None else None)
    doc = doc or embedded
    if doc is None:
        raise PreconditionError("no instance: pass --instance or verify a pierce report")
    vr = _verify_rows(doc.dim, doc.boxes, points, guarantee)
    sys.stdout.write(dumps_canonical(verify_to_obj(vr)))
    if guarantee is not None and vr.size > guarantee:
        print(f"boxpierce: {vr.size} points exceed the guarantee {guarantee}", file=sys.stderr)
        return EXIT_PRECONDITION
    return EXIT_OK if vr.hits_all else EXIT_PRECONDITION


_HANDLERS = {
    "gen": _cmd_gen,
    "nu": _cmd_nu,
    "tau": _cmd_tau,
    "pierce": _cmd_pierce,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # a command builds tens of thousands of acyclic objects, which reference counting frees;
    # the cyclic collector would only re-scan them
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _HANDLERS[args.command](args)
    except CapExceeded as exc:
        print(f"boxpierce: cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InstanceFormatError, OSError) as exc:
        print(f"boxpierce: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PreconditionError, ValueError) as exc:
        print(f"boxpierce: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
