"""Command-line surface: verification suites, Euler/Betti tables, form
evaluation, and the numeric S-duality check.

Exit codes: 0 success / all checks pass, 1 a check failed or a request
was out of range, 2 usage errors (bad flags, unparsable tau, tau off the
upper half-plane, --digits outside 10..1000, --scale <= 0, a negative
order or --max-delta, an order above its bound in ``MAX_ORDER`` or below
a suite's least order in ``MIN_ORDER``, eval with neither --tau nor
--series).
All rational quantities are serialized as exact fraction strings; floats
appear only in the numeric evaluation output, and a value outside the
double range is null there, with its digits in ``value_str`` (--digits
significant digits).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .errors import InstantonZetaError
from .formexpr import CLOSED_FORMS, E2Slot, leaf
from .forms import as_qseries, verify_section1
from .report import csv_rows

SUITES = ("section1", "d8", "limit-lemmas", "smoothness", "wall-oracle",
          "theorem")

FORM_LEAVES = ("theta2", "theta3", "theta4", "BigTheta", "E2", "E2hat",
               "E4", "eta", "e1", "F", "P0", "Peven", "Podd")
FORMS = FORM_LEAVES + tuple(CLOSED_FORMS)

# working precision range of eval and sduality: sduality at tau = i takes
# under a second at the cap, while 10^8 digits ran over a minute unanswered
MIN_DIGITS, MAX_DIGITS = 10, 1000

# upper bound of each order flag, per command, from measured cost on 2
# vCPUs: the slowest job at its bound takes under 45 s.  verify --order 120:
# the theorem suite 3 s, smoothness 2.3 s, limit-lemmas 0.5 s.  The wall-sum
# oracle at 16: 14 s.  table --max-delta (and --order) 160: 4.3 s, most of
# it in qseries._product.  eval --series bounds the order it expands,
# --order/--scale; Z_SO3 to q^4000: 6.5 s.
MAX_ORDER = {"verify": 120, "oracle": 16, "table": 160, "eval": 4000}

# the least --order of a verify suite with a first line to check below it:
# section1 and d8 start at q^1, and the vOdd smoothness suite at Delta = 1/2
MIN_ORDER = {"section1": 1, "d8": 1, "all": 1, "smoothness": Fraction(1, 2)}


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") \
            from exc


_TAU_FULL = re.compile(
    r"^(?P<re>[+-]?\d+(?:\.\d+)?)(?:(?P<im>[+-]\d*(?:\.\d+)?)[ij])?$")
_TAU_IMAG = re.compile(r"^(?P<im>[+-]?\d*(?:\.\d+)?)[ij]$")


def parse_tau(text):
    """Parse 'a+bi' (also 'i', '2j', '-0.2+0.9i'); upper half-plane only.
    A real number parses, and is rejected as off the half-plane."""
    compact = text.replace(" ", "")
    m = _TAU_FULL.match(compact)
    if m:
        re_part = float(m.group("re"))
        im_raw = m.group("im")
    else:
        m = _TAU_IMAG.match(compact)
        if not m:
            raise ValueError(f"cannot parse tau from {text!r}")
        re_part = 0.0
        im_raw = m.group("im")
    if im_raw is None:
        im_part = 0.0
    elif im_raw in ("", "+"):
        im_part = 1.0
    elif im_raw == "-":
        im_part = -1.0
    else:
        im_part = float(im_raw)
    if im_part <= 0:
        raise ValueError(f"tau = {text} is not in the upper half-plane "
                         f"(Im(tau) must be positive)")
    return complex(re_part, im_part)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="instanton-zeta",
        description="Exact q-series pipeline for rank-2 sheaf counting on "
                    "a rational elliptic surface, with a numeric S-duality "
                    "check.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # the subcommand's parser reports its validation errors, so their
        # usage line shows its flags
        p = sub.add_parser(name, help=help)
        p.set_defaults(parser=p)
        return p

    def common(p, bound, order=Fraction(20),
               formats=("json", "csv", "text")):
        default = "--max-delta" if order is None else order
        p.add_argument("--order", type=_fraction, default=order,
                       help=f"series truncation order (rational, at most "
                            f"{bound}, default {default})")
        p.add_argument("--format", choices=formats, default="text")

    p_verify = command("verify", help="run identity suites")
    common(p_verify, MAX_ORDER["verify"])
    p_verify.add_argument("--suite", default="all",
                          choices=SUITES + ("all",))
    p_verify.add_argument("--oracle-order", type=_fraction,
                          default=Fraction(6),
                          help=f"order for the wall-sum oracle comparison "
                               f"(at most {MAX_ORDER['oracle']}, default 6)")

    p_table = command("table", help="Euler characteristic table")
    common(p_table, MAX_ORDER["table"], order=None)
    p_table.add_argument("--class", dest="cls", required=True,
                         choices=("v0", "even", "odd", "lambda0",
                                  "lambdaEven", "lambdaOdd"))
    p_table.add_argument("--max-delta", type=_fraction, required=True,
                         help=f"last discriminant of the table (at most "
                              f"{MAX_ORDER['table']})")

    p_eval = command("eval", help="evaluate a named form")
    common(p_eval, f"{MAX_ORDER['eval']} times --scale",
           formats=("json", "text"))
    p_eval.add_argument("--form", required=True,
                        help=f"one of {FORMS}")
    p_eval.add_argument("--scale", type=_fraction, default=Fraction(1),
                        help="argument scaling k for f(k tau)")
    p_eval.add_argument("--tau", help="evaluation point a+bi")
    p_eval.add_argument("--digits", type=int, default=40)
    p_eval.add_argument("--e2", choices=("anomaly", "E2"), default="anomaly",
                        help="resolution of the weight-2 slot")
    p_eval.add_argument("--series", action="store_true",
                        help="print the exact q-expansion to --order")

    p_sd = command("sduality", help="S-duality transformation check")
    p_sd.add_argument("--tau", required=True)
    p_sd.add_argument("--digits", type=int, default=40)
    p_sd.add_argument("--holomorphic", action="store_true",
                      help="diagnostic: resolve the weight-2 slot "
                           "holomorphically and report the residual")
    p_sd.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _validate(args):
    error = args.parser.error
    if args.command == "table":
        if args.max_delta < 0:
            error("--max-delta must be nonnegative")
        if args.order is None:
            args.order = args.max_delta
    if getattr(args, "order", None) is not None and args.order < 0:
        error("--order must be nonnegative")
    if getattr(args, "oracle_order", None) is not None:
        if args.oracle_order < 0:
            error("--oracle-order must be nonnegative")
        if (args.suite in ("wall-oracle", "all")
                and args.oracle_order > args.order):
            error("--oracle-order must not exceed --order")
        least = MIN_ORDER.get(args.suite)
        if least is not None and args.order < least:
            error(f"--order must be at least {least} for --suite "
                  f"{args.suite}")
    if getattr(args, "digits", None) is not None and not (
            MIN_DIGITS <= args.digits <= MAX_DIGITS):
        error(f"--digits must be between {MIN_DIGITS} and {MAX_DIGITS}")
    if getattr(args, "scale", None) is not None and args.scale <= 0:
        error("--scale must be positive")
    if args.command == "verify":
        bounded = (("--order", args.order, "verify"),
                   ("--oracle-order", args.oracle_order, "oracle"))
    elif args.command == "table":
        bounded = (("--max-delta", args.max_delta, "table"),
                   ("--order", args.order, "table"))
    elif args.command == "eval" and args.series:
        bounded = (("--order/--scale", args.order / args.scale, "eval"),)
    else:
        bounded = ()
    for flag, value, key in bounded:
        if value > MAX_ORDER[key]:
            error(f"{flag} must be at most {MAX_ORDER[key]} for "
                  f"{args.command}")
    if args.command == "eval" and not (args.tau or args.series):
        error("nothing to do: pass --tau and/or --series")


# -- verify --------------------------------------------------------------------

def _run_suite(name, order, oracle_order):
    from . import assembly, lattice, results
    return {
        "section1": lambda: [verify_section1(order)],
        "d8": lambda: [lattice.verify_d8_decompositions(order)],
        "limit-lemmas": lambda: [assembly.check_asum_closed_forms(order),
                                 results.check_limit_lemmas(order)],
        "smoothness": lambda: [assembly.smoothness_report(tag, order)
                               for tag in ("vEven", "vOdd")],
        "wall-oracle": lambda: [assembly.verify_wall_oracle(oracle_order)],
        "theorem": lambda: [results.assemble_theorem(order)],
    }[name]()


def cmd_verify(args):
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for suite in suites:
        reports.extend(_run_suite(suite, args.order, args.oracle_order))
    ok = all(r.ok for r in reports)
    if args.format == "json":
        print(json.dumps({"ok": ok, "suites": [r.as_dict() for r in reports]},
                         indent=2))
    elif args.format == "csv":
        csv.writer(sys.stdout).writerows(csv_rows(reports))
    else:
        for r in reports:
            print(f"[{r.suite}]")
            for line in r.lines():
                print("  " + line)
        print("all passed" if ok else "FAILURES present")
    if not ok:
        bad = next(item for r in reports for item in r.failures())
        print(f"first failure: {bad.name}"
              + (f" at q^{bad.first_difference}"
                 if bad.first_difference is not None else ""),
              file=sys.stderr)
        return 1
    return 0


# -- table ---------------------------------------------------------------------

def table_to_dict(table):
    # a dataclass's vars hold its fields in order; rationals as strings
    return {"class": table.label, "rows": [
        {**vars(r), "delta": str(r.delta), "euler": str(r.euler)}
        for r in table.rows]}


def cmd_table(args):
    from .results import euler_table
    if args.max_delta > args.order:
        print(f"max-delta {args.max_delta} exceeds --order {args.order}",
              file=sys.stderr)
        return 1
    table = euler_table(args.cls, args.max_delta)
    if args.format == "json":
        print(json.dumps(table_to_dict(table), indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["delta", "dim", "euler", "betti", "singular"])
        for r in table.rows:
            writer.writerow([str(r.delta), r.dim, str(r.euler),
                             "" if r.betti is None
                             else ";".join(map(str, r.betti)), r.singular])
    else:
        print(f"class {table.label}")
        for r in table.rows:
            betti = "-" if r.betti is None else str(r.betti)
            flag = "  [singular: defined by the wall-crossing equation]" \
                if r.singular else ""
            print(f"  Delta={str(r.delta):>5}  dim={r.dim:>3}  "
                  f"chi={str(r.euler):>10}  betti={betti}{flag}")
    return 0


# -- eval ----------------------------------------------------------------------

def _form_expr(name):
    if name not in FORMS:
        raise InstantonZetaError(f"unknown form {name!r}; choose from {FORMS}")
    return E2Slot() if name == "E2hat" else leaf(name)


def _json_float(x):
    """x as a float, or None outside the double range (not JSON)."""
    f = float(x)
    return f if math.isfinite(f) else None


def cmd_eval(args):
    expr = _form_expr(args.form)
    k = args.scale  # f(k tau): the tree of f at the argument k tau
    out = {"form": args.form, "scale": str(args.scale)}
    if args.series:
        series = as_qseries(expr, args.order / k).dilate(k)
        out["series"] = [{"exponent": str(e), "coefficient": str(c)}
                         for e, c in series.pairs()]
        out["truncation"] = str(series.trunc)
        out["e2_slot"] = "holomorphic"
    if args.tau:
        from mpmath import mp
        from .numeric import eval_form
        tau = parse_tau(args.tau)
        # k tau at the working precision of eval_form, which checks it
        # against the minimum Im tau
        with mp.workdps(args.digits + 15):
            ktau = mp.mpc(tau) * mp.mpf(k.numerator) / k.denominator
            val = eval_form(expr, ktau, args.digits, e2_mode=args.e2)
        out["tau"] = str(tau)
        out["value"] = {"re": _json_float(val.real),
                        "im": _json_float(val.imag)}
        out["value_str"] = mp.nstr(val, args.digits)
        out["e2_resolution"] = args.e2
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        print(f"form {args.form} (argument scaling {args.scale})")
        if "series" in out:
            terms = " + ".join(f"({t['coefficient']}) q^{t['exponent']}"
                               for t in out["series"][:12])
            print(f"  series to q^{out['truncation']}: {terms}"
                  + (" + ..." if len(out["series"]) > 12 else ""))
        if "value_str" in out:
            print(f"  value at tau = {out['tau']}: {out['value_str']}")
    return 0


# -- sduality ------------------------------------------------------------------

def cmd_sduality(args):
    from .numeric import sduality_check
    tau = parse_tau(args.tau)  # ValueError -> exit 2 in main()
    resolution = "E2" if args.holomorphic else "anomaly"
    report = sduality_check(tau, digits=args.digits, resolution=resolution)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for line in report.lines():
            print(line)
    if report.passed is False:
        return 1
    return 0


@functools.lru_cache(maxsize=None)
def _parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call can reuse it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    _validate(args)
    handlers = {"verify": cmd_verify, "table": cmd_table, "eval": cmd_eval,
                "sduality": cmd_sduality}
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstantonZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
