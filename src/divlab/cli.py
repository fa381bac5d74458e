"""Deterministic command-line surface for the divergence laboratory.

Every subcommand emits machine-readable JSON (CSV for series tables) and
honors one exit-code contract: 0 for success or a verified certificate, 2 for
a certificate that failed verification or an exhausted certified search, 1
for usage errors and violated engine preconditions.  Identical flags produce
byte-identical output (Monte Carlo included, via the mandatory seed).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from .averages import (
    SearchExhaustedError,
    _refuse_cube_checks,
    check_sweep_candidates,
    cube_certificate_check,
    find_riemann_n,
    monte_carlo_average,
    multilinear_integral,
    sweep_superlevel,
    degenerate_lower_ratio,
    dependent_forms_lower_ratio,
)
from .digitsets import cardinality, measure
from .hilbert import h3_evaluate, h3_series_columns, h3_witness_evaluations
from .intervals import IntervalUnion, InvariantError, rat_str, real
from .linforms import classify
from .scenarios import (
    MAX_KMAX,
    _cube_check_count,
    blowup_series,
    cube_family,
    cube_threshold,
    degenerate_threshold,
    eps_key,
    furstenberg_family,
    furstenberg_threshold,
    furstenberg_threshold_log_form,
)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2 by default; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_float(text: str) -> float:
    """argparse type: a finite float > 0 (rejects nan, inf, 0 and negatives)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"need a finite positive number, got {text!r}")
    return value


def _int_at_most(limit: int, unit: str = ""):
    """argparse type: an integer of at most limit (unit names what it counts)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"need an integer, got {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"at most {limit}{unit}, got {value}")
        return value

    return parse


def _seed(text: str) -> int:
    """argparse type: a non-negative integer, the seeds numpy's generator takes."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {value}")
    return value


def _int_entry(flag: str, text: str) -> int:
    """One entry of an integer list flag; a non-integer entry is named with its flag."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{flag}: entry {text!r} is not an integer") from None


# the largest cube dimension whose threshold (2^(m-1) + 1)/(m + 1) is a finite float
MAX_THRESHOLD_M = 1035

# the deepest --k any subcommand accepts: each engine's own work estimate
# refuses far shallower depths, and this cap refuses absurd ones at the
# parser, before an estimate grows past Python's int-to-string limit
MAX_DEPTH = 1000


def _rational(text: str) -> Fraction:
    """argparse type: an exact rational such as '1/192', '-2/3' or '0.25'."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"need a rational p/q with q != 0, got {text!r}") from None


_SLOT = "\0union"  # json writes it as "\u0000union", which no other value is
_ROWS_SLOT = "\0rows"  # likewise, for a _Rows list


class _Rows:
    """A list of nonempty flat dicts (str, number, bool or IntervalUnion
    values) that _emit_json writes with one compact encoder call."""

    def __init__(self, rows):
        self.rows = rows


def _rows_text(rows, default) -> str:
    """Flat dicts exactly as json.dumps(indent=2) writes their list at indent
    0.  json's C encoder writes them compactly with the indented item
    separator; a raw newline is only ever a separator, so in flat dicts
    "},\n    {" only ever stands between two rows."""
    if not rows:
        return "[]"
    text = json.dumps(rows, separators=(",\n    ", ": "), allow_nan=False, default=default)
    return "[\n  {\n    " + text[2:-2].replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]"


def _fill(text, slot, blocks, render):
    """text's pieces, its i-th written slot replaced by the pieces of text
    render(blocks[i], indent of its line) yields."""
    parts = text.split(json.dumps(slot))
    yield parts[0]
    for before, block, part in zip(parts, blocks, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        yield from render(block, len(line) - len(line.lstrip(" ")))
        yield part


def _emit_json(data, path: str | None) -> None:
    """Indented JSON; an IntervalUnion value is written by its json_chunks,
    straight from its ends, and a _Rows list by one compact encoder call,
    since json's indented encoder is pure Python and such values hold most
    of a deep certificate's output."""
    unions, rows = [], []

    def slot(obj):
        if isinstance(obj, IntervalUnion):
            unions.append(obj)
            return _SLOT
        if isinstance(obj, _Rows):
            rows.append(_rows_text(obj.rows, slot))
            return _ROWS_SLOT
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    text = json.dumps(data, indent=2, allow_nan=False, default=slot) + "\n"
    # every slot is a dict value: its block opens on the key's line and closes
    # at that line's indent; rows go first, so their unions take their indent
    if rows:
        text = "".join(_fill(text, _ROWS_SLOT, rows, lambda t, indent: (t.replace("\n", "\n" + " " * indent),)))
    pieces = _fill(text, _SLOT, unions, IntervalUnion.json_chunks) if unions else (text,)
    if path:
        with open(path, "w") as out:
            out.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _emit_csv(header, rows, path: str | None) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    if path:
        Path(path).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _rat_real(q: Fraction) -> dict:
    return {"exact": rat_str(q), "real": real(q)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_construct_thm1(args) -> int:
    scen = furstenberg_family(args.k)
    data = scen.to_json()
    data["intervals"] = {
        f"factor_{i + 1}": u for i, u in enumerate(scen.factors)
    }
    data["intervals"]["witness"] = scen.witness
    _emit_json(data, args.out)
    return 0


def _cmd_construct_cubes(args) -> int:
    scen = cube_family(args.m, args.k)
    _emit_json(scen.to_json(), args.out)
    return 0


def _cmd_verify_claim(args) -> int:
    scen = furstenberg_family(args.k)
    # refuse an oversized sweep before materializing any factor: a factor has
    # at most 2 * cardinality endpoints, since its pieces can only merge
    check_sweep_candidates([2 * cardinality(s) for s in scen.factor_specs], scen.coefficients)
    res = sweep_superlevel(
        scen.factors, scen.coefficients, scen.level, window=(-1, 0)
    )
    # keep what the JSON needs, so the sweep function, the factors and the
    # witness are freed before rendering
    superlevel, sup_measure = res.superlevel, res.superlevel_measure
    breakpoints = len(res.function)
    del res
    witness_in = scen.witness.clip(-1, 0).issubset(superlevel)
    level = scen.level
    del scen
    target = Fraction(1, 8) - level
    meas_ok = sup_measure >= target
    verified = witness_in and meas_ok
    _emit_json(
        {
            "k": args.k,
            "lambda": rat_str(level),
            "window": [rat_str(-1), rat_str(0)],
            "target": rat_str(target),
            "superlevel_measure": _rat_real(sup_measure),
            "witness_contained": witness_in,
            "measure_reached": meas_ok,
            "breakpoints": breakpoints,
            "superlevel": superlevel,
            "verified": verified,
        },
        args.out,
    )
    return 0 if verified else 2


def _cmd_find_nk(args) -> int:
    head = {
        "k": args.k,
        "level": rat_str(args.level),
        "target": rat_str(args.target),
        "max_n": args.max_n,
    }
    try:
        cert = find_riemann_n(args.k, args.level, args.target, max_n=args.max_n)
    except SearchExhaustedError as exc:
        _emit_json({**head, "verified": False, "error": str(exc)}, args.out)
        return 2
    _emit_json(
        {**head, "n_steps": cert.n_steps, "measure": _rat_real(cert.measure), "verified": True},
        args.out,
    )
    return 0


def _cmd_verify_cubes(args) -> int:
    # refuse an oversized certificate before cube_family combines any form spec
    _refuse_cube_checks(_cube_check_count(args.m, args.k))
    scen = cube_family(args.m, args.k)
    t_tail = scen.witness_tail if args.t_tail is None else args.t_tail
    if args.tamper:
        t_tail *= 2
    report = cube_certificate_check(scen, t_tail)
    meas = measure(scen.witness_spec)
    meas_ok = meas == Fraction(1, args.m + 1)
    cards = scen.cardinalities()
    card_rows = {}
    cards_ok = True
    for eps in sorted(cards):
        bound = scen.cardinality_bound(eps)
        ok = cards[eps] <= bound
        cards_ok &= ok
        card_rows[eps_key(eps)] = {"count": cards[eps], "bound": bound, "ok": ok}
    verified = report.all_pass and meas_ok and cards_ok
    _emit_json(
        {
            "m": args.m,
            "k": args.k,
            "t_tail": rat_str(t_tail),
            "tampered": bool(args.tamper),
            "checks_total": report.checks_total,
            "checks_failed": report.checks_failed,
            "first_failures": [
                {
                    "x": rat_str(c.x),
                    "eps": eps_key(c.eps),
                    "base_in_form": c.base_in_form,
                    "slack": rat_str(c.slack),
                }
                for c in report.first_failures
            ],
            "witness_measure": rat_str(meas),
            "witness_measure_expected": rat_str(Fraction(1, args.m + 1)),
            "measure_ok": meas_ok,
            "cardinalities": card_rows,
            "cardinalities_ok": cards_ok,
            "integral_lower_bound": _rat_real(report.integral_lower_bound),
            "verified": verified,
        },
        args.out,
    )
    return 0 if verified else 2


def _series_csv(series):
    """CSV header and rows (h3's with both factors of each value); refuses the
    non-finite floats strict JSON refuses."""
    if not all(map(math.isfinite, series.values + series.step_ratios)):
        raise OverflowError("series leaves the float range")
    steps = [""] + [repr(real(r)) for r in series.step_ratios]
    if series.kind == "h3":
        columns = h3_series_columns(series.p, len(series.indices), series.mode)
        header = ["index", "lower_norm_bound", "product_of_norms", "value",
                  "step_ratio", "verdict"]
        rows = [[k, repr(real(bound)), repr(real(norms)), repr(real(v)), step, series.verdict]
                for (k, bound, norms), v, step in zip(columns, series.values, steps)]
        return header, rows
    header = ["index", "value", "step_ratio", "verdict"]
    rows = [[k, repr(real(v)), step, series.verdict]
            for k, v, step in zip(series.indices, series.values, steps)]
    return header, rows


def _cmd_blowup(args) -> int:
    # a flag of another kind would be dropped without a word: refuse it
    flags = (("--weighted", args.weighted or None, "thm1"), ("--m", args.m, "cubes"),
             ("--mode", args.mode, "cubes"), ("--normalization", args.normalization, "h3"))
    for flag, value, kind in flags:
        if value is not None and args.kind != kind:
            raise ValueError(f"blowup: {flag} applies to --kind {kind} only")
    series = blowup_series(args.kind, args.p, args.kmax, m=args.m, weighted=args.weighted,
                           mode=args.mode or args.normalization)
    if args.csv is not None:
        header, rows = _series_csv(series)
        _emit_csv(header, rows, args.csv or None)
    if args.csv is None or args.out:
        _emit_json(series.to_json(), args.out)
    return 0


def _cmd_h3_eval(args) -> int:
    scen = furstenberg_family(args.k)

    def enc(ev):
        return {
            "x": rat_str(ev.x),
            "support": ev.support,
            "value": "inf" if ev.diverges else real(ev.value),
            "lower_bound": rat_str(ev.lower_bound),
            "diverges": ev.diverges,
        }

    if args.x is not None:
        first, second, third = scen.factors
        ev = h3_evaluate(args.x, first, second, third)
        _emit_json({"k": args.k, "lambda": rat_str(scen.level),
                    "evaluations": [enc(ev)]}, args.out)
        return 0
    evs = h3_witness_evaluations(scen)
    min_lower = min(ev.lower_bound for ev in evs)
    verified = min_lower >= scen.level
    _emit_json(
        {
            "k": args.k,
            "lambda": rat_str(scen.level),
            "count": len(evs),
            "min_lower_bound": _rat_real(min_lower),
            "evaluations": _Rows([enc(ev) for ev in evs]),
            "verified": verified,
        },
        args.out,
    )
    return 0 if verified else 2


def _cmd_degenerate(args) -> int:
    if args.p4prime is not None:
        if args.r is not None or args.b is not None or args.p is not None:
            raise ValueError("--p4prime (squares) and --r/--b/--p are exclusive")
        res = degenerate_lower_ratio(args.big_m, args.p4prime, args.L)
        head = {"family": "squares", "M": args.big_m, "p4prime": real(args.p4prime)}
        threshold = "threshold_p4prime"
    else:
        if args.r is None or args.b is None or args.p is None:
            raise ValueError("need either --p4prime or all of --r, --b, --p")
        b = [_int_entry("--b", v) for v in args.b.split(",")]
        res = dependent_forms_lower_ratio(args.r, b, args.big_m, args.p, args.L)
        head = {"family": "dependent-forms", "r": args.r, "b": b, "M": args.big_m, "p": real(args.p)}
        threshold = "threshold"
    _emit_json(
        {
            **head,
            "L": real(args.L),
            "integral": real(res.integral),
            "ratio": real(res.ratio),
            threshold: rat_str(res.threshold),
            "grows": res.grows,
        },
        args.out,
    )
    return 0


def _cmd_classify(args) -> int:
    rows = [
        [_int_entry("--rows", v) for v in row.replace(",", " ").split()]
        for row in args.rows.split(";")
        if row.strip()
    ]
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise ValueError(f"ragged rows: every row needs the same length, got lengths {lengths}")
    _emit_json(classify(rows).to_json(), args.out)
    return 0


def _cmd_thresholds(args) -> int:
    cub = cube_threshold(args.m)
    deg = degenerate_threshold(args.r)
    _emit_json(
        {
            "furstenberg": {
                "real": real(furstenberg_threshold()),
                "log_form_real": real(furstenberg_threshold_log_form()),
            },
            "cubes": {"m": args.m, "exact": rat_str(cub), "real": real(cub)},
            "degenerate": {"r": args.r, "exact": rat_str(deg), "real": real(deg)},
        },
        args.out,
    )
    return 0


def _cmd_mc_average(args) -> int:
    scen = furstenberg_family(args.k)
    est = monte_carlo_average(
        [[c] for c in scen.coefficients], scen.factors, args.x, args.eps,
        samples=args.samples, seed=args.seed,
    )
    exact = multilinear_integral(scen.factors, scen.coefficients, args.x, (0, args.eps)) / args.eps
    z = 0.0 if est.stderr == 0 else (est.estimate - float(exact)) / est.stderr
    agrees = abs(est.estimate - float(exact)) <= 4 * est.stderr or est.stderr == 0
    _emit_json(
        {
            "k": args.k,
            "x": rat_str(args.x),
            "eps": rat_str(args.eps),
            "samples": est.samples,
            "seed": est.seed,
            "estimate": real(est.estimate),
            "stderr": real(est.stderr),
            "exact": _rat_real(exact),
            "z_score": real(z),
            "within_4_sigma": agrees,
        },
        args.out,
    )
    return 0 if agrees else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use; parse_args keeps no state in it."""
    parser = _Parser(
        prog="divlab",
        description="exact divergence-counterexample laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    depth = _int_at_most(MAX_DEPTH)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write JSON to this path instead of stdout")
        return p

    p = add("construct-thm1", _cmd_construct_thm1,
            "build the depth-k triple-average scenario")
    p.add_argument("--k", type=depth, required=True)

    p = add("construct-cubes", _cmd_construct_cubes,
            "build the dimension-m depth-k cube scenario")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=depth, required=True)

    p = add("verify-claim", _cmd_verify_claim,
            "exact superlevel sweep certificate on [-1, 0]")
    p.add_argument("--k", type=depth, required=True)

    p = add("find-nk", _cmd_find_nk,
            "smallest grid size whose discrete superlevel reaches the target")
    p.add_argument("--k", type=depth, required=True)
    p.add_argument("--level", type=_rational, required=True, help="rational, e.g. 1/192")
    p.add_argument("--target", type=_rational, required=True, help="rational, e.g. 1/9")
    p.add_argument("--max-n", type=int, default=10_000)

    p = add("verify-cubes", _cmd_verify_cubes,
            "symbolic cube certificate (base points and tail slacks)")
    p.set_defaults(range_flags=(("--t-tail", "t_tail"),))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=depth, required=True)
    p.add_argument("--t-tail", type=_rational, help="override the t-box side (rational)")
    p.add_argument("--tamper", action="store_true",
                   help="double the t-box side; the certificate must fail")

    p = add("blowup", _cmd_blowup, "blow-up series for a scenario")
    p.set_defaults(range_flags=(("--p", "p"), ("--kmax", "kmax")))
    p.add_argument("--kind", choices=("thm1", "cubes", "h3"), required=True)
    p.add_argument("--p", type=_positive_float, required=True)
    p.add_argument("--kmax", type=_int_at_most(MAX_KMAX, " terms"), required=True)
    p.add_argument("--m", type=int, help="cube dimension (kind=cubes)")
    p.add_argument("--weighted", action="store_true",
                   help="k^-6 weighted variant (kind=thm1)")
    p.add_argument("--mode", choices=("exact", "bound"),
                   help="cube cardinalities: digit-string counts (default) "
                        "or proven bounds (kind=cubes)")
    p.add_argument("--normalization", choices=("lebesgue", "normalized"),
                   help="factor norms, lebesgue by default (kind=h3)")
    p.add_argument("--csv", nargs="?", const="", default=None, metavar="PATH",
                   help="emit CSV (to PATH, or stdout if no PATH)")

    p = add("h3-eval", _cmd_h3_eval,
            "singular-integral values at witness base points")
    p.add_argument("--k", type=depth, required=True)
    p.add_argument("--x", type=_rational, help="evaluate at one rational point only")

    p = add("degenerate", _cmd_degenerate,
            "truncated quasi-norm ratios for dependent forms")
    p.set_defaults(range_flags=(("--p4prime", "p4prime"), ("--r", "r"), ("--p", "p"),
                                ("--M", "big_m"), ("--L", "L")))
    p.add_argument("--M", dest="big_m", type=int, default=100)
    p.add_argument("--p4prime", type=_positive_float, help="squares family exponent")
    p.add_argument("--r", type=int, help="number of monomials (general family)")
    p.add_argument("--b", help="comma-separated integer coefficients summing to 1")
    p.add_argument("--p", type=_positive_float, help="Lebesgue exponent (general family)")
    p.add_argument("--L", type=_positive_float, default=100.0, help="truncation radius")

    p = add("classify", _cmd_classify,
            "divergence scenario of an integer linear-forms matrix")
    p.add_argument("--rows", required=True,
                   help="semicolon-separated rows, e.g. '2,0;0,2;1,1'")

    p = add("thresholds", _cmd_thresholds, "the three divergence thresholds")
    p.add_argument("--m", type=_int_at_most(MAX_THRESHOLD_M), default=3, help="cube dimension")
    p.add_argument("--r", type=int, default=3, help="dependent-monomial count")

    p = add("mc-average", _cmd_mc_average,
            "seeded Monte Carlo vs exact integral at one point")
    p.add_argument("--k", type=depth, required=True)
    p.add_argument("--x", type=_rational, required=True, help="rational base point")
    p.add_argument("--eps", type=_rational, default="1", help="cube side (rational)")
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=_seed, required=True)

    return parser


# flags whose values may start with '-' (rationals, coefficient lists)
_VALUE_FLAGS = {"--x", "--b", "--rows", "--t-tail", "--level", "--target", "--eps"}


def _merge_negative_values(argv):
    """Turn ['--x', '-2/3'] into ['--x=-2/3'] so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and re.match(r"-[\d.]", argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_merge_negative_values(argv))
    try:
        return args.func(args)
    except OverflowError:
        # name the flags whose values pushed a closed form past the float range
        given = [f"{flag} {getattr(args, dest)}" for flag, dest in getattr(args, "range_flags", ())
                 if getattr(args, dest) is not None]
        print(f"divlab: error: {args.command}: result out of float range at "
              f"{' '.join(given) or 'these inputs'}", file=sys.stderr)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"divlab: error: {exc}", file=sys.stderr)
    except InvariantError as exc:
        print(f"divlab: error: internal invariant failed: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"divlab: error: cannot write {exc.filename or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
