"""Command line front end.

Every compute command prints one JSON document with sorted keys, so byte
output is deterministic for a given request.  Exact values are rendered
as numerator/denominator coefficient tables plus a readable string; any
decimal field is display-only and says so.

Exit codes: 0 success, 1 internal failure or failed verification checks,
2 invalid request, 3 safety budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import BudgetError
from .symb import SL_ONE, SignedLaurent, SignedRational, _float

_REGION_NAMES = {"O": "O", "unit": "O_unit", "O_unit": "O_unit",
                 "pi": "piO", "piO": "piO"}


# ---------------------------------------------------------------------------
# rendering

# no printed integer has over 4300 digits (Python 3.11's int-to-str limit, checked here),
# and --decimal K takes K up to the same bound
_MAX_DIGITS = 4300
_PRINT_BOUND = 10 ** _MAX_DIGITS


def _check_digits(*values) -> None:
    """BudgetError when an int or Fraction among values would print with over 4300 digits."""
    if any(not -_PRINT_BOUND < v.numerator < _PRINT_BOUND or v.denominator >= _PRINT_BOUND
           for v in values):
        raise BudgetError("output limited to integers of 4300 digits")


def to_doc(x):
    """Recursively convert result values into JSON-ready structures."""
    if isinstance(x, (SignedRational, SignedLaurent)):
        num, den = (x.num, x.den) if isinstance(x, SignedRational) else (x, SL_ONE)
        _check_digits(*num.coeffs, *num.coeffs.values(), *den.coeffs, *den.coeffs.values())
        return {"num": num.to_json(), "den": den.to_json(), "str": str(x)}
    if isinstance(x, (int, Fraction)):
        _check_digits(x)
        return x if isinstance(x, int) else str(x)
    if x is None or isinstance(x, (float, str)):
        return x
    if isinstance(x, dict):
        return {str(k): to_doc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_doc(v) for v in x]
    raise TypeError(f"cannot render {type(x).__name__}")


def _decimal(x: Fraction, k: int) -> str:
    """x rounded half-even to k >= 1 significant digits, laid out as format(float, f".{k}g")."""
    if not x:
        return "0"
    sign, x = ("-" if x < 0 else ""), abs(x)
    # 10^exp <= x < 10^(exp + 1); the bit lengths put exp within one of its value
    exp = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000
    while Fraction(10) ** exp > x:
        exp -= 1
    while Fraction(10) ** (exp + 1) <= x:
        exp += 1
    digits = round(x / Fraction(10) ** (exp - k + 1))
    if digits == 10 ** k:  # rounding carried into one more digit
        digits, exp = digits // 10, exp + 1
    text = str(digits)
    if -4 <= exp < k:
        point = "0." + "0" * (-exp - 1) + text if exp < 0 else text[:exp + 1] + "." + text[exp + 1:]
        return sign + point.rstrip("0").rstrip(".")
    mantissa = (text[0] + "." + text[1:]).rstrip("0").rstrip(".")
    return f"{sign}{mantissa}e{'-' if exp < 0 else '+'}{abs(exp):02d}"


def _attach_decimal(opts, out: dict, at_q: int) -> None:
    """With --decimal K, add K-digit display strings of the exact value (and derivative) at q.

    The digits are exact, but a value outside the float range is still refused (BudgetError).
    """
    places = opts.decimal
    if not places:
        return
    block = {"at_q": at_q, "note": "display only, exact fields are authoritative"}
    for name in ("value", "derivative"):
        if name in out:
            x = out[name]
            if isinstance(x, (SignedLaurent, SignedRational)):
                x = x.evaluate(at_q)
            _float(x)
            block[name] = _decimal(Fraction(x), places)
    out["decimal"] = block


def _emit(opts, doc: dict):
    if opts.json:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)


def _deliver(opts, request: dict, out: dict) -> int:
    """Shared result path: the request, command and --decimal echoed beside the result."""
    request.update(command=opts.command, decimal=opts.decimal)
    _emit(opts, to_doc({"request": request, **out}))
    return 0


def _ints(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ValueError(f"expected comma separated integers, got {text!r}") from None


def _form(text: str):
    """Parse a form literal; only the commands that take one import reps."""
    from .reps import parse_monomial

    return parse_monomial(text)


def _guard(fn) -> int:
    """Run a command and map library errors onto the documented exit codes."""
    try:
        return fn()
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# commands: each takes the parsed options and returns its exit code; a
# ValueError it raises is a bad request (exit 2)

_COMMANDS = []


def _arg(*flags, **kw):
    return flags, kw


def _command(*args):
    """Register a command with its options; the function's docstring is its help."""
    def register(fn):
        _COMMANDS.append((fn, args))
        return fn
    return register


@_command(_arg("--kind", choices=["norm", "trace_pair", "trace_j1"], required=True),
          _arg("--region", dest="regions", action="append", choices=sorted(_REGION_NAMES),
               help="One region for norm, two for trace_pair, none for trace_j1."),
          _arg("--e", type=int, required=True),
          _arg("--oracle", action="store_true", help="Cross-check by direct character sums."),
          _arg("--p", type=int, default=3, help="(default: %(default)s)"),
          _arg("--depth", type=int))
def integral(opts):
    """Entry integrals over one or two coordinate regions."""
    from .locint import charsum_oracle, norm_integral, trace_integral_J1, trace_pair_integral

    regs = tuple(_REGION_NAMES[r] for r in opts.regions or ())
    want = {"norm": 1, "trace_pair": 2, "trace_j1": 0}[opts.kind]
    if len(regs) != want:
        raise ValueError(f"kind {opts.kind} takes exactly {want} --region options")
    if opts.oracle and opts.kind == "trace_j1":
        raise ValueError("the indicator integral has no character sum oracle")
    request = {"kind": opts.kind, "regions": list(regs), "e": opts.e, "oracle": opts.oracle,
               "p": opts.p if opts.oracle else None,
               "depth": opts.depth if opts.oracle else None}
    if opts.kind == "norm":
        value = norm_integral(regs[0], opts.e)
    elif opts.kind == "trace_pair":
        value = trace_pair_integral(regs[0], regs[1], opts.e)
    else:
        value = trace_integral_J1(opts.e)
    out = {"value": value}
    _attach_decimal(opts, out, 3)
    if opts.oracle:
        d = opts.depth if opts.depth is not None else abs(opts.e) + 2
        regions = regs if opts.kind == "trace_pair" else regs[0]
        got = charsum_oracle(opts.p, opts.kind, regions, opts.e, d)
        out["oracle"] = {"p": opts.p, "depth": d, "value": got,
                         "matches": got == value.evaluate(opts.p)}
    return _deliver(opts, request, out)


@_command(_arg("--n", type=int, default=1, help="(default: %(default)s)"),
          _arg("--h", type=int, required=True),
          _arg("--t", type=int, required=True),
          _arg("--B", dest="b_text", required=True, metavar="FORM",
               help="diag:e1,e2 or mono:sigma=[..];e=[..]"),
          _arg("--symbolic", action="store_true"),
          _arg("--q", type=int),
          _arg("--emin", type=int),
          _arg("--emax", type=int),
          _arg("--r", type=int, default=0, help="Lattice scaling exponent. (default: %(default)s)"),
          _arg("--derivative", action="store_true"))
def wdens(opts):
    """Weighted density of a rank one form, exact or truncated numeric."""
    from .reps import WeightProfile
    from .whit import w_density_n1, w_density_truncated

    if opts.n != 1:
        raise ValueError("only n=1 carries the summed density")
    numeric = opts.q is not None or opts.emin is not None or opts.emax is not None
    if opts.symbolic == numeric:
        raise ValueError("choose either --symbolic or --q with --emin/--emax")
    if numeric and (opts.q is None or opts.emin is None or opts.emax is None):
        raise ValueError("numeric mode needs --q, --emin and --emax")
    B = _form(opts.b_text)
    request = {"n": opts.n, "h": opts.h, "t": opts.t, "B": opts.b_text.strip(),
               "mode": "numeric" if numeric else "symbolic", "q": opts.q, "emin": opts.emin,
               "emax": opts.emax, "r": opts.r, "derivative": opts.derivative}
    if numeric:
        got = w_density_truncated(B, WeightProfile(1, opts.h, opts.t, opts.r), opts.q,
                                  max(abs(opts.emin), abs(opts.emax)))
        out = {"value": got["value"], "tail_report": got["tail_report"]}
        prime = got["derivative"]
    else:
        value, prime = w_density_n1(B, opts.h, opts.t, opts.r)
        out = {"value": value}
    if opts.derivative:
        out["derivative"] = prime
    _attach_decimal(opts, out, opts.q if numeric else 3)
    return _deliver(opts, request, out)


@_command(_arg("--n", type=int, required=True),
          _arg("--h", type=int, required=True),
          _arg("--closed", action="store_true",
               help="Compare the top constant against its closed form (h = n-1)."),
          _arg("--verify", dest="check", action="store_true",
               help="Check the derivative correction identity on --B."),
          _arg("--B", dest="b_text", metavar="FORM"),
          _arg("--q", type=int, help="Also evaluate both identity sides at this prime."))
def beta(opts):
    """Correction constants from the exact linear system."""
    from .beta import beta_closed_last, solve_constants, verify_thm314

    if opts.closed and opts.h != opts.n - 1:
        raise ValueError("--closed applies to the h = n-1 system")
    if opts.check and (opts.n != 1 or opts.b_text is None):
        raise ValueError("--verify needs n=1 and a --B form")
    request = {"n": opts.n, "h": opts.h, "closed": opts.closed, "verify": opts.check,
               "B": opts.b_text, "q": opts.q}
    sol = solve_constants(opts.n, opts.h)
    out = {"beta_h": list(sol.beta_h), "beta_dual": list(sol.beta_dual), "delta": sol.delta}
    if opts.closed:
        cf = beta_closed_last(opts.n)
        out["closed_last"] = cf
        out["closed_matches"] = sol.beta_h[opts.n - 1] == cf
    if opts.check:
        res = verify_thm314(_form(opts.b_text), opts.h)
        block = {"lhs": res["lhs"], "rhs": res["rhs"], "match": res["match"]}
        if opts.q is not None:
            block["lhs_at_q"] = res["lhs"].evaluate(opts.q)
            block["rhs_at_q"] = res["rhs"].evaluate(opts.q)
        out["identity"] = block
    return _deliver(opts, request, out)


@_command(_arg("--xi", required=True, metavar="E1,E2,..",
               help="Ambient diagonal exponents, sorted decreasing."),
          _arg("--lam", required=True, metavar="E1,E2,..",
               help="Target diagonal exponents, sorted decreasing."),
          _arg("--prime", dest="with_prime", action="store_true"),
          _arg("--pad", type=int, default=0,
               help="Even number of unimodular slots appended to the ambient form. "
                    "(default: %(default)s)"),
          _arg("--brute", action="store_true", help="Corroborate by direct counting."),
          _arg("--q", type=int, default=3, help="(default: %(default)s)"),
          _arg("--d", type=int, default=2, help="(default: %(default)s)"))
def alpha(opts):
    """Classical density of one diagonal form in another."""
    from .cdens import alpha_brute, alpha_prime, alpha_value, hironaka_coeffs

    if opts.pad % 2 or opts.pad < 0:
        raise ValueError("--pad must be an even nonnegative count")
    xi_t, lam_t = _ints(opts.xi), _ints(opts.lam)
    # the count is the density only once d exceeds every target exponent
    if opts.brute and any(opts.d <= l for l in lam_t):
        raise ValueError(f"--brute needs --d above every --lam exponent, got d={opts.d}")
    request = {"xi": list(xi_t), "lam": list(lam_t), "prime": opts.with_prime,
               "pad": opts.pad, "brute": opts.brute,
               "q": opts.q if opts.brute else None, "d": opts.d if opts.brute else None}
    coeffs = hironaka_coeffs(xi_t, lam_t)
    value = alpha_value(coeffs, r=opts.pad // 2)
    out = {"coefficients": list(coeffs), "value": value}
    if opts.with_prime:
        out["prime"] = alpha_prime(coeffs)
    _attach_decimal(opts, out, 3)
    if opts.brute:
        counted = alpha_brute(xi_t, lam_t, opts.q, opts.d, pad=opts.pad)
        out["brute"] = {"p": opts.q, "d": opts.d, "value": counted,
                        "matches": counted == value.evaluate(opts.q)}
    return _deliver(opts, request, out)


@_command(_arg("--t", type=int, required=True),
          _arg("--B", dest="b_text", required=True, metavar="FORM"))
def jfun(opts):
    """Normalized derivative functional of a rank one form."""
    from .cdens import jfun_n1

    B = _form(opts.b_text)
    request = {"t": opts.t, "B": opts.b_text.strip()}
    out = {"value": jfun_n1(opts.t, B)}
    _attach_decimal(opts, out, 3)
    return _deliver(opts, request, out)


@_command(_arg("--n", type=int, required=True),
          _arg("--B1", dest="b1", required=True, metavar="E1,..,E(N+1)",
               help="Diagonal exponents of the top block, nonnegative."))
def appendix(opts):
    """Bottom-rank compatibility identity on split forms."""
    from .cdens import appendix_compat

    exps = _ints(opts.b1)
    request = {"n": opts.n, "B1": list(exps)}
    return _deliver(opts, request, appendix_compat(opts.n, exps))


@_command(_arg("--q", type=int, required=True),
          _arg("--mx", type=int, required=True),
          _arg("--my", type=int, required=True),
          _arg("--d", type=int, required=True),
          _arg("--vdet", type=int, help="Determinant valuation; inferred in the overlapping case."),
          _arg("--per-f", dest="per_f", action="store_true",
               help="Split the vertical pairing by bucket."))
def tree(opts):
    """Intersection number of the two-ball configuration."""
    from .tree import TreeInstance, fk_buckets, intersect_zy

    shape = (opts.q, opts.mx, opts.my, opts.d)
    request = {"q": opts.q, "mx": opts.mx, "my": opts.my, "d": opts.d, "vdet": opts.vdet,
               "per_f": opts.per_f}
    inst = TreeInstance(*shape) if opts.vdet is None else TreeInstance(*shape, opts.vdet)
    res = intersect_zy(inst)
    out = {"case": res["case"], "r": inst.r, "vdet": inst.vdet, "intersection": res["total"]}
    for extra in ("vertical", "horizontal", "diff_sum"):
        if extra in res:
            out[extra] = res[extra]
    if opts.per_f:
        out["f_components"] = {str(k): v for k, v in sorted(fk_buckets(inst).items())}
    return _deliver(opts, request, out)


@_command(_arg("--suite", required=True, metavar="NAME"),
          _arg("--q", type=int, default=3, help="(default: %(default)s)"))
def verify(opts):
    """Run an identity suite and report each check."""
    from .verify import run_suite

    report = run_suite(opts.suite, q=opts.q)
    if opts.json:
        _emit(opts, to_doc(report))
    else:
        for c in report["checks"]:
            line = f"[{c['status']:4s}] {c['anchor']:32s} {c['id']} ({c['elapsed']:.3f}s)"
            if c["status"] != "pass":
                line += f"\n       lhs={c['lhs']}\n       rhs={c['rhs']}"
            print(line)
        print(f"suite {report['suite']}: {report['passed']} passed, "
              f"{report['failed']} failed ({report['elapsed']:.2f}s)")
    return 1 if report["failed"] else 0


# ---------------------------------------------------------------------------
# entry point


def _parser(prog: str | None) -> argparse.ArgumentParser:
    # allow_abbrev=False everywhere: an option prefix such as --sym is an error
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Exact densities, correction constants and tree intersections.")
    parser.add_argument("--json", action="store_true", help="Compact single-line JSON output.")
    parser.add_argument("--decimal", type=int, default=0, metavar="K",
                        help=f"Attach decimals rounded to K <= {_MAX_DIGITS} significant "
                             "digits (display only).")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND",
                                     required=True)
    for fn, args in _COMMANDS:
        sub = commands.add_parser(fn.__name__, help=fn.__doc__, description=fn.__doc__,
                                  allow_abbrev=False)
        for flags, kw in args:
            sub.add_argument(*flags, **kw)
        sub.set_defaults(run=fn)
    return parser


def main(args=None, prog_name=None):
    """Parse the command line, run the command and exit with its code.

    Global options go before the command name.  A usage error exits 2.
    """
    parser = _parser(prog_name)
    opts = parser.parse_args(args)
    if not 0 <= opts.decimal <= _MAX_DIGITS:
        parser.error(f"--decimal takes K from 0 to {_MAX_DIGITS}")
    sys.exit(_guard(lambda: opts.run(opts)))


if __name__ == "__main__":
    main(prog_name="python -m hermdens.cli")
