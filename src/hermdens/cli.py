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
from .symb import SignedLaurent, SignedRational

_REGION_NAMES = {"O": "O", "unit": "O_unit", "O_unit": "O_unit",
                 "pi": "piO", "piO": "piO"}


# ---------------------------------------------------------------------------
# rendering

def to_doc(x):
    """Recursively convert result values into JSON-ready structures."""
    if isinstance(x, SignedRational):
        d = x.to_json()
        d["str"] = str(x)
        return d
    if isinstance(x, SignedLaurent):
        return {"num": x.to_json(), "den": {"0": "1"}, "str": str(x)}
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool) or isinstance(x, int) or isinstance(x, float):
        return x
    if isinstance(x, str):
        return x
    if isinstance(x, dict):
        return {str(k): to_doc(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_doc(v) for v in x]
    if x is None:
        return None
    raise TypeError(f"cannot render {type(x).__name__}")


def _attach_decimal(opts, out: dict, at_q: int) -> None:
    """With --decimal K, add K-digit display strings of the exact value (and derivative) at q."""
    places = opts.decimal
    if not places:
        return
    block = {"at_q": at_q, "note": "display only, exact fields are authoritative"}
    for name in ("value", "derivative"):
        if name in out:
            x = out[name]
            if isinstance(x, (SignedLaurent, SignedRational)):
                x = x.evaluate(at_q)
            block[name] = format(float(x), f".{places}g")
    out["decimal"] = block


def _emit(opts, doc: dict):
    if opts.json:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)


def _deliver(opts, request: dict, build) -> int:
    """Result path shared by the compute commands: echo the request, then build."""
    doc = {"request": request}
    doc.update(build())
    _emit(opts, to_doc(doc))
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

    kind, e, oracle, p, depth = opts.kind, opts.e, opts.oracle, opts.p, opts.depth
    regs = tuple(_REGION_NAMES[r] for r in opts.regions or ())
    want = {"norm": 1, "trace_pair": 2, "trace_j1": 0}[kind]
    if len(regs) != want:
        raise ValueError(f"kind {kind} takes exactly {want} --region options")
    if oracle and kind == "trace_j1":
        raise ValueError("the indicator integral has no character sum oracle")
    request = {"command": "integral", "kind": kind, "regions": list(regs), "e": e,
               "oracle": oracle, "p": p if oracle else None,
               "depth": depth if oracle else None, "decimal": opts.decimal}

    def build():
        if kind == "norm":
            value = norm_integral(regs[0], e)
        elif kind == "trace_pair":
            value = trace_pair_integral(regs[0], regs[1], e)
        else:
            value = trace_integral_J1(e)
        out = {"value": value}
        _attach_decimal(opts, out, 3)
        if oracle:
            d = depth if depth is not None else abs(e) + 2
            got = charsum_oracle(p, kind, regs if kind == "trace_pair" else regs[0], e, d)
            out["oracle"] = {"p": p, "depth": d, "value": got,
                             "matches": got == value.evaluate(p)}
        return out

    return _deliver(opts, request, build)


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

    n, h, t, b_text, symbolic = opts.n, opts.h, opts.t, opts.b_text, opts.symbolic
    q, emin, emax, r, derivative = opts.q, opts.emin, opts.emax, opts.r, opts.derivative
    if n != 1:
        raise ValueError("only n=1 carries the summed density")
    numeric = q is not None or emin is not None or emax is not None
    if symbolic == numeric:
        raise ValueError("choose either --symbolic or --q with --emin/--emax")
    if numeric and (q is None or emin is None or emax is None):
        raise ValueError("numeric mode needs --q, --emin and --emax")
    B = _form(b_text)
    mode = "symbolic" if symbolic else "numeric"
    request = {"command": "wdens", "n": n, "h": h, "t": t, "B": b_text.strip(),
               "mode": mode, "q": q, "emin": emin, "emax": emax, "r": r,
               "derivative": derivative, "decimal": opts.decimal}

    def build():
        if symbolic:
            value, prime = w_density_n1(B, h, t, r)
            out = {"value": value}
            if derivative:
                out["derivative"] = prime
            _attach_decimal(opts, out, 3)
            return out
        window = max(abs(emin), abs(emax))
        got = w_density_truncated(B, WeightProfile(1, h, t, r), q, window)
        out = {"value": got["value"], "tail_report": got["tail_report"]}
        if derivative:
            out["derivative"] = got["derivative"]
        _attach_decimal(opts, out, q)
        return out

    return _deliver(opts, request, build)


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

    n, h, closed, check, b_text, q = opts.n, opts.h, opts.closed, opts.check, opts.b_text, opts.q
    if closed and h != n - 1:
        raise ValueError("--closed applies to the h = n-1 system")
    if check and (n != 1 or b_text is None):
        raise ValueError("--verify needs n=1 and a --B form")
    request = {"command": "beta", "n": n, "h": h, "closed": closed,
               "verify": check, "B": b_text, "q": q, "decimal": opts.decimal}

    def build():
        sol = solve_constants(n, h)
        out = {"beta_h": list(sol.beta_h), "beta_dual": list(sol.beta_dual),
               "delta": sol.delta}
        if closed:
            cf = beta_closed_last(n)
            out["closed_last"] = cf
            out["closed_matches"] = sol.beta_h[n - 1] == cf
        if check:
            res = verify_thm314(_form(b_text), h)
            block = {"lhs": res["lhs"], "rhs": res["rhs"], "match": res["match"]}
            if q is not None:
                block["lhs_at_q"] = res["lhs"].evaluate(q)
                block["rhs_at_q"] = res["rhs"].evaluate(q)
            out["identity"] = block
        return out

    return _deliver(opts, request, build)


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

    with_prime, pad, brute, q, d = opts.with_prime, opts.pad, opts.brute, opts.q, opts.d
    if pad % 2 or pad < 0:
        raise ValueError("--pad must be an even nonnegative count")
    xi_t, lam_t = _ints(opts.xi), _ints(opts.lam)
    request = {"command": "alpha", "xi": list(xi_t), "lam": list(lam_t),
               "prime": with_prime, "pad": pad, "brute": brute,
               "q": q if brute else None, "d": d if brute else None,
               "decimal": opts.decimal}

    def build():
        coeffs = hironaka_coeffs(xi_t, lam_t)
        value = alpha_value(coeffs, r=pad // 2)
        out = {"coefficients": list(coeffs), "value": value}
        if with_prime:
            out["prime"] = alpha_prime(coeffs)
        _attach_decimal(opts, out, 3)
        if brute:
            counted = alpha_brute(xi_t, lam_t, q, d, pad=pad)
            out["brute"] = {"p": q, "d": d, "value": counted,
                            "matches": counted == value.evaluate(q)}
        return out

    return _deliver(opts, request, build)


@_command(_arg("--t", type=int, required=True),
          _arg("--B", dest="b_text", required=True, metavar="FORM"))
def jfun(opts):
    """Normalized derivative functional of a rank one form."""
    from .cdens import jfun_n1

    t, b_text = opts.t, opts.b_text
    B = _form(b_text)
    request = {"command": "jfun", "t": t, "B": b_text.strip(), "decimal": opts.decimal}

    def build():
        out = {"value": jfun_n1(t, B)}
        _attach_decimal(opts, out, 3)
        return out

    return _deliver(opts, request, build)


@_command(_arg("--n", type=int, required=True),
          _arg("--B1", dest="b1", required=True, metavar="E1,..,E(N+1)",
               help="Diagonal exponents of the top block, nonnegative."))
def appendix(opts):
    """Bottom-rank compatibility identity on split forms."""
    from .cdens import appendix_compat

    n, exps = opts.n, _ints(opts.b1)
    request = {"command": "appendix", "n": n, "B1": list(exps), "decimal": opts.decimal}
    return _deliver(opts, request, lambda: appendix_compat(n, exps))


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

    q, mx, my, d, vdet, per_f = opts.q, opts.mx, opts.my, opts.d, opts.vdet, opts.per_f
    request = {"command": "tree", "q": q, "mx": mx, "my": my, "d": d,
               "vdet": vdet, "per_f": per_f, "decimal": opts.decimal}

    def build():
        inst = TreeInstance(q, mx, my, d) if vdet is None else TreeInstance(q, mx, my, d, vdet)
        res = intersect_zy(inst)
        out = {"case": res["case"], "r": inst.r, "vdet": inst.vdet,
               "intersection": res["total"]}
        for extra in ("vertical", "horizontal", "diff_sum"):
            if extra in res:
                out[extra] = res[extra]
        if per_f:
            buckets = fk_buckets(inst)
            out["f_components"] = {str(k): v for k, v in sorted(buckets.items())}
        return out

    return _deliver(opts, request, build)


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
                        help="Attach K significant digit decimals (display only).")
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
    if opts.decimal < 0:
        parser.error("--decimal must be nonnegative")
    sys.exit(_guard(lambda: opts.run(opts)))


if __name__ == "__main__":
    main(prog_name="python -m hermdens.cli")
