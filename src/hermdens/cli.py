"""Command line front end.

Every compute command prints one JSON document with sorted keys, so byte
output is deterministic for a given request.  Exact values are rendered
as numerator/denominator coefficient tables plus a readable string; any
decimal field is display-only and says so.

Exit codes: 0 success, 1 internal failure or failed verification checks,
2 invalid request, 3 safety budget exceeded.
"""

from __future__ import annotations

import json
from fractions import Fraction

import click

from . import __version__
from .errors import BudgetError
from .reps import MonomialHermitian, WeightProfile, parse_monomial
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


def _attach_decimal(ctx, out: dict, at_q: int) -> None:
    """With --decimal K, add K-digit display strings of the exact value (and derivative) at q."""
    places = ctx.obj["decimal"]
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


def _emit(ctx, doc: dict):
    compact = ctx.obj["json"]
    if compact:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(doc, sort_keys=True, indent=2)
    click.echo(text)


def _deliver(ctx, request: dict, build):
    """Result path shared by the compute commands: echo the request, then build."""
    doc = {"request": request}
    doc.update(build())
    _emit(ctx, to_doc(doc))


def _ints(text: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise click.UsageError(f"expected comma separated integers, got {text!r}")


def _form(text: str) -> MonomialHermitian:
    try:
        return parse_monomial(text)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _guard(ctx, fn):
    """Map library errors onto the documented exit codes."""
    try:
        return fn()
    except (click.ClickException, click.exceptions.Exit):
        raise
    except BudgetError as exc:
        click.echo(f"budget: {exc}", err=True)
        ctx.exit(3)
    except ValueError as exc:
        click.echo(f"invalid request: {exc}", err=True)
        ctx.exit(2)
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {exc}", err=True)
        ctx.exit(1)


# ---------------------------------------------------------------------------
# command group

@click.group()
@click.option("--json", "compact", is_flag=True,
              help="Compact single-line JSON output.")
@click.option("--decimal", type=int, default=0, metavar="K",
              help="Attach K significant digit decimals (display only).")
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, compact, decimal):
    """Exact densities, correction constants and tree intersections."""
    if decimal < 0:
        raise click.UsageError("--decimal must be nonnegative")
    ctx.obj = {"json": compact, "decimal": decimal}


@main.command()
@click.option("--kind", type=click.Choice(["norm", "trace_pair", "trace_j1"]),
              required=True)
@click.option("--region", "regions", multiple=True,
              type=click.Choice(sorted(_REGION_NAMES)),
              help="One region for norm, two for trace_pair, none for trace_j1.")
@click.option("--e", "e", type=int, required=True)
@click.option("--oracle", is_flag=True, help="Cross-check by direct character sums.")
@click.option("--p", type=int, default=3, show_default=True)
@click.option("--depth", type=int, default=None)
@click.pass_context
def integral(ctx, kind, regions, e, oracle, p, depth):
    """Entry integrals over one or two coordinate regions."""
    from .locint import charsum_oracle, norm_integral, trace_integral_J1, trace_pair_integral

    regs = tuple(_REGION_NAMES[r] for r in regions)
    want = {"norm": 1, "trace_pair": 2, "trace_j1": 0}[kind]
    if len(regs) != want:
        raise click.UsageError(f"kind {kind} takes exactly {want} --region options")
    if oracle and kind == "trace_j1":
        raise click.UsageError("the indicator integral has no character sum oracle")
    request = {"command": "integral", "kind": kind, "regions": list(regs), "e": e,
               "oracle": bool(oracle), "p": p if oracle else None,
               "depth": depth if oracle else None,
               "decimal": ctx.obj["decimal"]}

    def build():
        if kind == "norm":
            value = norm_integral(regs[0], e)
        elif kind == "trace_pair":
            value = trace_pair_integral(regs[0], regs[1], e)
        else:
            value = trace_integral_J1(e)
        out = {"value": value}
        _attach_decimal(ctx, out, 3)
        if oracle:
            d = depth if depth is not None else abs(e) + 2
            got = charsum_oracle(p, kind, regs if kind == "trace_pair" else regs[0], e, d)
            out["oracle"] = {"p": p, "depth": d, "value": got,
                             "matches": got == value.evaluate(p)}
        return out

    _guard(ctx, lambda: _deliver(ctx, request, build))


@main.command()
@click.option("--n", type=int, default=1, show_default=True)
@click.option("--h", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--B", "b_text", required=True, metavar="FORM",
              help="diag:e1,e2 or mono:sigma=[..];e=[..]")
@click.option("--symbolic", is_flag=True)
@click.option("--q", type=int, default=None)
@click.option("--emin", type=int, default=None)
@click.option("--emax", type=int, default=None)
@click.option("--r", type=int, default=0, show_default=True,
              help="Lattice scaling exponent.")
@click.option("--derivative", is_flag=True)
@click.pass_context
def wdens(ctx, n, h, t, b_text, symbolic, q, emin, emax, r, derivative):
    """Weighted density of a rank one form, exact or truncated numeric."""
    from .whit import w_density_n1, w_density_truncated

    if n != 1:
        raise click.UsageError("only n=1 carries the summed density")
    numeric = q is not None or emin is not None or emax is not None
    if symbolic == numeric:
        raise click.UsageError("choose either --symbolic or --q with --emin/--emax")
    if numeric and (q is None or emin is None or emax is None):
        raise click.UsageError("numeric mode needs --q, --emin and --emax")
    B = _form(b_text)
    mode = "symbolic" if symbolic else "numeric"
    request = {"command": "wdens", "n": n, "h": h, "t": t, "B": b_text.strip(),
               "mode": mode, "q": q, "emin": emin, "emax": emax, "r": r,
               "derivative": bool(derivative), "decimal": ctx.obj["decimal"]}

    def build():
        if symbolic:
            value, prime = w_density_n1(B, h, t, r)
            out = {"value": value}
            if derivative:
                out["derivative"] = prime
            _attach_decimal(ctx, out, 3)
            return out
        window = max(abs(emin), abs(emax))
        got = w_density_truncated(B, WeightProfile(1, h, t, r), q, window)
        out = {"value": got["value"], "tail_report": got["tail_report"]}
        if derivative:
            out["derivative"] = got["derivative"]
        _attach_decimal(ctx, out, q)
        return out

    _guard(ctx, lambda: _deliver(ctx, request, build))


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--h", type=int, required=True)
@click.option("--closed", is_flag=True,
              help="Compare the top constant against its closed form (h = n-1).")
@click.option("--verify", "check", is_flag=True,
              help="Check the derivative correction identity on --B.")
@click.option("--B", "b_text", default=None, metavar="FORM")
@click.option("--q", type=int, default=None,
              help="Also evaluate both identity sides at this prime.")
@click.pass_context
def beta(ctx, n, h, closed, check, b_text, q):
    """Correction constants from the exact linear system."""
    from .beta import beta_closed_last, solve_constants, verify_thm314

    if closed and h != n - 1:
        raise click.UsageError("--closed applies to the h = n-1 system")
    if check and (n != 1 or b_text is None):
        raise click.UsageError("--verify needs n=1 and a --B form")
    request = {"command": "beta", "n": n, "h": h, "closed": bool(closed),
               "verify": bool(check), "B": b_text, "q": q,
               "decimal": ctx.obj["decimal"]}

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

    _guard(ctx, lambda: _deliver(ctx, request, build))


@main.command()
@click.option("--xi", required=True, metavar="E1,E2,..",
              help="Ambient diagonal exponents, sorted decreasing.")
@click.option("--lam", required=True, metavar="E1,E2,..",
              help="Target diagonal exponents, sorted decreasing.")
@click.option("--prime", "with_prime", is_flag=True)
@click.option("--pad", type=int, default=0, show_default=True,
              help="Even number of unimodular slots appended to the ambient form.")
@click.option("--brute", is_flag=True, help="Corroborate by direct counting.")
@click.option("--q", type=int, default=3, show_default=True)
@click.option("--d", type=int, default=2, show_default=True)
@click.pass_context
def alpha(ctx, xi, lam, with_prime, pad, brute, q, d):
    """Classical density of one diagonal form in another."""
    from .cdens import alpha_brute, alpha_prime, alpha_value, hironaka_coeffs

    if pad % 2 or pad < 0:
        raise click.UsageError("--pad must be an even nonnegative count")
    xi_t, lam_t = _ints(xi), _ints(lam)
    request = {"command": "alpha", "xi": list(xi_t), "lam": list(lam_t),
               "prime": bool(with_prime), "pad": pad, "brute": bool(brute),
               "q": q if brute else None, "d": d if brute else None,
               "decimal": ctx.obj["decimal"]}

    def build():
        coeffs = hironaka_coeffs(xi_t, lam_t)
        value = alpha_value(coeffs, r=pad // 2)
        out = {"coefficients": list(coeffs), "value": value}
        if with_prime:
            out["prime"] = alpha_prime(coeffs)
        _attach_decimal(ctx, out, 3)
        if brute:
            counted = alpha_brute(xi_t, lam_t, q, d, pad=pad)
            out["brute"] = {"p": q, "d": d, "value": counted,
                            "matches": counted == value.evaluate(q)}
        return out

    _guard(ctx, lambda: _deliver(ctx, request, build))


@main.command()
@click.option("--t", type=int, required=True)
@click.option("--B", "b_text", required=True, metavar="FORM")
@click.pass_context
def jfun(ctx, t, b_text):
    """Normalized derivative functional of a rank one form."""
    from .cdens import jfun_n1

    B = _form(b_text)
    request = {"command": "jfun", "t": t, "B": b_text.strip(),
               "decimal": ctx.obj["decimal"]}

    def build():
        value = jfun_n1(t, B)
        out = {"value": value}
        _attach_decimal(ctx, out, 3)
        return out

    _guard(ctx, lambda: _deliver(ctx, request, build))


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--B1", "b1", required=True, metavar="E1,..,E(N+1)",
              help="Diagonal exponents of the top block, nonnegative.")
@click.pass_context
def appendix(ctx, n, b1):
    """Bottom-rank compatibility identity on split forms."""
    from .cdens import appendix_compat

    exps = _ints(b1)
    request = {"command": "appendix", "n": n, "B1": list(exps),
               "decimal": ctx.obj["decimal"]}

    def build():
        return appendix_compat(n, exps)

    _guard(ctx, lambda: _deliver(ctx, request, build))


@main.command()
@click.option("--q", type=int, required=True)
@click.option("--mx", type=int, required=True)
@click.option("--my", type=int, required=True)
@click.option("--d", type=int, required=True)
@click.option("--vdet", type=int, default=None,
              help="Determinant valuation; inferred in the overlapping case.")
@click.option("--per-f", "per_f", is_flag=True,
              help="Split the vertical pairing by bucket.")
@click.pass_context
def tree(ctx, q, mx, my, d, vdet, per_f):
    """Intersection number of the two-ball configuration."""
    from .tree import TreeInstance, fk_buckets, intersect_zy

    request = {"command": "tree", "q": q, "mx": mx, "my": my, "d": d,
               "vdet": vdet, "per_f": bool(per_f), "decimal": ctx.obj["decimal"]}

    def build():
        inst = TreeInstance(q, mx, my, d) if vdet is None \
            else TreeInstance(q, mx, my, d, vdet=vdet)
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

    _guard(ctx, lambda: _deliver(ctx, request, build))


@main.command()
@click.option("--suite", required=True, metavar="NAME")
@click.option("--q", type=int, default=3, show_default=True)
@click.pass_context
def verify(ctx, suite, q):
    """Run an identity suite and report each check."""
    from .verify import run_suite

    def run():
        report = run_suite(suite, q=q)
        if ctx.obj["json"]:
            _emit(ctx, to_doc(report))
        else:
            for c in report["checks"]:
                line = f"[{c['status']:4s}] {c['anchor']:32s} {c['id']} ({c['elapsed']:.3f}s)"
                if c["status"] != "pass":
                    line += f"\n       lhs={c['lhs']}\n       rhs={c['rhs']}"
                click.echo(line)
            click.echo(f"suite {report['suite']}: {report['passed']} passed, "
                       f"{report['failed']} failed ({report['elapsed']:.2f}s)")
        if report["failed"]:
            ctx.exit(1)

    _guard(ctx, run)


if __name__ == "__main__":
    main()
