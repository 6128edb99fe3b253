"""Command-line interface.

Subcommands wrap every library operation: ``quantize``, ``symbol-map``,
``affine-quantize``, ``lie`` (density|symbol|operator), ``div``
(vfield|symbol), ``gamma``, ``casimir``, ``alpha``, ``coeff``, ``critical``,
``realize``, and ``check`` (equivariance|casimir|homomorphism|relcas).

Global flags: ``--p --q --lambda --delta --t --variant {sl,psl} --seed
--format {text,json} --out FILE``.  ``--variant`` may only name the
signature's own variant (``psl`` exactly when q = p+1); any other exits 2
on every subcommand.  Expressions use the surface grammar of the expr
module.  Scalar results encode as ``{"kind": "rational", "value"}``
and lists as ``{"kind": "rationals", "values"}``; domain values use the
``{signature, weights, kind, terms}`` schema; check reports use their own
schema with a ``failures`` list.

Exit codes: 0 success/pass, 1 usage or expression error, 2 violated
mathematical precondition (e.g. a critical weight) or a size over its cap,
3 check failures.

``critical`` lists 2 kmax - 1 weights, so ``--kmax`` is capped at
``CRITICAL_KMAX`` (10,000): above it the command prints nothing and exits 2
with a domain error instead of running without bound.  ``check
homomorphism`` compares every pair of basis brackets, work that grows like
(p+q)^6, so p + q is capped at ``HOMOMORPHISM_NMAX`` (8) in the same way.
``quantize`` and ``symbol-map`` take one divergence pass per degree of the
symbol or order of the operator they parse, so that degree is capped at
``DEGREE_MAX`` (64) in the same way, before any of the series is computed.
``lie operator`` builds one term of the field's slot series per slot key
at or below both the field's powers and a slot key of the operator, so the
field's coordinate degree is capped at ``DEGREE_MAX`` in the same way,
before the derivative is computed.
``check`` runs its identities for every sample at every degree up to its
bound, so ``--samples`` is capped at ``CHECK_SAMPLES_MAX`` (100) and
``--kmax`` and ``--degree-max`` at ``CHECK_DEGREE_MAX`` (8) in the same way;
``check equivariance``, ``casimir`` and ``relcas``, whose generators, dual
pairs and frame monomials grow with p + q, cap it at ``CHECK_NMAX`` (5).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import CriticalValueError, DomainError, ExprError
from .expr import format_value, parse, value_to_json
from .geometry import (
    SymbolField,
    _coordinate_degree,
    _slot_degrees,
    lie_density,
    lie_operator,
    lie_symbol,
    symbol_divergence,
)
from .geometry import affine_quantize as _affine_quantize
from .projective import (
    _is_psl,
    affine_defect,
    basis_e,
    basis_eps,
    casimir_apply,
    casimir_eigenvalue,
    critical_values,
    euler_element,
    g0_element,
    normalize_algebra,
    psl_casimir_eigenvalue,
    psl_quantization_coefficient,
    quantization_coefficient,
    realize,
)
from .quantizer import QuantizationConfig, quantize, symbol_map
from .supercore import Signature
from .verifier import (
    DEFAULT_SAMPLES,
    check_casimir,
    check_equivariance,
    check_homomorphism,
    check_relcas,
)

# the largest --kmax of ``critical``; its output and memory grow linearly
CRITICAL_KMAX = 10_000
# the largest p + q of ``check homomorphism``; its work grows like (p+q)^6
HOMOMORPHISM_NMAX = 8
# the largest symbol degree of ``quantize`` and operator order of
# ``symbol-map``; the divergence series takes one pass per degree
DEGREE_MAX = 64
# the largest --samples of ``check``; the identities run grow linearly with it
CHECK_SAMPLES_MAX = 100
# the largest --kmax and --degree-max of ``check``: one cell per degree, each
# over symbols whose frame monomials grow with the degree
CHECK_DEGREE_MAX = 8
# the largest p + q of ``check equivariance``, ``casimir`` and ``relcas``:
# the generators, the dual pairs and the frame monomials grow with it
CHECK_NMAX = 5
_CHECK_CAPS = (("samples", CHECK_SAMPLES_MAX), ("kmax", CHECK_DEGREE_MAX),
               ("degree_max", CHECK_DEGREE_MAX))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _get_values(self, action, arg_strings):
        # the value of ``--symbol=--`` is the text "--"; argparse in
        # Python 3.11 drops it as if it ended the options
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, help="number of even coordinates")
    common.add_argument("--q", type=int, help="number of odd coordinates")
    common.add_argument(
        "--lambda", dest="lam", type=_fraction, default=Fraction(0),
        help="source density weight (exact rational)",
    )
    common.add_argument(
        "--delta", type=_fraction, default=Fraction(0),
        help="weight shift carried by symbols (exact rational)",
    )
    common.add_argument(
        "--t", type=_fraction, default=Fraction(0),
        help="family parameter for the q = p+1 variant",
    )
    common.add_argument(
        "--variant", choices=("psl", "sl"),
        help="algebra variant: only the signature's own, which is the default",
    )
    common.add_argument("--seed", type=int, default=0, help="sample seed")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt",
        help="output format",
    )
    common.add_argument("--out", help="write output to FILE instead of stdout")

    parser = _Parser(prog="superquant", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantize", parents=[common],
                       help="equivariant quantization of a symbol")
    p.add_argument("--symbol", required=True, help="symbol expression")

    p = sub.add_parser("symbol-map", parents=[common],
                       help="total symbol of an operator (inverse quantization)")
    p.add_argument("--operator", required=True, help="operator expression")

    p = sub.add_parser("affine-quantize", parents=[common],
                       help="coefficient-wise quantization of a symbol")
    p.add_argument("--symbol", required=True, help="symbol expression")

    p = sub.add_parser("lie", parents=[common],
                       help="Lie actions on densities, symbols, and operators")
    p.add_argument("mode", choices=("density", "symbol", "operator"))
    p.add_argument("--field", required=True, help="vector field expression")
    p.add_argument("--function", help="density expression (mode density)")
    p.add_argument("--symbol", help="symbol expression (mode symbol)")
    p.add_argument("--operator", help="operator expression (mode operator)")

    p = sub.add_parser("div", parents=[common],
                       help="divergence of a vector field or symbol")
    p.add_argument("mode", choices=("vfield", "symbol"))
    p.add_argument("--field", help="vector field expression (mode vfield)")
    p.add_argument("--symbol", help="symbol expression (mode symbol)")

    p = sub.add_parser("gamma", parents=[common],
                       help="obstruction of the coefficient-wise map under a "
                            "quadratic generator")
    p.add_argument("--index", type=int, required=True,
                   help="quadratic direction index (1-based)")
    p.add_argument("--symbol", required=True, help="symbol expression")

    p = sub.add_parser("casimir", parents=[common],
                       help="apply the Casimir operator to a symbol")
    p.add_argument("--symbol", required=True, help="symbol expression")
    p.add_argument("--rep", choices=("L", "affine"), default="L",
                   help="representation: symbol action or quantized action")

    p = sub.add_parser("alpha", parents=[common],
                       help="Casimir eigenvalue on a symbol degree")
    p.add_argument("--k", type=int, required=True, help="symbol degree")

    p = sub.add_parser("coeff", parents=[common],
                       help="quantization coefficient C(k, r)")
    p.add_argument("--k", type=int, required=True, help="symbol degree")
    p.add_argument("--r", type=int, required=True, help="divergence order")

    p = sub.add_parser("critical", parents=[common],
                       help="critical weight shifts up to a degree")
    p.add_argument("--kmax", type=int, required=True, help="largest degree")

    p = sub.add_parser("realize", parents=[common],
                       help="realize a graded basis element as a vector field")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--e", type=int, metavar="R",
                       help="constant direction index (1-based)")
    group.add_argument("--eps", type=int, metavar="R",
                       help="quadratic direction index (1-based)")
    group.add_argument("--g0", type=int, nargs=2, metavar=("I", "J"),
                       help="elementary linear part sending direction J to I")
    group.add_argument("--euler", action="store_true",
                       help="the grading (Euler) element")

    p = sub.add_parser("check", parents=[common],
                       help="run a certification suite")
    p.add_argument("mode",
                   choices=("equivariance", "casimir", "homomorphism", "relcas"))
    p.add_argument("--degree-max", type=int,
                   help="largest symbol degree (equivariance; default 2)")
    p.add_argument("--kmax", type=int,
                   help="largest symbol degree (casimir, relcas; default 2)")
    p.add_argument("--samples", type=int,
                   help=f"samples per cell (equivariance, casimir, relcas; "
                        f"default {DEFAULT_SAMPLES})")

    return parser


# size flags of each check mode, with their defaults; a mode rejects the rest
_CHECK_SIZES = {
    "equivariance": {"samples": DEFAULT_SAMPLES, "degree_max": 2},
    "casimir": {"samples": DEFAULT_SAMPLES, "kmax": 2},
    "relcas": {"samples": DEFAULT_SAMPLES, "kmax": 2},
    "homomorphism": {},
}


def _check_sizes(args) -> None:
    """Fill in the defaults of the size flags a check mode reads; a size
    flag it would ignore is a usage error."""
    used = _CHECK_SIZES[args.mode]
    for name in ("samples", "kmax", "degree_max"):
        value = getattr(args, name)
        if name not in used:
            if value is not None:
                flag = "--" + name.replace("_", "-")
                raise _UsageError(f"{flag} is not used by check {args.mode}")
        elif value is None:
            setattr(args, name, used[name])


def _signature(args) -> Signature:
    """The signature of --p and --q; a --variant that is not its own is a
    domain error."""
    if args.p is None or args.q is None:
        raise _UsageError("--p and --q are required for this command")
    try:
        sig = Signature(args.p, args.q)
    except ValueError as exc:
        raise _UsageError(str(exc))
    normalize_algebra(sig, args.variant)
    return sig


def _config(args, sig) -> QuantizationConfig:
    return QuantizationConfig(sig, args.lam, args.delta, t=args.t)


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise _UsageError(f"--{name} is required for this mode")
    return value


def _single_degree_symbol(args, sig, text: str, command: str) -> SymbolField:
    s = parse("symbol", text, sig, weight=args.delta)
    if not isinstance(s, SymbolField):
        raise _UsageError(f"{command} expects a single-degree symbol")
    return s


def _capped(value, what: str):
    """``value``, a symbol or an operator, unless its degree in the slot
    atoms exceeds ``DEGREE_MAX``; one pass over its terms."""
    top = max(_slot_degrees(value.signature, value._poly), default=0)
    if top > DEGREE_MAX:
        raise DomainError(f"{what} {top} exceeds the cap {DEGREE_MAX}")
    return value


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            message = exc.strerror or exc
            raise _UsageError(f"cannot write {args.out}: {message}") from None
    else:
        print(text)


def _emit_value(args, value) -> int:
    if args.fmt == "json":
        _emit(args, json.dumps(value_to_json(value), indent=2))
    else:
        _emit(args, format_value(value))
    return 0


def _emit_rational(args, value: Fraction) -> int:
    if args.fmt == "json":
        _emit(args, json.dumps({"kind": "rational", "value": str(value)}, indent=2))
    else:
        _emit(args, str(value))
    return 0


def _emit_report(args, report) -> int:
    if args.fmt == "json":
        _emit(args, json.dumps(report.to_json(), indent=2))
    else:
        _emit(args, report.summary_text())
    return 0 if report.passed else 3


def _dispatch(args) -> int:
    if args.command == "check":
        _check_sizes(args)
    # zero samples or a negative degree bound would run no identity at all
    for name, low in (("samples", 1), ("kmax", 0), ("degree-max", 0)):
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None and value < low:
            raise _UsageError(f"--{name} must be at least {low}, got {value}")
    sig = _signature(args)
    cmd = args.command
    if cmd == "quantize":
        cfg = _config(args, sig)
        s = parse("symbol", args.symbol, sig, weight=args.delta)
        return _emit_value(args, quantize(_capped(s, "symbol degree"), cfg))
    if cmd == "symbol-map":
        cfg = _config(args, sig)
        d = parse("operator", args.operator, sig, lam=cfg.lam, mu=cfg.mu)
        return _emit_value(args, symbol_map(_capped(d, "operator order"), cfg))
    if cmd == "affine-quantize":
        s = parse("symbol", args.symbol, sig, weight=args.delta)
        return _emit_value(args, _affine_quantize(s, args.lam))
    if cmd == "lie":
        x = parse("vfield", args.field, sig)
        if args.mode == "density":
            f = parse("poly", _require(args, "function"), sig)
            return _emit_value(args, lie_density(x, args.lam, f))
        if args.mode == "symbol":
            s = _single_degree_symbol(args, sig, _require(args, "symbol"), "lie symbol")
            return _emit_value(args, lie_symbol(x, s))
        d = parse("operator", _require(args, "operator"), sig,
                  lam=args.lam, mu=args.lam + args.delta)
        top = _coordinate_degree(sig, x._poly)
        if top > DEGREE_MAX:
            raise DomainError(f"field coordinate degree {top} exceeds the cap {DEGREE_MAX}")
        return _emit_value(args, lie_operator(x, d))
    if cmd == "div":
        if args.mode == "vfield":
            x = parse("vfield", _require(args, "field"), sig)
            return _emit_value(args, x.divergence())
        s = _single_degree_symbol(args, sig, _require(args, "symbol"), "div symbol")
        return _emit_value(args, symbol_divergence(s))
    if cmd == "gamma":
        if not 1 <= args.index <= sig.n:
            raise _UsageError(f"--index must be in 1..{sig.n}")
        h = basis_eps(sig)[args.index - 1]
        s = _single_degree_symbol(args, sig, args.symbol, "gamma")
        return _emit_value(args, affine_defect(h, s, args.lam))
    if cmd == "casimir":
        s = _single_degree_symbol(args, sig, args.symbol, "casimir")
        return _emit_value(args, casimir_apply(s, args.lam, rep=args.rep))
    if cmd == "alpha":
        if _is_psl(sig):
            return _emit_rational(args, psl_casimir_eigenvalue(args.k))
        return _emit_rational(args, casimir_eigenvalue(args.k, args.delta, sig))
    if cmd == "coeff":
        if _is_psl(sig):
            return _emit_rational(args, psl_quantization_coefficient(args.k, args.r))
        return _emit_rational(
            args, quantization_coefficient(args.k, args.r, args.lam, args.delta, sig)
        )
    if cmd == "critical":
        if args.kmax > CRITICAL_KMAX:
            raise DomainError(f"--kmax {args.kmax} exceeds the cap {CRITICAL_KMAX}")
        values = sorted(critical_values(sig, args.kmax))
        if args.fmt == "json":
            _emit(args, json.dumps(
                {"kind": "rationals", "values": [str(v) for v in values]}, indent=2))
        else:
            _emit(args, ", ".join(str(v) for v in values) if values else "(none)")
        return 0
    if cmd == "realize":
        if args.e is not None:
            if not 1 <= args.e <= sig.n:
                raise _UsageError(f"--e must be in 1..{sig.n}")
            h = basis_e(sig)[args.e - 1]
        elif args.eps is not None:
            if not 1 <= args.eps <= sig.n:
                raise _UsageError(f"--eps must be in 1..{sig.n}")
            h = basis_eps(sig)[args.eps - 1]
        elif args.g0 is not None:
            i, j = args.g0
            if not (1 <= i <= sig.n and 1 <= j <= sig.n):
                raise _UsageError(f"--g0 indices must be in 1..{sig.n}")
            block = [[1 if (r, c) == (i - 1, j - 1) else 0
                      for c in range(sig.n)] for r in range(sig.n)]
            h = g0_element(sig, block)
        else:
            h = euler_element(sig)
        return _emit_value(args, realize(h))
    # check
    for name, cap in _CHECK_CAPS:
        value = getattr(args, name)
        if value is not None and value > cap:
            flag = "--" + name.replace("_", "-")
            raise DomainError(f"{flag} {value} exceeds the cap {cap}")
    nmax = HOMOMORPHISM_NMAX if args.mode == "homomorphism" else CHECK_NMAX
    if sig.n > nmax:
        raise DomainError(f"check {args.mode} at p + q = {sig.n} exceeds the cap {nmax}")
    if args.mode == "equivariance":
        cfg = _config(args, sig)
        report = check_equivariance(
            cfg, degree_max=args.degree_max, sample_count=args.samples,
            seed=args.seed,
        )
    elif args.mode == "casimir":
        report = check_casimir(
            sig, lam=args.lam, delta=args.delta,
            k_max=args.kmax, sample_count=args.samples, seed=args.seed,
        )
    elif args.mode == "homomorphism":
        report = check_homomorphism(sig)
    else:
        report = check_relcas(
            sig, lam=args.lam, delta=args.delta, k_max=args.kmax,
            sample_count=args.samples, seed=args.seed,
        )
    return _emit_report(args, report)


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExprError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 1
    except (CriticalValueError, DomainError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
