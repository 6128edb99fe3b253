"""Surface syntax: expression parsing, pretty printing, and JSON encoding.

Grammar (LL(1), shared by all kinds):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '(' expr ')' | INT ['/' INT] | ATOM ['^' INT]

Atoms are rational literals, even coordinates ``x1..xp``, odd coordinates
``t1..tq``, symbol generators ``ex1..exp`` / ``et1..etq``, and derivative
atoms ``dx1..dxp`` / ``dt1..dtq``.  ``^`` applies to even atoms only, with a
positive integer exponent.  Which atom classes are legal depends on the kind
being parsed: plain polynomials use coordinates only, symbols add ``ex/et``,
vector fields and operators add ``dx/dt``.

Semantics are those of a free supercommutative monomial algebra: odd atoms
anticommute pairwise (across classes too) and square to zero, so noncanonical
orderings are absorbed into coefficient signs.  Canonical order within a
monomial is coordinates first (odd indices ascending), then generator or
derivative atoms (odd indices ascending); formatting always emits that order,
and ``parse(format(v))`` returns a value equal to ``v``.

JSON encoding: ``{signature, weights, kind, terms: [{key, coeff}]}`` with one
entry per fully expanded monomial.  Keys are explicit multi-index strings such
as ``x^(2,0);t{1};d x^(1,0);d t{}`` (operators and vector fields) or
``x^(2,0);t{1};e x^(1,0);e t{}`` (symbols); coefficients are exact rational
strings.  Decoding accepts exactly this layout and raises ExprError on any
other document.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ExprError
from .geometry import (
    DiffOperator,
    MixedSymbol,
    SuperVectorField,
    SymbolField,
    _component,
    _doubled,
    _join,
    _slot_degrees,
    _split,
)
from .supercore import Signature, SuperPolynomial, _ops

KIND_POLY = "poly"
KIND_VFIELD = "vfield"
KIND_SYMBOL = "symbol"
KIND_OPERATOR = "operator"

_KINDS = (KIND_POLY, KIND_VFIELD, KIND_SYMBOL, KIND_OPERATOR)

# Atom classes legal per kind; "slot" atoms are ex/et for symbols and
# dx/dt for vector fields and operators.
_SLOT_PREFIX = {
    KIND_POLY: None,
    KIND_VFIELD: "d",
    KIND_SYMBOL: "e",
    KIND_OPERATOR: "d",
}

_NAME_RE = re.compile(r"(ex|et|dx|dt|x|t)([1-9][0-9]*)")
# ASCII only: str.isdigit also accepts digits such as "³" that int() rejects
_DIGITS = frozenset("0123456789")


# ---------------------------------------------------------------------------
# Lexer


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's digit limit
        raise ExprError("integer literal too long", pos) from None


def _lex(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("INT", _int(text[i:j], i), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum()):
                j += 1
            name = text[i:j]
            m = _NAME_RE.fullmatch(name)
            if not m:
                raise ExprError(f"unknown atom {name!r}", i)
            tokens.append(_Token("ATOM", (m.group(1), _int(m.group(2), i)), i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", None, n))
    return tokens


# ---------------------------------------------------------------------------
# Parser / evaluator
#
# Intermediate values are term maps over the doubled signature (2p|2q), the
# layout of ``geometry``: the first p exponents are the coordinates', the
# last p the slot atoms', and the odd mask packs coordinate odds in bits
# 0..q-1 and slot odds in bits q..2q-1, so that the canonical ascending bit
# order is exactly the canonical printed order and the kernel's product
# carries the merge signs.


class _Parser:
    def __init__(self, tokens, kind, signature):
        self.tokens = tokens
        self.i = 0
        self.kind = kind
        self.sig = signature
        self._zero = (0,) * (2 * signature.p)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ExprError(f"expected {kind!r}, found {tok.kind!r}", tok.pos)
        return tok

    def _scalar(self, c: Fraction) -> dict:
        return {(self._zero, 0): c} if c else {}

    def parse(self) -> dict:
        value = self.parse_expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprError(f"unexpected trailing {tok.kind!r}", tok.pos)
        return value

    def parse_expr(self) -> dict:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        total: dict = {}
        _ops.add_into(total, self.parse_term(), sign)
        while self.peek().kind in ("+", "-"):
            op = self.next()
            sign = 1 if op.kind == "+" else -1
            _ops.add_into(total, self.parse_term(), sign)
        return total

    def parse_term(self) -> dict:
        value = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            value = _ops.mul_terms(value, self.parse_factor())
        return value

    def parse_factor(self) -> dict:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            value = self.parse_expr()
            self.expect(")")
            return value
        if tok.kind == "INT":
            self.next()
            num = tok.value
            if self.peek().kind == "/":
                self.next()
                den_tok = self.expect("INT")
                if den_tok.value == 0:
                    raise ExprError("zero denominator", den_tok.pos)
                return self._scalar(Fraction(num, den_tok.value))
            return self._scalar(Fraction(num))
        if tok.kind == "ATOM":
            self.next()
            value = self._atom(tok)
            if self.peek().kind == "^":
                cls, _ = tok.value
                if cls not in ("x", "ex", "dx"):
                    caret = self.peek()
                    raise ExprError("'^' applies to even atoms only", caret.pos)
                self.next()
                exp_tok = self.expect("INT")
                if exp_tok.value < 1:
                    raise ExprError("exponent must be positive", exp_tok.pos)
                value = self._atom(tok, exp_tok.value)
            return value
        raise ExprError(f"unexpected token {tok.kind!r}", tok.pos)

    def _atom(self, tok, power: int = 1) -> dict:
        """The atom's monomial; ``power`` > 1 only for even atoms."""
        cls, idx = tok.value
        sig = self.sig
        slot = _SLOT_PREFIX[self.kind]
        if cls in ("ex", "et", "dx", "dt"):
            if slot is None or cls[0] != slot:
                raise ExprError(
                    f"atom {cls}{idx} is not allowed when parsing a {self.kind}",
                    tok.pos,
                )
        if cls in ("x", "ex", "dx"):
            if not 1 <= idx <= sig.p:
                raise ExprError(
                    f"even index {idx} out of range 1..{sig.p}", tok.pos
                )
            at = idx - 1 if cls == "x" else sig.p + idx - 1
            exps = tuple(power if k == at else 0 for k in range(2 * sig.p))
            return {(exps, 0): Fraction(1)}
        if not 1 <= idx <= sig.q:
            raise ExprError(f"odd index {idx} out of range 1..{sig.q}", tok.pos)
        bit = 1 << (idx - 1) if cls == "t" else 1 << (sig.q + idx - 1)
        return {(self._zero, bit): Fraction(1)}


def parse(
    kind: str,
    text: str,
    signature: Signature,
    *,
    weight=0,
    lam=0,
    mu=None,
):
    """Parse ``text`` as the given kind over ``signature``.

    ``weight`` applies to symbols, ``lam``/``mu`` to operators (``mu``
    defaults to ``lam``).  Symbols parse to a SymbolField when the generator
    degree is uniform across terms and to a MixedSymbol otherwise.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    tokens = _lex(text)
    try:
        value = _Parser(tokens, kind, signature).parse()
    except RecursionError:
        raise ExprError("expression nested too deeply", 0) from None
    # the parser's monomial maps are term maps over the doubled signature
    poly = SuperPolynomial._raw(_doubled(signature), value)
    return _build(kind, signature, poly, weight, lam, lam if mu is None else mu)


# ---------------------------------------------------------------------------
# Rows: the one printed form of every kind.  A row ``(xe, tmask, se, smask,
# coeff)`` is one monomial: coordinate exponents and odd mask, then the slot
# exponents and odd mask (zero for polynomials).  Fields, symbols and
# operators are read through ``geometry._split`` and every kind is built
# through one term map, made by ``geometry._join`` from decoded rows.


def _slot_sort_key(item):
    (se, smask), _ = item
    return (-(sum(se) + smask.bit_count()), se, smask)


def _poly_sort_key(item):
    (xe, mask), _ = item
    return (sum(xe) + mask.bit_count(), xe, mask)


def _rows(v):
    """``(kind, slot letter, weights, rows)`` of a value, rows in printed order."""
    if isinstance(v, SuperPolynomial):
        head = (KIND_POLY, None, {})
        slots = [(((0,) * v.signature.p, 0), v)]
    else:
        order = _slot_sort_key
        if isinstance(v, SuperVectorField):
            head = (KIND_VFIELD, "d", {})
            # by component: x1..xp, then t1..tq
            order = lambda item: _component(v.signature, item[0])
        elif isinstance(v, (SymbolField, MixedSymbol)):
            head = (KIND_SYMBOL, "e", {"delta": v.weight})
        elif isinstance(v, DiffOperator):
            head = (KIND_OPERATOR, "d", {"lambda": v.lam, "mu": v.mu})
        else:
            raise TypeError(f"cannot format {type(v).__name__}")
        slots = sorted(_split(v.signature, v._poly).items(), key=order)
    rows = [
        (xe, tmask, se, smask, c)
        for (se, smask), poly in slots
        for (xe, tmask), c in sorted(poly.items(), key=_poly_sort_key)
    ]
    return (*head, rows)


def _build(kind: str, sig: Signature, poly: SuperPolynomial, weight, lam, mu):
    """The value of ``kind`` whose term map over the doubled signature is ``poly``."""
    if kind == KIND_OPERATOR:
        return DiffOperator.zero(sig, lam, mu)._with(poly)
    if kind == KIND_SYMBOL:
        mixed = MixedSymbol(sig, weight)._with(poly)
        degrees = mixed.degrees()
        if len(degrees) > 1:
            return mixed
        return SymbolField.zero(sig, weight, degrees[0] if degrees else 0)._with(poly)
    if kind == KIND_VFIELD:
        if set(_slot_degrees(sig, poly)) - {1}:
            raise ExprError(
                "a vector field needs exactly one derivative atom per term", 0
            )
        return SuperVectorField._raw(sig, poly)
    # a polynomial's terms all have the zero slot key
    terms = _split(sig, poly)
    return SuperPolynomial._raw(sig, terms.popitem()[1] if terms else {})


# ---------------------------------------------------------------------------
# Formatting


def _mask_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _atoms(xe, tmask, se, smask, slot: str | None) -> list[str]:
    atoms = [f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(xe, 1) if e]
    atoms += [f"t{i}" for i in _mask_indices(tmask)]
    if slot is not None:
        atoms += [
            f"{slot}x{i}" if e == 1 else f"{slot}x{i}^{e}"
            for i, e in enumerate(se, 1)
            if e
        ]
        atoms += [f"{slot}t{i}" for i in _mask_indices(smask)]
    return atoms


def format_value(v) -> str:
    """Expression text of a value, terms in canonical order; ``parse`` reads
    it back."""
    _kind, slot, _weights, rows = _rows(v)
    pieces = []
    for xe, tmask, se, smask, c in rows:
        mag = abs(c)
        number = str(mag) if mag.denominator == 1 else f"({mag})"
        atoms = "*".join(_atoms(xe, tmask, se, smask, slot))
        if not atoms:
            body = number
        elif mag == 1:
            body = atoms
        else:
            body = f"{number}*{atoms}"
        if pieces:
            pieces.append(("- " if c < 0 else "+ ") + body)
        else:
            pieces.append(("-" if c < 0 else "") + body)
    return " ".join(pieces) if pieces else "0"


format_poly = format_vfield = format_symbol = format_operator = format_value


# ---------------------------------------------------------------------------
# JSON encoding


def _key_string(xe, tmask, se, smask, slot: str | None) -> str:
    def exps(e):
        return "(" + ",".join(map(str, e)) + ")"

    def odds(mask):
        return "{" + ",".join(map(str, _mask_indices(mask))) + "}"

    key = f"x^{exps(xe)};t{odds(tmask)}"
    return key if slot is None else f"{key};{slot} x^{exps(se)};{slot} t{odds(smask)}"


def value_to_json(v) -> dict:
    """Encode a domain value as the structured JSON document."""
    kind, slot, weights, rows = _rows(v)
    return {
        "signature": {"p": v.signature.p, "q": v.signature.q},
        "weights": {name: str(w) for name, w in weights.items()},
        "kind": kind,
        "terms": [
            {"key": _key_string(xe, tmask, se, smask, slot), "coeff": str(c)}
            for xe, tmask, se, smask, c in rows
        ],
    }


_INTS = r"((?:[0-9]+(?:,[0-9]+)*)?)"
_KEY_RE = re.compile(
    rf"x\^\({_INTS}\);t\{{{_INTS}\}}(?:;([de]) x\^\({_INTS}\);\3 t\{{{_INTS}\}})?"
)
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _rational(text) -> Fraction:
    """A coefficient or weight in the form ``str(Fraction)`` writes."""
    if isinstance(text, str) and _RATIONAL_RE.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # over-long digits, n/0
            pass
    raise ExprError(f"bad rational {text!r}", 0)


def _ints(text: str) -> list[int]:
    return [_int(d, 0) for d in text.split(",")] if text else []


def _exponents(text: str, sig: Signature) -> tuple[int, ...]:
    exps = tuple(_ints(text))
    if len(exps) != sig.p:
        raise ExprError(f"key arity does not match signature {sig}", 0)
    return exps


def _odd_mask(text: str, sig: Signature) -> int:
    mask = 0
    for i in _ints(text):
        if not 1 <= i <= sig.q or mask >> (i - 1) & 1:
            raise ExprError(f"odd index {i} repeated or out of range 1..{sig.q}", 0)
        mask |= 1 << (i - 1)
    return mask


def _parse_key(key, sig: Signature):
    """``(xe, tmask, slot, se, smask)`` of a term key over ``sig``; a key
    without slot atoms has slot None and the zero slot key."""
    m = _KEY_RE.fullmatch(key) if isinstance(key, str) else None
    if m is None:
        raise ExprError(f"bad term key {key!r}", 0)
    xe_text, t_text, slot, se_text, s_text = m.groups()
    xe, tmask = _exponents(xe_text, sig), _odd_mask(t_text, sig)
    if slot is None:
        return xe, tmask, None, (0,) * sig.p, 0
    return xe, tmask, slot, _exponents(se_text, sig), _odd_mask(s_text, sig)


def value_from_json(data: dict):
    """Decode a document produced by value_to_json; any malformed document
    raises ExprError."""
    try:
        sig = Signature(int(data["signature"]["p"]), int(data["signature"]["q"]))
        kind = data["kind"]
        weights = data.get("weights", {})
        weights = [weights.get(name, "0") for name in ("delta", "lambda", "mu")]
        terms = [(term["key"], term["coeff"]) for term in data["terms"]]
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ExprError(f"malformed document: {exc!r}", 0) from None
    if kind not in _KINDS:
        raise ExprError(f"unknown kind {kind!r}", 0)
    rows = []
    for key, coeff in terms:
        xe, tmask, slot, se, smask = _parse_key(key, sig)
        if slot != _SLOT_PREFIX[kind]:
            raise ExprError(f"term key {key!r} does not fit a {kind}", 0)
        rows.append((xe, tmask, se, smask, _rational(coeff)))
    return _build(kind, sig, _join(sig, rows), *map(_rational, weights))


def value_to_json_text(v) -> str:
    return json.dumps(value_to_json(v), indent=2)
