"""The expression reader as it was before products were folded into one
monomial: a character-by-character lexer of ``_Token`` objects and a parser
that multiplies every factor through the kernel, over ``Fraction`` values
that the ``SuperPolynomial`` constructor turns into numerators at the end.
Kept as the oracle of the differential tests in ``test_expr.py``;
``parse_reference`` takes the arguments of ``superquant.expr.parse``."""

from __future__ import annotations

import re
from fractions import Fraction

from superquant.errors import ExprError
from superquant.expr import _KINDS, _SLOT_PREFIX, _build
from superquant.geometry import _doubled
from superquant.supercore import Signature, SuperPolynomial, _ops

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


def parse_reference(
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
    # the parser's monomial maps are term maps over the doubled signature,
    # with Fraction values, which the constructor turns into numerators
    poly = SuperPolynomial(_doubled(signature), value)
    return _build(kind, signature, poly, weight, lam, lam if mu is None else mu)
