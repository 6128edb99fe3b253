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

Reading is one regular-expression scan into ``(kind, value, pos)`` tokens and
one recursive-descent pass.  Each product folds into one running monomial:
exponents, odd mask, and an integer numerator and denominator, a literal or a
one-term group multiplying them in place.  Only a group of several terms goes
through the kernel's product.

JSON encoding: ``{signature, weights, kind, terms: [{key, coeff}]}`` with one
entry per fully expanded monomial.  Keys are explicit multi-index strings such
as ``x^(2,0);t{1};d x^(1,0);d t{}`` (operators and vector fields) or
``x^(2,0);t{1};e x^(1,0);e t{}`` (symbols); coefficients are exact rational
strings.  Decoding accepts exactly this layout and raises ExprError on any
other document.
"""

from __future__ import annotations

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

# The deepest nesting of parenthesised groups that ``parse`` reads; one more
# is refused with "expression nested too deeply" at position 0.  Each level
# takes three interpreter frames, so at the default recursion limit of 1000
# a caller up to about 650 frames deep can read text at the cap, and which
# texts are accepted does not depend on the caller.
MAX_NESTING = 100

_OPERATORS = frozenset("+-*^/()")
_EVEN = frozenset(("x", "ex", "dx"))


# ---------------------------------------------------------------------------
# Lexer
#
# One match per token: whitespace, an ASCII integer, an atom whose name ends
# there, any other name (an unknown atom, or a stray digit such as "³"), or
# one character.  The groups cover the text, so positions are running
# lengths.  ``\s`` is exactly ``str.isspace`` and ``[^\W_]`` ``str.isalnum``.
_TOKEN_RE = re.compile(
    r"(\s+)|([0-9]+)|(ex|et|dx|dt|x|t)([1-9][0-9]*)(?![^\W_])|([^\W_]+)|(.)",
    re.S,
)


def _int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's digit limit
        raise ExprError("integer literal too long", pos) from None


def _lex(text: str) -> list[tuple]:
    """``(kind, value, pos)`` tokens of ``text``, the last one ``END``."""
    tokens = []
    pos = 0
    for space, digits, cls, idx, name, char in _TOKEN_RE.findall(text):
        if cls:
            tokens.append(("ATOM", (cls, _int(idx, pos)), pos))
            pos += len(cls) + len(idx)
        elif char in _OPERATORS:
            tokens.append((char, char, pos))
            pos += 1
        elif space:
            pos += len(space)
        elif digits:
            tokens.append(("INT", _int(digits, pos), pos))
            pos += len(digits)
        elif name[:1].isalpha():
            raise ExprError(f"unknown atom {name!r}", pos)
        else:
            raise ExprError(f"unexpected character {(name or char)[0]!r}", pos)
    tokens.append(("END", None, pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser / evaluator
#
# Values are term maps over the doubled signature (2p|2q), the layout of
# ``geometry``: coordinate exponents, then slot exponents; coordinate odds in
# mask bits 0..q-1 below slot odds in bits q..2q-1.  So ascending bit order
# is the printed order, and an odd factor folded into a product flips its
# sign once per mask bit above its own (the kernel's merge sign).


class _Parser:
    def __init__(self, tokens, kind, signature):
        self.tokens = tokens
        self.i = 0
        self.kind = kind
        self.sig = signature
        self.slot = _SLOT_PREFIX[kind]
        self.depth = 0

    def expect(self, kind) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self) -> dict:
        value = self.parse_expr()
        kind, _, pos = self.tokens[self.i]
        if kind != "END":
            raise ExprError(f"unexpected trailing {kind!r}", pos)
        return value

    def parse_expr(self) -> dict:
        tokens = self.tokens
        sign = 1
        if tokens[self.i][0] == "-":
            self.i += 1
            sign = -1
        total: dict = {}
        while True:
            _ops.add_into(total, self.parse_term(), sign)
            op = tokens[self.i][0]
            if op != "+" and op != "-":
                return total
            self.i += 1
            sign = 1 if op == "+" else -1

    def parse_term(self) -> dict:
        """One product: atoms, literals and one-term groups fold into one
        monomial; a group of several terms meets the kernel, in written order."""
        tokens = self.tokens
        width = 2 * self.sig.p
        exps, mask, num, den = [0] * width, 0, 1, 1
        value = None  # the product up to the last group of several terms
        while True:
            kind, val, pos = tokens[self.i]
            self.i += 1
            if kind == "ATOM":
                cls, idx = val
                at = self._atom(cls, idx, pos)
                caret = tokens[self.i]
                if cls in _EVEN:
                    if caret[0] == "^":
                        self.i += 1
                        _, power, exp_pos = self.expect("INT")
                        if power < 1:
                            raise ExprError("exponent must be positive", exp_pos)
                        exps[at] += power
                    else:
                        exps[at] += 1
                elif caret[0] == "^":
                    raise ExprError("'^' applies to even atoms only", caret[2])
                else:
                    num *= _ops.odd_merge_sign(mask, at)
                    mask |= at
            elif kind == "INT":
                num *= val
                if tokens[self.i][0] == "/":
                    self.i += 1
                    _, d, den_pos = self.expect("INT")
                    if d == 0:
                        raise ExprError("zero denominator", den_pos)
                    den *= d
            elif kind == "(":
                group = self.parse_group()
                if len(group) == 1:
                    ((gexps, gmask), c), = group.items()
                    exps = [a + b for a, b in zip(exps, gexps)]
                    num *= _ops.odd_merge_sign(mask, gmask) * c.numerator
                    den *= c.denominator
                    mask |= gmask
                else:
                    value = self._times(value, exps, mask, num, den)
                    value = group if value is None else _ops.mul_terms(value, group)
                    exps, mask, num, den = [0] * width, 0, 1, 1
            else:
                raise ExprError(f"unexpected token {kind!r}", pos)
            if tokens[self.i][0] != "*":
                break
            self.i += 1
        if value is None:
            return {(tuple(exps), mask): Fraction(num, den)} if num else {}
        return self._times(value, exps, mask, num, den)

    def parse_group(self) -> dict:
        """The expression of a group whose '(' is read, with its ')'; at most
        ``MAX_NESTING`` groups are open at once."""
        if self.depth == MAX_NESTING:
            raise ExprError("expression nested too deeply", 0)
        self.depth += 1
        value = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        return value

    @staticmethod
    def _times(value, exps, mask, num, den):
        """``value`` (None for 1) times the running monomial, unless that is 1."""
        if num == den and not mask and not any(exps):
            return value
        mono = {(tuple(exps), mask): Fraction(num, den)} if num else {}
        return mono if value is None else _ops.mul_terms(value, mono)

    def _atom(self, cls: str, idx: int, pos: int) -> int:
        """The exponent position of an even atom, the mask bit of an odd one."""
        sig = self.sig
        if len(cls) == 2 and cls[0] != self.slot:
            raise ExprError(
                f"atom {cls}{idx} is not allowed when parsing a {self.kind}", pos
            )
        if cls in _EVEN:
            if not 1 <= idx <= sig.p:
                raise ExprError(f"even index {idx} out of range 1..{sig.p}", pos)
            return idx - 1 if cls == "x" else sig.p + idx - 1
        if not 1 <= idx <= sig.q:
            raise ExprError(f"odd index {idx} out of range 1..{sig.q}", pos)
        return 1 << (idx - 1) if cls == "t" else 1 << (sig.q + idx - 1)


def parse(kind: str, text: str, signature: Signature, *, weight=0, lam=0, mu=None):
    """Parse ``text`` as the given kind over ``signature``.

    ``weight`` applies to symbols, ``lam``/``mu`` to operators (``mu``
    defaults to ``lam``).  Symbols parse to a SymbolField when the generator
    degree is uniform across terms and to a MixedSymbol otherwise.  Groups
    nest at most ``MAX_NESTING`` deep.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if not isinstance(text, str):
        raise ExprError(f"expected expression text, got {type(text).__name__}")
    tokens = _lex(text)
    try:
        value = _Parser(tokens, kind, signature).parse()
    except RecursionError:  # a caller deeper than MAX_NESTING allows for
        raise ExprError("expression nested too deeply", 0) from None
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

