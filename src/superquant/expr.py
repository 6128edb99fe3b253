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
strings.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ExprError
from .geometry import DiffOperator, MixedSymbol, SuperVectorField, SymbolField
from .supercore import Signature, SuperPolynomial, _ops, as_fraction

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
# Intermediate values are free supercommutative monomial maps
#     (even coordinate exponents, even slot exponents, odd mask) -> Fraction
# where the odd mask packs coordinate odds in bits 0..q-1 and slot odds in
# bits q..2q-1, so that the canonical ascending bit order is exactly the
# canonical printed order and merge signs come from the shared kernel.


def _mono_mul(a: dict, b: dict, scale: Fraction | None = None) -> dict:
    out = {}
    for (xe1, se1, m1), c1 in a.items():
        for (xe2, se2, m2), c2 in b.items():
            s = _ops.odd_merge_sign(m1, m2)
            if not s:
                continue
            c = c1 * c2 * s
            if scale is not None:
                c = c * scale
            key = (
                tuple(u + v for u, v in zip(xe1, xe2)),
                tuple(u + v for u, v in zip(se1, se2)),
                m1 | m2,
            )
            acc = out.get(key)
            acc = c if acc is None else acc + c
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
    return out


def _add_into(a: dict, b: dict, sign: int) -> None:
    for key, c in b.items():
        acc = a.get(key)
        acc = sign * c if acc is None else acc + sign * c
        if acc:
            a[key] = acc
        elif key in a:
            del a[key]


class _Parser:
    def __init__(self, tokens, kind, signature):
        self.tokens = tokens
        self.i = 0
        self.kind = kind
        self.sig = signature
        self._zero_x = (0,) * signature.p

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

    def _scalar(self, c) -> dict:
        c = as_fraction(c)
        if not c:
            return {}
        return {(self._zero_x, self._zero_x, 0): c}

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
        _add_into(total, self.parse_term(), sign)
        while self.peek().kind in ("+", "-"):
            op = self.next()
            sign = 1 if op.kind == "+" else -1
            _add_into(total, self.parse_term(), sign)
        return total

    def parse_term(self) -> dict:
        value = self.parse_factor()
        while self.peek().kind == "*":
            self.next()
            value = _mono_mul(value, self.parse_factor())
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
            exps = tuple(power if k == idx - 1 else 0 for k in range(sig.p))
            if cls == "x":
                return {(exps, self._zero_x, 0): Fraction(1)}
            return {(self._zero_x, exps, 0): Fraction(1)}
        if not 1 <= idx <= sig.q:
            raise ExprError(f"odd index {idx} out of range 1..{sig.q}", tok.pos)
        bit = 1 << (idx - 1) if cls == "t" else 1 << (sig.q + idx - 1)
        return {(self._zero_x, self._zero_x, bit): Fraction(1)}


def _split_mask(mask: int, q: int) -> tuple[int, int]:
    return mask & ((1 << q) - 1), mask >> q


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
    q = signature.q
    if kind == KIND_POLY:
        terms = {}
        for (xe, _se, mask), c in value.items():
            terms[(xe, mask)] = c
        return SuperPolynomial(signature, terms)
    if kind == KIND_VFIELD:
        comps = [SuperPolynomial.zero(signature) for _ in range(signature.n)]
        for (xe, se, mask), c in value.items():
            tmask, dmask = _split_mask(mask, q)
            slot_degree = sum(se) + dmask.bit_count()
            if slot_degree != 1:
                raise ExprError(
                    "a vector field needs exactly one derivative atom per term",
                    0,
                )
            if sum(se):
                comp = se.index(1)
            else:
                comp = signature.p + dmask.bit_length() - 1
            coeff = SuperPolynomial(signature, {(xe, tmask): c})
            comps[comp] = comps[comp] + coeff
        return SuperVectorField(signature, comps)
    if kind == KIND_SYMBOL:
        by_degree: dict[int, dict] = {}
        for (xe, se, mask), c in value.items():
            tmask, emask = _split_mask(mask, q)
            degree = sum(se) + emask.bit_count()
            terms = by_degree.setdefault(degree, {})
            key = (se, emask)
            poly = SuperPolynomial(signature, {(xe, tmask): c})
            if key in terms:
                terms[key] = terms[key] + poly
            else:
                terms[key] = poly
        fields = [
            SymbolField(signature, weight, degree, terms)
            for degree, terms in sorted(by_degree.items())
        ]
        if not fields:
            return SymbolField.zero(signature, weight, 0)
        if len(fields) == 1:
            return fields[0]
        return MixedSymbol.from_fields(signature, weight, fields)
    # operator
    if mu is None:
        mu = lam
    terms = {}
    for (xe, se, mask), c in value.items():
        tmask, dmask = _split_mask(mask, q)
        key = (se, dmask)
        poly = SuperPolynomial(signature, {(xe, tmask): c})
        if key in terms:
            terms[key] = terms[key] + poly
        else:
            terms[key] = poly
    return DiffOperator(signature, lam, mu, terms)


# ---------------------------------------------------------------------------
# Formatting


def _rat_str(c: Fraction) -> str:
    return str(c)


def _coeff_prefix(c: Fraction) -> tuple[bool, str]:
    """Return (negative, prefix) where prefix ends with '*' unless empty."""
    negative = c < 0
    mag = -c if negative else c
    if mag == 1:
        return negative, ""
    if mag.denominator == 1:
        return negative, f"{mag}*"
    return negative, f"({mag})*"


def _mask_indices(mask: int) -> list[int]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _atoms(xe, tmask, se, smask, slot: str | None) -> list[str]:
    atoms = []
    for i, e in enumerate(xe, start=1):
        if e == 1:
            atoms.append(f"x{i}")
        elif e > 1:
            atoms.append(f"x{i}^{e}")
    for i in _mask_indices(tmask):
        atoms.append(f"t{i}")
    if slot is not None:
        for i, e in enumerate(se, start=1):
            if e == 1:
                atoms.append(f"{slot}x{i}")
            elif e > 1:
                atoms.append(f"{slot}x{i}^{e}")
        for i in _mask_indices(smask):
            atoms.append(f"{slot}t{i}")
    return atoms


def _join_terms(entries: list[tuple[bool, str]]) -> str:
    if not entries:
        return "0"
    pieces = []
    for pos, (negative, body) in enumerate(entries):
        if pos == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


def _term_entry(c: Fraction, atoms: list[str]) -> tuple[bool, str]:
    negative, prefix = _coeff_prefix(c)
    if atoms:
        return negative, prefix + "*".join(atoms)
    mag = -c if negative else c
    if mag.denominator == 1:
        return negative, str(mag)
    return negative, f"({mag})"


def _poly_sort_key(item):
    (xe, mask), _ = item
    return (sum(xe) + mask.bit_count(), xe, mask)


def format_poly(f: SuperPolynomial) -> str:
    entries = []
    for (xe, mask), c in sorted(f.items(), key=_poly_sort_key):
        entries.append(_term_entry(c, _atoms(xe, mask, None, None, None)))
    return _join_terms(entries)


def format_vfield(x: SuperVectorField) -> str:
    sig = x.signature
    entries = []
    for comp in range(1, sig.n + 1):
        poly = x.components[comp - 1]
        if comp <= sig.p:
            se = tuple(1 if k == comp - 1 else 0 for k in range(sig.p))
            smask = 0
        else:
            se = (0,) * sig.p
            smask = 1 << (comp - sig.p - 1)
        for (xe, tmask), c in sorted(poly.items(), key=_poly_sort_key):
            entries.append(_term_entry(c, _atoms(xe, tmask, se, smask, "d")))
    return _join_terms(entries)


def _slot_sort_key(item):
    (se, smask), _ = item
    return (-(sum(se) + smask.bit_count()), se, smask)


def _tensor_entries(items, slot: str) -> list[tuple[bool, str]]:
    entries = []
    for (se, smask), poly in sorted(items, key=_slot_sort_key):
        for (xe, tmask), c in sorted(poly.items(), key=_poly_sort_key):
            entries.append(_term_entry(c, _atoms(xe, tmask, se, smask, slot)))
    return entries


def format_symbol(s: SymbolField | MixedSymbol) -> str:
    if isinstance(s, MixedSymbol):
        items = [item for part in s.parts() for item in part.items()]
    else:
        items = list(s.items())
    return _join_terms(_tensor_entries(items, "e"))


def format_operator(d: DiffOperator) -> str:
    return _join_terms(_tensor_entries(list(d.items()), "d"))


def format_value(v) -> str:
    if isinstance(v, SuperPolynomial):
        return format_poly(v)
    if isinstance(v, SuperVectorField):
        return format_vfield(v)
    if isinstance(v, (SymbolField, MixedSymbol)):
        return format_symbol(v)
    if isinstance(v, DiffOperator):
        return format_operator(v)
    raise TypeError(f"cannot format {type(v).__name__}")


# ---------------------------------------------------------------------------
# JSON encoding


def _exponent_string(xe) -> str:
    return "(" + ",".join(str(e) for e in xe) + ")"


def _set_string(mask: int) -> str:
    return "{" + ",".join(str(i) for i in _mask_indices(mask)) + "}"


def _key_string(xe, tmask, se, smask, slot: str | None) -> str:
    parts = [f"x^{_exponent_string(xe)}", f"t{_set_string(tmask)}"]
    if slot is not None:
        parts.append(f"{slot} x^{_exponent_string(se)}")
        parts.append(f"{slot} t{_set_string(smask)}")
    return ";".join(parts)


_KEY_RE = re.compile(
    r"x\^\(([0-9,]*)\);t\{([0-9,]*)\}"
    r"(?:;([de]) x\^\(([0-9,]*)\);\3 t\{([0-9,]*)\})?$"
)


def _parse_ints(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def _parse_key(key: str):
    m = _KEY_RE.match(key)
    if m is None:
        raise ExprError(f"bad term key {key!r}", 0)
    xe = _parse_ints(m.group(1))
    tmask = 0
    for i in _parse_ints(m.group(2)):
        tmask |= 1 << (i - 1)
    slot = m.group(3)
    se = _parse_ints(m.group(4)) if slot else None
    smask = 0
    if slot:
        for i in _parse_ints(m.group(5)):
            smask |= 1 << (i - 1)
    return xe, tmask, slot, se, smask


def _signature_json(sig: Signature) -> dict:
    return {"p": sig.p, "q": sig.q}


def value_to_json(v) -> dict:
    """Encode a domain value as the structured JSON document."""
    if isinstance(v, SuperPolynomial):
        sig = v.signature
        terms = [
            {"key": _key_string(xe, tmask, None, None, None), "coeff": _rat_str(c)}
            for (xe, tmask), c in sorted(v.items(), key=_poly_sort_key)
        ]
        return {
            "signature": _signature_json(sig),
            "weights": {},
            "kind": KIND_POLY,
            "terms": terms,
        }
    if isinstance(v, SuperVectorField):
        sig = v.signature
        terms = []
        for comp in range(1, sig.n + 1):
            poly = v.components[comp - 1]
            if comp <= sig.p:
                se = tuple(1 if k == comp - 1 else 0 for k in range(sig.p))
                smask = 0
            else:
                se = (0,) * sig.p
                smask = 1 << (comp - sig.p - 1)
            for (xe, tmask), c in sorted(poly.items(), key=_poly_sort_key):
                terms.append(
                    {
                        "key": _key_string(xe, tmask, se, smask, "d"),
                        "coeff": _rat_str(c),
                    }
                )
        return {
            "signature": _signature_json(sig),
            "weights": {},
            "kind": KIND_VFIELD,
            "terms": terms,
        }
    if isinstance(v, (SymbolField, MixedSymbol)):
        sig = v.signature
        if isinstance(v, MixedSymbol):
            items = [item for part in v.parts() for item in part.items()]
        else:
            items = list(v.items())
        terms = []
        for (se, smask), poly in sorted(items, key=_slot_sort_key):
            for (xe, tmask), c in sorted(poly.items(), key=_poly_sort_key):
                terms.append(
                    {
                        "key": _key_string(xe, tmask, se, smask, "e"),
                        "coeff": _rat_str(c),
                    }
                )
        return {
            "signature": _signature_json(sig),
            "weights": {"delta": _rat_str(as_fraction(v.weight))},
            "kind": KIND_SYMBOL,
            "terms": terms,
        }
    if isinstance(v, DiffOperator):
        sig = v.signature
        terms = []
        for (se, smask), poly in sorted(v.items(), key=_slot_sort_key):
            for (xe, tmask), c in sorted(poly.items(), key=_poly_sort_key):
                terms.append(
                    {
                        "key": _key_string(xe, tmask, se, smask, "d"),
                        "coeff": _rat_str(c),
                    }
                )
        return {
            "signature": _signature_json(sig),
            "weights": {
                "lambda": _rat_str(as_fraction(v.lam)),
                "mu": _rat_str(as_fraction(v.mu)),
            },
            "kind": KIND_OPERATOR,
            "terms": terms,
        }
    raise TypeError(f"cannot encode {type(v).__name__}")


def value_from_json(data: dict):
    """Decode a document produced by value_to_json."""
    sig = Signature(int(data["signature"]["p"]), int(data["signature"]["q"]))
    kind = data["kind"]
    if kind not in _KINDS:
        raise ExprError(f"unknown kind {kind!r}", 0)
    rows = []
    for term in data["terms"]:
        xe, tmask, slot, se, smask = _parse_key(term["key"])
        if len(xe) != sig.p or (se is not None and len(se) != sig.p):
            raise ExprError(f"key arity does not match signature {sig}", 0)
        rows.append((xe, tmask, slot, se, smask, Fraction(term["coeff"])))
    weights = data.get("weights", {})
    if kind == KIND_POLY:
        terms = {}
        for xe, tmask, slot, _se, _smask, c in rows:
            if slot is not None:
                raise ExprError("polynomial terms cannot carry slot atoms", 0)
            terms[(xe, tmask)] = terms.get((xe, tmask), Fraction(0)) + c
        return SuperPolynomial(sig, terms)
    if kind == KIND_VFIELD:
        comps = [SuperPolynomial.zero(sig) for _ in range(sig.n)]
        for xe, tmask, slot, se, smask, c in rows:
            if slot != "d" or sum(se) + smask.bit_count() != 1:
                raise ExprError("vector field terms need one derivative atom", 0)
            comp = se.index(1) if sum(se) else sig.p + smask.bit_length() - 1
            comps[comp] = comps[comp] + SuperPolynomial(sig, {(xe, tmask): c})
        return SuperVectorField(sig, comps)
    if kind == KIND_SYMBOL:
        by_degree: dict[int, dict] = {}
        for xe, tmask, slot, se, smask, c in rows:
            if slot != "e":
                raise ExprError("symbol terms need generator atoms", 0)
            degree = sum(se) + smask.bit_count()
            terms = by_degree.setdefault(degree, {})
            poly = SuperPolynomial(sig, {(xe, tmask): c})
            key = (se, smask)
            terms[key] = terms[key] + poly if key in terms else poly
        weight = Fraction(weights.get("delta", "0"))
        fields = [
            SymbolField(sig, weight, degree, terms)
            for degree, terms in sorted(by_degree.items())
        ]
        if not fields:
            return SymbolField.zero(sig, weight, 0)
        if len(fields) == 1:
            return fields[0]
        return MixedSymbol.from_fields(sig, weight, fields)
    lam = Fraction(weights.get("lambda", "0"))
    mu = Fraction(weights.get("mu", "0"))
    terms = {}
    for xe, tmask, slot, se, smask, c in rows:
        if slot != "d":
            raise ExprError("operator terms need derivative atoms", 0)
        poly = SuperPolynomial(sig, {(xe, tmask): c})
        key = (se, smask)
        terms[key] = terms[key] + poly if key in terms else poly
    return DiffOperator(sig, lam, mu, terms)


def value_to_json_text(v) -> str:
    return json.dumps(value_to_json(v), indent=2)
