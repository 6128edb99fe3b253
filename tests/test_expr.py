"""Tests for expression parsing, formatting, and JSON encoding."""

import random
import sys
from fractions import Fraction

import pytest

from superquant import (
    DiffOperator,
    ExprError,
    MixedSymbol,
    QuantizationConfig,
    Signature,
    SuperPolynomial,
    SuperVectorField,
    SymbolField,
    quantize,
)
from superquant.expr import (
    MAX_NESTING,
    format_operator,
    format_poly,
    format_symbol,
    format_value,
    format_vfield,
    parse,
    value_from_json,
    value_to_json,
)

from expr_reference import parse_reference

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S22 = Signature(2, 2)
S12 = Signature(1, 2)
S10 = Signature(1, 0)


def poly(sig, text):
    return parse("poly", text, sig)


class TestParsePoly:
    def test_rational_literal(self):
        assert poly(S11, "3/4") == SuperPolynomial.scalar(S11, Fraction(3, 4))
        assert poly(S11, "-2") == SuperPolynomial.scalar(S11, -2)

    def test_odd_transposition_sign(self):
        # t2*t1 = -t1*t2 in canonical form.
        assert poly(S22, "t2*t1") == -SuperPolynomial.monomial(S22, (0, 0), (1, 2))

    def test_odd_square_vanishes(self):
        assert poly(S11, "t1*t1").is_zero()

    def test_powers_and_products(self):
        f = poly(S21, "2*x1^2*x2 - x2*x1^2*2")
        assert f.is_zero()
        g = poly(S21, "(1 + x1)*(1 - x1)")
        assert g == SuperPolynomial.one(S21) - poly(S21, "x1^2")

    def test_unary_minus(self):
        assert poly(S11, "-x1 + x1").is_zero()

    def test_parse_errors_carry_position(self):
        with pytest.raises(ExprError) as info:
            poly(S11, "x1 + y3")
        assert info.value.position == 5
        with pytest.raises(ExprError):
            poly(S11, "x2")  # even index out of range
        with pytest.raises(ExprError):
            poly(S11, "t1^2")  # caret on an odd atom
        with pytest.raises(ExprError):
            poly(S11, "x1^0")
        with pytest.raises(ExprError):
            poly(S11, "1/0")
        with pytest.raises(ExprError):
            poly(S11, "x1 +")
        with pytest.raises(ExprError):
            poly(S11, "(x1")
        with pytest.raises(ExprError):
            poly(S11, "x1 x1")

    def test_derivative_atoms_rejected_in_poly(self):
        with pytest.raises(ExprError):
            poly(S11, "dx1")
        with pytest.raises(ExprError):
            poly(S11, "ex1")


class TestParseVfield:
    def test_simple_field(self):
        x = parse("vfield", "x1*dx1 + t1*dt1", S11)
        expected = SuperVectorField(
            S11,
            [SuperPolynomial.coordinate(S11, 1), SuperPolynomial.coordinate(S11, 2)],
        )
        assert x == expected

    def test_sign_absorption_across_classes(self):
        # dt1*t1 = -t1*dt1 as a formal monomial.
        a = parse("vfield", "dt1*t1", S11)
        b = parse("vfield", "-t1*dt1", S11)
        assert a == b

    def test_field_needs_exactly_one_derivative(self):
        with pytest.raises(ExprError):
            parse("vfield", "x1", S11)
        with pytest.raises(ExprError):
            parse("vfield", "dx1*dx1", S11)

    def test_symbol_atoms_rejected(self):
        with pytest.raises(ExprError):
            parse("vfield", "ex1", S11)


class TestParseSymbolOperator:
    def test_symbol_degree_inference(self):
        s = parse("symbol", "x1*ex1^2", S21, weight=Fraction(1, 5))
        assert isinstance(s, SymbolField)
        assert s.degree == 2
        assert s.weight == Fraction(1, 5)
        assert s.coefficient((2, 0), ()) == SuperPolynomial.coordinate(S21, 1)

    def test_symbol_mixed_degrees(self):
        s = parse("symbol", "ex1^2 + ex1 + 1", S21)
        assert isinstance(s, MixedSymbol)
        assert s.degrees() == [0, 1, 2]

    def test_symbol_odd_generator_sign(self):
        a = parse("symbol", "et2*et1", S22)
        b = parse("symbol", "-et1*et2", S22)
        assert a == b

    def test_operator_parse_and_weights(self):
        d = parse(
            "operator",
            "x1*dx1 + (1/2)",
            S10,
            lam=Fraction(1, 2),
            mu=Fraction(1, 2),
        )
        assert isinstance(d, DiffOperator)
        assert d.lam == Fraction(1, 2)
        g = parse("poly", "x1^3", S10)
        assert d.apply(g) == parse("poly", "3*x1^3 + (1/2)*x1^3", S10)

    def test_operator_odd_coefficient_and_derivative(self):
        # Formal sign absorption: dt1*t1 = -t1*dt1 (no Leibniz in the term language).
        a = parse("operator", "dt1*t1", S11)
        b = parse("operator", "-t1*dt1", S11)
        assert a == b


class TestFormatting:
    def test_poly_examples(self):
        f = poly(S21, "1 - 2*x1 + (3/4)*x2*t1")
        assert format_poly(f) == "1 - 2*x1 + (3/4)*x2*t1"

    def test_zero_prints_as_zero(self):
        assert format_poly(SuperPolynomial.zero(S21)) == "0"
        assert format_vfield(SuperVectorField.zero(S21)) == "0"

    def test_operator_constant_term_style(self):
        d = parse("operator", "x1*dx1 + (1/2)", S10)
        assert format_operator(d) == "x1*dx1 + (1/2)"

    def test_leading_negative(self):
        f = poly(S11, "-x1 - 1")
        assert format_poly(f) == "-1 - x1"

    def test_str_hooks(self):
        f = poly(S11, "x1*t1")
        assert str(f) == "x1*t1"
        s = parse("symbol", "ex1 + 1", S11)
        assert str(s) == "ex1 + 1"
        d = parse("operator", "dx1*dt1", S11)
        assert str(d) == format_operator(d)
        x = parse("vfield", "x1*dx1", S11)
        assert str(x) == "x1*dx1"


X1 = SuperPolynomial.coordinate(S21, 1)

# the printed text of one value per kind, pinned: the CLI goldens pin only
# JSON
PINNED_TEXT = [
    (
        SuperPolynomial(
            S21,
            {
                ((0, 0), 0): Fraction(-3, 4),
                ((1, 0), 1): Fraction(2),
                ((0, 2), 0): Fraction(-1),
                ((2, 1), 1): Fraction(5, 3),
                ((1, 0), 0): Fraction(1),
            },
        ),
        "-(3/4) + x1 - x2^2 + 2*x1*t1 + (5/3)*x1^2*x2*t1",
    ),
    (
        SuperVectorField(
            S21,
            [
                X1 * Fraction(-1, 2),
                SuperPolynomial.monomial(S21, (0, 1), [1], 3),
                SuperPolynomial.monomial(S21, (1, 1), [], -1) + 1,
            ],
        ),
        "-(1/2)*x1*dx1 + 3*x2*t1*dx2 + dt1 - x1*x2*dt1",
    ),
    (
        MixedSymbol.from_fields(
            S12,
            Fraction(1, 5),
            [
                SymbolField.monomial(
                    S12,
                    Fraction(1, 5),
                    (1,),
                    [2],
                    SuperPolynomial.monomial(S12, (1,), [1], Fraction(-2, 7)),
                ),
                SymbolField.monomial(S12, Fraction(1, 5), (0,), [1, 2], 4),
                SymbolField.monomial(S12, Fraction(1, 5), (0,), [], Fraction(-3, 2)),
            ],
        ),
        "4*et1*et2 - (2/7)*x1*t1*ex1*et2 - (3/2)",
    ),
    (
        DiffOperator(
            S11,
            Fraction(1, 3),
            Fraction(8, 15),
            {
                ((2,), 1): SuperPolynomial.monomial(S11, (1,), [1]),
                ((0,), 0): Fraction(5, 12),
                ((1,), 0): SuperPolynomial.monomial(S11, (0,), [], -1),
                ((0,), 1): SuperPolynomial.monomial(S11, (3,), [], Fraction(7, 2)),
            },
        ),
        "x1*t1*dx1^2*dt1 + (7/2)*x1^3*dt1 - dx1 + (5/12)",
    ),
]


@pytest.mark.parametrize(
    "value, text", PINNED_TEXT, ids=["poly", "vfield", "symbol", "operator"]
)
def test_format_value_text_is_pinned(value, text):
    assert format_value(value) == text


def rand_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))


def rand_poly(sig, rng):
    f = SuperPolynomial.zero(sig)
    for _ in range(rng.randint(1, 4)):
        evens = tuple(rng.randint(0, 2) for _ in range(sig.p))
        odds = [i + 1 for i in range(sig.q) if rng.random() < 0.5]
        f = f + SuperPolynomial.monomial(sig, evens, odds, rand_fraction(rng))
    return f


def rand_vfield(sig, rng):
    return SuperVectorField(sig, [rand_poly(sig, rng) for _ in range(sig.n)])


def rand_symbol(sig, weight, degree, rng):
    s = SymbolField.zero(sig, weight, degree)
    for _ in range(3):
        evens = [0] * sig.p
        rest = degree
        odds = []
        for i in range(sig.q):
            if rest and rng.random() < 0.4 and (i + 1) not in odds:
                odds.append(i + 1)
                rest -= 1
        for _ in range(rest):
            if not sig.p:
                break
            evens[rng.randrange(sig.p)] += 1
        if sum(evens) + len(odds) != degree:
            continue
        s = s + SymbolField.monomial(sig, weight, evens, odds, rand_poly(sig, rng))
    return s


def rand_operator(sig, lam, mu, rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        evens = tuple(rng.randint(0, 1) for _ in range(sig.p))
        mask = rng.randrange(1 << sig.q)
        terms[(evens, mask)] = rand_poly(sig, rng)
    return DiffOperator(sig, lam, mu, terms)


class TestRoundTrip:
    @pytest.mark.parametrize("sig", [S10, S11, S21, S22, S12])
    def test_poly_text_round_trip(self, sig):
        rng = random.Random(hash((sig.p, sig.q)) & 0xFFFF)
        for _ in range(20):
            f = rand_poly(sig, rng)
            assert parse("poly", format_poly(f), sig) == f

    @pytest.mark.parametrize("sig", [S11, S21, S22, S12])
    def test_vfield_text_round_trip(self, sig):
        rng = random.Random(3 + sig.n)
        for _ in range(15):
            x = rand_vfield(sig, rng)
            assert parse("vfield", format_vfield(x), sig) == x

    @pytest.mark.parametrize("sig", [S11, S21, S22])
    def test_symbol_text_round_trip(self, sig):
        rng = random.Random(5 + sig.n)
        w = Fraction(1, 5)
        for degree in range(4):
            s = rand_symbol(sig, w, degree, rng)
            out = parse("symbol", format_symbol(s), sig, weight=w)
            if isinstance(out, MixedSymbol):
                assert out == s.as_mixed()
            else:
                assert out == s or (out.is_zero() and s.is_zero())

    @pytest.mark.parametrize("sig", [S11, S21, S22])
    def test_operator_text_round_trip(self, sig):
        rng = random.Random(7 + sig.n)
        lam, mu = Fraction(1, 3), Fraction(8, 15)
        for _ in range(15):
            d = rand_operator(sig, lam, mu, rng)
            assert parse("operator", format_operator(d), sig, lam=lam, mu=mu) == d

    def test_format_is_canonical_fixed_point(self):
        # format(parse(format(v))) == format(v)
        rng = random.Random(99)
        d = rand_operator(S22, 0, 0, rng)
        text = format_operator(d)
        assert format_operator(parse("operator", text, S22)) == text


class TestJson:
    def test_poly_json_round_trip(self):
        rng = random.Random(11)
        for sig in (S10, S21, S22):
            f = rand_poly(sig, rng)
            doc = value_to_json(f)
            assert doc["kind"] == "poly"
            assert value_from_json(doc) == f

    def test_vfield_json_round_trip(self):
        rng = random.Random(13)
        x = rand_vfield(S22, rng)
        doc = value_to_json(x)
        assert doc["kind"] == "vfield"
        assert value_from_json(doc) == x

    def test_symbol_json_round_trip_and_weight(self):
        rng = random.Random(17)
        s = rand_symbol(S21, Fraction(1, 5), 2, rng)
        doc = value_to_json(s)
        assert doc["weights"] == {"delta": "1/5"}
        assert value_from_json(doc) == s

    def test_mixed_symbol_json_round_trip(self):
        s = parse("symbol", "ex1^2 + ex1 + 1", S21, weight=Fraction(1, 5))
        doc = value_to_json(s)
        out = value_from_json(doc)
        assert out == s

    def test_operator_json_schema(self):
        d = parse(
            "operator",
            "x1^2*t1*dx1 + dt1",
            S21,
            lam=Fraction(1, 3),
            mu=Fraction(8, 15),
        )
        doc = value_to_json(d)
        assert doc["signature"] == {"p": 2, "q": 1}
        assert doc["weights"] == {"lambda": "1/3", "mu": "8/15"}
        keys = [t["key"] for t in doc["terms"]]
        assert "x^(2,0);t{1};d x^(1,0);d t{}" in keys
        assert "x^(0,0);t{};d x^(0,0);d t{1}" in keys
        assert value_from_json(doc) == d

    def test_symbol_key_prefix(self):
        s = parse("symbol", "ex1*et1", S11)
        doc = value_to_json(s)
        assert doc["terms"][0]["key"] == "x^(0);t{};e x^(1);e t{1}"

    def test_rationals_never_decimal(self):
        s = parse("symbol", "(1/3)*ex1", S11, weight=Fraction(2, 7))
        doc = value_to_json(s)
        assert doc["terms"][0]["coeff"] == "1/3"
        assert doc["weights"]["delta"] == "2/7"

    def test_format_value_dispatch(self):
        assert format_value(poly(S11, "x1")) == "x1"
        with pytest.raises(TypeError):
            format_value(42)


def _doc(kind="poly", key="x^(0);t{}", coeff="1", p=1, q=1, weights=None):
    return {
        "signature": {"p": p, "q": q},
        "weights": weights or {},
        "kind": kind,
        "terms": [{"key": key, "coeff": coeff}],
    }


# each document is malformed: a repeated or out-of-range odd index, an
# unreadable list or rational, a missing key, or a bad signature or shape
MALFORMED_DOCS = {
    "repeated odd index": _doc(key="x^(0);t{1,1}"),
    "repeated odd slot index": _doc("symbol", "x^(0);t{};e x^(0);e t{1,1}"),
    "odd index 0": _doc(key="x^(0);t{0}"),
    "odd index beyond q": _doc(key="x^(0);t{2}"),
    "odd slot index beyond q": _doc("vfield", "x^(0);t{};d x^(0);d t{3}"),
    "empty list item": _doc(key="x^(1,,0);t{}", p=2),
    "coefficient text": _doc(coeff="abc"),
    "zero denominator": _doc(coeff="1/0"),
    "coefficient number": _doc(coeff=None),
    "weight text": _doc("operator", "x^(0);t{};d x^(1);d t{}", weights={"lambda": "x"}),
    "missing terms": {"signature": {"p": 1, "q": 1}, "kind": "poly"},
    "missing signature": {"kind": "poly", "terms": []},
    "negative signature": _doc(p=-1, q=0),
    "signature text": _doc(p="a"),
    "weights not a map": dict(_doc(), weights=["delta"]),
    "not a map": ["poly"],
}


@pytest.mark.parametrize("doc", MALFORMED_DOCS.values(), ids=list(MALFORMED_DOCS))
def test_malformed_json_raises_expr_error(doc):
    with pytest.raises(ExprError):
        value_from_json(doc)


# ---------------------------------------------------------------------------
# Property-based round trips: for every value the formatter can emit, parsing
# the text (or the JSON document) must reproduce the value exactly.
# ---------------------------------------------------------------------------

from hypothesis import example, given, settings
from hypothesis import strategies as st

_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def _signatures(draw):
    return Signature(draw(st.integers(1, 3)), draw(st.integers(0, 3)))


@st.composite
def _polys(draw, sig, max_terms=4):
    f = SuperPolynomial.zero(sig)
    for _ in range(draw(st.integers(0, max_terms))):
        evens = tuple(draw(st.integers(0, 3)) for _ in range(sig.p))
        odds = (
            draw(st.lists(st.integers(1, sig.q), unique=True, max_size=sig.q))
            if sig.q
            else []
        )
        f = f + SuperPolynomial.monomial(sig, evens, odds, draw(_fractions))
    return f


@st.composite
def _poly_cases(draw):
    sig = draw(_signatures())
    return sig, draw(_polys(sig))


@st.composite
def _vfield_cases(draw):
    sig = draw(_signatures())
    return sig, SuperVectorField(sig, [draw(_polys(sig, 2)) for _ in range(sig.n)])


@st.composite
def _symbol_cases(draw):
    sig = draw(_signatures())
    weight = draw(_fractions)
    degree = draw(st.integers(0, 3))
    s = SymbolField.zero(sig, weight, degree)
    for _ in range(draw(st.integers(0, 3))):
        n_odd = draw(st.integers(0, min(sig.q, degree)))
        odds = (
            sorted(
                draw(
                    st.lists(
                        st.integers(1, sig.q),
                        unique=True,
                        min_size=n_odd,
                        max_size=n_odd,
                    )
                )
            )
            if n_odd
            else []
        )
        evens = [0] * sig.p
        for _ in range(degree - n_odd):
            evens[draw(st.integers(0, sig.p - 1))] += 1
        s = s + SymbolField.monomial(sig, weight, evens, odds, draw(_polys(sig, 2)))
    return sig, weight, s


@st.composite
def _operator_cases(draw):
    sig = draw(_signatures())
    lam = draw(_fractions)
    mu = draw(_fractions)
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        evens = tuple(draw(st.integers(0, 2)) for _ in range(sig.p))
        mask = draw(st.integers(0, (1 << sig.q) - 1))
        terms[(evens, mask)] = draw(_polys(sig, 2))
    return sig, lam, mu, DiffOperator(sig, lam, mu, terms)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(_poly_cases())
    def test_poly(self, case):
        sig, f = case
        assert parse("poly", format_poly(f), sig) == f
        assert value_from_json(value_to_json(f)) == f

    @settings(max_examples=60, deadline=None)
    @given(_vfield_cases())
    def test_vfield(self, case):
        sig, x = case
        assert parse("vfield", format_vfield(x), sig) == x
        assert value_from_json(value_to_json(x)) == x

    @settings(max_examples=60, deadline=None)
    @given(_symbol_cases())
    def test_symbol(self, case):
        sig, weight, s = case
        out = parse("symbol", format_symbol(s), sig, weight=weight)
        assert out == s or (out.is_zero() and s.is_zero())
        doc_out = value_from_json(value_to_json(s))
        assert doc_out == s or (doc_out.is_zero() and s.is_zero())

    @settings(max_examples=60, deadline=None)
    @given(_operator_cases())
    def test_operator(self, case):
        sig, lam, mu, d = case
        assert parse("operator", format_operator(d), sig, lam=lam, mu=mu) == d
        assert value_from_json(value_to_json(d)) == d


# ---------------------------------------------------------------------------
# Fuzzing: arbitrary text parses to a value or raises ExprError, never
# another exception.

# arbitrary unicode, and text over the grammar's own characters
FUZZ_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="xtedx0123456789^*/+-() ", max_size=40),
)


class TestParseFuzz:
    @pytest.mark.parametrize("kind", ["poly", "vfield", "symbol", "operator"])
    @settings(max_examples=150, deadline=None)
    @given(text=FUZZ_TEXT, sig=_signatures())
    @example(text="x1^99999999999", sig=S21)
    @example(text="\u00b3*x1", sig=S21)
    @example(text="1" * 5000, sig=S21)
    @example(text="(" * 5000 + "x1" + ")" * 5000, sig=S21)
    def test_value_or_expr_error(self, kind, text, sig):
        try:
            value = parse(kind, text, sig)
        except ExprError:
            return
        assert value is not None

    def test_power_is_one_monomial(self):
        f = poly(S21, "x1^99999999999*x2^3")
        assert f == SuperPolynomial.monomial(S21, (99999999999, 3), ())
        s = parse("symbol", "ex2^7", S21)
        assert s.degree == 7
        d = parse("operator", "dx1^12345678901", S21)
        assert d.order == 12345678901

    @pytest.mark.parametrize("text", [None, [], b"x1", 7])
    def test_text_that_is_not_a_string(self, text):
        with pytest.raises(ExprError, match="expected expression text"):
            parse("poly", text, S21)


# ---------------------------------------------------------------------------
# The reader folds each product into one monomial: the printed text of a
# quantized operator, every coefficient a literal or a one-term group such as
# ``(3/4)``, parses with no kernel product at all.


@pytest.mark.parametrize("sig", [S21, Signature(2, 3)], ids=str)
def test_printed_operator_parses_without_a_kernel_product(sig, kernel_calls):
    rng = random.Random(f"printed {sig}")
    cfg = QuantizationConfig(sig, Fraction(1, 3), Fraction(1, 5), t=Fraction(1, 2))
    symbol = MixedSymbol.from_fields(sig, cfg.delta, [
        rand_symbol(sig, cfg.delta, degree, rng) for degree in (1, 2, 3)])
    op = quantize(symbol, cfg)
    text = format_value(op)
    assert "(" in text and "*t" in text and "*dt" in text
    kernel_calls.clear()
    assert parse("operator", text, sig, lam=op.lam, mu=op.mu) == op
    assert kernel_calls["mul_terms"] == 0


def test_a_product_of_two_sums_is_one_kernel_product(kernel_calls):
    assert poly(S21, "(x1 + t1)*(t1 - x1)") == -poly(S21, "x1^2")
    assert kernel_calls["mul_terms"] == 1


# ---------------------------------------------------------------------------
# Differential test: the reader agrees with the reader it replaced, kept in
# ``expr_reference``, on the value or on the error message and position.

_PIECES = st.sampled_from([
    "x1", "x2", "x4", "t1", "t2", "t4", "ex1", "ex2", "et1", "et2", "dx1",
    "dx2", "dt1", "dt3", "x01", "e1", "y3", "+", "-", "*", "^", "/", "(", ")",
    " ", "0", "1", "2", "12", "\u00e9", "\u00b3", "\u00bd", "\u0663", "\u00a0",
    "_", "t1^2", "x1^0", "x1^3", "t1*t1", "et1*x1*et1", "dt1*t2*dt1",
    "(x1 + t1)", "(t1 - x1)", "(3/4)", "(-2)", "(0)", "/0",
])
_LONG = "1" * 4301
DIFF_TEXT = st.one_of(
    FUZZ_TEXT,
    st.lists(_PIECES, max_size=16).map("".join),
    st.lists(_PIECES, min_size=1, max_size=8).map("*".join),
    st.builds(
        lambda depth, inner: "(" * depth + inner + ")" * depth,
        st.sampled_from([1, 3, 30, 2000]),
        st.lists(_PIECES, max_size=6).map("*".join),
    ),
    st.sampled_from([_LONG, "x" + _LONG, "2*" + _LONG + "*x1", "x1^" + _LONG]),
)


@st.composite
def _any_signatures(draw):
    p = draw(st.integers(0, 3))
    return Signature(p, draw(st.integers(0 if p else 1, 3)))


@st.composite
def _sums_of_products(draw, sig, kind):
    """Well-formed text over the atoms of ``sig`` legal in ``kind``: powers,
    literals, out-of-order and repeated odd atoms, groups of one term and of
    several terms inside products."""
    slot = {"poly": "", "vfield": "d", "symbol": "e", "operator": "d"}[kind]
    classes = ("", slot) if slot else ("",)
    evens = [f"{c}x{i}" for c in classes for i in range(1, sig.p + 1)]
    odds = [f"{c}t{i}" for c in classes for i in range(1, sig.q + 1)]
    factors = [st.sampled_from(["2", "1/3", "(3/4)", "(-1/2)"])]
    if evens:
        factors.append(st.sampled_from(evens))
        factors.append(st.builds("{}^{}".format, st.sampled_from(evens), st.integers(1, 3)))
    if odds:
        factors.append(st.sampled_from(odds))
    product = st.lists(st.one_of(factors), min_size=1, max_size=5).map("*".join)
    group = st.one_of(
        product.map("({})".format),
        st.lists(product, min_size=2, max_size=3).map(" - ".join).map("({})".format),
    )
    term = st.lists(st.one_of(*factors, group), min_size=1, max_size=5).map("*".join)
    sign = draw(st.sampled_from(["", "-"]))
    return sign + " + ".join(draw(st.lists(term, min_size=1, max_size=3)))


def _assert_agrees(kind, text, sig):
    def outcome(reader):
        try:
            value = reader(kind, text, sig)
        except ExprError as exc:
            return "error", str(exc), exc.position
        return "value", type(value), value

    assert outcome(parse) == outcome(parse_reference)


@pytest.mark.parametrize("kind", ["poly", "vfield", "symbol", "operator"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_agrees_with_the_reference(kind, data):
    sig = data.draw(_any_signatures(), label="sig")
    text = data.draw(st.one_of(DIFF_TEXT, _sums_of_products(sig, kind)), label="text")
    _assert_agrees(kind, text, sig)


def _stack_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _from_depth(frames, call):
    """``call()``, run ``frames`` interpreter frames below the caller."""
    return call() if frames == 0 else _from_depth(frames - 1, call)


def test_nesting_cap_does_not_depend_on_the_caller():
    def nested(depth):
        return parse("poly", "(" * depth + "x1" + ")" * depth, S21)

    # a caller as deep as leaves three frames per level of the cap and a
    # margin for the reader's own calls
    room = sys.getrecursionlimit() - _stack_depth() - 3 * MAX_NESTING - 40
    assert room > 500
    for frames in (0, room):
        assert _from_depth(frames, lambda: nested(MAX_NESTING)) == poly(S21, "x1")
        with pytest.raises(ExprError) as info:
            _from_depth(frames, lambda: nested(MAX_NESTING + 1))
        assert str(info.value) == "expression nested too deeply (at position 0)"
        assert info.value.position == 0


@pytest.mark.parametrize("kind", ["poly", "vfield", "symbol", "operator"])
@pytest.mark.parametrize("text, sig", [
    ("\u00e9x1 + x1\u00b3", S21),
    ("x1\u0663*2", S21),
    ("(x1 + t1)*x2*(t1 - x1)*t1", S21),
    ("t2*(t1)*(3/4)", S12),
    ("dt1*t1*(dt2*t2)", S12),
    ("t1*(3/4)*t1", Signature(0, 2)),
    ("x1^2*(2/4)*x1", S10),
    ("(" * 2000 + "x1" + ")" * 2000, S21),
], ids=["letters", "digit", "groups", "one-term-group", "odd-group", "repeat", "even",
        "deep"])
def test_reader_agrees_on_edge_cases(kind, text, sig):
    _assert_agrees(kind, text, sig)


# term keys close to the encoder's layout: small indices, so that repeats,
# index 0, indices beyond q and wrong arities all occur
_INT_LISTS = st.lists(st.integers(0, 4), max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)
_NEAR_KEYS = st.builds(
    lambda xe, t, slot, se, s: f"x^({xe});t{{{t}}}"
    + (f";{slot} x^({se});{slot} t{{{s}}}" if slot else ""),
    _INT_LISTS,
    _INT_LISTS,
    st.sampled_from(["", "d", "e"]),
    _INT_LISTS,
    _INT_LISTS,
)
KEY_TEXT = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="xtde^(){};, 0123456789", max_size=30),
    _NEAR_KEYS,
)
COEFF_TEXT = st.one_of(
    st.text(max_size=12), st.text(alphabet="-/0123456789e. ", max_size=12)
)


class TestJsonFuzz:
    @pytest.mark.parametrize("kind", ["poly", "vfield", "symbol", "operator"])
    @settings(max_examples=150, deadline=None)
    @given(key=KEY_TEXT, coeff=COEFF_TEXT, sig=_signatures())
    @example(key="x^(0,0);t{1,1}", coeff="1", sig=S21)
    @example(key="x^(0,0);t{}", coeff="1e999999999", sig=S21)
    @example(key="x^(0,0);t{}", coeff="1" * 5000, sig=S21)
    def test_value_or_expr_error(self, kind, key, coeff, sig):
        doc = {
            "signature": {"p": sig.p, "q": sig.q},
            "weights": {"delta": coeff, "lambda": coeff},
            "kind": kind,
            "terms": [{"key": key, "coeff": coeff}],
        }
        try:
            value = value_from_json(doc)
        except ExprError:
            return
        assert value is not None
