"""Core Grassmann-polynomial arithmetic, checked against a word-based oracle.

The oracle below represents products of odd generators as explicit ordered
words and canonicalizes by bubble sort, counting transpositions.  It shares
no code with the bitmask kernels, so agreement is meaningful.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superquant import Signature, SuperPolynomial, iter_monomials
from superquant.supercore import _ops

S11 = Signature(1, 1)
S12 = Signature(1, 2)
S22 = Signature(2, 2)
S23 = Signature(2, 3)
S30 = Signature(3, 0)


def x(sig, i):
    return SuperPolynomial.coordinate(sig, i)


def th(sig, t):
    return SuperPolynomial.coordinate(sig, sig.p + t)


# ---------------------------------------------------------------------------
# independent oracle: ordered words of odd generators


def word_canon(word):
    """Sort an odd word into ascending order; return (sign, tuple) or None."""
    w = list(word)
    sign = 1
    for i in range(len(w)):
        for j in range(len(w) - 1 - i):
            if w[j] > w[j + 1]:
                w[j], w[j + 1] = w[j + 1], w[j]
                sign = -sign
    for a, b in zip(w, w[1:]):
        if a == b:
            return None
    return sign, tuple(w)


def word_left_derivative(word, t):
    """Left derivative of an ordered word: move t to the front, then drop it."""
    if t not in word:
        return None
    pos = word.index(t)
    sign = -1 if pos & 1 else 1
    return sign, word[:pos] + word[pos + 1 :]


def poly_from_word(sig, word, coeff=1):
    out = SuperPolynomial.one(sig) * coeff
    for t in word:
        out = out * th(sig, t)
    return out


# ---------------------------------------------------------------------------
# frozen examples


def test_odd_swap_sign():
    # one transposition when sorting theta2*theta1
    assert th(S22, 2) * th(S22, 1) == -(th(S22, 1) * th(S22, 2))


def test_odd_square_vanishes():
    assert (th(S11, 1) * th(S11, 1)).is_zero()
    assert (th(S12, 2) ** 2).is_zero()


def test_unit_geometric_identity():
    one = SuperPolynomial.one(S11)
    t1 = th(S11, 1)
    assert (one + t1) * (one - t1) == one


def test_left_odd_derivative_sign():
    # d/dtheta2 (theta1*theta2) = -theta1: theta2 first jumps over theta1
    prod = th(S12, 1) * th(S12, 2)
    assert prod.partial(S12.p + 2) == -th(S12, 1)
    assert prod.partial(S12.p + 1) == th(S12, 2)


def test_even_partial_power_rule():
    f = x(S30, 1) ** 3
    assert f.partial(1) == 3 * x(S30, 1) ** 2
    assert f.partial(2).is_zero()


def test_parity_classification():
    assert (th(S22, 1) * th(S22, 2)).parity() == 0
    assert (x(S22, 1) * th(S22, 1)).parity() == 1
    assert (x(S22, 1) + th(S22, 1)).parity() is None
    assert SuperPolynomial.zero(S22).parity() == 0


def test_three_odd_generators_sort():
    # theta3*theta1*theta2 needs two transpositions: even permutation
    prod = th(S23, 3) * th(S23, 1) * th(S23, 2)
    expect = th(S23, 1) * th(S23, 2) * th(S23, 3)
    assert prod == expect
    sign, word = word_canon((3, 1, 2))
    assert sign == 1 and word == (1, 2, 3)


def test_iter_monomials_count():
    mons = list(iter_monomials(S11, 2))
    # masks {}: 1, x, x^2 ; {1}: t, x*t
    assert len(mons) == 5


# ---------------------------------------------------------------------------
# oracle comparison on random odd words


@pytest.mark.parametrize("seed", range(6))
def test_word_oracle_products(seed):
    rng = random.Random(seed)
    sig = S23
    for _ in range(40):
        w1 = tuple(rng.choices(range(1, 4), k=rng.randint(0, 3)))
        w2 = tuple(rng.choices(range(1, 4), k=rng.randint(0, 3)))
        lhs = poly_from_word(sig, w1) * poly_from_word(sig, w2)
        canon = word_canon(w1 + w2)
        if canon is None:
            assert lhs.is_zero()
        else:
            sign, word = canon
            assert lhs == poly_from_word(sig, word, sign)


@pytest.mark.parametrize("seed", range(6))
def test_word_oracle_derivatives(seed):
    rng = random.Random(seed)
    sig = S23
    for _ in range(40):
        word = rng.sample(range(1, 4), k=rng.randint(1, 3))
        canon = word_canon(tuple(word))
        assert canon is not None
        sign, sorted_word = canon
        t = rng.randint(1, 3)
        lhs = poly_from_word(sig, sorted_word).partial(sig.p + t)
        res = word_left_derivative(sorted_word, t)
        if res is None:
            assert lhs.is_zero()
        else:
            dsign, rest = res
            assert lhs == poly_from_word(sig, rest, dsign)


# ---------------------------------------------------------------------------
# the kernel's sign helpers on every pair of 6-bit masks, against the oracle


def mask_word(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def test_odd_merge_sign_all_small_masks():
    for a in range(1 << 6):
        for b in range(1 << 6):
            canon = word_canon(mask_word(a) + mask_word(b))
            want = 0 if canon is None else canon[0]
            assert _ops.odd_merge_sign(a, b) == want, (a, b)


def test_odd_below_all_small_masks():
    for mask in range(1 << 6):
        for pos in range(6):
            below = [t for t in mask_word(mask) if t <= pos]
            assert _ops.odd_below(mask, 1 << pos) == len(below), (mask, pos)
            # sorting generator pos+1 into the rest passes exactly those below it
            rest = mask_word(mask & ~(1 << pos))
            sign, _ = word_canon((pos + 1,) + rest)
            assert sign == (-1) ** len(below), (mask, pos)


# ---------------------------------------------------------------------------
# algebraic properties (hypothesis)

SIGS = [Signature(1, 1), Signature(2, 1), Signature(1, 2), Signature(2, 2)]

rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


@st.composite
def polys(draw, sig=None, max_degree=3):
    if sig is None:
        sig = draw(st.sampled_from(SIGS))
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        evens = tuple(
            draw(st.integers(0, max_degree)) for _ in range(sig.p)
        )
        mask = draw(st.integers(0, (1 << sig.q) - 1))
        coeff = draw(rationals)
        key = (evens, mask)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return SuperPolynomial(sig, terms)


@st.composite
def poly_triples(draw):
    sig = draw(st.sampled_from(SIGS))
    return (
        draw(polys(sig=sig)),
        draw(polys(sig=sig)),
        draw(polys(sig=sig)),
    )


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_associativity_and_distributivity(fgh):
    f, g, h = fgh
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_supercommutativity(fgh):
    f, g, _ = fgh
    fe, fo = f.graded_parts()
    ge, go = g.graded_parts()
    assert fe * ge == ge * fe
    assert fe * go == go * fe
    assert fo * go == -(go * fo)


@settings(max_examples=60, deadline=None)
@given(poly_triples(), st.integers(1, 4), st.integers(1, 4))
def test_partial_commutation(fgh, i, j):
    f, _, _ = fgh
    sig = f.signature
    if i > sig.n or j > sig.n:
        return
    lhs = f.partial(i).partial(j)
    rhs = f.partial(j).partial(i)
    if sig.parity(i) and sig.parity(j):
        assert lhs == -rhs
    else:
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(poly_triples(), st.integers(1, 4))
def test_super_leibniz(fgh, i):
    f, g, _ = fgh
    sig = f.signature
    if i > sig.n:
        return
    fe, fo = f.graded_parts()
    lhs = (f * g).partial(i)
    if sig.parity(i) == 0:
        rhs = f.partial(i) * g + f * g.partial(i)
    else:
        rhs = f.partial(i) * g + fe * g.partial(i) - fo * g.partial(i)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(poly_triples(), st.integers(0, 3))
def test_power_matches_repeated_product(fgh, n):
    f, _, _ = fgh
    out = SuperPolynomial.one(f.signature)
    for _ in range(n):
        out = out * f
    assert f**n == out


def test_signature_mismatch_rejected():
    with pytest.raises(ValueError):
        x(S11, 1) * x(S22, 1)


def test_canonical_form_drops_zeros():
    f = x(S11, 1) - x(S11, 1)
    assert f.is_zero() and not f._terms
    g = SuperPolynomial(S11, {((1,), 0): Fraction(0)})
    assert g.is_zero()


def test_coefficient_reads_canonical_keys():
    f = SuperPolynomial.monomial(S11, (2,), (1,), Fraction(3, 4))
    assert f.coefficient((2,), (1,)) == Fraction(3, 4)
    assert f.coefficient((2,), ()) == 0


def test_coefficient_rejects_keys_of_no_monomial():
    t1 = SuperPolynomial.coordinate(S11, 2)
    # t1 * t1 = 0, so the odd indices (1, 1) name no monomial
    with pytest.raises(ValueError, match="repeated odd index"):
        t1.coefficient((0,), (1, 1))
    with pytest.raises(ValueError, match=r"odd index 2 out of range 1\.\.1"):
        t1.coefficient((0,), (2,))
    with pytest.raises(ValueError, match="odd index 0 out of range"):
        t1.coefficient((0,), (0,))
    with pytest.raises(ValueError, match="bad even exponents"):
        t1.coefficient((0, 0), (1,))
    with pytest.raises(ValueError, match="bad even exponents"):
        t1.coefficient((-1,), ())


# ---------------------------------------------------------------------------
# the one-pass derivation kernel against separate products

KERNEL_SIGS = SIGS + [Signature(2, 0), Signature(0, 2), Signature(1, 0), Signature(0, 1)]
UNITS_OR_RATIONALS = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), rationals)


@st.composite
def unit_heavy_polys(draw, sig):
    """Up to four terms of degree <= 2 per variable, coefficients often +-1."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = (tuple(draw(st.integers(0, 2)) for _ in range(sig.p)),
               draw(st.integers(0, (1 << sig.q) - 1)))
        terms[key] = terms.get(key, Fraction(0)) + draw(UNITS_OR_RATIONALS)
    return SuperPolynomial(sig, terms)


@st.composite
def derivation_cases(draw):
    sig = draw(st.sampled_from(KERNEL_SIGS))
    a = draw(unit_heavy_polys(sig))
    comps = [draw(unit_heavy_polys(sig)) for _ in range(sig.n)]
    w = draw(st.one_of(st.none(), unit_heavy_polys(sig)))
    return sig, a, comps, w


def derive_by_products(sig, a, comps, w):
    """sum_i mul_terms(C_i, partial_*_terms(A, i)) + mul_terms(W, A)."""
    out = {}
    for i, c in enumerate(comps):
        if i < sig.p:
            d = _ops.partial_even_terms(a._terms, i)
        else:
            d = _ops.partial_odd_terms(a._terms, 1 << (i - sig.p))
        out = _ops.add_terms(out, _ops.mul_terms(c._terms, d))
    if w is not None:
        out = _ops.add_terms(out, _ops.mul_terms(w._terms, a._terms))
    return out


@settings(max_examples=200, deadline=None)
@given(derivation_cases())
def test_derive_terms_matches_separate_products(case):
    sig, a, comps, w = case
    form = _ops.derivation(sig.p, [(i, c._terms) for i, c in enumerate(comps)])
    got = _ops.derive_terms(a._terms, form, None if w is None else w._terms)
    assert got == derive_by_products(sig, a, comps, w)
    assert all(got.values())  # canonical: no zero coefficient is stored


def test_derive_terms_drops_cancelled_terms():
    # (x d/dx - t d/dt)(x t) = x t - x t and (y d/dy)(y) - 1 * y cancel
    sig = S11
    form = _ops.derivation(1, [(0, x(sig, 1)._terms), (1, (-th(sig, 1))._terms)])
    assert _ops.derive_terms((x(sig, 1) * th(sig, 1))._terms, form) == {}
    sig = Signature(1, 0)
    form = _ops.derivation(1, [(0, x(sig, 1)._terms)])
    minus_one = SuperPolynomial.scalar(sig, -1)._terms
    assert _ops.derive_terms(x(sig, 1)._terms, form, minus_one) == {}


def test_add_into_sums_in_place():
    acc = (x(S11, 1) + th(S11, 1))._terms.copy()
    piece = (x(S11, 1) - 2 * th(S11, 1))._terms
    before = dict(piece)
    assert _ops.add_into(acc, piece, -1) is acc
    assert acc == (3 * th(S11, 1))._terms  # the x terms cancelled and left
    assert piece == before
