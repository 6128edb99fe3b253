"""Tests for vector fields, symbols, and operators.

The randomized checks pit independent formulations against each other:
operator composition against nested evaluation, the degree-one symbol action
against the vector-field bracket, the degree-zero action against the density
Lie derivative, the affine correspondence against an explicit product of
first-order operators, the closed-form operator Lie derivative against
its definition by two compositions, and the term-map symbol constructions
against their nested per-frame-key references.
"""

import json
import random
from collections import Counter
from copy import deepcopy
from fractions import Fraction
from itertools import product
from math import comb, prod
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superquant import geometry
from superquant.expr import format_value
from superquant.projective import euler_element, realize
from superquant.quantizer import QuantizationConfig, quantize
from superquant.verifier import equivariance_generators

from superquant.supercore import (
    Signature,
    SuperPolynomial,
    _check_same_signature,
    _ops,
    as_fraction,
    iter_monomials,
)
from superquant.geometry import (
    DiffOperator,
    MixedSymbol,
    SuperVectorField,
    SymbolField,
    affine_quantize,
    affine_symbol,
    bracket,
    density_operator,
    interior,
    lie_density,
    lie_operator,
    lie_symbol,
    operators_agree,
    principal_symbol,
    symbol_divergence,
)

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S12 = Signature(1, 2)
S22 = Signature(2, 2)


# ---------------------------------------------------------------------------
# helpers


def rand_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def rand_poly(rng, sig, max_degree=2, n_terms=3):
    out = SuperPolynomial.zero(sig)
    for _ in range(n_terms):
        evens = [0] * sig.p
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            if sig.p and rng.random() < 0.6:
                evens[rng.randrange(sig.p)] += 1
        odds = sorted(rng.sample(range(1, sig.q + 1), rng.randint(0, min(sig.q, 2))))
        out = out + SuperPolynomial.monomial(sig, evens, odds, rand_fraction(rng))
    return out


def rand_field(rng, sig, max_degree=2):
    return SuperVectorField(
        sig, [rand_poly(rng, sig, max_degree, 2) for _ in range(sig.n)]
    )


def rand_homogeneous_field(rng, sig, parity, max_degree=2):
    for _ in range(50):
        parts = dict(rand_field(rng, sig, max_degree).graded_parts())
        if parity in parts:
            return parts[parity]
    raise AssertionError("could not sample a homogeneous field")


def rand_affine_field(rng, sig):
    """Components of total degree at most one (constant plus linear)."""
    comps = []
    for _ in range(sig.n):
        poly = SuperPolynomial.scalar(sig, rand_fraction(rng))
        for i in range(1, sig.n + 1):
            poly = poly + rand_fraction(rng) * SuperPolynomial.coordinate(sig, i)
        comps.append(poly)
    return SuperVectorField(sig, comps)


def unit_key(sig, i):
    if i <= sig.p:
        return (tuple(1 if k == i - 1 else 0 for k in range(sig.p)), 0)
    return ((0,) * sig.p, 1 << (i - sig.p - 1))


def vf_to_symbol(x, weight=0):
    terms = {}
    for i in range(1, x.signature.n + 1):
        comp = x.components[i - 1]
        if comp:
            terms[unit_key(x.signature, i)] = comp
    return SymbolField(x.signature, weight, 1, terms)


def scalar_symbol(sig, weight, f):
    if not isinstance(f, SuperPolynomial):
        f = SuperPolynomial.scalar(sig, f)
    return SymbolField(sig, weight, 0, {((0,) * sig.p, 0): f})


def rand_symbol(rng, sig, weight, degree, n_terms=3):
    out = SymbolField.zero(sig, weight, degree)
    for _ in range(n_terms):
        odd_count = rng.randint(0, min(sig.q, degree))
        odds = sorted(rng.sample(range(1, sig.q + 1), odd_count))
        evens = [0] * sig.p
        for _ in range(degree - odd_count):
            if sig.p == 0:
                break
            evens[rng.randrange(sig.p)] += 1
        if sum(evens) + len(odds) != degree:
            continue
        out = out + SymbolField.monomial(
            sig, weight, evens, odds, rand_poly(rng, sig, 2, 2)
        )
    return out


def x(sig, i=1):
    return SuperPolynomial.coordinate(sig, i)


def th(sig, t=1):
    return SuperPolynomial.coordinate(sig, sig.p + t)


# ---------------------------------------------------------------------------
# divergence and density action


def test_divergence_examples():
    zero11 = SuperPolynomial.zero(S11)
    field = SuperVectorField(S11, [zero11, th(S11)])  # theta d/dtheta
    assert field.divergence() == SuperPolynomial.scalar(S11, -1)

    sq = SuperVectorField(S11, [x(S11) * x(S11), zero11])
    assert sq.divergence() == 2 * x(S11)

    mixed = SuperVectorField(
        Signature(0, 2),
        [
            th(Signature(0, 2), 1) * th(Signature(0, 2), 2),
            SuperPolynomial.zero(Signature(0, 2)),
        ],
    )
    assert mixed.divergence() == th(Signature(0, 2), 2)


@pytest.mark.parametrize("sig", [S11, S21, S12, S22, Signature(2, 3)])
def test_euler_divergence(sig):
    assert SuperVectorField.euler(sig).divergence() == SuperPolynomial.scalar(
        sig, sig.p - sig.q
    )


def test_lie_density_euler_weight():
    lam = Fraction(1, 3)
    eul = SuperVectorField.euler(S11)
    f = x(S11)
    # Euler field on a degree-1 function: f + lam*(p-q)*f = f
    assert lie_density(eul, lam, f) == (1 + lam * 0) * f
    g = th(S11)
    assert lie_density(eul, lam, g) == g

    eul21 = SuperVectorField.euler(S21)
    h = x(S21, 1)
    assert lie_density(eul21, lam, h) == (1 + lam) * h


def test_density_operator_matches_lie_density():
    rng = random.Random(7)
    for sig in (S11, S12, S22):
        for _ in range(6):
            field = rand_field(rng, sig)
            lam = rand_fraction(rng)
            op = density_operator(field, lam)
            assert op.lam == lam and op.mu == lam
            for mono in iter_monomials(sig, 2):
                assert op.apply(mono) == lie_density(field, lam, mono)


# ---------------------------------------------------------------------------
# bracket


def test_bracket_example_odd():
    sig = Signature(0, 2)
    zero = SuperPolynomial.zero(sig)
    xf = SuperVectorField(sig, [zero, th(sig, 1)])  # theta1 d/dtheta2
    yf = SuperVectorField(sig, [th(sig, 2), zero])  # theta2 d/dtheta1
    got = bracket(xf, yf)
    want = SuperVectorField(sig, [th(sig, 1), -th(sig, 2)])
    assert got == want


def test_bracket_super_antisymmetry_and_jacobi():
    rng = random.Random(11)
    for sig in (S11, S12):
        for _ in range(4):
            fields = []
            for _ in range(3):
                par = rng.randint(0, 1)
                fields.append((par, rand_homogeneous_field(rng, sig, par, 1)))
            (a, xf), (b, yf), (c, zf) = fields
            sgn = -1 if a and b else 1
            assert bracket(xf, yf) == -sgn * bracket(yf, xf)
            lhs = bracket(xf, bracket(yf, zf))
            rhs = bracket(bracket(xf, yf), zf) + sgn * bracket(yf, bracket(xf, zf))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# operator composition and evaluation


def test_compose_even_example():
    sig = Signature(1, 0)
    d = DiffOperator(sig, 0, 0, {((1,), 0): SuperPolynomial.one(sig)})
    m = DiffOperator.multiplication(x(sig), 0, 0)
    got = d.compose(m)
    want = DiffOperator(
        sig,
        0,
        0,
        {((1,), 0): x(sig), ((0,), 0): SuperPolynomial.one(sig)},
    )
    assert got == want


def test_compose_odd_example():
    sig = Signature(0, 1)
    d = DiffOperator(sig, 0, 0, {((), 1): SuperPolynomial.one(sig)})
    m = DiffOperator.multiplication(th(sig), 0, 0)
    got = d.compose(m)
    want = DiffOperator(
        sig,
        0,
        0,
        {((), 0): SuperPolynomial.one(sig), ((), 1): -th(sig)},
    )
    assert got == want


def test_compose_odd_ordering_sign():
    sig = Signature(0, 2)
    one = SuperPolynomial.one(sig)
    d2 = DiffOperator(sig, 0, 0, {((), 0b10): one})
    d1 = DiffOperator(sig, 0, 0, {((), 0b01): one})
    # d/dtheta2 then prepended d/dtheta1 is canonical; the reverse costs a sign
    assert d1.compose(d2) == DiffOperator(sig, 0, 0, {((), 0b11): one})
    assert d2.compose(d1) == DiffOperator(sig, 0, 0, {((), 0b11): -one})


def test_apply_odd_order():
    sig = Signature(0, 2)
    d = DiffOperator(sig, 0, 0, {((), 0b11): SuperPolynomial.one(sig)})
    f = th(sig, 1) * th(sig, 2)
    assert d.apply(f) == SuperPolynomial.scalar(sig, -1)


def test_compose_matches_apply():
    rng = random.Random(13)
    for sig in (S11, S12, S22):
        for _ in range(5):
            t1 = {}
            t2 = {}
            for _ in range(3):
                evens = tuple(
                    rng.randint(0, 1) if rng.random() < 0.7 else 0
                    for _ in range(sig.p)
                )
                mask = rng.randrange(1 << sig.q)
                t1[(evens, mask)] = rand_poly(rng, sig, 2, 2)
                evens2 = tuple(rng.randint(0, 1) for _ in range(sig.p))
                t2[(evens2, rng.randrange(1 << sig.q))] = rand_poly(rng, sig, 2, 2)
            lam, mu, nu = rand_fraction(rng), rand_fraction(rng), rand_fraction(rng)
            d1 = DiffOperator(sig, mu, nu, t1)
            d2 = DiffOperator(sig, lam, mu, t2)
            comp = d1.compose(d2)
            assert comp.lam == lam and comp.mu == nu
            for mono in iter_monomials(sig, 3):
                assert comp.apply(mono) == d1.apply(d2.apply(mono))


def test_compose_associative():
    rng = random.Random(17)
    sig = S12
    for _ in range(4):
        ops = []
        for w in range(3):
            terms = {}
            for _ in range(2):
                evens = tuple(rng.randint(0, 1) for _ in range(sig.p))
                terms[(evens, rng.randrange(1 << sig.q))] = rand_poly(rng, sig, 1, 2)
            ops.append(DiffOperator(sig, w, w + 1, terms))
        d3, d2, d1 = ops  # weights chain 0->1->2->3
        d2 = DiffOperator(sig, 1, 2, dict(d2.items()))
        d1 = DiffOperator(sig, 2, 3, dict(d1.items()))
        assert d1.compose(d2.compose(d3)) == (d1.compose(d2)).compose(d3)


def test_operators_agree_oracle():
    sig = S11
    one = SuperPolynomial.one(sig)
    a = DiffOperator(sig, 0, 0, {((1,), 0): one})
    b = DiffOperator(sig, 0, 0, {((1,), 0): one, ((0,), 1): th(sig)})
    assert operators_agree(a, a)
    assert not operators_agree(a, b)


def test_graded_parts_recombine():
    rng = random.Random(19)
    sig = S12
    terms = {}
    for _ in range(4):
        evens = tuple(rng.randint(0, 1) for _ in range(sig.p))
        terms[(evens, rng.randrange(1 << sig.q))] = rand_poly(rng, sig, 2, 2)
    d = DiffOperator(sig, 0, Fraction(1, 2), terms)
    parts = d.graded_parts()
    total = DiffOperator.zero(sig, d.lam, d.mu)
    for _, part in parts:
        assert part.parity() is not None
        total = total + part
    assert total == d


# ---------------------------------------------------------------------------
# the symbol action


def test_lie_symbol_degree_one_matches_bracket():
    rng = random.Random(23)
    for sig in (S11, S12, S21, S22):
        for _ in range(5):
            xf = rand_field(rng, sig)
            yf = rand_field(rng, sig)
            got = lie_symbol(xf, vf_to_symbol(yf))
            want = vf_to_symbol(bracket(xf, yf))
            assert got == want


def test_lie_symbol_degree_zero_matches_density():
    rng = random.Random(29)
    for sig in (S11, S12, S22):
        for _ in range(5):
            xf = rand_field(rng, sig)
            f = rand_poly(rng, sig)
            delta = rand_fraction(rng)
            got = lie_symbol(xf, scalar_symbol(sig, delta, f))
            assert got == scalar_symbol(sig, delta, lie_density(xf, delta, f))


def test_lie_symbol_representation_property():
    rng = random.Random(31)
    delta = Fraction(1, 3)
    for sig in (S11, S12, S21):
        for _ in range(4):
            a = rng.randint(0, 1)
            b = rng.randint(0, 1)
            xf = rand_homogeneous_field(rng, sig, a, 2)
            yf = rand_homogeneous_field(rng, sig, b, 2)
            s = rand_symbol(rng, sig, delta, rng.randint(1, 2), 2)
            lhs = lie_symbol(bracket(xf, yf), s)
            sgn = -1 if a and b else 1
            rhs = lie_symbol(xf, lie_symbol(yf, s)) - sgn * lie_symbol(
                yf, lie_symbol(xf, s)
            )
            assert lhs == rhs


def test_lie_operator_representation_property():
    rng = random.Random(37)
    sig = S11
    lam, mu = Fraction(1, 4), Fraction(2, 3)
    for _ in range(3):
        a = rng.randint(0, 1)
        b = rng.randint(0, 1)
        xf = rand_homogeneous_field(rng, sig, a, 2)
        yf = rand_homogeneous_field(rng, sig, b, 2)
        terms = {}
        for _ in range(2):
            evens = tuple(rng.randint(0, 1) for _ in range(sig.p))
            terms[(evens, rng.randrange(1 << sig.q))] = rand_poly(rng, sig, 1, 2)
        d = DiffOperator(sig, lam, mu, terms)
        lhs = lie_operator(bracket(xf, yf), d)
        sgn = -1 if a and b else 1
        rhs = lie_operator(xf, lie_operator(yf, d)) - sgn * lie_operator(
            yf, lie_operator(xf, d)
        )
        assert lhs == rhs


def lie_operator_by_composition(x, d, compose=DiffOperator.compose):
    """The definition L^mu_X o D - (-1)^{|X||D|} D o L^lam_X on graded parts,
    composed with the generic normal-ordering ``compose``."""
    out = DiffOperator.zero(d.signature, d.lam, d.mu)
    for chi, xp in x.graded_parts():
        l_mu = density_operator(xp, d.mu)
        l_lam = density_operator(xp, d.lam)
        for dpar, dp in d.graded_parts():
            out = out + compose(l_mu, dp)
            tail = compose(dp, l_lam)
            out = out + (tail if chi and dpar else -tail)
    return out


ORACLE_SIGNATURES = [
    Signature(1, 0), Signature(2, 0), Signature(0, 1), Signature(0, 2),
    S11, S21, S12, S22, Signature(3, 1), Signature(1, 3),
]
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def polys(draw, sig, max_degree=3):
    """Inhomogeneous polynomials with up to three terms of degree <= max_degree."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        evens = [0] * sig.p
        for _ in range(draw(st.integers(0, max_degree))):
            if sig.p:
                evens[draw(st.integers(0, sig.p - 1))] += 1
        mask = draw(st.integers(0, (1 << sig.q) - 1))
        if sum(evens) + mask.bit_count() <= max_degree:
            terms[(tuple(evens), mask)] = draw(RATIONALS)
    return SuperPolynomial(sig, terms)


@st.composite
def fields_and_operators(draw):
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    xf = SuperVectorField(sig, [draw(polys(sig, 2)) for _ in range(sig.n)])
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        evens = tuple(draw(st.integers(0, 2)) for _ in range(sig.p))
        mask = draw(st.integers(0, (1 << sig.q) - 1))
        terms[(evens, mask)] = draw(polys(sig))
    d = DiffOperator(sig, draw(RATIONALS), draw(RATIONALS), terms)
    return xf, d


@settings(max_examples=300, deadline=None)
@given(fields_and_operators())
def test_lie_operator_matches_composition(case):
    xf, d = case
    got = lie_operator(xf, d)
    want = lie_operator_by_composition(xf, d)
    assert (got.lam, got.mu) == (d.lam, d.mu)
    assert got == want


# ---------------------------------------------------------------------------
# normal ordering
#
# ``push_through_reference`` is the per-factor normal ordering that the
# Leibniz routine replaced, kept verbatim as an oracle, and
# ``compose_reference`` composes with it.  ``Leibniz`` is that routine,
# which ``lie_operator`` ran before its slot series, kept as the oracle of
# ``apply_reference``, its sums taken by ``SuperPolynomial`` addition.


class Leibniz:
    """Normal ordering of d^alpha o M for one term map M, by the Leibniz rule

        d^alpha o M = sum_{beta <= alpha} eps C d^{alpha-beta} * d_y^beta M,

    where C = prod_{even i} binom(alpha_i, beta_i), eps is the sign of
    d^alpha = eps d^{alpha-beta} d^beta among the odd derivatives, and
    d_y^beta differentiates the coordinates of M, its odd factors ascending
    with the rightmost acting first.  Every factor of d^alpha either
    differentiates the coefficients of M or passes them to stand at the left
    of the derivative monomials; the term beta = 0 is the product d^alpha * M.
    The sum stops at the coordinate degree of M, and each even beta_i at
    the power of y^i in M: a beta beyond them has d_y^beta M = 0.

    Each derivative d_y^beta M is computed once and shared by the keys alpha
    of one call, which makes and drops the object.
    """

    __slots__ = ("sig", "degree", "_powers", "_derivs")

    def __init__(self, sig: Signature, m: SuperPolynomial):
        self.sig = sig
        self.degree = geometry._coordinate_degree(sig, m)
        # the highest power of each even coordinate in M
        self._powers = tuple(map(max, zip(*(e[: sig.p] for (e, _), _ in m.items()))))
        self._derivs = {((0,) * sig.p, 0): m}

    def derivative(self, beta) -> SuperPolynomial:
        """d_y^beta M for a slot key beta."""
        got = self._derivs.get(beta)
        if got is None:
            # peel the leftmost factor: the lowest even index, else the lowest odd one
            evens, mask = beta
            for ix, b in enumerate(evens):
                if b:
                    i, rest = ix + 1, (evens[:ix] + (b - 1,) + evens[ix + 1 :], mask)
                    break
            else:
                bit = mask & -mask
                i, rest = self.sig.p + bit.bit_length(), (evens, mask ^ bit)
            inner = self.derivative(rest)
            got = inner.partial(geometry._coord(self.sig, i)) if inner else inner
            self._derivs[beta] = got
        return got

    def __call__(self, alpha, lowest: int = 0) -> SuperPolynomial:
        """d^alpha o M normal-ordered, less the terms with |beta| < ``lowest``."""
        sig = self.sig
        se, smask = alpha
        out = SuperPolynomial.zero(geometry._doubled(sig))
        top = min(self.degree, sum(se) + smask.bit_count())
        if lowest > top:
            return out
        ranges = [range(min(a, r, top) + 1) for a, r in zip(se, self._powers)]
        for be in product(*ranges):
            even_order = sum(be)
            if even_order > top:
                continue
            rest = tuple(map(sub, se, be))
            binom = prod(map(comb, se, be))
            for bmask in submasks(smask):
                if not lowest <= even_order + bmask.bit_count() <= top:
                    continue
                dm = self.derivative((be, bmask))
                if not dm:
                    continue
                rmask = smask ^ bmask
                if rmask or any(rest):
                    sign = _ops.odd_merge_sign(rmask, bmask)
                    dm = geometry._slot_monomial(sig, (rest, rmask), sign * binom) * dm
                out = out + dm
        return out


def submasks(mask: int):
    """Every mask whose bits lie in ``mask``, ``mask`` first."""
    part = mask
    while True:
        yield part
        if not part:
            return
        part = (part - 1) & mask


def push_through_reference(sig: Signature, alpha, m: SuperPolynomial):
    """Normal-order d^alpha o M for an operator M given as a term map.

    Each derivative factor d/dy^i of d^alpha, right to left, maps M to
    dM/dy^i + d_i * M: the factor differentiates the coefficients, or passes
    them to stand at the left of the derivative monomials, with the sign of
    the product.
    """
    se, smask = alpha
    p = sig.p
    for i in range(sig.n, 0, -1):
        times = se[i - 1] if i <= p else smask >> (i - p - 1) & 1
        if times:
            atom = geometry._slot_monomial(sig, geometry._unit(sig, i))
            for _ in range(times):
                m = m.partial(geometry._coord(sig, i)) + atom * m
    return m


def compose_reference(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """a o b, each slot key of a pushed through b by ``push_through_reference``."""
    sig = a.signature
    out = SuperPolynomial.zero(geometry._doubled(sig))
    for alpha, f in a.items():
        pushed = push_through_reference(sig, alpha, b._poly)
        out = out + geometry._lifted(sig, f) * pushed
    return DiffOperator._raw(sig, b.lam, a.mu, out)


@st.composite
def slot_keys(draw, sig, max_exponent=3):
    """Derivative monomials with even exponents up to ``max_exponent``."""
    evens = tuple(draw(st.integers(0, max_exponent)) for _ in range(sig.p))
    return evens, draw(st.integers(0, (1 << sig.q) - 1))


@st.composite
def operators(draw, sig, lam, mu, max_exponent=3):
    """Operators with up to three terms whose coefficients have degree <= 3."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        terms[draw(slot_keys(sig, max_exponent))] = draw(polys(sig))
    return DiffOperator(sig, lam, mu, terms)


@st.composite
def slot_keys_and_operators(draw):
    """Up to three slot keys, pushed in turn through one operator."""
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    alphas = draw(st.lists(slot_keys(sig), min_size=1, max_size=3))
    return sig, alphas, draw(operators(sig, 0, 0))


@settings(max_examples=300, deadline=None)
@given(slot_keys_and_operators())
def test_leibniz_matches_push_through_reference(case):
    sig, alphas, m = case
    push = Leibniz(sig, m._poly)
    for alpha in alphas:
        want = push_through_reference(sig, alpha, m._poly)
        assert push(alpha) == want
        top = geometry._slot_monomial(sig, alpha) * m._poly
        assert push(alpha, lowest=1) == want - top


@st.composite
def composable_operators(draw):
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    lam, mu, nu = (draw(RATIONALS) for _ in range(3))
    return draw(operators(sig, mu, nu)), draw(operators(sig, lam, mu))


@settings(max_examples=100, deadline=None)
@given(composable_operators())
def test_compose_matches_apply_for_higher_exponents(case):
    d1, d2 = case
    comp = d1.compose(d2)
    assert (comp.lam, comp.mu) == (d2.lam, d1.mu)
    assert comp == compose_reference(d1, d2)
    for mono in iter_monomials(d1.signature, min(d1.order + d2.order, 5)):
        assert comp.apply(mono) == d1.apply(d2.apply(mono))


def test_slot_series_walks_only_the_coordinates_of_the_field(monkeypatch):
    """The parts that ``lie_operator`` builds take no derivative along a
    coordinate the field lacks: the count of ``partial`` calls is the same
    whatever the number of even derivatives in the operator key."""
    calls = Counter()
    partial = SuperPolynomial.partial

    def counting(self, i):
        calls[self.signature] += 1
        return partial(self, i)

    monkeypatch.setattr(SuperPolynomial, "partial", counting)
    for p in (1, 2, 3, 4, 5):
        sig = Signature(p, 1)
        x1 = SuperPolynomial.coordinate(sig, 1)
        xf = SuperVectorField(sig, [x1**6] + [0] * p)
        d = DiffOperator(sig, 0, 0, {((6,) * p, 1): 1})
        assert not lie_operator(xf, d).is_zero()
    assert len(set(calls.values())) == 1 and calls[Signature(2, 2)] > 0


def test_slot_series_walk_only_below_the_keys_of_the_operator(monkeypatch):
    """A field spread over four coordinates, with a sum of operators along
    one coordinate each, or with those operators one after another, takes
    one ``partial`` per beta at or below some slot key of the operators, as
    the Leibniz sums did, and not one per beta in the box of their
    exponents (4^4 - 1 of them)."""
    sig = Signature(4, 0)
    y = [SuperPolynomial.coordinate(sig, i) for i in range(1, 5)]
    spread = prod(c**3 for c in y)
    keys = [(tuple(3 * (j == i) for j in range(4)), 0) for i in range(4)]
    ops = [DiffOperator(sig, Fraction(1, 3), Fraction(1, 2), {key: 1}) for key in keys]
    total = DiffOperator(sig, Fraction(1, 3), Fraction(1, 2), {key: 1 for key in keys})
    calls = []
    partial = SuperPolynomial.partial

    def counting(self, i):
        calls.append(i)
        return partial(self, i)

    monkeypatch.setattr(SuperPolynomial, "partial", counting)
    xf = SuperVectorField(sig, [spread, 0, 0, 0])
    want = lie_operator_by_composition(xf, total)
    calls.clear()
    assert lie_operator(xf, total) == want
    # the lift's 4, then 4 * 3 beta for each of the series of W and div X
    assert len(calls) == 4 + 2 * 12
    xf = SuperVectorField(sig, [spread, 0, 0, 0])
    calls.clear()
    assert sum((lie_operator(xf, d) for d in ops[1:]), lie_operator(xf, ops[0])) == want
    # the cap grows by one key per operator: 3, 6, 9, then 12 beta
    assert len(calls) == 4 + 2 * (3 + 6 + 9 + 12)


# ---------------------------------------------------------------------------
# operator application
#
# ``apply_reference`` is ``DiffOperator.apply`` as it was before it ran the
# operator's nested form: each coordinate derivative of the lifted function
# from ``Leibniz``, times its coefficient by the kernel's product; kept
# verbatim as the oracle.


def apply_reference(self, f):
    """Evaluate on a superfunction: each term f_a d^a adds f_a times the
    coordinate derivative d^a f of ``Leibniz``."""
    _check_same_signature(self, f)
    sig = self.signature
    derivs = Leibniz(sig, geometry._lifted(sig, f))
    out = SuperPolynomial.zero(geometry._doubled(sig))
    for alpha, coeff in self.items():
        g = derivs.derivative(alpha)
        if g:
            out = out + geometry._lifted(sig, coeff) * g
    return geometry._unlift(sig, out._terms, out._den)


APPLY_SIGNATURES = [
    Signature(p, q)
    for p, q in ((1, 0), (2, 0), (0, 1), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2),
                 (2, 3), (3, 1))
]


def rand_operator(rng, sig, order):
    """An operator of order ``order``, or of the largest order the signature
    has when that is lower, with five more terms of order at most that."""
    top = order if sig.p else min(order, sig.q)
    keys = [((top - sig.q,) + (0,) * (sig.p - 1), (1 << sig.q) - 1) if top > sig.q
            else ((0,) * sig.p, (1 << top) - 1)]
    for _ in range(5):
        evens, mask = [0] * sig.p, 0
        for _ in range(rng.randint(0, top)):
            i = rng.randrange(sig.n)
            if i < sig.p:
                evens[i] += 1
            else:
                mask |= 1 << (i - sig.p)
        keys.append((tuple(evens), mask))
    terms = {key: rand_poly(rng, sig, 2, 3) for key in keys}
    return DiffOperator(sig, rand_fraction(rng), rand_fraction(rng), terms)


@pytest.mark.parametrize("sig", APPLY_SIGNATURES, ids=str)
def test_apply_matches_the_leibniz_reference(sig):
    rng = random.Random(f"apply oracle {sig}")
    seen = Counter()
    for _ in range(8):
        d = rand_operator(rng, sig, 4)
        assert d.order == (4 if sig.p else min(4, sig.q))
        parts = d.graded_parts()
        for kind, op in [("mixed" if len(parts) == 2 else parts[0][0], d)] + parts:
            fs = [rand_poly(rng, sig, 6, 4) for _ in range(3)]
            for f in fs + [SuperPolynomial.zero(sig)]:
                assert op.apply(f) == apply_reference(op, f)
            seen[kind] += 1
    assert not sig.q or (seen[1] and seen["mixed"])


def test_apply_runs_its_form_without_a_product(monkeypatch, kernel_calls):
    """``apply`` builds an operator's nested form once, on first use, and
    takes no product of term maps: one ``derive_terms`` pass per node of
    the form, and a derivative per subtree."""
    rng = random.Random("apply spy")
    sig = Signature(2, 3)
    d = rand_operator(rng, sig, 5)
    fs = [rand_poly(rng, sig, 6, 4) for _ in range(4)]
    want = [apply_reference(d, f) for f in fs]
    built = []
    build = geometry._apply_form

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(geometry, "_apply_form", counting)
    kernel_calls.clear()
    assert d.apply(fs[0]) == want[0]
    nodes = len(built)
    assert nodes > 1 and 1 <= kernel_calls["derive_terms"] <= nodes
    for f, w in zip(fs[1:], want[1:]):
        assert d.apply(f) == w
    assert len(built) == nodes
    assert kernel_calls["mul_terms"] == 0
    assert (-d).apply(fs[0]) == -want[0]  # a new operator builds its own form
    assert len(built) == 2 * nodes


@st.composite
def cubic_fields_and_operators(draw):
    """A field with a cubic term (where the signature has one) and an
    operator with even slot exponents up to 3."""
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    comps = [draw(polys(sig, 3)) for _ in range(sig.n)]
    if sig.p or sig.q > 2:
        cubic = draw(polys(sig, 3).filter(lambda f: f.degree() == 3))
        comps[draw(st.integers(0, sig.n - 1))] += cubic
    d = draw(operators(sig, draw(RATIONALS), draw(RATIONALS)))
    return SuperVectorField(sig, comps), d


@settings(max_examples=150, deadline=None)
@given(cubic_fields_and_operators())
def test_lie_operator_matches_composition_for_cubic_fields(case):
    xf, d = case
    got = lie_operator(xf, d)
    assert (got.lam, got.mu) == (d.lam, d.mu)
    assert got == lie_operator_by_composition(xf, d)
    assert got == lie_operator_by_composition(xf, d, compose_reference)


@st.composite
def homogeneous_fields_and_operators(draw):
    """A homogeneous field of coordinate degree at most 2, one graded part
    of a drawn field, and an operator."""
    xf, d = draw(fields_and_operators())
    parts = xf.graded_parts()
    if parts:
        xf = parts[draw(st.integers(0, len(parts) - 1))][1]
    return xf, d


def lie_operator_by_parts(xf, d):
    """L_X D from the three operators of ``_operator_lie_parts``, applied to
    the term map of D at its weights."""
    lift, higher, phi, b = geometry._operator_lie_parts(xf)
    op = lift._poly + higher._poly + (d.mu - d.lam) * phi._poly + d.lam * b._poly
    return d._with(lift._with(op).apply(d._poly))


@settings(max_examples=300, deadline=None)
@given(homogeneous_fields_and_operators())
def test_operator_lie_parts_match_the_definition(case):
    xf, d = case
    assert lie_operator_by_parts(xf, d) == lie_operator_by_composition(xf, d)


def test_lie_operator_does_not_compose(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lie_operator must not compose operators")

    monkeypatch.setattr(DiffOperator, "compose", refuse)
    monkeypatch.setattr(geometry, "density_operator", refuse)
    rng = random.Random(47)
    for sig in (S11, S21, S12):
        xf = rand_field(rng, sig)
        d = DiffOperator(sig, Fraction(1, 3), Fraction(1, 2), {
            ((1,) * sig.p, (1 << sig.q) - 1): rand_poly(rng, sig),
            ((0,) * sig.p, 1): rand_poly(rng, sig),
        })
        assert not lie_operator(xf, d).is_zero()


def test_lie_operator_on_multiplication():
    rng = random.Random(41)
    sig = S12
    lam, mu = Fraction(1, 5), Fraction(1, 2)
    for _ in range(5):
        xf = rand_field(rng, sig)
        f = rand_poly(rng, sig)
        got = lie_operator(xf, DiffOperator.multiplication(f, lam, mu))
        want_sym = lie_symbol(xf, scalar_symbol(sig, mu - lam, f))
        want = DiffOperator.multiplication(want_sym.scalar_poly(), lam, mu)
        assert got == want


# ---------------------------------------------------------------------------
# the per-field action data
#
# The references below are the nested per-frame-key formulations the term-map
# constructions replaced, kept as oracles: ``_acc`` and ``_rho_elementary``
# verbatim, ``interior``, ``vee`` and ``symbol_divergence`` with only their
# results built through the public constructor.

_odd_below = _ops.odd_below


def _acc(d: dict, key, poly: SuperPolynomial) -> None:
    cur = d.get(key)
    if cur is None:
        if poly:
            d[key] = poly
    else:
        s = cur + poly
        if s:
            d[key] = s
        else:
            del d[key]


def _rho_elementary(sig: Signature, j: int, i: int, key) -> list:
    """Action on a frame monomial of the endomorphism taking e_i to e_j.

    Returns ``[(integer coefficient, new_key), ...]`` for the derivation
    action on the canonical monomial, signs included.
    """
    b, m = key
    p = sig.p
    ti, tj = sig.parity(i), sig.parity(j)
    if ti == 0:
        mult = b[i - 1]
        if not mult:
            return []
        b2 = b[: i - 1] + (b[i - 1] - 1,) + b[i:]
        if tj == 0:
            b3 = b2[: j - 1] + (b2[j - 1] + 1,) + b2[j:]
            return [(mult, (b3, m))]
        bit = 1 << (j - p - 1)
        if m & bit:
            return []
        sign = -1 if _odd_below(m, bit) & 1 else 1
        return [(mult * sign, (b2, m | bit))]
    bit_i = 1 << (i - p - 1)
    if not m & bit_i:
        return []
    prefix = _odd_below(m, bit_i)
    sign0 = -1 if ((ti ^ tj) and prefix & 1) else 1
    if tj == 0:
        b2 = b[: j - 1] + (b[j - 1] + 1,) + b[j:]
        return [(sign0, (b2, m ^ bit_i))]
    bit_j = 1 << (j - p - 1)
    if bit_j == bit_i:
        return [(sign0, (b, m))]
    m2 = m ^ bit_i
    if m2 & bit_j:
        return []
    lo, hi = (bit_i, bit_j) if bit_i < bit_j else (bit_j, bit_i)
    between = m2 & (hi - 1) & ~((lo << 1) - 1)
    sign = -sign0 if between.bit_count() & 1 else sign0
    return [(sign, (b, m2 | bit_j))]


def vee_reference(s, v):
    """Symmetric product with a homogeneous frame vector (column)."""
    sig = s.signature
    vec = [as_fraction(c) for c in v]
    if len(vec) != sig.n:
        raise ValueError(f"expected {sig.n} vector components")
    even_supp = any(vec[: sig.p])
    odd_supp = any(vec[sig.p :])
    if even_supp and odd_supp:
        raise ValueError("frame vector must be parity homogeneous")
    terms: dict = {}
    for (b, m), g in s.items():
        if even_supp:
            for r in range(sig.p):
                c = vec[r]
                if c:
                    key = (b[:r] + (b[r] + 1,) + b[r + 1 :], m)
                    _acc(terms, key, g * c)
        elif odd_supp:
            gs = g.parity_twist()
            for t in range(1, sig.q + 1):
                c = vec[sig.p + t - 1]
                if not c:
                    continue
                bit = 1 << (t - 1)
                if m & bit:
                    continue
                sign = -1 if _odd_below(m, bit) & 1 else 1
                _acc(terms, (b, m | bit), gs * (c * sign))
    return SymbolField(sig, s.weight, s.degree + 1, terms)


def interior_reference(h, s):
    """Contraction of a symbol with a homogeneous covector row.

    Lowers the degree by one; as an operator of the covector's parity it
    passes coefficient functions with the super sign.
    """
    sig = s.signature
    row = [as_fraction(c) for c in h]
    if len(row) != sig.n:
        raise ValueError(f"expected {sig.n} covector components")
    even_supp = any(row[: sig.p])
    odd_supp = any(row[sig.p :])
    if even_supp and odd_supp:
        raise ValueError("covector must be parity homogeneous")
    out_degree = max(s.degree - 1, 0)
    terms: dict = {}
    for (b, m), g in s.items():
        if even_supp:
            for r in range(sig.p):
                c = row[r]
                if c and b[r]:
                    key = (b[:r] + (b[r] - 1,) + b[r + 1 :], m)
                    _acc(terms, key, g * (c * b[r]))
        elif odd_supp:
            gs = g.parity_twist()
            if not gs:
                continue
            for t in range(1, sig.q + 1):
                c = row[sig.p + t - 1]
                if not c:
                    continue
                bit = 1 << (t - 1)
                if not m & bit:
                    continue
                sign = -1 if _odd_below(m, bit) & 1 else 1
                _acc(terms, (b, m ^ bit), gs * (c * sign))
    return SymbolField(sig, s.weight, out_degree, terms)


def symbol_divergence_reference(s):
    """Divergence of a symbol: contract each coordinate derivative with its
    dual frame covector, with the coordinate-parity sign."""
    sig = s.signature
    out = SymbolField.zero(sig, s.weight, max(s.degree - 1, 0))
    for j in range(1, sig.n + 1):
        dterms: dict = {}
        for key, g in s.items():
            dg = g.partial(j)
            if dg:
                dterms[key] = dg
        if not dterms:
            continue
        ds = SymbolField(sig, s.weight, s.degree, dterms)
        row = [Fraction(0)] * sig.n
        row[j - 1] = Fraction(-1 if sig.parity(j) else 1)
        out = out + interior_reference(row, ds)
    return out


def lie_symbol_reference(x, s):
    """``lie_symbol`` with everything that depends on the field alone (graded
    parts, Jacobians, the weight term of each diagonal entry) recomputed on
    every call."""
    sig = s.signature
    delta = s.weight
    n = sig.n
    acc = {}
    for chi, xp in x.graded_parts():
        jac = []
        for i in range(1, n + 1):
            ti = sig.parity(i)
            sfac = 1 if (ti and chi) else -1
            for j in range(1, n + 1):
                dcomp = xp.components[j - 1].partial(i)
                if dcomp:
                    jac.append((i, j, sfac * dcomp))
        for key, g in s.items():
            tg = xp.apply(g)
            if tg:
                _acc(acc, key, tg)
            gs = g.parity_twist() if chi else g
            if not gs:
                continue
            for i, j, jij in jac:
                c = gs * jij
                if not c:
                    continue
                for mult, key2 in _rho_elementary(sig, j, i, key):
                    _acc(acc, key2, mult * c)
                if i == j:
                    w = -delta if sig.parity(i) == 0 else delta
                    if w:
                        _acc(acc, key, w * c)
    return SymbolField(sig, delta, s.degree, acc)


@st.composite
def symbols(draw, sig, weight, degree):
    """Degree-``degree`` symbols with up to three terms."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        mask = draw(st.integers(0, (1 << sig.q) - 1))
        rest = degree - mask.bit_count()
        if rest < 0 or (rest and not sig.p):
            continue
        evens = [0] * sig.p
        for _ in range(rest):
            evens[draw(st.integers(0, sig.p - 1))] += 1
        terms[(tuple(evens), mask)] = draw(polys(sig, 2))
    return SymbolField(sig, weight, degree, terms)


@st.composite
def field_and_symbols(draw):
    """One field and three symbols of distinct weights and degrees."""
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    xf = SuperVectorField(sig, [draw(polys(sig, 2)) for _ in range(sig.n)])
    weights = draw(st.lists(RATIONALS, min_size=3, max_size=3, unique=True))
    degrees = draw(st.permutations(range(4)))[:3]
    return xf, [draw(symbols(sig, w, k)) for w, k in zip(weights, degrees)]


@st.composite
def symbols_and_rows(draw):
    """A symbol of degree <= 3 and a parity-homogeneous row of rationals."""
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    s = draw(symbols(sig, draw(RATIONALS), draw(st.integers(0, 3))))
    odd = draw(st.booleans())
    row = [Fraction(0)] * sig.n
    for i in range(sig.p, sig.n) if odd else range(sig.p):
        row[i] = draw(RATIONALS)
    return s, row


@settings(max_examples=200, deadline=None)
@given(symbols_and_rows())
def test_interior_matches_reference(case):
    s, row = case
    got = interior(row, s)
    assert (got.weight, got.degree) == (s.weight, max(s.degree - 1, 0))
    assert got == interior_reference(row, s)


@settings(max_examples=200, deadline=None)
@given(symbols_and_rows())
def test_vee_matches_reference(case):
    s, vec = case
    got = s.vee(vec)
    assert (got.weight, got.degree) == (s.weight, s.degree + 1)
    assert got == vee_reference(s, vec)


@settings(max_examples=200, deadline=None)
@given(symbols_and_rows())
def test_symbol_divergence_matches_reference(case):
    s, _row = case
    got = symbol_divergence(s)
    assert (got.weight, got.degree) == (s.weight, max(s.degree - 1, 0))
    assert got == symbol_divergence_reference(s)


@settings(max_examples=200, deadline=None)
@given(field_and_symbols())
def test_lie_symbol_matches_reference_for_one_field(case):
    xf, syms = case
    for s in syms:
        got = lie_symbol(xf, s)
        assert (got.weight, got.degree) == (s.weight, s.degree)
        assert got == lie_symbol_reference(xf, s)


@st.composite
def field_and_operators_at_weights(draw):
    """One field and operators at two or three distinct weights lam."""
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    xf = SuperVectorField(sig, [draw(polys(sig, 2)) for _ in range(sig.n)])
    ops = []
    for lam in draw(st.lists(RATIONALS, min_size=2, max_size=3, unique=True)):
        terms = {}
        for _ in range(draw(st.integers(0, 3))):
            evens = tuple(draw(st.integers(0, 2)) for _ in range(sig.p))
            mask = draw(st.integers(0, (1 << sig.q) - 1))
            terms[(evens, mask)] = draw(polys(sig))
        ops.append(DiffOperator(sig, lam, draw(RATIONALS), terms))
    return xf, ops


@settings(max_examples=150, deadline=None)
@given(field_and_operators_at_weights())
def test_lie_operator_matches_composition_for_one_field(case):
    xf, ops = case
    for d in ops:
        assert lie_operator(xf, d) == lie_operator_by_composition(xf, d)


def test_field_parts_built_once(monkeypatch):
    sig = S21
    x1, x2, t1 = (SuperPolynomial.coordinate(sig, i) for i in (1, 2, 3))
    # even part x1^2 dx1 + x2 t1 dt1, odd part t1 dx2
    xf = SuperVectorField(sig, [x1 * x1, t1, x2 * t1])
    s1 = SymbolField.monomial(sig, Fraction(1, 3), (1, 0), (), x2)
    s2 = SymbolField.monomial(sig, Fraction(-2, 5), (1, 0), (1,), x1 + 1)
    wants = [lie_symbol_reference(xf, s) for s in (s1, s2)]

    built, receivers, derived = [], [], []
    field_parts = geometry._field_parts
    partial = SuperPolynomial.partial
    derive_terms = _ops.derive_terms

    def counting_field_parts(x):
        built.append(x)
        return field_parts(x)

    def recording_partial(self, i):
        receivers.append(self)
        return partial(self, i)

    def recording_derive_terms(terms, *args):
        derived.append(terms)
        return derive_terms(terms, *args)

    monkeypatch.setattr(geometry, "_field_parts", counting_field_parts)
    monkeypatch.setattr(SuperPolynomial, "partial", recording_partial)
    monkeypatch.setattr(_ops, "derive_terms", recording_derive_terms)

    assert lie_symbol(xf, s1) == wants[0]
    assert len(built) == 1 and built[0] is xf
    # one rotation row per coordinate, each one partial of the term map
    assert len(receivers) == sig.n
    assert all(f.signature == geometry._doubled(sig) for f in receivers)
    del built[:], receivers[:], derived[:]
    derivation = _ops.derivation

    def no_derivation(*args):
        raise AssertionError("the kernel form of the lift was built again")

    monkeypatch.setattr(_ops, "derivation", no_derivation)
    assert lie_symbol(xf, s2) == wants[1]
    assert built == [] and receivers == []
    assert derived  # the coefficients were still transported
    monkeypatch.setattr(_ops, "derivation", derivation)

    twin = SuperVectorField(sig, xf.components)
    d = DiffOperator(sig, Fraction(1, 3), Fraction(1, 2), {
        ((1, 0), 1): x1 + t1, ((0, 0), 0): x2,
    })
    for s in (s1, s2):
        assert lie_symbol(twin, s) == lie_symbol(xf, s)
    assert lie_operator(twin, d) == lie_operator(xf, d)
    assert lie_operator(xf, d) == lie_operator_by_composition(xf, d)


@pytest.mark.parametrize("sig", ORACLE_SIGNATURES, ids=str)
def test_lie_operator_along_affine_generators_runs_no_leibniz_sum(sig, kernel_calls):
    """Along e_i, g0 and the Euler field the slot series, the Leibniz terms
    of lower order, are empty: the Lie derivative is the first-order action
    alone, one ``derive_terms`` pass and no derivative of the operator."""
    rng = random.Random(f"affine {sig}")
    fields = [
        realize(h) for label, h in equivariance_generators(sig)
        if not label.startswith("eps")
    ]
    fields.append(realize(euler_element(sig)))
    ops = []
    for lam, mu in ((Fraction(1, 3), Fraction(3, 4)), (Fraction(-2, 5), Fraction(0))):
        terms = {}
        for _ in range(3):
            evens = tuple(rng.randint(0, 3) for _ in range(sig.p))
            terms[(evens, rng.randrange(1 << sig.q))] = rand_poly(rng, sig, 2, 3)
        ops.append(DiffOperator(sig, lam, mu, terms))
    wants = [[lie_operator_by_composition(xf, d) for d in ops] for xf in fields]

    for xf, row in zip(fields, wants):
        lift, higher, _, b = geometry._operator_lie_parts(xf)  # every beta, first
        assert lift.order == 1 and higher.is_zero() and b.is_zero()
        for d, want in zip(ops, row):
            kernel_calls.clear()
            assert lie_operator(xf, d) == want
            assert kernel_calls["derive_terms"] == 1
            assert kernel_calls["partial_even_terms"] == 0 == kernel_calls["partial_odd_terms"]


# ---------------------------------------------------------------------------
# the one-pass derivation kernel
#
# ``field_apply_reference`` is the per-component ``SuperVectorField.apply`` that
# the kernel's ``derive_terms`` replaced, and ``first_order_reference`` the
# first-order action as ``lift.apply(P) + (w div X) P`` on the lifted field,
# as the field's action data once built it; both verbatim.


def field_apply_reference(self, f):
    _check_same_signature(self, f)
    out = SuperPolynomial.zero(self.signature)
    for i, comp in enumerate(self.components, start=1):
        if comp:
            df = f.partial(i)
            if df:
                out = out + comp * df
    return out


def lift_reference(x):
    sig = x.signature
    dsig = geometry._doubled(sig)
    n = sig.n
    lift = [SuperPolynomial.zero(dsig)] * (2 * n)
    for chi, xp in x.graded_parts():
        for i in range(1, n + 1):
            sfac = 1 if (chi and sig.parity(i)) else -1
            for j in range(1, n + 1):
                dcomp = xp.components[j - 1].partial(i)
                if dcomp:
                    lift[geometry._slot(sig, i) - 1] += geometry._lifted(
                        sig, sfac * dcomp, geometry._unit(sig, j))
    for i, comp in enumerate(x.components, start=1):
        lift[geometry._coord(sig, i) - 1] = geometry._lifted(sig, comp)
    return SuperVectorField(dsig, lift)


def first_order_reference(x, weight, poly):
    out = field_apply_reference(lift_reference(x), poly)
    div = geometry._lifted(x.signature, x.divergence())
    if weight and div:
        out = out + (weight * div) * poly
    return out


def bracket_reference(x, y):
    sig = x.signature
    comps = [SuperPolynomial.zero(sig) for _ in range(sig.n)]
    for chi, xp in x.graded_parts():
        for eta, yp in y.graded_parts():
            sign = -1 if chi and eta else 1
            for i in range(sig.n):
                comps[i] = (
                    comps[i]
                    + field_apply_reference(xp, yp.components[i])
                    - sign * field_apply_reference(yp, xp.components[i])
                )
    return SuperVectorField(sig, comps)


UNITS_OR_RATIONALS = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), RATIONALS)


@st.composite
def graded_polys(draw, sig, parity):
    """Up to three terms of degree <= 2, coefficients often +-1; every term
    of the given parity (0 even, 1 odd) or, for None, of either."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        evens = [0] * sig.p
        for _ in range(draw(st.integers(0, 2))):
            if sig.p:
                evens[draw(st.integers(0, sig.p - 1))] += 1
        mask = draw(st.integers(0, (1 << sig.q) - 1))
        if parity is not None and mask.bit_count() % 2 != parity:
            if not sig.q:
                continue
            mask ^= 1
        key = (tuple(evens), mask)
        terms[key] = terms.get(key, Fraction(0)) + draw(UNITS_OR_RATIONALS)
    return SuperPolynomial(sig, terms)


@st.composite
def oracle_fields(draw, sig):
    """A field whose components are each zero, even, odd or of mixed parity."""
    comps = []
    for _ in range(sig.n):
        kind = draw(st.sampled_from(["zero", "even", "odd", "mixed"]))
        parity = {"even": 0, "odd": 1, "mixed": None}.get(kind)
        comps.append(
            SuperPolynomial.zero(sig) if kind == "zero" else draw(graded_polys(sig, parity))
        )
    return SuperVectorField(sig, comps)


def cancelling_pair(sig):
    """A field y^a d_a - y^b d_b and the monomial y^a y^b that it kills: the
    two products of its action land on one key and cancel."""
    a, b = 1, sig.n
    comps = [SuperPolynomial.zero(sig)] * sig.n
    comps[a - 1] = SuperPolynomial.coordinate(sig, a)
    comps[b - 1] = -SuperPolynomial.coordinate(sig, b)
    f = SuperPolynomial.coordinate(sig, a) * SuperPolynomial.coordinate(sig, b)
    return SuperVectorField(sig, comps), f


@st.composite
def derivation_oracle_cases(draw):
    sig = draw(st.sampled_from(ORACLE_SIGNATURES))
    xf, yf = draw(oracle_fields(sig)), draw(oracle_fields(sig))
    f = draw(graded_polys(sig, None))
    if sig.n > 1 and draw(st.booleans()):
        # part of the action cancels inside the one output dict
        killer, killed = cancelling_pair(sig)
        xf, f = xf + killer, f + killed
    weight = draw(UNITS_OR_RATIONALS)
    s = draw(symbols(sig, weight, draw(st.integers(0, 3))))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        evens = tuple(draw(st.integers(0, 2)) for _ in range(sig.p))
        mask = draw(st.integers(0, (1 << sig.q) - 1))
        terms[(evens, mask)] = draw(graded_polys(sig, None))
    d = DiffOperator(sig, draw(UNITS_OR_RATIONALS), draw(RATIONALS), terms)
    return xf, yf, f, s, d


@settings(max_examples=200, deadline=None)
@given(derivation_oracle_cases())
def test_one_pass_derivation_matches_per_component_references(case):
    xf, yf, f, s, d = case
    assert xf.apply(f) == field_apply_reference(xf, f)
    assert lie_density(xf, s.weight, f) == (
        field_apply_reference(xf, f) + (s.weight * xf.divergence()) * f
    )
    got = lie_symbol(xf, s)
    assert got._poly == first_order_reference(xf, s.weight, s._poly)
    assert got == lie_symbol_reference(xf, s)
    assert lie_operator(xf, d) == lie_operator_by_composition(xf, d)
    assert bracket(xf, yf) == bracket_reference(xf, yf)


@pytest.mark.parametrize("sig", [s for s in ORACLE_SIGNATURES if s.n > 1], ids=str)
def test_cancelling_action_leaves_no_zero_terms(sig):
    killer, killed = cancelling_pair(sig)
    assert killer.apply(killed).is_zero() and not killer.apply(killed)._terms
    assert field_apply_reference(killer, killed).is_zero()


def test_lie_density_cancels_to_zero():
    # (y d/dy)(y) + lam div(y d/dy) y = (1 + lam) y, zero at lam = -1
    sig = Signature(1, 0)
    y = SuperPolynomial.coordinate(sig, 1)
    out = lie_density(SuperVectorField(sig, [y]), -1, y)
    assert out.is_zero() and not out._terms


@st.composite
def inhomogeneous_field_pairs(draw):
    """Two fields, each with a nonzero even and a nonzero odd part, so the
    odd-odd term 2 Y_1(X_1^i) of the bracket runs; signatures with an odd
    coordinate only."""
    sig = draw(st.sampled_from([s for s in ORACLE_SIGNATURES if s.q]))

    def field():
        # component i of the part of parity chi has parity chi + parity(y^i)
        even = [draw(graded_polys(sig, sig.parity(i))) for i in range(1, sig.n + 1)]
        odd = [draw(graded_polys(sig, 1 - sig.parity(i))) for i in range(1, sig.n + 1)]
        if not any(even):
            even[0] = SuperPolynomial.coordinate(sig, 1)  # y^1 d_1
        if not any(odd):
            odd[sig.p] = SuperPolynomial.one(sig)  # d/dt_1
        return SuperVectorField(sig, [a + b for a, b in zip(even, odd)])

    return field(), field()


@settings(max_examples=200, deadline=None)
@given(inhomogeneous_field_pairs())
def test_bracket_of_inhomogeneous_fields_matches_reference(case):
    xf, yf = case
    for field in (xf, yf):
        parts = dict(field.graded_parts())
        assert sorted(parts) == [0, 1]
    assert bracket(xf, yf) == bracket_reference(xf, yf)
    assert bracket(yf, xf) == bracket_reference(yf, xf)
    assert bracket(xf, xf) == bracket_reference(xf, xf)


@pytest.mark.parametrize("sig", [S22, Signature(2, 3)], ids=str)
def test_bracket_and_divergence_pass_over_the_whole_map(sig, kernel_calls):
    """Once the parts of X are built, a bracket is one ``derive_terms``
    pass over the whole map of Y, not one per component, also where both
    fields have an odd part; a divergence is one ``divergence_terms`` pass."""
    rng = random.Random(f"whole map {sig}")
    odd = SuperVectorField(sig, [0] * sig.p + [1] + [0] * (sig.q - 1))  # d/dt_1
    xf, yf = rand_field(rng, sig) + odd, rand_field(rng, sig) + odd
    want = bracket_reference(xf, yf)
    assert all(1 in dict(f.graded_parts()) for f in (xf, yf))
    xf._lie_parts()
    kernel_calls.clear()
    assert bracket(xf, yf) == want
    assert kernel_calls == Counter(derive_terms=1)
    kernel_calls.clear()
    xf.divergence()
    assert kernel_calls == Counter(divergence_terms=1)


def test_check_homomorphism_sees_a_wrong_realization(monkeypatch, capsys, fresh_cache):
    """The comparison is not vacuous: with the sign of one quadratic term of
    each realized field flipped, also in the kept fields that the right side
    reads (realized again with fresh caches), ``check homomorphism`` fails
    at an sl and at a psl signature."""
    from superquant import cli, projective, verifier

    honest = verifier.realize

    def flipped(h):
        field = honest(h)
        comps = list(field.components)
        for i, comp in enumerate(comps):
            quadratic = [key for key in comp._terms if geometry._key_degree(key) == 2]
            if quadratic:
                terms = dict(comp._terms)
                terms[quadratic[0]] = -terms[quadratic[0]]
                comps[i] = SuperPolynomial(field.signature, terms)
                break
        return SuperVectorField(field.signature, comps)

    for p, q in ((2, 1), (1, 2)):
        argv = ["check", "homomorphism", "--p", str(p), "--q", str(q)]
        assert cli.main(argv + ["--format", "json"]) == 0
        capsys.readouterr()
        fresh_cache("_realized_basis", projective, verifier)
        fresh_cache("_realized_generators", verifier)
        for module in (projective, verifier):
            monkeypatch.setattr(module, "realize", flipped)
        assert cli.main(argv + ["--format", "json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert not report["passed"] and report["failures"]
        assert all(f["input"].startswith("bracket pair") for f in report["failures"])
        for module in (projective, verifier):
            monkeypatch.setattr(module, "realize", honest)


def test_values_are_never_mutated():
    """The private accumulators never reach a value a caller holds: every
    input, and the parts that each field keeps with their nested forms, is
    unchanged by two runs of each construction, and the two runs agree."""
    sig = S21
    rng = random.Random("no mutation")
    xf, yf = rand_field(rng, sig, 2), rand_field(rng, sig, 2)
    f = rand_poly(rng, sig, 3, 4)
    s = rand_symbol(rng, sig, Fraction(1, 5), 2)
    cfg = QuantizationConfig(sig, Fraction(1, 3), Fraction(1, 5))
    d = quantize(s, cfg)
    assert all(1 in dict(x.graded_parts()) for x in (xf, yf))
    polys_in = [f, s._poly, d._poly, xf._poly, yf._poly]
    before = [deepcopy(p._terms) for p in polys_in]

    def run():
        return [
            xf.apply(f),
            lie_density(xf, Fraction(2, 7), f),
            lie_symbol(xf, s),
            lie_operator(xf, d),
            quantize(s, cfg),
            bracket(xf, yf),
            bracket(yf, xf),
        ]

    geometry._operator_lie_parts(xf)  # every part, so no run grows them
    first = run()  # builds the parts of yf and every nested form they run

    def node_of(node):
        if node is None:
            return None
        return (node.multiplier, node.rows, node._derivation,
                [(i, node_of(sub)) for i, sub in node.deeper])

    def cache_of(field):
        return [
            (op._poly._terms, op._poly._den, node_of(op._form))
            for op in field._parts if isinstance(op, DiffOperator)
        ]

    cached = deepcopy((xf._parts, cache_of(xf), cache_of(yf)))
    runs = [run() for _ in range(2)]
    assert [p._terms for p in polys_in] == before
    assert (xf._parts, cache_of(xf), cache_of(yf)) == cached
    assert runs[0] == runs[1] == first


# ---------------------------------------------------------------------------
# interior product


def test_interior_even_example():
    sig = Signature(1, 0)
    s = SymbolField.monomial(sig, 0, (2,), ())
    got = interior([1], s)
    assert got == SymbolField.monomial(sig, 0, (1,), (), 2)


def test_interior_odd_passover():
    sig = Signature(0, 2)
    g = th(sig, 1) * th(sig, 2)
    s = SymbolField.monomial(sig, 0, (), (1,), g)
    got = interior([1, 0], s)
    assert got == scalar_symbol(sig, 0, g)
    odd_coeff = th(sig, 1)
    s2 = SymbolField.monomial(sig, 0, (), (1,), odd_coeff)
    got2 = interior([1, 0], s2)
    assert got2 == scalar_symbol(sig, 0, -odd_coeff)


def test_interior_odd_slot_sign():
    sig = Signature(0, 2)
    s = SymbolField.monomial(sig, 0, (), (1, 2))
    assert interior([1, 0], s) == SymbolField.monomial(sig, 0, (), (2,))
    assert interior([0, 1], s) == SymbolField.monomial(sig, 0, (), (1,), -1)


def test_interior_supercommutes():
    rng = random.Random(43)
    sig = S22
    for _ in range(5):
        s = rand_symbol(rng, sig, Fraction(1, 2), 2, 3)
        rows = []
        for _ in range(2):
            if rng.random() < 0.5:
                row = [rand_fraction(rng) for _ in range(sig.p)] + [0] * sig.q
                rows.append((0, row))
            else:
                row = [0] * sig.p + [rand_fraction(rng) for _ in range(sig.q)]
                rows.append((1, row))
        (a, h1), (b, h2) = rows
        sgn = -1 if a and b else 1
        lhs = interior(h1, interior(h2, s))
        rhs = sgn * interior(h2, interior(h1, s))
        assert lhs == rhs


def test_vee_then_interior_even():
    sig = Signature(2, 0)
    s = SymbolField.monomial(sig, 0, (1, 0), ())
    v = s.vee([0, 1, ])
    assert v == SymbolField.monomial(sig, 0, (1, 1), ())
    assert interior([0, 1], v) == s


# ---------------------------------------------------------------------------
# the affine correspondence


def test_affine_round_trip():
    rng = random.Random(47)
    for sig in (S11, S22):
        delta = Fraction(1, 5)
        fields = [rand_symbol(rng, sig, delta, k, 2) for k in (0, 1, 2)]
        mixed = MixedSymbol.from_fields(sig, delta, fields)
        lam = Fraction(1, 3)
        op = affine_quantize(mixed, lam)
        assert op.lam == lam and op.mu == lam + delta
        assert affine_symbol(op) == mixed


def test_affine_product_form():
    """Quantizing a coefficient times a frame monomial gives the left
    multiplication composed with the corresponding constant derivatives."""
    rng = random.Random(53)
    for sig in (S12, S22):
        for _ in range(6):
            k = rng.randint(1, 3)
            vectors = []
            for _ in range(k):
                if rng.random() < 0.5 and sig.p:
                    vec = [rand_fraction(rng) for _ in range(sig.p)] + [0] * sig.q
                else:
                    vec = [0] * sig.p + [rand_fraction(rng) for _ in range(sig.q)]
                vectors.append(vec)
            t = rand_poly(rng, sig, 2, 2)
            s = scalar_symbol(sig, 0, 1)
            for vec in reversed(vectors):
                s = s.vee(vec)
            s = s.scale_poly(t)
            lam = Fraction(1, 2)
            got = affine_quantize(s, lam)
            want = DiffOperator.multiplication(t, lam, lam)
            for vec in vectors:
                terms = {}
                for i in range(1, sig.n + 1):
                    c = vec[i - 1]
                    if c:
                        terms[unit_key(sig, i)] = SuperPolynomial.scalar(sig, c)
                want = want.compose(DiffOperator(sig, lam, lam, terms))
            assert operators_agree(got, want)
            assert got == want


def test_principal_symbol():
    sig = S11
    one = SuperPolynomial.one(sig)
    d = DiffOperator(
        sig, 0, 0, {((2,), 0): x(sig), ((1,), 1): one, ((0,), 0): th(sig)}
    )
    top = principal_symbol(2, d)
    assert top.degree == 2
    assert top.coefficient((2,), ()) == x(sig)
    assert top.coefficient((1,), (1,)) == one
    with pytest.raises(ValueError):
        principal_symbol(1, d)


def test_affine_intertwines_affine_fields():
    """For fields with components of degree at most one, quantization
    commutes with the Lie actions on symbols and operators."""
    rng = random.Random(59)
    for sig in (S11, S12, S21):
        delta = Fraction(1, 5)
        lam = Fraction(1, 3)
        for _ in range(4):
            field = rand_affine_field(rng, sig)
            s = rand_symbol(rng, sig, delta, rng.randint(1, 2), 2)
            lhs = lie_operator(field, affine_quantize(s, lam))
            rhs = affine_quantize(lie_symbol(field, s), lam)
            assert lhs == rhs


def test_symbol_divergence_matches_field_divergence():
    rng = random.Random(61)
    for sig in (S11, S12, S22):
        for _ in range(6):
            field = rand_field(rng, sig)
            div_sym = symbol_divergence(vf_to_symbol(field))
            assert div_sym.scalar_poly() == field.divergence()


def test_symbol_divergence_degree_drop():
    rng = random.Random(67)
    sig = S22
    s = rand_symbol(rng, sig, Fraction(1, 7), 3, 3)
    d = symbol_divergence(s)
    assert d.degree == 2
    dd = symbol_divergence(symbol_divergence(d))
    assert dd.degree == 0


# ---------------------------------------------------------------------------
# structural checks


def test_symbol_validation():
    with pytest.raises(ValueError):
        SymbolField(S11, 0, 1, {((0,), 0): SuperPolynomial.one(S11)})
    with pytest.raises(ValueError):
        SymbolField.monomial(S11, 0, (0,), (1, 1))
    s = SymbolField.monomial(S11, 0, (1,), ())
    t = SymbolField.monomial(S11, Fraction(1, 2), (1,), ())
    with pytest.raises(ValueError):
        s + t


def test_vector_field_validation():
    with pytest.raises(ValueError, match=r"^signature mismatch: 1\|1 vs 2\|1$"):
        SuperVectorField(S21, [x(S11), 0, 0])
    with pytest.raises(ValueError, match="expected 3 components, got 2"):
        SuperVectorField(S21, [x(S21), 1])
    # an equal signature held by another object is accepted
    xf = SuperVectorField(Signature(2, 1), [x(S21), 1, th(S21)])
    assert xf == SuperVectorField(S21, [x(S21), 1, th(S21)])


def test_mixed_symbol_parts():
    sig = S11
    a = SymbolField.monomial(sig, 0, (1,), ())
    b = SymbolField.monomial(sig, 0, (0,), (1,))
    c = scalar_symbol(sig, 0, x(sig))
    m = MixedSymbol.from_fields(sig, 0, [a, b, c])
    assert m.degrees() == [0, 1]
    assert m.part(1) == a + b
    assert m.part(0) == c
    assert m.part(5).is_zero()
    assert (m - m).is_zero()


class MixedSymbolReference:
    """The per-degree ``MixedSymbol``: a dict of nonzero ``SymbolField``
    parts keyed by degree, kept as the reference for the one term map."""

    __slots__ = ("signature", "weight", "_parts")

    def __init__(self, signature, weight, parts=None):
        self.signature = signature
        self.weight = as_fraction(weight)
        canon = {}
        for k, field in (parts or {}).items():
            if field.is_zero():
                continue
            if field.signature != signature or field.weight != self.weight:
                raise ValueError("inconsistent part in mixed symbol")
            if field.degree != k:
                raise ValueError("part stored under wrong degree")
            canon[k] = field
        self._parts = canon

    @classmethod
    def from_fields(cls, signature, weight, fields):
        out = cls(signature, weight, {})
        for f in fields:
            out = out + reference_of(f)
        return out

    def part(self, k):
        got = self._parts.get(k)
        if got is None:
            return SymbolField.zero(self.signature, self.weight, k)
        return got

    def degrees(self):
        return sorted(self._parts)

    def parts(self):
        return [self._parts[k] for k in sorted(self._parts)]

    def is_zero(self):
        return not self._parts

    def __add__(self, other):
        if isinstance(other, SymbolField):
            other = reference_of(other)
        if not isinstance(other, MixedSymbolReference):
            return NotImplemented
        if self.signature != other.signature or self.weight != other.weight:
            raise ValueError("signature or weight mismatch")
        parts = dict(self._parts)
        for k, field in other._parts.items():
            if k in parts:
                s = parts[k] + field
                if s.is_zero():
                    del parts[k]
                else:
                    parts[k] = s
            else:
                parts[k] = field
        return MixedSymbolReference(self.signature, self.weight, parts)

    def __sub__(self, other):
        if isinstance(other, SymbolField):
            other = reference_of(other)
        return self + (-other)

    def __neg__(self):
        return MixedSymbolReference(
            self.signature, self.weight, {k: -v for k, v in self._parts.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MixedSymbolReference(
                self.signature,
                self.weight,
                {k: v * other for k, v in self._parts.items()}
                if as_fraction(other)
                else {},
            )
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, SymbolField):
            other = reference_of(other)
        if not isinstance(other, MixedSymbolReference):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.weight == other.weight
            and self._parts == other._parts
        )

    __hash__ = None

    def __repr__(self):
        return f"MixedSymbol({self.signature}, weight={self.weight}, {self._parts!r})"

    def format_value(self):
        """The printed form: the parts' texts, highest degree first."""
        out = ""
        for part in reversed(self.parts()):
            text = format_value(part)
            if not out:
                out = text
            elif text.startswith("-"):
                out += " - " + text[1:]
            else:
                out += " + " + text
        return out or "0"


def reference_of(field):
    return MixedSymbolReference(field.signature, field.weight, {field.degree: field})


MIXED_SIGNATURES = [Signature(2, 0), Signature(0, 2), S11, S21, S12]


@st.composite
def mixed_cases(draw):
    """Two lists of symbols of degrees <= 3 at one weight, a symbol and a
    scalar; a list may end with the negative of its first field, so parts
    cancel."""
    sig = draw(st.sampled_from(MIXED_SIGNATURES))
    weight = draw(RATIONALS)

    def field_list():
        fields = [
            draw(symbols(sig, weight, draw(st.integers(0, 3))))
            for _ in range(draw(st.integers(0, 4)))
        ]
        if fields and draw(st.booleans()):
            fields.append(-fields[0])
        return fields

    lone = draw(symbols(sig, weight, draw(st.integers(0, 3))))
    return sig, weight, field_list(), field_list(), lone, draw(RATIONALS)


def assert_mixed_agrees(got, want):
    assert isinstance(got, MixedSymbol)
    assert (got.signature, got.weight) == (want.signature, want.weight)
    assert got.degrees() == want.degrees()
    assert got.parts() == want.parts()
    for k in range(5):
        got_k, want_k = got.part(k), want.part(k)
        assert (got_k.degree, got_k.weight) == (want_k.degree, want_k.weight)
        assert got_k == want_k
    assert got.is_zero() == want.is_zero()
    assert format_value(got) == want.format_value()


@settings(max_examples=200, deadline=None)
@given(mixed_cases())
def test_mixed_symbol_matches_per_degree_reference(case):
    sig, weight, fields_a, fields_b, lone, c = case
    a = MixedSymbol.from_fields(sig, weight, fields_a)
    b = MixedSymbol.from_fields(sig, weight, fields_b)
    ra = MixedSymbolReference.from_fields(sig, weight, fields_a)
    rb = MixedSymbolReference.from_fields(sig, weight, fields_b)
    for got, want in (
        (a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
        (c * a, c * ra), (a * c, ra * c), (a + lone, ra + lone),
        (a - lone, ra - lone), (lone.as_mixed(), reference_of(lone)),
    ):
        assert_mixed_agrees(got, want)
    assert (a == b) == (ra == rb)
    assert (a == lone) == (ra == lone)
    assert (lone == a) == (lone == ra)
    if list(ra._parts) == ra.degrees():
        assert repr(a) == repr(ra)


def test_mixed_symbol_errors_match_reference():
    sig = S11
    one = SymbolField.monomial(sig, 1, (1,), ())
    other_weight = SymbolField.monomial(sig, 2, (1,), ())
    for cls in (MixedSymbol, MixedSymbolReference):
        with pytest.raises(ValueError, match="^inconsistent part in mixed symbol$"):
            cls(sig, 1, {1: other_weight})
        with pytest.raises(ValueError, match="^part stored under wrong degree$"):
            cls(sig, 1, {0: one})
        with pytest.raises(ValueError, match="^signature or weight mismatch$"):
            cls.from_fields(sig, 1, [one, other_weight])
        with pytest.raises(ValueError, match="^signature or weight mismatch$"):
            cls(sig, 1) + cls(Signature(2, 1), 1)
        # a zero part is dropped before it is checked
        assert cls(sig, 1, {3: SymbolField.zero(S21, 5, 0)}).is_zero()
    with pytest.raises(TypeError):
        one + MixedSymbol(sig, 1)
    with pytest.raises(TypeError):
        one - MixedSymbol(sig, 1)


def test_coefficient_rejects_keys_of_no_monomial():
    sig = S21
    s = SymbolField.monomial(sig, 0, (1, 0), (1,), x(sig))
    d = affine_quantize(s, 0)
    for value in (s, d, s.as_mixed()):
        assert value.coefficient((1, 0), (1,)) == x(sig)
        assert value.coefficient((0, 1), ()) == SuperPolynomial.zero(sig)
        with pytest.raises(ValueError, match="repeated odd index"):
            value.coefficient((1, 0), (1, 1))
        with pytest.raises(ValueError, match="out of range"):
            value.coefficient((1, 0), (2,))
        with pytest.raises(ValueError, match="bad even exponents"):
            value.coefficient((1,), (1,))
    # the constructor of a symbol monomial names its frame indices
    with pytest.raises(ValueError, match="^repeated odd frame index$"):
        SymbolField.monomial(sig, 0, (0, 0), (1, 1))
    with pytest.raises(ValueError, match=r"^odd frame index 2 out of range 1\.\.1$"):
        SymbolField.monomial(sig, 0, (0, 0), (2,))


def test_operator_weight_mismatch_raises():
    sig = S11
    one = SuperPolynomial.one(sig)
    d1 = DiffOperator(sig, 0, 1, {((1,), 0): one})
    d2 = DiffOperator(sig, 0, Fraction(1, 2), {((1,), 0): one})
    with pytest.raises(ValueError):
        d1 + d2
    with pytest.raises(ValueError):
        d1.compose(d2)  # d2 produces weight 1/2, d1 consumes weight 0
