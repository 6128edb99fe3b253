"""The projective superalgebra acting on R^{p|q}.

Elements are (1+p+q)-square rational matrices modulo multiples of the
identity, graded as constants / linear maps / quadratic directions through
the block decomposition with index 0 as the extra projective slot.  This
module provides brackets, the vector-field realization, the invariant
bilinear forms with exact dual bases, the quantization defect maps, Casimir
application, and every scalar constant of the theory (eigenvalues, critical
values, quantization coefficients).

The signature fixes the algebra variant (``_is_psl``): ``sl`` for q != p+1
(elements are normalized to supertraceless representatives) and ``psl`` for
q = p+1 (representatives are normalized to a zero corner entry;
supertraceless elements form the simple part, while the Euler class extends
it to the full projective algebra).

Per-signature constants are built on first use and kept by ``functools.cache``
for the life of the process: the graded basis, its dual basis (Gram matrix,
inverse and duals over nonzero entries only), the basis realized as vector
fields, the one field set, which the Casimir, the lowering map and the
verifier share, and the Casimir of each representation (``_casimir``):
operators over the doubled variables, one per weight power, composed from
the per-field parts of the symbol or the operator Lie derivative, a dual's
parts summed from those of the basis fields, which ``casimir_apply`` runs
in one nested application.  Cached values are never mutated, so threads
share them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

from .errors import CriticalValueError, DomainError
from .geometry import (
    DiffOperator,
    MixedSymbol,
    SuperVectorField,
    SymbolField,
    affine_quantize,
    affine_symbol,
    interior,
    _apply_parts,
    _doubled,
    _operator_lie_parts,
    _unit,
    lie_operator,
    lie_symbol,
)
from .supercore import Rational, Signature, SuperPolynomial, _ops, as_fraction

ALGEBRA_SL = "sl"
ALGEBRA_PSL = "psl"
REP_SYMBOL = "L"
REP_AFFINE = "affine"


def _is_psl(signature: Signature) -> bool:
    """Whether q = p+1, where the projective algebra is not simple: the one
    place the variant of a signature is decided."""
    return signature.q == signature.p + 1


def default_algebra(signature: Signature) -> str:
    return ALGEBRA_PSL if _is_psl(signature) else ALGEBRA_SL


_ALGEBRA_NAMES = {
    "sl": ALGEBRA_SL, "gl": ALGEBRA_SL, "psl": ALGEBRA_PSL, "pgl": ALGEBRA_PSL
}


def normalize_algebra(signature: Signature, algebra: str | None) -> str:
    own = default_algebra(signature)
    if algebra is None:
        return own
    name = _ALGEBRA_NAMES.get(algebra.lower())
    if name is None:
        raise DomainError(f"unknown algebra variant {algebra!r}")
    if name != own:
        raise DomainError(
            f"algebra {name!r} is not valid for signature {signature}: use {own!r}"
        )
    return name


# ---------------------------------------------------------------------------
# exact matrix helpers (module-private; sizes are tiny)


def _mat(rows) -> tuple:
    return tuple(tuple(as_fraction(v) for v in row) for row in rows)


def _over_den(rows: dict) -> tuple:
    """Rational entries ``{row: {column: value}}`` as ``(rows, den)``: int
    numerators in the same layout over their least common denominator."""
    den = lcm(*(v.denominator for row in rows.values() for v in row.values()))
    return {
        r: {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        for r, row in rows.items()
    }, den


def _supertrace(rows: dict, signature: Signature) -> int:
    """The supertrace of a matrix stored as ``{row: {column: value}}``; index
    a of 0..p+q is odd when a > p (the corner, index 0, is even)."""
    p = signature.p
    return sum(-v if r > p else v for r, row in rows.items() if (v := row.get(r)))


def _super_commutator(a: dict, b: dict, signature: Signature) -> dict:
    """Bracket of raw matrices in one signed pass:
    [a, b]_rc = sum_k a_rk b_kc - (-1)^{(pi_r + pi_k)(pi_k + pi_c)} b_rk a_kc,
    each matrix given by its nonzero int numerators as ``{row: {column:
    value}}``.  Only products of two stored entries are formed, and the
    bracket comes back in the same layout over the product of the two
    denominators; entries that cancel are left as zeros."""
    p = signature.p
    out = {}
    for r, row in a.items():
        acc = out[r] = {}
        for k, a_rk in row.items():
            for c, b_kc in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + a_rk * b_kc
    for r, row in b.items():
        acc = out.setdefault(r, {})
        odd_r = r > p
        for k, b_rk in row.items():
            odd_k = k > p
            flip = odd_r != odd_k
            for c, a_kc in a.get(k, {}).items():
                if flip and odd_k != (c > p):
                    acc[c] = acc.get(c, 0) + b_rk * a_kc
                else:
                    acc[c] = acc.get(c, 0) - b_rk * a_kc
    return out


def _invert(rows: list) -> list:
    """Exact Gauss-Jordan inverse of a rational matrix given by its rows as
    ``{column: value}`` dicts of the nonzero entries; the inverse comes back
    in the same form.  Only nonzero entries are visited."""
    size = len(rows)
    aug = [(dict(row), {r: Fraction(1)}) for r, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if col in aug[r][0]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        left, right = aug[col]
        inv = 1 / left[col]
        if inv != 1:
            left = {c: v * inv for c, v in left.items()}
            right = {c: v * inv for c, v in right.items()}
            aug[col] = left, right
        for r in range(size):
            factor = aug[r][0].get(col) if r != col else None
            if factor:
                for target, source in zip(aug[r], (left, right)):
                    for c, v in source.items():
                        total = target.get(c, 0) - factor * v
                        if total:
                            target[c] = total
                        else:
                            target.pop(c, None)
    return [right for _left, right in aug]


# ---------------------------------------------------------------------------
# elements


def _representative(signature: Signature, rows: dict, den: int) -> tuple:
    """The canonical representative of the int matrix ``rows`` over ``den``
    modulo the identity, in the same form: supertraceless for ``sl``, zero
    corner entry for ``psl``.  The multiple of the identity is subtracted on
    the diagonal only, in place; for ``sl`` it is the supertrace over
    p + 1 - q, so the entries move to that multiple of ``den`` first."""
    if _is_psl(signature):
        c, scale = rows.get(0, {}).get(0, 0), 1
    else:
        c, scale = _supertrace(rows, signature), signature.p + 1 - signature.q
        if scale < 0:
            c, scale = -c, -scale
    if not c:
        return rows, den
    if scale != 1:
        rows = {r: {k: v * scale for k, v in row.items()} for r, row in rows.items()}
        den *= scale
    for r in range(1 + signature.n):
        row = rows.setdefault(r, {})
        row[r] = row.get(r, 0) - c
    return rows, den


class PglElement:
    """An element of the projective superalgebra, stored as a canonical
    representative: supertraceless for ``sl``, zero corner entry for ``psl``.
    Only the nonzero entries are kept: ``_rows`` maps a row index to the
    ``{column: numerator}`` dict of its nonzero int numerators, with no
    empty row, over the positive denominator ``_den``, which shares no
    factor with all of them.  The bracket, the arithmetic, the realization,
    the invariant forms and equality read these; ``matrix`` gives the
    entries as dense ``Fraction`` rows, made on first use."""

    __slots__ = ("signature", "_rows", "_den", "_matrix")

    def __init__(self, signature: Signature, matrix, algebra: str | None = None):
        normalize_algebra(signature, algebra)
        size = 1 + signature.n
        m = _mat(matrix)
        if len(m) != size or any(len(row) != size for row in m):
            raise ValueError(f"expected a {size}x{size} matrix for {signature}")
        self._set(signature, *_over_den({r: dict(enumerate(row)) for r, row in enumerate(m)}))

    @classmethod
    def _raw(cls, signature: Signature, rows: dict, den: int) -> "PglElement":
        # int numerators ``{row: {column: value}}`` with indices in range
        # over ``den`` >= 1, as the bracket and the arithmetic make them,
        # zeros allowed: only the representative is chosen
        self = cls.__new__(cls)
        self._set(signature, rows, den)
        return self

    def _set(self, signature: Signature, rows: dict, den: int) -> None:
        # ``rows`` is the caller's own and may be changed; it is stored
        # reduced like a term map, with no zero and no empty row, so equal
        # elements have equal ``_rows`` and ``_den``
        rows, den = _representative(signature, rows, den)
        g, kept = den, {}
        for r, row in rows.items():
            row = {c: v for c, v in row.items() if v}
            if row:
                kept[r] = row
                g = gcd(g, *row.values())
        if g != 1:
            kept = {r: {c: v // g for c, v in row.items()} for r, row in kept.items()}
            den //= g
        self.signature = signature
        self._rows, self._den = kept, den
        self._matrix = None

    @property
    def matrix(self) -> tuple:
        if self._matrix is None:
            size, den, zero = 1 + self.signature.n, self._den, Fraction(0)
            dense = [[zero] * size for _ in range(size)]
            for r, row in self._rows.items():
                for c, v in row.items():
                    dense[r][c] = Fraction(v, den)
            self._matrix = tuple(map(tuple, dense))
        return self._matrix

    @property
    def algebra(self) -> str:
        return default_algebra(self.signature)

    def supertrace(self) -> Fraction:
        return Fraction(_supertrace(self._rows, self.signature), self._den)

    def is_zero(self) -> bool:
        return not self._rows

    def __add__(self, other):
        if not isinstance(other, PglElement):
            return NotImplemented
        if self.signature != other.signature:
            raise ValueError("signature mismatch")
        da, db = self._den, other._den
        den = lcm(da, db)
        fa, fb = den // da, den // db
        rows = {r: {c: fa * v for c, v in row.items()} for r, row in self._rows.items()}
        for r, row in other._rows.items():
            acc = rows.setdefault(r, {})
            for c, v in row.items():
                acc[c] = acc.get(c, 0) + fb * v
        return PglElement._raw(self.signature, rows, den)

    def __sub__(self, other):
        if not isinstance(other, PglElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            rows = {r: {k: c * v for k, v in row.items()} for r, row in self._rows.items()}
            return PglElement._raw(self.signature, rows, self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PglElement):
            return NotImplemented
        return (
            self.signature == other.signature
            and self._den == other._den
            and self._rows == other._rows
        )

    def __hash__(self):
        entries = frozenset(
            (r, c, v) for r, row in self._rows.items() for c, v in row.items()
        )
        return hash((self.signature, self._den, entries))

    def __repr__(self):
        return f"PglElement({self.signature}, {self.matrix!r}, {self.algebra!r})"


class GradedElement:
    """Graded data (constant part, linear part, quadratic-direction part)."""

    __slots__ = ("signature", "h_minus", "h_zero", "h_plus")

    def __init__(self, signature: Signature, h_minus=None, h_zero=None, h_plus=None):
        n = signature.n
        self.signature = signature
        self.h_minus = tuple(
            as_fraction(v) for v in (h_minus if h_minus is not None else [0] * n)
        )
        zero_block = [[0] * n for _ in range(n)]
        self.h_zero = _mat(h_zero if h_zero is not None else zero_block)
        self.h_plus = tuple(
            as_fraction(v) for v in (h_plus if h_plus is not None else [0] * n)
        )
        if len(self.h_minus) != n or len(self.h_plus) != n:
            raise ValueError(f"expected {n} vector components")
        if len(self.h_zero) != n or any(len(r) != n for r in self.h_zero):
            raise ValueError(f"expected a {n}x{n} linear block")

    def to_pgl(self, algebra: str | None = None) -> PglElement:
        n = self.signature.n
        rows = [(Fraction(0),) + self.h_plus]
        for i in range(n):
            rows.append((self.h_minus[i],) + self.h_zero[i])
        return PglElement(self.signature, rows, algebra)

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.h_minus == other.h_minus
            and self.h_zero == other.h_zero
            and self.h_plus == other.h_plus
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"GradedElement({self.signature}, {self.h_minus!r}, "
            f"{self.h_zero!r}, {self.h_plus!r})"
        )


def pgl_to_graded(x: PglElement) -> GradedElement:
    n = x.signature.n
    m = x.matrix
    a = m[0][0]
    h_minus = tuple(m[i][0] for i in range(1, n + 1))
    h_plus = tuple(m[0][j] for j in range(1, n + 1))
    h_zero = tuple(
        tuple(m[i][j] - (a if i == j else 0) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )
    return GradedElement(x.signature, h_minus, h_zero, h_plus)


def pgl_bracket(a: PglElement, b: PglElement) -> PglElement:
    if a.signature != b.signature:
        raise ValueError("signature mismatch")
    sig = a.signature
    rows = _super_commutator(a._rows, b._rows, sig)
    return PglElement._raw(sig, rows, a._den * b._den)


# ---------------------------------------------------------------------------
# graded basis elements


def _elementary_full(signature: Signature, r: int, c: int, value=1) -> tuple:
    size = 1 + signature.n
    return tuple(
        tuple(as_fraction(value) if (i, j) == (r, c) else Fraction(0) for j in range(size))
        for i in range(size)
    )


def basis_e(signature: Signature, algebra: str | None = None) -> list[PglElement]:
    """Constant directions: the matrix placing 1 in column 0, row i."""
    return [
        PglElement(signature, _elementary_full(signature, i, 0), algebra)
        for i in range(1, signature.n + 1)
    ]


def basis_eps(signature: Signature, algebra: str | None = None) -> list[PglElement]:
    """Quadratic directions: the matrix placing 1 in row 0, column i."""
    return [
        PglElement(signature, _elementary_full(signature, 0, i), algebra)
        for i in range(1, signature.n + 1)
    ]


def scaled_eps(signature: Signature, i: int) -> PglElement:
    """The normalized quadratic direction used in the lowering map."""
    if _is_psl(signature):
        raise DomainError("scaled quadratic directions require q != p+1")
    sign = -1 if signature.parity(i) else 1
    scale = Fraction(sign, 2 * (signature.p - signature.q + 1))
    return PglElement(signature, _elementary_full(signature, 0, i, scale))


def g0_element(signature: Signature, block, algebra: str | None = None) -> PglElement:
    return GradedElement(signature, None, block, None).to_pgl(algebra)


def euler_element(signature: Signature, algebra: str | None = None) -> PglElement:
    n = signature.n
    block = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    return g0_element(signature, block, algebra)


def _block_elementary(n: int, i: int, j: int, value=1):
    return [[value if (r, c) == (i - 1, j - 1) else 0 for c in range(n)] for r in range(n)]


def _off_diagonal_and_difference_blocks(signature: Signature) -> list:
    """Off-diagonal elementary blocks, then supertraceless differences of
    neighbouring diagonal entries."""
    n = signature.n
    blocks = [
        _block_elementary(n, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    ]
    for i in range(1, n):
        si = -1 if signature.parity(i) else 1
        sj = -1 if signature.parity(i + 1) else 1
        block = [[0] * n for _ in range(n)]
        block[i - 1][i - 1] = si
        block[i][i] = -sj
        blocks.append(block)
    return blocks


def g0_basis(signature: Signature, algebra: str | None = None) -> list[PglElement]:
    """Basis of the linear part: all elementary blocks for ``sl``; for
    ``psl`` the off-diagonal blocks plus supertraceless diagonal differences."""
    normalize_algebra(signature, algebra)
    n = signature.n
    if _is_psl(signature):
        blocks = _off_diagonal_and_difference_blocks(signature)
    else:
        blocks = [
            _block_elementary(n, i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
    return [g0_element(signature, block) for block in blocks]


def g0_basis_euler_split(signature: Signature) -> list[PglElement]:
    """Alternative linear-part basis: off-diagonals, supertraceless diagonal
    differences, and the identity block; valid when p != q (sl only)."""
    if _is_psl(signature):
        raise DomainError("the euler-split basis is an sl-variant basis")
    if signature.p == signature.q:
        raise DomainError("the euler-split basis requires p != q")
    n = signature.n
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    blocks = _off_diagonal_and_difference_blocks(signature) + [ident]
    return [g0_element(signature, block) for block in blocks]


def graded_basis(
    signature: Signature, algebra: str | None = None, scheme: str = "elementary"
) -> list[PglElement]:
    """Full basis ordered as constants, linear part, quadratic directions."""
    normalize_algebra(signature, algebra)
    if scheme == "elementary":
        middle = g0_basis(signature)
    elif scheme == "euler-split":
        middle = g0_basis_euler_split(signature)
    else:
        raise ValueError(f"unknown basis scheme {scheme!r}")
    return basis_e(signature) + middle + basis_eps(signature)


# ---------------------------------------------------------------------------
# the vector-field realization


@functools.cache
def _realization_keys(sig: Signature) -> tuple:
    """Term keys of a realized field at ``sig``, over the doubled variables:
    for each component i, the key of d_i, of y^j d_i for each coordinate y^j
    (index j, 1-based), and of y^j y^i d_i for each j with the sign that
    orders its odd factors (0 when y^j = y^i is odd, so the term vanishes)."""
    coords = [((0,) * sig.p, 0)]
    coords += [
        next(iter(SuperPolynomial.coordinate(sig, j)._terms)) for j in range(1, sig.n + 1)
    ]
    keys = []
    for i in range(1, sig.n + 1):
        se, smask = _unit(sig, i)
        smask <<= sig.q
        ei, mi = coords[i]
        linear = [(e + se, m | smask) for e, m in coords]
        quadratic = [
            ((tuple(map(add, ej, ei)) + se, mj | mi | smask), _ops.odd_merge_sign(mj, mi))
            for ej, mj in coords
        ]
        keys.append((linear, quadratic))
    return tuple(keys)


def realize(h) -> SuperVectorField:
    """The vector field attached to an algebra element.

    Constants act by negated coordinate derivatives, linear blocks by negated
    signed linear fields, and quadratic directions by a coordinate function
    times the Euler field.  An element's stored entries are read directly,
    int numerators over its denominator: h_- is column 0, h_+ is row 0 and
    h_0 the block below and right of the corner, less the corner entry on
    its diagonal.  The field is one term dict over the doubled variables,
    over that denominator; component i adds -h_-^i, then -(+-) h_0^ij y^j
    (sign - when y^j is odd and y^i even) for each stored h_0^ij, then f y^i
    with f = sum_j (-1)^{parity(y^j)} h_+^j y^j, each times d_i.  Graded
    data is realized through its element (``GradedElement.to_pgl``).
    """
    if isinstance(h, SuperVectorField):
        return h
    if isinstance(h, GradedElement):
        h = h.to_pgl()
    elif not isinstance(h, PglElement):
        raise TypeError(f"cannot realize {type(h).__name__}")
    rows, den, sig = h._rows, h._den, h.signature
    p = sig.p
    top = rows.get(0, {})
    corner = top.get(0, 0)
    f = [(j, -v if j > p else v) for j, v in top.items() if j and v]
    terms = {}
    for i, (linear, quadratic) in enumerate(_realization_keys(sig), start=1):
        row = rows.get(i, {})
        odd_i = i > p
        # column 0 (h_-) is even, so it takes the sign of an even y^j
        for j, a in row.items():
            if a and j != i:
                terms[linear[j]] = a if j > p and not odd_i else -a
        diagonal = row.get(i, 0) - corner
        if diagonal:
            terms[linear[i]] = -diagonal
        for j, c in f:
            key, sign = quadratic[j]
            if sign:
                terms[key] = c if sign > 0 else -c
    return SuperVectorField._raw(sig, SuperPolynomial._over(_doubled(sig), terms, den))


# ---------------------------------------------------------------------------
# invariant forms and dual bases


def killing_form(a: PglElement, b: PglElement) -> Fraction:
    """The invariant form of the generic variant: a fixed multiple of the
    supertrace of the product."""
    sig = a.signature
    if sig != b.signature:
        raise ValueError("signature mismatch")
    if _is_psl(sig):
        raise DomainError("the Killing form degenerates when q = p+1")
    return _form_rows(sig, (a,), (b,))[0].get(0, Fraction(0))


def kaplansky_form(a: PglElement, b: PglElement) -> Fraction:
    """The invariant form of the q = p+1 variant: supertrace of the product,
    well defined on supertraceless classes."""
    sig = a.signature
    if sig != b.signature:
        raise ValueError("signature mismatch")
    if not _is_psl(sig):
        raise DomainError("this form is specific to q = p+1")
    if a.supertrace() or b.supertrace():
        raise DomainError(
            "the form requires supertraceless representatives on both sides"
        )
    return _form_rows(sig, (a,), (b,))[0].get(0, Fraction(0))


@dataclass(frozen=True)
class DualBasisPair:
    basis: tuple
    dual: tuple
    form: str


def dual_basis_pair(
    signature: Signature, algebra: str | None = None, scheme: str = "elementary"
) -> DualBasisPair:
    """Exact dual bases for the invariant form, via Gram-matrix inversion."""
    normalize_algebra(signature, algebra)
    return _build_dual_basis_pair(signature, scheme)


def _form_rows(signature: Signature, left, right) -> list:
    """The invariant form on every pair (left[i], right[j]), row i as a
    ``{j: value}`` dict of the nonzero values, over the nonzero entries:
    str(ab) = sum_{r,k} (-1)^{pi_r} a_rk b_kr, times 2(p+1-q) for the
    Killing form; at q = p+1 the supertrace itself, the Kaplansky form on
    supertraceless elements.  The sums run over the int numerators, and
    each value is made a ``Fraction`` once."""
    scale = 1 if _is_psl(signature) else 2 * (signature.p + 1 - signature.q)
    p = signature.p
    # each b_kr of the right side, filed under the position (r, k) of its a_rk
    transposed = {}
    for j, b in enumerate(right):
        for k, row in b._rows.items():
            for r, v in row.items():
                transposed.setdefault((r, k), []).append((j, v))
    rows = []
    for a in left:
        row = {}
        for r, entries in a._rows.items():
            odd = r > p
            for k, v in entries.items():
                if odd:
                    v = -v
                for j, w in transposed.get((r, k), ()):
                    row[j] = row.get(j, 0) + v * w
        rows.append({
            j: Fraction(scale * v, a._den * right[j]._den) for j, v in row.items() if v
        })
    return rows


@functools.cache
def _graded_basis(signature: Signature, scheme: str) -> tuple:
    """``graded_basis`` once per signature and scheme: the dual bases, the
    realized fields and the verifier's generators share it."""
    return tuple(graded_basis(signature, scheme=scheme))


@functools.cache
def _dual_columns(signature: Signature, scheme: str) -> tuple:
    """The duals of ``_graded_basis`` as coefficients over it, from the
    inverse Gram matrix over nonzero entries only: entry j is ``{k: c_kj}``,
    the dual j being sum_k c_kj basis[k].  ``_build_dual_basis_pair``
    builds and checks the duals from them, and ``_casimir`` reads them
    after that check."""
    basis = _graded_basis(signature, scheme)
    if _is_psl(signature) and any(h.supertrace() for h in basis):
        raise DomainError("the Kaplansky form needs a supertraceless basis")
    columns = [{} for _ in basis]
    for k, row in enumerate(_invert(_form_rows(signature, basis, basis))):
        for j, c in row.items():
            columns[j][k] = c
    return tuple(columns)


@functools.cache
def _build_dual_basis_pair(signature: Signature, scheme: str) -> DualBasisPair:
    """The duals of ``_dual_columns``, each gathered entry by entry, and the
    pairing of every basis element with every dual checked against the
    identity."""
    basis = _graded_basis(signature, scheme)
    dual = []
    for column in _dual_columns(signature, scheme):
        acc = {}
        for k, c in column.items():
            h = basis[k]
            c /= h._den
            for r, row in h._rows.items():
                out = acc.setdefault(r, {})
                for col, v in row.items():
                    out[col] = out.get(col, 0) + c * v
        dual.append(PglElement._raw(signature, *_over_den(acc)))
    for i, row in enumerate(_form_rows(signature, basis, dual)):
        if row != {i: 1}:
            raise DomainError("dual basis verification failed")
    form = "Kaplansky" if _is_psl(signature) else "Killing"
    return DualBasisPair(basis, tuple(dual), form)


@functools.cache
def _realized_basis(signature: Signature, scheme: str) -> tuple:
    """``graded_basis`` as vector fields, e_i first and eps_i last; callers
    pass ``scheme`` positionally, so each basis has one cache entry.  No
    other field set is kept: the Casimir reads the duals as sums of these."""
    return tuple(map(realize, _graded_basis(signature, scheme)))


@functools.cache
def _casimir(signature: Signature, scheme: str, rep: str) -> tuple:
    """The Casimir sum L_Y L_X over the basis fields X and their duals Y as
    ``(i, j, C_ij)`` for the nonzero operators C_ij over the doubled
    variables with sum delta^i lam^j C_ij = sum L_Y L_X, each a sum of
    ``compose`` products of the parts that each field keeps
    (``geometry._FieldParts``): on a symbol of weight delta (``rep="L"``)
    L_X = lift(X) + delta Phi_X, on an operator of weights lam and
    lam + delta (``rep="affine"``) L_X = A_X + delta Phi_X + lam B_X, A_X
    as the lift and the rest.  The parts are linear in the field, so those
    of the dual Y = sum_k c_k X_k, with the c_k of ``_dual_columns`` once
    its duals pass their check, are sum_k c_k times those of X_k, and no
    dual is realized.
    ``check relcas`` compares the two through ``casimir_defect``, which
    reads neither.
    """
    if rep == REP_SYMBOL:
        def parts(x):
            own = x._lie_parts()
            return own.lift, own.phi

        powers = ((0, 0), (1, 0))  # of (delta, lam)
    else:
        parts, powers = _operator_lie_parts, ((0, 0), (0, 0), (1, 0), (0, 1))
    _build_dual_basis_pair(signature, scheme)  # raises if the duals fail
    basis_parts = [parts(x) for x in _realized_basis(signature, scheme)]
    sums = {}
    for own, column in zip(basis_parts, _dual_columns(signature, scheme)):
        ops_x = list(zip(powers, own))
        for n, (dy, ly) in enumerate(powers):
            terms = (c * basis_parts[k][n] for k, c in column.items())
            op_y = functools.reduce(add, terms)  # L_Y = sum_k c_k L_{X_k}
            for (dx, lx), op_x in ops_x:
                if op_y._poly and op_x._poly:
                    composed = op_y.compose(op_x)._poly
                    sums.setdefault((dy + dx, ly + lx), []).append(composed)
    sig2, zero = _doubled(signature), Fraction(0)
    out = []
    for (i, j), polys in sorted(sums.items()):
        den = lcm(*(poly._den for poly in polys))
        acc = {}
        for poly in polys:
            _ops.add_into(acc, poly._terms, den // poly._den)
        if acc:
            poly = SuperPolynomial._over(_doubled(sig2), acc, den)
            out.append((i, j, DiffOperator._raw(sig2, zero, zero, poly)))
    return tuple(out)


# ---------------------------------------------------------------------------
# quantization defect maps


def affine_defect(h, s: SymbolField, lam: Rational, *, full: bool = False):
    """Difference between the operator-level and symbol-level actions.

    Conjugates the operator Lie derivative through coefficient-wise
    quantization at weight lam and subtracts the symbol Lie derivative.  For
    affine elements this vanishes; for quadratic directions it lowers the
    degree by exactly one.  With ``full=True`` the whole mixed symbol is
    returned; otherwise concentration in degree k-1 is checked and that part
    returned.
    """
    x = realize(h)
    lam = as_fraction(lam)
    op = affine_quantize(s, lam)
    mixed = affine_symbol(lie_operator(x, op)) - lie_symbol(x, s).as_mixed()
    if full:
        return mixed
    target = max(s.degree - 1, 0)
    for deg in mixed.degrees():
        if deg != target:
            raise ValueError(
                f"defect has an unexpected degree-{deg} part (expected only {target})"
            )
    return mixed.part(target)


def affine_defect_closed_form(h, s: SymbolField, lam: Rational) -> SymbolField:
    """Scalar-multiple-of-contraction form of the quantization defect for a
    quadratic direction."""
    if isinstance(h, PglElement):
        h = pgl_to_graded(h)
    if not isinstance(h, GradedElement):
        raise TypeError("expected an algebra element")
    if any(h.h_minus) or any(v for row in h.h_zero for v in row):
        raise DomainError("the closed form applies to pure quadratic directions")
    sig = s.signature
    lam = as_fraction(lam)
    factor = -(lam * (sig.p - sig.q + 1) + s.degree - 1)
    row = list(h.h_plus)
    return factor * interior(row, s)


def casimir_defect(s: SymbolField, lam: Rational) -> SymbolField:
    """The degree-lowering part of the quantized Casimir action: the sum of
    2 affine_defect(dual of e_i, L_{e_i} S), the dual being +-eps_i / (2(m+1))
    at m = p - q (- for odd y^i).  The defect is linear in the field, so the
    realized eps_i serve, scaled, and no dual basis is built."""
    sig = s.signature
    if _is_psl(sig):
        raise DomainError("the lowering map requires q != p+1")
    lam = as_fraction(lam)
    fields = _realized_basis(sig, "elementary")
    n, scale = sig.n, Fraction(1, sig.p - sig.q + 1)
    total = SymbolField.zero(sig, s.weight, max(s.degree - 1, 0))
    for i, x_e, x_eps in zip(range(1, n + 1), fields[:n], fields[-n:]):
        defect = affine_defect(x_eps, lie_symbol(x_e, s), lam)
        total = total + (-scale if sig.parity(i) else scale) * defect
    return total


# ---------------------------------------------------------------------------
# Casimir application and scalar constants


def casimir_apply(
    s: SymbolField,
    lam: Rational,
    rep: str = REP_SYMBOL,
    algebra: str | None = None,
    scheme: str = "elementary",
) -> MixedSymbol:
    """Apply the quadratic Casimir of the invariant form to a symbol.

    With ``rep="L"`` the generators act by the symbol Lie derivative; with
    ``rep="affine"`` by the operator Lie derivative conjugated through
    coefficient-wise quantization at weight lam.  Either way the operators
    of ``_casimir``, built once per signature, scheme and representation,
    run together on the symbol's term map at its weight and lam
    (``geometry._apply_parts``).
    """
    sig = s.signature
    normalize_algebra(sig, algebra)
    lam = as_fraction(lam)
    if rep not in (REP_SYMBOL, REP_AFFINE):
        raise ValueError(f"unknown representation {rep!r}")
    pairs = [(s.weight**i * lam**j, op) for i, j, op in _casimir(sig, scheme, rep)]
    return MixedSymbol._raw(sig, s.weight, _apply_parts(s._poly, pairs))


def casimir_eigenvalue(k: int, delta: Rational, signature: Signature) -> Fraction:
    """Casimir eigenvalue on degree-k symbols of weight delta (generic variant)."""
    if _is_psl(signature):
        raise DomainError("the eigenvalue formula requires q != p+1")
    pq = signature.p - signature.q
    if k < 0:
        raise ValueError("degree must be non-negative")
    d = as_fraction(delta)
    return (
        Fraction(pq, 2) * d * d
        - Fraction(2 * k + pq, 2) * d
        + Fraction(k * (k + pq), pq + 1)
    )


def psl_casimir_eigenvalue(k: int) -> Fraction:
    """Casimir eigenvalue on degree-k symbols in the q = p+1 variant."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    return Fraction(2 * k * (k - 1))


@functools.cache
def critical_values_for_degree(signature: Signature, k: int) -> frozenset:
    """The critical weights of degree k, which ``quantize`` refuses; kept
    per signature and degree, as ``quantize`` asks for every part."""
    if _is_psl(signature):
        raise DomainError("critical values are defined for q != p+1")
    pq = signature.p - signature.q
    if k < 0:
        raise ValueError("degree must be non-negative")
    return frozenset(Fraction(2 * k - l + pq, pq + 1) for l in range(1, k + 1))


def critical_values(signature: Signature, kmax: int) -> frozenset:
    """The critical weights of every degree k <= kmax.

    Degree k contributes (m + p - q)/(p - q + 1) for k <= m <= 2k - 1, so the
    union is the one range 1 <= m <= 2 kmax - 1.
    """
    if kmax < 0:
        return frozenset()
    if _is_psl(signature):
        raise DomainError("critical values are defined for q != p+1")
    pq = signature.p - signature.q
    return frozenset(Fraction(m + pq, pq + 1) for m in range(1, 2 * kmax))


def is_critical(delta: Rational, signature: Signature, kmax: int) -> bool:
    return as_fraction(delta) in critical_values(signature, kmax)


def critical_pairs(
    delta: Rational, signature: Signature, kmax: int
) -> list[tuple[int, int]]:
    """Degree pairs (k, l), l < k <= kmax, whose eigenvalues collide at delta."""
    d = as_fraction(delta)
    out = []
    for k in range(kmax + 1):
        ak = casimir_eigenvalue(k, d, signature)
        for l in range(k):
            if casimir_eigenvalue(l, d, signature) == ak:
                out.append((k, l))
    return out


def ensure_noncritical(signature: Signature, k: int, delta: Rational) -> None:
    d = as_fraction(delta)
    if d in critical_values_for_degree(signature, k):
        pairs = critical_pairs(d, signature, k)
        raise CriticalValueError(
            f"weight {d} is critical for degree {k} at signature {signature}: "
            f"eigenvalue collisions {pairs}",
            value=d,
            pairs=pairs,
        )


def _coefficients(
    k: int, r: int, lam: Fraction, d: Fraction, signature: Signature
) -> tuple[list[int], int]:
    """C_{k,0..r} as int numerators over one positive common denominator,
    where C_{k,r} = prod_{j=1..r} ((m+1) lam + k - j) /
    (j (m + 2k - j - (m+1) d)) at superdimension m = p - q; at m = -1 both
    weights drop out.  With lam = a/b and d = c/e the step factor is
    N_j / D_j = ((m+1) a + (k-j) b) e / (b j ((m+2k-j) e - (m+1) c)), so over
    D_1 ... D_r the numerator of C_{k,j} is N_1 ... N_j D_{j+1} ... D_r, and
    no ``Fraction`` is made."""
    pq = signature.p - signature.q
    a, b = lam.numerator, lam.denominator
    c, e = d.numerator, d.denominator
    nums, dens = [1], []
    for j in range(1, r + 1):
        factor = (pq + 2 * k - j) * e - (pq + 1) * c
        if factor == 0:
            raise CriticalValueError(
                f"vanishing denominator at step j={j}: weight {d} is critical "
                f"for degree {k} at signature {signature}",
                value=d,
                pairs=[(k, k - j)],
            )
        nums.append(nums[-1] * ((pq + 1) * a + (k - j) * b) * e)
        dens.append(b * j * factor)
    den = 1
    for j in range(r, 0, -1):
        nums[j] *= den
        den *= dens[j - 1]
    nums[0] = den
    if den < 0:
        return [-n for n in nums], -den
    return nums, den


def quantization_coefficient(
    k: int, r: int, lam: Rational, delta: Rational, signature: Signature
) -> Fraction:
    """Closed-form coefficient of the r-fold divergence in degree-k
    quantization."""
    if _is_psl(signature):
        raise DomainError("the coefficient formula requires q != p+1")
    if not 0 <= r <= k:
        raise ValueError(f"step r={r} out of range 0..{k}")
    nums, den = _coefficients(k, r, as_fraction(lam), as_fraction(delta), signature)
    return Fraction(nums[r], den)


def psl_quantization_coefficient(k: int, r: int) -> Fraction:
    """Divergence coefficients in the q = p+1 variant; degree 1 is excluded
    (there the one-parameter family replaces a fixed coefficient)."""
    if not 0 <= r <= k:
        raise ValueError(f"step r={r} out of range 0..{k}")
    if k == 1 and r:
        raise DomainError(
            "degree-1 coefficients are not determined in the q = p+1 variant"
        )
    # the coefficients see the signature only through p - q = -1
    nums, den = _coefficients(k, r, Fraction(0), Fraction(0), Signature(0, 1))
    return Fraction(nums[r], den)
