"""Term-map kernel for Grassmann-polynomial arithmetic.

A term map is ``{(even_exponents, odd_mask): coefficient}`` where
``even_exponents`` is a tuple of non-negative ints (one per even coordinate)
and ``odd_mask`` is a bitmask over the odd generators (bit i-1 <-> index i).
Coefficients are exact rationals; zero coefficients are never stored.

Two routines serve long sums.  ``add_into`` adds or subtracts a term map in
a dict that the caller owns and has not yet handed out, so a sum of many
pieces is built in place instead of copying the accumulator at every step.
``derive_terms`` applies a derivation with a multiplier, sum_i C_i d_i A +
W A, in one pass over the terms of A with every product written into one
output dict: a vector field on a polynomial, and the first-order action of
a field on a symbol or an operator term map.  The derivation comes in the
form that ``derivation`` builds once per field, its coefficients 1 and -1
marked, so that such a coefficient, like an exponent 1 brought down by an
even derivative, costs no rational product.  ``divergence_terms`` contracts
each coordinate derivative of a symbol's term map with the derivative along
its frame vector, sum_j +-d/de_j d/dy^j, in one pass over the terms.

This is the package's only kernel; callers reach it as ``supercore._ops``.
It is not named ``_termops`` so that a stale compiled ``_termops*.so`` left
in an old install cannot shadow it.
"""

from operator import add


def odd_merge_sign(a, b):
    """Sign of sorting the concatenation of ascending odd sets a, b; 0 on overlap."""
    if a & b:
        return 0
    inv = 0
    while b:
        low = b & -b
        inv += (a >> low.bit_length()).bit_count()
        b ^= low
    return -1 if inv & 1 else 1


def odd_below(mask, bit):
    """Number of generators in mask strictly below the given single-bit position."""
    return (mask & (bit - 1)).bit_count()


def mul_terms(A, B):
    """Product of two term maps over the same signature."""
    out = {}
    for (ea, ma), ca in A.items():
        for (eb, mb), cb in B.items():
            if ma & mb:
                continue
            s = odd_merge_sign(ma, mb)
            key = (tuple(x + y for x, y in zip(ea, eb)), ma | mb)
            c = ca * cb if s > 0 else -(ca * cb)
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                tot = prev + c
                if tot:
                    out[key] = tot
                else:
                    del out[key]
    return out


def add_into(acc, B, sign=1):
    """Add B, or subtract it when ``sign`` is -1, to the term map ``acc`` in
    place; ``acc`` must be a dict that the caller owns and has not handed
    out."""
    pairs = B.items() if sign > 0 else ((key, -v) for key, v in B.items())
    get = acc.get
    for key, v in pairs:
        prev = get(key)
        if prev is None:
            acc[key] = v
        else:
            tot = prev + v
            if tot:
                acc[key] = tot
            else:
                del acc[key]
    return acc


def add_terms(A, B):
    return add_into(dict(A), B)


def sub_terms(A, B):
    return add_into(dict(A), B, -1)


def neg_terms(A):
    return {key: -c for key, c in A.items()}


def scale_terms(A, c):
    if not c:
        return {}
    return {key: c * v for key, v in A.items()}


def partial_even_terms(A, ix):
    """Left derivative along even coordinate at 0-based position ix."""
    out = {}
    for (e, m), c in A.items():
        a = e[ix]
        if a:
            out[(e[:ix] + (a - 1,) + e[ix + 1 :], m)] = c if a == 1 else c * a
    return out


def partial_odd_terms(A, bit):
    """Left derivative along the odd generator with the given single-bit mask."""
    out = {}
    for (e, m), c in A.items():
        if m & bit:
            out[(e, m ^ bit)] = -c if odd_below(m, bit) & 1 else c
    return out


def _rows(C):
    """The terms of C as ``(exponents or None when all zero, mask, coeff,
    unit)``, unit being the coefficient when it is 1 or -1 and 0 otherwise."""
    return [
        (e if any(e) else None, m, c, 1 if c == 1 else -1 if c == -1 else 0)
        for (e, m), c in C.items()
    ]


def derivation(p, comps):
    """The form ``derive_terms`` takes of the derivation sum_i C_i d_i.

    ``comps`` lists pairs ``(i, C_i)``: a 0-based coordinate position i, even
    below ``p`` and odd from ``p`` on, with the term map C_i that multiplies
    the left derivative along that coordinate from the left.  The form is
    ``(evens, odds)``, the nonzero C_i as rows keyed by the even position or
    by the odd bit; it holds no reference to the maps' dicts.
    """
    evens, odds = [], []
    for i, C in comps:
        if C:
            if i < p:
                evens.append((i, _rows(C)))
            else:
                odds.append((1 << (i - p), _rows(C)))
    return evens, odds


def derive_terms(A, D, W=None):
    """sum_i C_i * d_i A + W * A for D = ``derivation(p, [(i, C_i), ...])``,
    in one pass over the terms of A with every product written into one
    output dict; ``W``, when given, multiplies A from the left.  Equal to
    sum_i mul_terms(C_i, partial_*_terms(A, i)) + mul_terms(W, A).
    """
    evens, odds = D
    wrows = _rows(W) if W else None
    out = {}
    get = out.get
    for (e, m), c in A.items():
        # the derivatives of this term, each with the rows that multiply it
        pieces = []
        for ix, rows in evens:
            a = e[ix]
            if a:
                de = e[:ix] + (a - 1,) + e[ix + 1 :]
                pieces.append((rows, de, m, c if a == 1 else c * a))
        for bit, rows in odds:
            if m & bit:
                pieces.append((rows, e, m ^ bit, -c if odd_below(m, bit) & 1 else c))
        if wrows:
            pieces.append((wrows, e, m, c))
        for rows, de, dm, dc in pieces:
            for ce, cm, cc, unit in rows:
                if cm & dm:
                    continue
                key = (de if ce is None else tuple(map(add, ce, de)), cm | dm)
                s = odd_merge_sign(cm, dm) if cm and dm else 1
                if unit:
                    v = dc if unit == s else -dc
                else:
                    v = cc * dc if s > 0 else -(cc * dc)
                prev = get(key)
                out[key] = v if prev is None else prev + v
    for key in [key for key, v in out.items() if not v]:
        del out[key]
    return out


def divergence_terms(A, p, q):
    """sum_j +-(d/de_j)(d/dy^j) A, the sign - for odd y^j, for a term map A
    over the doubled variables of the signature p|q: the even exponents hold
    the p coordinates, then the p frame vectors; the mask holds the q odd
    coordinates in its low bits, then the q odd frame vectors.  One pass over
    the terms of A, equal to sum_j +-partial(partial(A, y^j), e_j).
    """
    out = {}
    get = out.get
    for (e, m), c in A.items():
        for ix in range(p):
            a = e[ix]
            if a:
                b = e[p + ix]
                if b:
                    key = (e[:ix] + (a - 1,) + e[ix + 1 : p + ix] + (b - 1,)
                           + e[p + ix + 1 :], m)
                    v = c if a == b == 1 else c * (a * b)
                    prev = get(key)
                    out[key] = v if prev is None else prev + v
        # odd j: y^j at bit t, e_j at bit q + t; the two left derivatives and
        # the - of an odd y^j leave -1 to the number of bits between them
        pairs = m & (m >> q)
        while pairs:
            low = pairs & -pairs
            pairs ^= low
            high = low << q
            key = (e, m ^ low ^ high)
            v = c if (m & (high - (low << 1))).bit_count() & 1 else -c
            prev = get(key)
            out[key] = v if prev is None else prev + v
    for key in [key for key, v in out.items() if not v]:
        del out[key]
    return out
