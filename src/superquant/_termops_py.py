"""Term-map kernel for Grassmann-polynomial arithmetic.

A term map is ``{(even_exponents, odd_mask): coefficient}`` where
``even_exponents`` is a tuple of non-negative ints (one per even coordinate)
and ``odd_mask`` is a bitmask over the odd generators (bit i-1 <-> index i).
Coefficients are exact rationals; zero coefficients are never stored.

This is the package's only kernel; callers reach it as ``supercore._ops``.
It is not named ``_termops`` so that a stale compiled ``_termops*.so`` left
in an old install cannot shadow it.
"""


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


def add_terms(A, B):
    out = dict(A)
    for key, c in B.items():
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


def sub_terms(A, B):
    out = dict(A)
    for key, c in B.items():
        prev = out.get(key)
        if prev is None:
            out[key] = -c
        else:
            tot = prev - c
            if tot:
                out[key] = tot
            else:
                del out[key]
    return out


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
            out[(e[:ix] + (a - 1,) + e[ix + 1 :], m)] = a * c
    return out


def partial_odd_terms(A, bit):
    """Left derivative along the odd generator with the given single-bit mask."""
    out = {}
    for (e, m), c in A.items():
        if m & bit:
            out[(e, m ^ bit)] = -c if odd_below(m, bit) & 1 else c
    return out
