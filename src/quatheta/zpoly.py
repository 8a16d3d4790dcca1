"""Exact factorization of monic polynomials over Z, on plain int lists.

A polynomial is a list of ints, leading coefficient first; the zero
polynomial is the empty list.  `factor` splits a monic polynomial into its
square-free parts (Yun, on a heuristic integer gcd) and factors each part by
Zassenhaus's method (Cohen, *A Course in Computational Algebraic Number
Theory*, GTM 138, 3.4-3.5): distinct- and equal-degree factorization modulo a
few small primes; lifting of the factors modulo the best of them past twice
the Mignotte bound, the linear ones as roots by Newton's iteration and the
others by quadratic Hensel steps on a factor tree; and recombination of the
lifted factors over subsets with trial division.  The randomness of the
equal-degree splits is seeded, so every call does the same work.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, gcd, isqrt
from operator import mul

# at most this many good primes are compared before one is lifted
_COMPARED_PRIMES = 3


def factor(f: list[int]) -> list[tuple[list[int], int]]:
    """The monic irreducible factors of monic `f` over Z with their multiplicities.

    Sorted as sympy's `factor_list` sorts them: by length, then
    multiplicity, then coefficients, leading first.
    """
    if len(f) == 1:
        return []
    out = []
    p = _squarefree_prime(f)
    for part, mult in [(f, 1)] if p else _yun(f):
        out.extend((g, mult) for g in _factor_squarefree(part, p))
    out.sort(key=lambda gm: (len(gm[0]), gm[1], gm[0]))
    return out


# ---- integer polynomials ------------------------------------------------


def _strip(f: list[int]) -> list[int]:
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    return f[i:] if i else f


def _add(f: list[int], g: list[int]) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    n = len(f) - len(g)
    return _strip(f[:n] + [a + b for a, b in zip(f[n:], g)])


def _sub(f: list[int], g: list[int]) -> list[int]:
    n = len(f) - len(g)
    if n >= 0:
        return _strip(f[:n] + [a - b for a, b in zip(f[n:], g)])
    return _strip([-b for b in g[:-n]] + [a - b for a, b in zip(f, g[-n:])])


def _mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    if len(f) < len(g):
        f, g = g, f
    out = [0] * (len(f) + len(g) - 1)
    m = len(f)
    for i, c in enumerate(g):
        if c:
            out[i : i + m] = [a + c * b for a, b in zip(out[i : i + m], f)]
    return out


def _deriv(f: list[int]) -> list[int]:
    n = len(f) - 1
    return _strip([c * (n - i) for i, c in enumerate(f[:-1])])


def _divmod_monic(f: list[int], g: list[int], m: int = 0) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by monic g, over Z or, when m > 0, modulo m."""
    k = len(f) - len(g) + 1
    if k <= 0:
        return [], f
    r, tail, d = list(f), g[1:], len(g) - 1
    for i in range(k):
        c = r[i] % m if m else r[i]
        r[i] = c
        if c:
            r[i + 1 : i + 1 + d] = [a - c * b for a, b in zip(r[i + 1 : i + 1 + d], tail)]
    rem = [a % m for a in r[k:]] if m else r[k:]
    return r[:k], _strip(rem)


def _exact_div(f: list[int], g: list[int]) -> list[int]:
    q, r = _divmod_monic(f, g)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _primitive(f: list[int]) -> list[int]:
    c = 0
    for a in f:
        c = gcd(c, a)
    if f and f[0] < 0:
        c = -c
    return [a // c for a in f] if c not in (0, 1) else f


def _value(f: list[int], x: int) -> int:
    v = 0
    for c in f:
        v = v * x + c
    return v


def _gcd_monic(f: list[int], g: list[int]) -> list[int]:
    """The monic gcd over Z of monic f and any g.

    Heuristic GCDHEU (Char, Geddes and Gonnet 1989): the integer gcd of the
    values at a large xi, read back in symmetric base xi, is the gcd once it
    divides both; a primitive remainder sequence decides the rare case where
    six evaluation points fail.
    """
    g = _primitive(g)
    if not g:
        return f
    if len(g) == 1 or len(f) == 1:
        return [1]
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(6):
        h, cand = gcd(_value(f, xi), _value(g, xi)), []
        while h:
            c = h % xi
            if c > xi // 2:
                c -= xi
            cand.append(c)
            h = (h - c) // xi
        cand = _primitive(cand[::-1])
        if cand and cand[0] == 1 and not _divmod_monic(f, cand)[1] and not _divmod_monic(g, cand)[1]:
            return cand
        xi = xi * 73794 // 27011
    return _prs_gcd_monic(f, g)


def _prs_gcd_monic(f: list[int], g: list[int]) -> list[int]:
    """The monic gcd over Z of monic f and nonzero g, by a primitive remainder sequence."""
    a, b = f, _primitive(g)
    while b:
        # pseudo-remainder of a by b, made primitive
        r, lc, d = a, b[0], len(b)
        while len(r) >= d:
            c = r[0]
            r = _strip([x * lc - c * y for x, y in zip(r[:d], b)][1:] + [x * lc for x in r[d:]])
        a, b = b, _primitive(r)
    # a primitive divisor of monic f has leading coefficient 1
    return a if len(a) > 1 else [1]


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """Square-free parts (a_i, i) of monic f = prod a_i^i, each a_i monic and of positive degree."""
    df = _deriv(f)
    g = _gcd_monic(f, df)
    c = _exact_div(f, g)
    d = _sub(_exact_div(df, g), _deriv(c))
    out, i = [], 1
    while len(c) > 1:
        a = _gcd_monic(c, d)
        c = _exact_div(c, a)
        d = _sub(_exact_div(d, a), _deriv(c))
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


# ---- polynomials modulo a small prime p -------------------------------


def _odd_primes(p: int):
    """The odd primes from odd p on."""
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _gf(f: list[int], p: int) -> list[int]:
    return _strip([c % p for c in f])


def _gf_monic(f: list[int], p: int) -> list[int]:
    if not f or f[0] == 1:
        return f
    inv = pow(f[0], -1, p)
    return [c * inv % p for c in f]


def _gf_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _divmod_monic(_mul(a, b), f, p)[1]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b modulo p."""
    while b:
        inv, tail, d = pow(b[0], -1, p), b[1:], len(b) - 1
        r = list(a)
        for i in range(len(r) - d):
            c = r[i] * inv % p
            if c:
                r[i + 1 : i + 1 + d] = [x - c * y for x, y in zip(r[i + 1 : i + 1 + d], tail)]
        a, b = b, _gf(r[max(len(r) - d, 0) :], p)
    return _gf_monic(a, p)


def _gf_gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s a + t b = 1 modulo p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        inv = pow(r1[0], -1, p)
        q, r = _divmod_monic(r0, [c * inv % p for c in r1], p)
        q = [c * inv % p for c in q]
        r0, r1 = r1, r
        s0, s1 = s1, _gf(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _gf(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _gf_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    out = [1]
    while e:
        if e & 1:
            out = _gf_mulmod(out, a, f, p)
        e >>= 1
        if e:
            a = _gf_mulmod(a, a, f, p)
    return out


def _xp_powers(f: list[int], p: int, k: int) -> list[list[int]]:
    """x^(p i) mod f modulo p for i < k, as coefficient lists of length deg f, leading first."""
    tail = f[1:]
    rows, v = [], [0] * (len(f) - 2) + [1]
    for i in range(k):
        rows.append(v)
        for _ in range(p if i + 1 < k else 0):
            c = v[0]
            v = v[1:] + [0]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, tail)]
    return rows


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g, d) pairs: g the product of the irreducible factors of degree d of
    square-free monic f modulo p."""
    n = len(f) - 1
    if n <= 1:
        return [(f, n)] if n else []
    x = [0] * (n - 2) + [1, 0]
    rest, out, d, cols = f, [], 0, None
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        if d == 1:
            h = _xp_powers(f, p, 2)[1]
        else:
            # h -> h^p is linear, h^p = sum h_i x^(p i); its matrix is built
            # only when a degree past 1 is needed
            if cols is None:
                cols = list(zip(*reversed(_xp_powers(f, p, n))))
            h = [sum(map(mul, h, col)) % p for col in cols]
        g = _gf_gcd(rest, _gf(_sub(h, x), p), p)
        if len(g) > 1:
            out.append((g, d))
            rest = _divmod_monic(rest, g, p)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _edf(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The irreducible factors of g modulo odd p, all of degree d: the roots
    of a product of linear factors by trial, otherwise by Cantor-Zassenhaus."""
    n = len(g) - 1
    if n == d:
        return [g]
    if d == 1:
        return [[1, -a % p] for a in range(p) if not _value(g, a) % p]
    e = (p**d - 1) // 2
    while True:
        a = _strip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        b = _gf_powmod(a, e, g, p)
        h = _gf_gcd(g, _gf(_sub(b, [1]), p), p)
        if 1 < len(h) < len(g):
            return _edf(h, d, p, rng) + _edf(_divmod_monic(g, h, p)[0], d, p, rng)


def _squarefree_prime(f: list[int]) -> int | None:
    """A prime among the first few odd ones modulo which f is square-free, which proves f square-free over Z."""
    df = _deriv(f)
    for p in (3, 5, 7):
        if len(_gf_gcd(_gf(f, p), _gf(df, p), p)) == 1:
            return p
    return None


# ---- Zassenhaus ----------------------------------------------------------


def _factor_squarefree(f: list[int], good: int | None = None) -> list[list[int]]:
    """The monic irreducible factors of square-free monic f over Z.

    `good`, when given, is an odd prime modulo which f is already known to
    be square-free; the primes tried start there.
    """
    n = len(f) - 1
    if n <= 1:
        return [f]
    if f[-1] == 0:
        return [[1, 0]] + _factor_squarefree(f[:-1], good)
    df, allowed, best, seen = _deriv(f), None, None, 0
    for p in _odd_primes(good or 3):
        fp = _gf(f, p)
        if p != good and len(_gf_gcd(fp, _gf(df, p), p)) > 1:
            continue
        ddf = _ddf(fp, p)
        # the degrees of the factors over Z are subset sums of the modular factor degrees
        sums = 1
        for g, d in ddf:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        allowed = sums if allowed is None else allowed & sums
        if allowed == 1 | 1 << n:
            return [f]
        # fewest factors for the factor tree first (linear ones lift as roots),
        # then fewest in all for recombination
        count = sum((len(g) - 1) // d for g, d in ddf)
        nonlinear = count - sum(len(g) - 1 for g, d in ddf if d == 1)
        if best is None or (nonlinear, count) < best[0]:
            best = ((nonlinear, count), p, ddf)
        seen += 1
        # another prime costs a distinct-degree factorization, worth it only
        # while the modular factors are many for the degree
        if nonlinear <= 1 or 4 * count <= n or seen == _COMPARED_PRIMES:
            break
    _, p, ddf = best
    rng = random.Random(p)
    modular = [h for g, d in ddf for h in _edf(g, d, p, rng)]
    # a factor of degree k has coefficients at most binomial(k, k // 2) |f|_2
    # (Mignotte); recombination needs k <= n / 2, so lift past twice that
    bound = 2 * comb(n // 2, n // 4) * (isqrt(sum(c * c for c in f)) + 1)
    m, steps = p, 0
    while m <= bound:
        m, steps = m * m, steps + 1
    # linear factors are lifted as roots by Newton's iteration, the others by a factor tree
    roots = [_lift_root(f, df, -g[1] % p, p, steps) for g in modular if len(g) == 2]
    rest = [c % m for c in f]
    for a in roots:
        rest = _divmod_monic(rest, [1, -a], m)[0]
    others = [g for g in modular if len(g) > 2]
    lifted = [[1, -a % m] for a in roots] + (_hensel_lift(rest, others, p, steps) if others else [])
    return _recombine(f, lifted, m, allowed)


def _lift_root(f: list[int], df: list[int], a: int, p: int, steps: int) -> int:
    """The root of f modulo p^(2^steps) above its simple root a modulo p."""
    m = p
    for _ in range(steps):
        m *= m
        fa = dfa = 0
        for c in f:
            fa = (fa * a + c) % m
        for c in df:
            dfa = (dfa * a + c) % m
        a = (a - fa * pow(dfa, -1, m)) % m
    return a


def _hensel_lift(f: list[int], fs: list[list[int]], p: int, steps: int) -> list[list[int]]:
    """Lift monic f = prod fs modulo p to monic factors modulo p^(2^steps)."""
    M = p ** (1 << steps)
    if len(fs) == 1:
        return [[c % M for c in f]]
    k = len(fs) // 2
    g, h = [1], [1]
    for a in fs[:k]:
        g = _gf(_mul(g, a), p)
    for a in fs[k:]:
        h = _gf(_mul(h, a), p)
    s, t = _gf_gcdex(g, h, p)
    m = p
    for _ in range(steps):
        # one quadratic step (von zur Gathen and Gerhard, *Modern Computer Algebra*, Alg. 15.10)
        m *= m
        e = _gf(_sub(f, _mul(g, h)), m)
        q, r = _divmod_monic(_mul(s, e), h, m)
        g = _gf(_add(g, _add(_mul(t, e), _mul(q, g))), m)
        h = _gf(_add(h, r), m)
        b = _gf(_sub(_add(_mul(s, g), _mul(t, h)), [1]), m)
        u, v = _divmod_monic(_mul(s, b), h, m)
        s = _gf(_sub(s, v), m)
        t = _gf(_sub(t, _add(_mul(t, b), _mul(u, g))), m)
    return _hensel_lift(g, fs[:k], p, steps) + _hensel_lift(h, fs[k:], p, steps)


def _recombine(f: list[int], lifted: list[list[int]], m: int, allowed: int) -> list[list[int]]:
    """The irreducible factors of monic f over Z from its monic factors modulo m.

    Products of the lifted factors over subsets, smallest subsets first, are
    tried by exact division; each candidate is the product of the lower
    degree side, so m need only exceed twice the coefficients of a factor
    of at most half the degree.  `allowed` has bit d set when a factor of
    degree d is possible.
    """
    half = m // 2

    def sym(c: int) -> int:
        c %= m
        return c - m if c > half else c

    def product(idx) -> list[int]:
        g = [1]
        for i in idx:
            g = _gf(_mul(g, lifted[i]), m)
        return [sym(c) for c in g]

    out, rest, s = [], f, 1
    degs = [len(g) - 1 for g in lifted]
    while 2 * s <= len(lifted):
        n = len(rest) - 1
        for S in combinations(range(len(lifted)), s):
            d = sum(degs[i] for i in S)
            if not (allowed >> d & 1 and allowed >> (n - d) & 1):
                continue
            # a factor's constant term divides rest(0), which is nonzero and below m/2
            c = 1
            for i in S:
                c = c * lifted[i][-1] % m
            c = sym(c)
            if not c or rest[-1] % c:
                continue
            others = [i for i in range(len(lifted)) if i not in S]
            if 2 * d <= n:
                g = product(S)
                q, r = _divmod_monic(rest, g)
            else:
                q = product(others)
                g, r = _divmod_monic(rest, q)
            if r:
                continue
            out.append(g)
            rest = q
            lifted, degs = [lifted[i] for i in others], [degs[i] for i in others]
            break
        else:
            s += 1
    if len(rest) > 1:
        out.append(rest)
    return out
