"""Factorization over Z in one and two variables, on Python ints.

`factor_univariate` takes an integer coefficient list, `factor_bivariate`
an integer term dict in (x, y) that is squarefree; both return the
distinct irreducible factors over Z, each primitive, integer constants
dropped, and no multiplicities: the pipeline factors reduced curves and
the repeated parts of eliminants, and reads only which factors there are.
By Gauss's lemma these are the irreducible factors over Q, which is what
`numfield.factor_rational` and `components.decompose` read off them.

One variable (von zur Gathen & Gerhard, *Modern Computer Algebra*, chs.
14 and 15):

* the lowest power of the variable and the integer content come out
  first;
* f is squarefree when it is so modulo a prime that does not divide
  lc(f); when none of the first `_PRIMES_COMPARED` odd primes p with p
  not dividing lc(f) shows that, f is replaced by its primitive
  squarefree part f / gcd(f, f') (one `poly._int_gcd`, one
  `poly._quotient`), whose irreducible factors are f's distinct ones;
* an f of degree at most 2 is answered by its discriminant;
* otherwise, among those primes that keep f squarefree (or the first
  prime past them that does, each prime tested once), the one with the
  fewest distinct-degree factors is kept (a count of 1 proves f
  irreducible at once), and only f mod that p is split
  into its monic irreducible factors, by Cantor and Zassenhaus's
  equal-degree splitting with a seeded `random.Random`;
* the factors are Hensel-lifted together, quadratically, to p^l >
  2 |lc(f)| 2^n ||f||_2 (`_hensel`);
* subsets of the lifted factors, smallest first, give the candidates
  lc(f) prod(g_i) mod p^l in the symmetric range; a candidate's primitive
  part is accepted only when it divides f exactly (`poly._dense_quotient`),
  and then f and the factor list shrink.

Why the answer is exact: every accepted factor divides f exactly, and is
irreducible because no smaller subset gave a factor before it.  The
rest is declared irreducible only after every subset of at most half of
the remaining lifted factors failed.  That is complete by Mignotte's
bound: a factor g of f has ||g||_inf <= 2^n ||f||_2 |lc(g) / lc(f)|, so
lc(f) / lc(g) g, whose image mod p^l is lc(f) times the product of the
lifts of the modular factors of g (unique, since f is squarefree mod p),
lies below p^l / 2 and is that product's symmetric representative.  The
answer depends on neither the prime nor the random seed: it is the
unique factorization, and the callers sort it.

Two variables, for a squarefree f:

* the contents of f in x (a polynomial in y) and in y (a polynomial in x)
  are factored in one variable;
* the rest, the part, is primitive in both variables and every factor of
  it has positive degree in both; it is squarefree, and the search for a
  squarefree line below finds none for a part that is not, which raises
  `DomainError` (a repeated factor in a content comes back once, which
  `components.decompose`'s product check refuses);
* a part of degree 1 in x or in y is irreducible; otherwise the shear
  y -> y + k x (`poly.shear`), k the first of 0, 1, -1, 2, ...
  (`poly._integers`) that makes lc_x a nonzero integer L, gives q(x, y)
  of degree d in x and e in y;
* for the first c in that order with q(x, c) squarefree (the search and
  bound of `poly.is_squarefree`), the image q(x, c) is factored in one
  variable; one factor proves q irreducible, since every factor of q has
  a constant leading coefficient in x and so keeps its degree in the
  image;
* otherwise u = q(x, 2^bits) (`poly._evaluate_last`), with 2^bits >
  2^(d + e + 1) ||q||_2 and bits raised by 1 while u is not squarefree,
  is factored in one variable;
* subsets of u's factors, smallest first, with product h and lc(h)
  dividing L, give the candidates read off the balanced base-2^bits digits
  (`poly._digits`) of the coefficients of (L / lc(h)) h; a candidate's
  primitive part is accepted only when it divides q exactly
  (`poly._quotient`), and each factor is carried back by y -> y - k x.

Why the answer is exact: each accepted factor divides exactly, and the
rest is declared irreducible only after every subset of at most half of
the remaining factors of u failed.  Let g be an irreducible factor of q,
with l = lc_x(g), a divisor of L.  Mahler's inequality (K. Mahler, J.
London Math. Soc. 37, 1962) bounds the coefficient of x^i y^j in g by
C(d, i) C(e, j) M(g), and the Mahler measure M is multiplicative, with
M(q / g) >= |L / l| by Jensen's formula in x; so every coefficient of
(L / l) g is at most 2^(d + e) M(q) <= 2^(d + e) ||q||_2 < 2^(bits - 1).
As u is squarefree, g(x, 2^bits) is an integer z times the product h of a
unique subset of u's primitive factors, so l = z lc(h) and (L / lc(h)) h
is ((L / l) g)(x, 2^bits): its digits are the coefficients of (L / l) g,
whose primitive part is g.  So the subset of every irreducible factor
gives that factor, and as a candidate that divides q is z h at 2^bits for
its own subset, a reducible one would have been preceded by the smaller
subsets of its factors.
"""

from __future__ import annotations

import random
from itertools import combinations, islice
from math import gcd, isqrt

from .poly import DomainError, Poly, _dense, _dense_quotient, _digits, \
    _evaluate_last, _int_gcd, _integers, _mul_terms, _primitive_last, \
    _quotient, _squarefree, _squarefree_line, _trim, primitive_ints, shear

__all__ = ["factor_univariate", "factor_bivariate"]

# distinct-degree counts compared before one prime is chosen to split f
_PRIMES_COMPARED = 3


def factor_univariate(f: list) -> list:
    """The distinct irreducible factors over Z of the nonzero integer
    coefficient list f (low to high), each a primitive coefficient list
    with positive last entry."""
    k = next(i for i, c in enumerate(f) if c)
    out = [[0, 1]] if k else []
    f = f[k:]
    if len(f) == 1:
        return out
    f = _primitive(f)
    if len(f) <= 3:
        return out + _small(f)
    # f is squarefree when it is so mod a prime not dividing lc(f)
    images = _squarefree_images(f)
    primes = _compared(images)
    if not primes:
        # f / gcd(f, f') has f's distinct factors
        a = {(e,): v for e, v in enumerate(f) if v}
        da = {(e - 1,): e * v for (e,), v in a.items() if e}
        part = _primitive(_dense(_quotient(a, _int_gcd(a, da))))
        if len(part) <= 3:
            return out + _small(part)
        if part != f:   # else f is squarefree: go on with its images
            f, images = part, _squarefree_images(part)
            primes = _compared(images)
        primes = primes or [next(q for q in images if q[1])]
    return out + _zassenhaus(f, primes)


def factor_bivariate(f: dict) -> list:
    """The irreducible factors over Z of the squarefree nonzero integer
    term dict f in (x, y), each an integer-primitive term dict in (x, y).

    A repeated factor free of x or of y comes back once; one of positive
    degree in both variables raises `DomainError` (see `_factor_part`)."""
    in_y, f = _primitive_last({(j, i): v for (i, j), v in f.items()})
    in_x, f = _primitive_last({(i, j): v for (j, i), v in f.items()})
    out = [{(0, e): v for e, v in enumerate(g) if v}
           for g in factor_univariate(_dense(in_y))]
    out += [{(e, 0): v for e, v in enumerate(g) if v}
            for g in factor_univariate(_dense(in_x))]
    if max(m[0] for m in f):
        out += _factor_part(f)
    return out


# ---------------------------------------------------------------------------
# small degrees
# ---------------------------------------------------------------------------


def _small(f: list) -> list:
    """factor_univariate's answer for a primitive f of degree 1 or 2 with
    positive last entry and f(0) != 0: a quadratic a t^2 + b t + c splits
    exactly when its discriminant b^2 - 4ac is a square s^2, into the
    primitive parts of 2a t + b - s and 2a t + b + s, one factor when
    s = 0."""
    if len(f) == 2:
        return [f]
    c, b, a = f
    disc = b * b - 4 * a * c
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc:
        return [f]
    roots = [_primitive([b - s, 2 * a]), _primitive([b + s, 2 * a])]
    return roots[:1] if not s else roots


def _primitive(f: list) -> list:
    """f over its content, signed so that the last entry is positive."""
    c = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return [v // c for v in f]


# ---------------------------------------------------------------------------
# dense polynomials mod m, low to high; division only by a unit leading
# coefficient, so m may be a prime p or a power p^l
# ---------------------------------------------------------------------------


def _add(a: list, b: list, m: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + b[i] if i < len(b) else x) % m
                  for i, x in enumerate(a)])


def _sub(a: list, b: list, m: int) -> list:
    return _add(a, [-x for x in b], m)


def _mul(a: list, b: list, m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _divmod(a: list, b: list, m: int):
    """(q, r) with a = q b + r mod m and deg r < deg b, for lc(b) a unit."""
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for top in range(len(a) - 1, db - 1, -1):
        c = r[top] * inv % m
        if c:
            q[top - db] = c
            for j in range(db):
                r[top - db + j] -= c * b[j]
    return _trim(q), _trim([c % m for c in r[:db]])


def _rem(a: list, b: list, m: int) -> list:
    return _divmod(a, b, m)[1]


def _monic(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: list, b: list, p: int) -> list:
    """The monic gcd over F_p; [] when both are zero."""
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p) if a else a


def _inverse(a: list, g: list, p: int) -> list:
    """a^-1 mod g over F_p, for a coprime to the monic g: extended Euclid,
    keeping s with s a = r mod g for each remainder r."""
    r0, r1, s0, s1 = g, _rem(a, g, p), [], [1]
    while len(r1) > 1:
        q, r = _divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _sub(s0, _mul(q, s1, p), p)
    inv = pow(r1[0], -1, p)
    return _rem([c * inv for c in s1], g, p)


def _powmod(a: list, e: int, f: list, p: int) -> list:
    out, a = [1], _rem(a, f, p)
    while e:
        if e & 1:
            out = _rem(_mul(out, a, p), f, p)
        e >>= 1
        if e:
            a = _rem(_mul(a, a, p), f, p)
    return out


def _symmetric(a: list, m: int) -> list:
    half = m // 2
    return [c - m if c > half else c for c in a]


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _mod_squarefree(f: list, p: int):
    """f mod p made monic when it is squarefree, for p not dividing lc(f);
    else None."""
    fp = _monic([c % p for c in f], p)
    df = _trim([i * c % p for i, c in enumerate(fp)][1:])
    return fp if len(_gcd(fp, df, p)) == 1 else None


def _squarefree_images(f: list):
    """(p, f mod p made monic, or None where f is not squarefree mod p)
    for each odd prime p not dividing lc(f), in turn."""
    for p in _odd_primes():
        if f[-1] % p:
            yield p, _mod_squarefree(f, p)


def _compared(images) -> list:
    """The next `_PRIMES_COMPARED` pairs of `images` that keep f squarefree."""
    return [(p, fp) for p, fp in islice(images, _PRIMES_COMPARED) if fp]


# ---------------------------------------------------------------------------
# one variable: Zassenhaus
# ---------------------------------------------------------------------------


def _distinct_degree(f: list, p: int) -> list:
    """[(g, d)]: g is the product of the monic irreducible factors of
    degree d of the monic squarefree f over F_p, for each d that has one."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: list, d: int, p: int, rng: random.Random) -> list:
    """The monic irreducible factors of the monic squarefree g over F_p,
    p odd, when all of them have degree d (Cantor & Zassenhaus): for a
    random a, gcd(a^((p^d - 1) / 2) - 1, g) is a proper factor with
    probability about 1/2."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        h = _gcd(g, _sub(_powmod(a, e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_divmod(g, h, p)[0], d, p, rng))


def _hensel(f: list, gs: list, p: int, mod: int):
    """The monic g_i, with f = lc(f) prod g_i mod p, f's leading
    coefficient prime to p and the g_i pairwise coprime mod p, lifted to
    f = lc(f) prod g_i mod `mod` (a power of p).

    Quadratic multifactor lifting from modulus m to m' | m^2, with the b_i
    of deg b_i < deg g_i and sum b_i prod_{j != i} g_j = 1 mod m, and e =
    f - lc(f) prod g_i = 0 mod m: g_i += (b_i e / lc(f)) mod g_i, after
    which e = 0 mod m'; then, unless m' = `mod`, with E = 1 - sum b_i
    prod_{j != i} g_j = 0 mod m, b_i += (b_i E) mod g_i, after which E = 0
    mod m'.  At m = p the b_i are the inverses of prod_{j != i} g_j mod
    g_i, whose sum with those weights is 1 by the Chinese remainder
    theorem."""
    def product(gs, m):
        whole = [1]
        for g in gs:
            whole = _mul(whole, g, m)
        return whole

    whole = product(gs, p)
    betas = [_inverse(_divmod(whole, g, p)[0], g, p) for g in gs]
    m, lc = p, f[-1]
    while m < mod:
        m = min(m * m, mod)
        e = _sub(f, [lc * c for c in product(gs, m)], m)
        if e:
            inv = pow(lc, -1, m)
            e = [c * inv for c in e]
            gs = [_add(g, _rem(_mul(b, e, m), g, m), m)
                  for g, b in zip(gs, betas)]
        if m == mod:
            break
        whole = product(gs, m)
        big_e = [1]
        for g, b in zip(gs, betas):
            big_e = _sub(big_e, _mul(b, _divmod(whole, g, m)[0], m), m)
        if big_e:
            betas = [_add(b, _rem(_mul(b, big_e, m), g, m), m)
                     for g, b in zip(gs, betas)]
    return gs


def _lift_to(bound: int, p: int) -> int:
    """The least power of p above bound."""
    mod = p
    while mod <= bound:
        mod *= p
    return mod


def _zassenhaus(f: list, primes: list) -> list:
    """The irreducible factors of a primitive squarefree f of degree >= 3
    with positive last entry and f(0) != 0 (see the module docstring),
    splitting it modulo the one of `primes`, pairs (p, f mod p made monic)
    with f squarefree mod p, that has the fewest distinct-degree factors."""
    best = None
    for p, fp in primes:
        ddf = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in ddf)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, ddf)
    _, p, ddf = best
    rng = random.Random(0)
    gs = [h for g, d in ddf for h in _equal_degree(g, d, p, rng)]
    n, lc = len(f) - 1, f[-1]
    mod = _lift_to(2 * lc * 2 ** n * (isqrt(sum(c * c for c in f)) + 1), p)
    gs = _hensel(f, gs, p, mod)
    found, size = [], 1
    while 2 * size <= len(gs):
        for subset in combinations(range(len(gs)), size):
            lc = f[-1]
            # the constant term of a factor lc(f) / lc(g) g divides lc(f) f(0)
            c0 = lc
            for i in subset:
                c0 = c0 * gs[i][0] % mod
            c0 = c0 - mod if c0 > mod // 2 else c0
            if not c0 or lc * f[0] % c0:
                continue
            g = [lc]
            for i in subset:
                g = _mul(g, gs[i], mod)
            g = _primitive(_symmetric(g, mod))
            q = _dense_quotient(f, g)
            if q is None:
                continue
            found.append(g)
            f = q
            gs = [h for i, h in enumerate(gs) if i not in subset]
            break
        else:
            size += 1
    return found + [f]


# ---------------------------------------------------------------------------
# two variables: one univariate image at y = 2^bits, read back in digits
# ---------------------------------------------------------------------------


def _factor_part(part: dict) -> list:
    """The irreducible factors of a squarefree integer term dict in (x, y)
    that is primitive in x and in y (see the module docstring); a part
    that is not squarefree has no squarefree line and raises
    `DomainError`."""
    if max(m[0] for m in part) == 1 or max(m[1] for m in part) == 1:
        return [part]
    d = max(sum(m) for m in part)
    top = {m: v for m, v in part.items() if sum(m) == d}
    for k in _integers():
        lead = sum(v * k ** j for (_, j), v in top.items())
        if lead:
            break
    q = shear(part, k, 1) if k else part
    image = _squarefree_line(q, 0)
    if image is None:
        raise DomainError("no squarefree line through %s"
                          % Poly(("x", "y"), part))
    if len(factor_univariate(_dense(image))) == 1:
        return [part]
    norm = isqrt(sum(v * v for v in q.values())) + 1
    bits = (norm << (d + max(m[1] for m in q) + 1)).bit_length()
    u = _evaluate_last(q, bits)
    while not _squarefree(u):
        bits += 1
        u = _evaluate_last(q, bits)
    us = [{(e,): v for e, v in enumerate(g) if v}
          for g in factor_univariate(_dense(u))]
    found, size = [], 1
    while 2 * size <= len(us):
        for subset in combinations(range(len(us)), size):
            h = {(0,): 1}
            for i in subset:
                h = _mul_terms(h, us[i])
            lc = h[max(h)]
            if lead % lc:
                continue
            g = {(i, j): v for (i,), c in h.items()
                 for j, v in enumerate(_digits(lead // lc * c, bits)) if v}
            g = primitive_ints(g)
            rest = _quotient(q, g)
            if rest is None:
                continue
            found.append(g)
            q = rest
            us = [w for i, w in enumerate(us) if i not in subset]
            break
        else:
            size += 1
    if not k:
        return found + [q]
    return [shear(g, -k, 1) for g in found + [q]]
