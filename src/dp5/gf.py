"""Small finite fields F_q, q = p**e <= 2**16, with exact table-driven arithmetic.

Elements are plain ints in range(q), read as base-p digit vectors: the int
n = sum(d_i * p**i) stands for the residue sum(d_i * X**i) modulo a fixed
monic irreducible of degree e.  The modulus is the lexicographically smallest
monic irreducible, coefficients compared low-to-high, so every (p, e) names
one canonical field and results are reproducible across runs.

mul, inv, div and pow read q-sized exp and log tables of a fixed generator
at every q (cache-resident; this is why q is capped).  add, neg and sub are
int arithmetic mod p in a prime field; in an extension field add and sub
also read the Zech-log table.  BENCH_special_cases.json measures that e = 1
fork.  All operations are exact; there is no notion of approximate equality
anywhere in this module.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DivisionByZero, DP5Error, NotPrime, TooLarge

_Q_CAP = 1 << 16


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mobius_inversion(values) -> list[int]:
    """[0, s_1, ..., s_K] with s_m = sum over d | m of mu(m/d) * values[d].

    values[0] is ignored.  One sieve gives mu(1..K); the sum then runs over
    the multiples d, 2d, ... of each d, so the whole inversion is O(K log K).
    """
    n = len(values) - 1
    mu = [1] * (n + 1)
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            for m in range(p, n + 1, p):
                composite[m] = 1
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        v = values[d]
        for j in range(1, n // d + 1):
            out[j * d] += mu[j] * v
    return out


# -- polynomial helpers over F_p (coefficient tuples, ascending, no top zeros)


def pstrip(c):
    """c without its trailing zeros, as a tuple."""
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _pmul(a, b, p):
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                r[i + j] = (r[i + j] + x * y) % p
    return pstrip(r)


def _pmod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        for j in range(dm + 1):
            a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return pstrip(a[:dm])


def _digits(n: int, p: int, k: int) -> list:
    """The k lowest base-p digits of n, low first."""
    out = []
    for _ in range(k):
        n, r = divmod(n, p)
        out.append(r)
    return out


def _irreducible(f, p) -> bool:
    """Trial division of monic f, deg(f) >= 1, by all monic polys of degree
    <= deg(f)//2, x first."""
    d = len(f) - 1
    for deg in range(1, d // 2 + 1):
        for idx in range(p**deg):
            if not _pmod(f, tuple(_digits(idx, p, deg)) + (1,), p):
                return False
    return True


def _smallest_modulus(p: int, e: int):
    """Lex-smallest monic irreducible of degree e (coeffs low-to-high)."""
    for idx in range(p**e):
        f = tuple(_digits(idx, p, e)) + (1,)
        if _irreducible(f, p):
            return f
    raise DP5Error("no irreducible found")  # unreachable for prime p


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p**e, checked against the cap; builds no tables."""
    if q < 2:
        raise NotPrime(f"q = {q} is not a prime power")
    if q > _Q_CAP:
        raise TooLarge(f"q = {q} exceeds cap 2**16")
    factors = prime_factors(q)
    if len(factors) != 1:
        raise NotPrime(f"q = {q} is not a prime power")
    p = factors[0]
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


def field_of_order(q: int) -> "FieldCtx":
    """FieldCtx for any prime power q, built once per process."""
    return _field(*prime_power(q))


@lru_cache(maxsize=None)
def _field(p: int, e: int) -> "FieldCtx":
    return FieldCtx(p, e)


class FieldCtx:
    """Arithmetic context for F_q.  Pure value object; no hidden state."""

    def __init__(self, p: int, e: int = 1):
        if e < 1:
            raise TooLarge(f"extension degree must be >= 1, got {e}")
        q = p**e
        if q > _Q_CAP:
            raise TooLarge(f"q = {q} exceeds cap 2**16")
        if prime_factors(p) != [p]:
            raise NotPrime(f"p = {p} is not prime")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _smallest_modulus(p, e)
        self._build_tables()

    # int <-> digit vector
    def _undigits(self, d) -> int:
        a = 0
        for c in reversed(list(d)):
            a = a * self.p + c
        return a

    def _raw_mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        prod = _pmul(tuple(_digits(a, p, e)), tuple(_digits(b, p, e)), p)
        return self._undigits(_pmod(prod, self.modulus, p) + (0,) * e)

    def _build_tables(self):
        p, q = self.p, self.q
        # generator of the unit group, found by order checks via raw pow
        fac = prime_factors(q - 1)

        def raw_pow(a, n):
            r, b = 1, a
            while n:
                if n & 1:
                    r = self._raw_mul(r, b)
                b = self._raw_mul(b, b)
                n >>= 1
            return r

        g = None
        for cand in range(1, q):
            if raw_pow(cand, q - 1) == 1 and all(
                raw_pow(cand, (q - 1) // f) != 1 for f in fac
            ):
                g = cand
                break
        if g is None:
            raise DP5Error(f"no generator of the unit group of F_{q}")
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._raw_mul(exp[i - 1], g)
        lg = [0] * q
        for i, v in enumerate(exp):
            lg[v] = i
        # zech[i] = log(1 + g^i), or -1 where that is 0; +1 moves only digit 0
        zech = [-1] * (q - 1)
        for i, v in enumerate(exp):
            w = v - p + 1 if v % p == p - 1 else v + 1
            if w:
                zech[i] = lg[w]
        self._exp, self._log, self._zech, self.generator = exp, lg, zech, g
        self._log_neg1 = (q - 1) // 2 if p > 2 else 0

    # -- public ops -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if not (a and b):
            return a or b
        lg, n = self._log, self.q - 1
        z = self._zech[(lg[b] - lg[a]) % n]
        return 0 if z < 0 else self._exp[(lg[a] + z) % n]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        return a and self._exp[(self._log[a] + self._log_neg1) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero("0 to a negative power")
            return 0
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))
