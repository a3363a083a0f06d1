"""Field arithmetic: prime fields against int arithmetic, extensions
against the axioms and against digitwise arithmetic mod p."""

import random

import pytest

from dp5.errors import DivisionByZero, NotPrime, TooLarge
from dp5.gf import FieldCtx, field_of_order, prime_factors


def test_prime_field_matches_ints():
    for p in (2, 3, 5, 7, 11):
        ctx = field_of_order(p)
        for a in range(p):
            for b in range(p):
                assert ctx.add(a, b) == (a + b) % p
                assert ctx.sub(a, b) == (a - b) % p
                assert ctx.mul(a, b) == (a * b) % p


def test_inverses_prime_field():
    ctx = field_of_order(7)
    for a in range(1, 7):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        ctx.inv(0)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_extension_field_axioms(q):
    ctx = field_of_order(q)
    assert ctx.q == q
    els = list(ctx.elements())
    assert len(els) == q and els[0] == 0
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
    for a in range(1, q):
        assert ctx.mul(a, ctx.inv(a)) == 1
        # x^q = x holds for every element of F_q
        assert ctx.pow(a, q) == a


def _digitwise(p, a, b, sign):
    """a + sign*b on the base-p digit vectors, digit by digit mod p."""
    r, place = 0, 1
    while a or b:
        r += (a % p + sign * (b % p)) % p * place
        a, b, place = a // p, b // p, place * p
    return r


@pytest.mark.parametrize(
    "q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 243, 256, 1024, 2187])
def test_extension_add_sub_neg_are_digitwise(q):
    # count._packed_basis and _walk add coefficients lane by lane, one lane
    # per base-p digit, so the encoding itself is pinned, not just the axioms
    ctx = field_of_order(q)
    p = ctx.p
    if q <= 81:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        assert ctx.add(a, b) == _digitwise(p, a, b, 1)
        assert ctx.sub(a, b) == _digitwise(p, a, b, -1)
    for a in range(q):
        assert ctx.neg(a) == _digitwise(p, 0, a, -1)


def test_frobenius_is_additive():
    ctx = field_of_order(9)
    for a in range(9):
        for b in range(9):
            lhs = ctx.pow(ctx.add(a, b), 3)
            rhs = ctx.add(ctx.pow(a, 3), ctx.pow(b, 3))
            assert lhs == rhs


def test_generator_has_full_order():
    for q in (3, 4, 5, 8, 9):
        ctx = field_of_order(q)
        g = ctx.generator
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = ctx.mul(x, g)
        assert len(seen) == q - 1 and x == 1


def test_field_of_order_rejects_non_prime_powers():
    with pytest.raises(NotPrime):
        field_of_order(6)
    with pytest.raises(NotPrime):
        field_of_order(12)
    with pytest.raises(NotPrime):
        FieldCtx(10)
    with pytest.raises(TooLarge):
        field_of_order(1 << 17)
    with pytest.raises(TooLarge):
        FieldCtx(2, 0)
    with pytest.raises(TooLarge):
        FieldCtx(2, 17)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(255) == [3, 5, 17]


def test_prime_power_builds_nothing_and_checks_like_field_of_order():
    from dp5.gf import prime_power

    assert prime_power(2) == (2, 1)
    assert prime_power(1024) == (2, 10)
    assert prime_power(3**10) == (3, 10)
    assert prime_power(65521) == (65521, 1)
    for bad in (0, 1, 6, 12, 100):
        with pytest.raises(NotPrime):
            prime_power(bad)
    with pytest.raises(TooLarge):
        prime_power(1 << 17)
    # every q up to 4096 against a brute-force set of prime powers
    primes = [n for n in range(2, 4097) if all(n % d for d in range(2, n))]
    powers = {p**e: (p, e) for p in primes for e in range(1, 13) if p**e <= 4096}
    for q in range(4097):
        if q in powers:
            assert prime_power(q) == powers[q], q
        else:
            with pytest.raises(NotPrime):
                prime_power(q)
    for p in set(range(200)) - set(primes):
        with pytest.raises(NotPrime):
            FieldCtx(p)


def test_field_of_order_is_cached_and_fields_carry_no_hidden_state():
    from dp5.p1 import irreducibles

    for q in (2, 4, 9, 101):
        assert field_of_order(q) is field_of_order(q)
    ctx = field_of_order(3)
    before = set(vars(ctx))
    assert len(irreducibles(ctx, 3)) == 3 + 3 + 8
    assert set(vars(ctx)) == before
    # a fresh, equal context sees the same irreducibles
    assert irreducibles(FieldCtx(3), 3) == irreducibles(ctx, 3)


def test_mobius_inversion():
    from dp5.gf import mobius_inversion

    def mu(n):
        ps = prime_factors(n)
        return 0 if any(n % (p * p) == 0 for p in ps) else (-1) ** len(ps)

    values = [0] + [random.Random(n).randrange(-50, 50) for n in range(1, 121)]
    got = mobius_inversion(values)
    for m in range(1, 121):
        want = sum(mu(m // d) * values[d] for d in range(1, m + 1) if m % d == 0)
        assert got[m] == want
    assert mobius_inversion([0]) == [0]


def test_prime_power_checks_the_cap_before_factoring():
    from dp5.gf import prime_power

    # 3 * 2^17 is no prime power; the cap refuses it before trial division
    with pytest.raises(TooLarge):
        prime_power(3 << 17)
    # a prime near 1e14 would take seconds of trial division
    with pytest.raises(TooLarge):
        prime_power(10**14 + 31)


def test_zero_to_a_negative_power_is_a_division_by_zero():
    with pytest.raises(DivisionByZero, match="0 to a negative power"):
        field_of_order(5).pow(0, -1)
    assert field_of_order(5).pow(0, 0) == 1


def _reference_modulus(p, e):
    """The lex-smallest monic irreducible of degree e over F_p, by the
    guarded trial division the field tables were first built with."""

    def digits(n, k):
        out = []
        for _ in range(k):
            n, r = divmod(n, p)
            out.append(r)
        return out

    def rem(a, m):
        a, dm = list(a), len(m) - 1
        for i in range(len(a) - 1, dm - 1, -1):
            c = a[i] % p
            if c:
                for j in range(dm + 1):
                    a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
        return any(a[:dm])

    def irreducible(f):
        d = len(f) - 1
        if d == 1:
            return True
        if d < 1 or f[0] == 0:
            return False
        return all(rem(f, tuple(digits(i, k)) + (1,))
                   for k in range(1, d // 2 + 1) for i in range(p**k))

    if e == 1:
        return (0, 1)
    return next(f for f in (tuple(digits(i, e)) + (1,) for i in range(p**e))
                if f[0] != 0 and irreducible(f))


def test_every_field_modulus_is_the_lex_smallest_irreducible():
    from dp5.gf import _Q_CAP, _smallest_modulus, prime_power

    sieve = bytearray([1]) * (_Q_CAP + 1)
    sieve[:2] = b"\0\0"
    for n in range(2, int(_Q_CAP**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(range(n * n, _Q_CAP + 1, n)))
    fields = [prime_power(p**e) for p in range(2, _Q_CAP + 1) if sieve[p]
              for e in range(1, 17) if p**e <= _Q_CAP]
    assert len(fields) == 6635
    for p, e in fields:
        assert _smallest_modulus(p, e) == _reference_modulus(p, e), (p, e)
