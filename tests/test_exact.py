import math
from decimal import Decimal, localcontext
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adelicbrs import (ExactReal, FieldMismatch, PrimeSet, crt_coset,
                       factorize, is_prime, padic_abs, padic_fractional_part,
                       padic_valuation, rational_residue)
from adelicbrs.exact import (_floor_a_plus_b_sqrt_d, _sign_a_plus_b_sqrt_d,
                             ceil_exact)
from conftest import SQUAREFREE, coset_oracle, frac_part_oracle, val


def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(math.isqrt(n)) + 1))


def test_is_prime_matches_trial_division():
    for n in range(-3, 2000):
        assert is_prime(n) == trial_division_prime(n), n
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


# the least composites that pass the strong test to every prime base up to
# 37 (psi_12) and up to 41 (psi_13)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** i, n) == n - 1
                                  for i in range(1, r))


def test_is_prime_refuses_the_pseudoprimes_of_its_bases():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert is_prime(399165290221) and is_prime(798330580441)
    assert is_prime(1287836182261) and is_prime(2575672364521)
    for n in (PSI_12, PSI_13):
        # every base up to 37 calls n prime, so only the range can refuse
        assert all(strong_probable_prime(n, a)
                   for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
        with pytest.raises(ValueError):
            is_prime(n)
        with pytest.raises(ValueError):
            PrimeSet([n])
    with pytest.raises(ValueError):
        is_prime(PSI_12 + 2)
    assert not is_prime(PSI_12 - 1)


def test_prime_set_sorts_and_dedups():
    ps = PrimeSet([5, 2, 3, 2])
    assert tuple(ps) == (2, 3, 5)
    with pytest.raises(ValueError):
        PrimeSet([4])
    with pytest.raises(ValueError):
        PrimeSet([1])


def test_factorize():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_valuation_table():
    assert padic_valuation(Fraction(0), 5) == math.inf
    assert padic_valuation(8, 2) == 3
    assert padic_valuation(Fraction(3, 4), 2) == -2
    assert padic_valuation(Fraction(9, 5), 3) == 2
    assert padic_abs(Fraction(3, 4), 2) == Fraction(4)
    assert padic_abs(0, 7) == 0


def test_valuation_properties_seeded():
    rng = Random(11)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        y = Fraction(rng.randint(-60, 60), rng.randint(1, 60))
        assert padic_valuation(x, p) == val(x, p)
        if x and y:
            assert (padic_valuation(x * y, p)
                    == padic_valuation(x, p) + padic_valuation(y, p))
        if x + y:
            assert padic_valuation(x + y, p) >= min(
                padic_valuation(x, p), padic_valuation(y, p))


def test_rational_residue():
    # 1/3 mod 8: inverse of 3 is 3, so residue 3
    assert rational_residue(Fraction(1, 3), 2, 3) == 3
    assert rational_residue(Fraction(5), 3, 2) == 5
    rng = Random(12)
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        e = rng.randint(1, 4)
        den = rng.randint(1, 40)
        if den % p == 0:
            den += 1 if (den + 1) % p else 2
        x = Fraction(rng.randint(-80, 80), den)
        r = rational_residue(x, p, e)
        assert 0 <= r < p ** e
        assert val(x - r, p) >= e


def test_fractional_part_table():
    assert padic_fractional_part(Fraction(1, 2), 2) == Fraction(1, 2)
    assert padic_fractional_part(Fraction(1, 4), 2) == Fraction(1, 4)
    assert padic_fractional_part(Fraction(-1, 4), 2) == Fraction(3, 4)
    assert padic_fractional_part(Fraction(1, 3), 2) == 0
    assert padic_fractional_part(Fraction(5, 6), 3) == Fraction(1, 3)
    assert padic_fractional_part(7, 5) == 0


def test_fractional_part_against_search_oracle():
    rng = Random(13)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        x = Fraction(rng.randint(-50, 50),
                     rng.randint(1, 8) * p ** rng.randint(0, 3))
        got = padic_fractional_part(x, p)
        assert got == frac_part_oracle(x, p)
        # defining properties
        assert 0 <= got < 1
        assert val(x - got, p) >= 0
        assert val(got, p) >= 0 or got.denominator == p ** -val(got, p)


def test_fractional_parts_sum_to_integer_defect():
    # x minus all its fractional parts is an ordinary integer... once
    # the real floor is removed too
    rng = Random(14)
    for _ in range(200):
        x = Fraction(rng.randint(-400, 400), 2 ** rng.randint(0, 3)
                     * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 2))
        y = x
        for p in (2, 3, 5):
            y -= padic_fractional_part(x, p)
        assert y.denominator == 1


def test_crt_coset_single_and_pair():
    # one 2-adic ball around 1/2 of radius 2, plus integrality at 3
    c, delta = crt_coset([(2, 1, Fraction(1, 2)), (3, 0, Fraction(0))])
    assert (c, delta) == (Fraction(0), Fraction(1, 2))
    c, delta = crt_coset([(2, -1, Fraction(1, 2))])
    assert delta == 2
    assert val(c - Fraction(1, 2), 2) >= 1
    c, delta = crt_coset([])
    assert (c, delta) == (0, 1)


def test_crt_coset_against_scan_oracle():
    rng = Random(16)
    for _ in range(150):
        n_cons = rng.randint(1, 3)
        cons = []
        for _ in range(n_cons):
            p = rng.choice((2, 3, 5))
            h = rng.randint(-2, 2)
            r = Fraction(rng.randint(-10, 10), p ** rng.randint(0, 2))
            cons.append((p, h, r))
        if len({p for p, _, _ in cons}) < len(cons):
            # one ball per prime: a repeated prime is refused
            with pytest.raises(ValueError):
                crt_coset(cons)
            continue
        c, delta = crt_coset(cons)
        sols, window = coset_oracle(cons)
        expected = []
        t = c
        while t < window:
            expected.append(t)
            t += delta
        assert sols == expected, (cons, c, delta)
        assert 0 <= c < delta


def test_crt_coset_inconsistent():
    with pytest.raises(ValueError):
        crt_coset([(2, -1, Fraction(0)), (2, -1, Fraction(1))])


def test_crt_coset_extreme_radii():
    # a radius exponent of a million costs milliseconds
    e = 10 ** 6
    assert crt_coset([(2, e, Fraction(0))]) == (0, Fraction(1, 2 ** e))
    c, delta = crt_coset([(2, -e, Fraction(1, 3)), (3, 0, Fraction(0))])
    assert delta == 2 ** e
    assert 0 <= c < delta and c.denominator == 1
    assert (3 * c - 1) % 2 ** e == 0


# --- quadratic field elements ----------------------------------------------


def test_exact_real_canonical_form():
    x = ExactReal(0, 1, 1, 8)
    assert (x.a, x.b, x.c, x.d) == (0, 2, 1, 2)
    y = ExactReal(3, 1, 1, 9)  # 3 + sqrt(9) = 6
    assert (y.a, y.b, y.c, y.d) == (6, 0, 1, 0)
    z = ExactReal(2, 0, 4, 7)  # rational, radicand dropped
    assert (z.a, z.b, z.c, z.d) == (1, 0, 2, 0)
    w = ExactReal(2, 4, 6, 3)
    assert (w.a, w.b, w.c, w.d) == (1, 2, 3, 3)
    n = ExactReal(1, 1, -2, 2)
    assert n.c == 2 and n.a == -1 and n.b == -1


def test_exact_real_folds_the_radicand_before_reducing():
    # (a, b, c, d) -> the canonical components, each case one fold
    for args, want in [
            ((0, 1, 1, 8), (0, 2, 1, 2)),  # square part of d into b
            ((3, 1, 1, 9), (6, 0, 1, 0)),  # square d: 3 + sqrt(9) = 6
            ((3, 2, 4, 1), (5, 0, 4, 0)),  # d = 1: 3 + 2 = 5
            ((3, 5, 6, 0), (1, 0, 2, 0)),  # d = 0 drops b
            ((1, 1, -2, 2), (-1, -1, 2, 2)),  # c < 0 moves the sign
            ((2, 6, -4, 12), (-1, -6, 2, 3))]:  # all of it, then the gcd
        x = ExactReal(*args)
        assert (x.a, x.b, x.c, x.d) == want, args
        y = ExactReal._reduced(*want)
        assert (y.a, y.b, y.c, y.d) == want, args


def test_exact_real_constructor_matches_reduced_for_squarefree_d():
    # with nothing to fold, the constructor is exactly the one
    # canonicalisation, ExactReal._reduced
    rng = Random(23)
    for _ in range(500):
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        c = rng.choice([-1, 1]) * rng.randint(1, 60)
        d = rng.choice(SQUAREFREE)
        x, y = ExactReal(a, b, c, d), ExactReal._reduced(a, b, c, d)
        assert (x.a, x.b, x.c, x.d) == (y.a, y.b, y.c, y.d), (a, b, c, d)


def test_exact_real_rejects_bad_input():
    with pytest.raises(ZeroDivisionError):
        ExactReal(1, 1, 0, 2)
    with pytest.raises(ValueError):
        ExactReal(1, 1, 1, -2)
    with pytest.raises(AttributeError):
        ExactReal(1).a = 2


def test_exact_real_predicates():
    r2 = ExactReal.sqrt(2)
    assert not r2.is_rational()
    assert ExactReal(4, 0, 2).is_integer()


def test_exact_real_signs_close_values():
    # 99/70 is a hair above sqrt(2); floats would need care here
    assert (ExactReal(99, 0, 70) - ExactReal.sqrt(2)).sign() == 1
    assert (ExactReal(-99, 0, 70) + ExactReal.sqrt(2)).sign() == -1
    # 1/2 + 1/2*sqrt(5) vs 1.618...: golden ratio squared = itself + 1
    phi = ExactReal(1, 1, 2, 5)
    assert phi * phi == phi + 1


def test_exact_real_field_axioms_seeded():
    rng = Random(17)
    for _ in range(250):
        d = rng.choice((2, 3, 5, 7))
        def mk():
            return ExactReal(rng.randint(-9, 9), rng.randint(-9, 9),
                             rng.randint(1, 9), d)
        x, y, z = mk(), mk(), mk()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x - x == 0
        assert (x * y) * z == x * (y * z)
        if y != 0:
            assert (x / y) * y == x
            assert y * y.inverse() == 1


def test_exact_real_mixed_rational_arithmetic():
    r2 = ExactReal.sqrt(2)
    assert r2 + Fraction(1, 2) - Fraction(1, 2) == r2
    assert 2 * r2 == r2 * 2 == r2 + r2
    assert (1 - r2).sign() < 0


def test_exact_real_field_mismatch():
    with pytest.raises(FieldMismatch):
        ExactReal.sqrt(2) + ExactReal.sqrt(3)
    with pytest.raises(FieldMismatch):
        ExactReal.sqrt(2) * ExactReal.sqrt(3)
    # sqrt(2)*sqrt(8) = 4 is rational, so it then mixes fine
    assert ExactReal.sqrt(2) * ExactReal.sqrt(8) + ExactReal.sqrt(5) \
        == ExactReal(4, 1, 1, 5)


def test_exact_real_floor_table():
    assert ExactReal.sqrt(2).floor() == 1
    assert (-ExactReal.sqrt(2)).floor() == -2
    assert (ExactReal(5, 0, 2) - ExactReal.sqrt(2)).floor() == 1
    assert ExactReal(1, 1, 2, 5).floor() == 1
    assert ExactReal(7, 0, 2).floor() == 3
    assert ExactReal(-7, 0, 2).floor() == -4
    assert ExactReal(3).floor() == 3
    assert ExactReal(0, 1, 1, 99 ** 2 * 2).floor() == 140  # 99*sqrt(2)


def test_exact_real_floor_ceil_mod1_seeded():
    rng = Random(18)
    for _ in range(400):
        d = rng.choice((0, 2, 3, 5, 6, 7))
        x = ExactReal(rng.randint(-40, 40), rng.randint(-40, 40),
                      rng.randint(1, 12), d)
        f = x.floor()
        assert f <= x < f + 1
        assert x.ceil() == -((-x).floor())
        m = x.mod1()
        assert 0 <= m < 1
        assert (x - m).is_integer()
        assert math.floor(x.to_float()) in (f - 1, f, f + 1)


def test_sign_matches_floating_point_on_small_components():
    # |a + b*sqrt(d)| >= 1/(|a| + |b|*sqrt(d)) > 1/200 unless a = b = 0,
    # so the float's sign is exact here
    for d in (2, 3, 5, 13):
        for a in range(-30, 31):
            for b in range(-30, 31):
                x = a + b * math.sqrt(d)
                assert _sign_a_plus_b_sqrt_d(a, b, d) == (x > 0) - (x < 0)


def floor_by_bisection(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d)) / c) by bisection on exact sign tests only."""
    lo = (a - abs(b) * d) // c - 1  # below the value, as |b*sqrt(d)| <= |b|*d
    hi = (a + abs(b) * d) // c + 1  # above it
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _sign_a_plus_b_sqrt_d(a - mid * c, b, d) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


BIG = 10 ** 30


@given(st.integers(-BIG, BIG), st.integers(-BIG, BIG), st.integers(1, BIG),
       st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 30)))
def test_floor_matches_bisection(a, b, c, d):
    want = floor_by_bisection(a, b, c, d)
    assert _floor_a_plus_b_sqrt_d(a, b, c, d) == want
    assert ExactReal(a, b, c, d).floor() == want


def test_floor_ceil_module_functions():
    assert ceil_exact(Fraction(7, 2)) == 4
    assert ceil_exact(5) == 5
    assert ceil_exact(ExactReal.sqrt(2)) == 2
    assert ceil_exact(ExactReal(2)) == 2


def test_exact_real_ordering_and_hash():
    xs = [ExactReal.sqrt(2), ExactReal(1), ExactReal(3, 0, 2),
          ExactReal(0, -1, 1, 2), ExactReal(0)]
    assert sorted(xs) == [ExactReal(0, -1, 1, 2), ExactReal(0), ExactReal(1),
                          ExactReal.sqrt(2), ExactReal(3, 0, 2)]
    assert hash(ExactReal(3, 0, 2)) == hash(Fraction(3, 2))
    assert len({ExactReal.sqrt(2), ExactReal(0, 2, 2, 2)}) == 1


def test_exact_real_strings():
    assert ExactReal.sqrt(2).exact_str() == "sqrt(2)"
    assert (ExactReal(5, -2, 4, 2)).exact_str() == "5/4 - (1/2)*sqrt(2)"
    assert ExactReal(-3, 0, 2).exact_str() == "-3/2"
    assert ExactReal(0, -1, 1, 3).exact_str() == "-sqrt(3)"
    assert ExactReal(1, 2, 1, 5).exact_str() == "1 + 2*sqrt(5)"
    s = ExactReal.sqrt(2).decimal_str()
    assert s.startswith("1.4142135623730950488016887242")
    assert ExactReal(0).decimal_str() == "0"
    assert abs(ExactReal.sqrt(2).to_float() - math.sqrt(2)) < 1e-15


def _convergents(d: int, digits: int):
    """The continued-fraction convergents p/q of sqrt(d), d not a square,
    while q has at most digits digits, by the classical recurrence."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    while len(str(q1)) <= digits:
        yield p1, q1
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0


def _reference(a: int, b: int, c: int, d: int) -> tuple[str, float]:
    """(a + b*sqrt(d)) / c by Decimal's own square root at 2*digits + 80
    digits, so that cancellation leaves about 80 correct: its 30-digit
    rendering and its correctly rounded float."""
    digits = max(len(str(abs(v))) for v in (a, b, c))
    with localcontext() as ctx:
        ctx.prec = 2 * digits + 80
        value = (Decimal(a) + Decimal(b) * Decimal(d).sqrt()) / Decimal(c)
        ctx.prec = 30
        return str(+value), float(value)


def _differential_cases():
    rng = Random(21)
    for d in (2, 3, 5, 6, 7, 10, 13):
        for p, q in _convergents(d, 40):
            # p - q*sqrt(d) is about 1/(2*q*sqrt(d)): all but its last
            # digits cancel
            yield -p, q, 1, d
            yield p, -q, rng.randint(1, 10 ** rng.randint(1, 40)), d
        for _ in range(60):
            a, b, c = (rng.choice((-1, 1)) * rng.randint(1, 10 ** 40)
                       // 10 ** rng.randint(0, 39) for _ in range(3))
            yield a, b or 1, abs(c) or 1, d


def test_decimal_str_and_to_float_are_correctly_rounded():
    """Both exits read the exact floor; a Decimal square root at twice the
    digits plus 80 is the oracle, including under cancellation."""
    count = 0
    for a, b, c, d in _differential_cases():
        x = ExactReal(a, b, c, d)
        want_str, want_float = _reference(a, b, c, d)
        assert x.decimal_str() == want_str, (a, b, c, d)
        assert x.to_float() == want_float, (a, b, c, d)
        # the helper's floor m bounds |x| * base**k strictly
        for base, bits in ((10, 103), (2, 54)):
            num, den = x._halfway(base, bits)
            m = (abs(num) - 1) // 2
            assert m >= 2 ** bits and den % 2 == 0
            assert m < abs(x) * (den // 2) < m + 1
        count += 1
    assert count > 500


def _decimal_str_before(a: int, c: int) -> str:
    """A rational's rendering as the package gave it before it read the
    exact floor: a 45-digit quotient, rounded to 30 digits."""
    with localcontext() as ctx:
        ctx.prec = 45
        value = Decimal(a) / Decimal(c)
        ctx.prec = 30
        return str(+value)


def test_rational_decimal_str_and_to_float_are_unchanged():
    assert ExactReal(0).decimal_str() == "0"
    assert ExactReal(0).to_float() == 0.0
    assert ExactReal(5, 0, 4).decimal_str() == "1.25"
    assert ExactReal(-3, 0, 2).decimal_str() == "-1.5"
    assert ExactReal(1, 0, 3).decimal_str() == \
        "0.333333333333333333333333333333"
    assert ExactReal(10 ** 40).decimal_str() == \
        "1.00000000000000000000000000000E+40"
    rng = Random(7)
    for _ in range(2000):
        a = rng.randint(-10 ** rng.randint(1, 40), 10 ** rng.randint(1, 40))
        c = rng.randint(1, 10 ** rng.randint(1, 40))
        x = ExactReal.from_rational(Fraction(a, c))
        assert x.decimal_str() == _decimal_str_before(x.a, x.c), (a, c)
        assert x.to_float() == x.a / x.c


def test_to_float_past_the_float_range():
    # float(Decimal) gives +-inf and 0 there, never OverflowError
    big = 10 ** 400
    assert ExactReal(big, 1, 1, 2).to_float() == math.inf
    assert ExactReal(-big, 1, 1, 2).to_float() == -math.inf
    assert ExactReal(0, -big, 3, 5).to_float() == -math.inf
    assert ExactReal(big).to_float() == math.inf
    assert ExactReal(-big, 0, 7).to_float() == -math.inf
    assert ExactReal(1, 1, big, 2).to_float() == 0.0
    for c in (10 ** 308, 10 ** 315, 10 ** 323):  # subnormal results
        assert ExactReal(1, -1, c, 2).to_float() == _reference(1, -1, c, 2)[1]
    assert ExactReal(big, 1, 1, 2).decimal_str() == \
        _reference(big, 1, 1, 2)[0]


def test_exact_real_division_errors():
    with pytest.raises(ZeroDivisionError):
        ExactReal(0).inverse()
    with pytest.raises(ZeroDivisionError):
        ExactReal(1) / ExactReal(0)
