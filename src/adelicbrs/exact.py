"""Exact scalar arithmetic: p-adic valuations, fractional parts, coset
solving, and real quadratic irrationals.

Rationals are plain ``fractions.Fraction`` throughout.  Real numbers that
must stay exact (rotation angles, interval endpoints, discrepancies) are
``ExactReal`` values a/c + (b/c)*sqrt(d) with integer a, b, c and a
squarefree radicand d.  Nothing in this module ever rounds; floating
point appears only in the explicit ``to_float``/``decimal_str`` exits,
correctly rounded, from the exact floor ``_floor_a_plus_b_sqrt_d``, which
is the package's one square root.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import FieldMismatch

RationalLike = Union[int, Fraction]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461  # psi_12 = 399165290221 * 798330580441


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test below psi_12, the least
    composite that passes all of _MR_BASES; from psi_12 on, ValueError."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime decides only n below psi_12 = {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"{p!r} is not a prime")
    return p


class PrimeSet(tuple):
    """Immutable, sorted tuple of distinct primes indexing a solenoid.

    The empty set is allowed and selects the classical circle.
    """

    def __new__(cls, primes: Iterable[int] = ()) -> "PrimeSet":
        ps = sorted(set(primes))
        for p in ps:
            _require_prime(p)
        return super().__new__(cls, ps)

    def __repr__(self) -> str:
        return f"PrimeSet({list(self)})"


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _int_valuation(n: int, p: int) -> int:
    # n != 0
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def padic_valuation(x: RationalLike, p: int) -> Union[int, float]:
    """p-adic valuation of a rational; the valuation of 0 is +infinity."""
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        return math.inf
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def padic_abs(x: RationalLike, p: int) -> Fraction:
    """Normalized p-adic absolute value |x|_p = p**(-v_p(x)); |0|_p = 0."""
    v = padic_valuation(x, p)
    return Fraction(0) if v == math.inf else Fraction(p) ** -v


def rational_residue(x: RationalLike, p: int, e: int) -> int:
    """Residue of a p-integral rational modulo p**e, in [0, p**e).

    Requires v_p(x) >= 0.  Foreign primes in the denominator are fine:
    they are inverted modulo p**e.
    """
    x = Fraction(x)
    q = p ** e
    if e == 0:
        return 0
    den = x.denominator
    if den % p == 0:
        raise ValueError(f"{x} is not p-integral at p={p}")
    return x.numerator * pow(den, -1, q) % q


def padic_fractional_part(x: RationalLike, p: int) -> Fraction:
    """p-adic fractional part {x}_p, a rational in [0, 1) whose
    denominator is a power of p and with x - {x}_p p-integral.

    Computed in one shot by a modular inverse: for x = n / (m * p**k)
    with p dividing neither n nor m, {x}_p = (n * m^{-1} mod p**k) / p**k.
    """
    _require_prime(p)
    x = Fraction(x)
    k = _int_valuation(x.denominator, p)
    if k == 0:
        return Fraction(0)
    q = p ** k
    m = x.denominator // q
    t = x.numerator * pow(m, -1, q) % q
    return Fraction(t, q)


# --- coset solving -------------------------------------------------------

Constraint = tuple[int, int, Fraction]


def crt_coset(constraints: Sequence[Constraint]) -> tuple[Fraction, Fraction]:
    """Solve a finite system of p-adic ball conditions inside the
    rationals with denominators supported on the constraint primes.

    Each constraint (p, h, r) demands v_p(x - r) >= -h, i.e. x lies in
    the ball of radius p**h around r.  There is one constraint per prime
    (a repeated prime raises ValueError), so the solution set is always
    a one-dimensional coset c + delta*Z with delta = prod p**(-h); the
    returned c is its minimal nonnegative representative.  An empty
    system returns (0, 1), i.e. all of Z.
    """
    primes = [p for p, _, _ in constraints]
    if len(set(primes)) != len(primes):
        raise ValueError(f"more than one constraint at a prime in {primes}")
    delta = Fraction(1)
    scale = 1  # common denominator for all solutions
    congruences = []
    for p, h, r in constraints:
        _require_prime(p)
        r = Fraction(r)
        delta *= Fraction(p) ** (-h)
        v = padic_valuation(r, p)
        t = max(h, 0, 0 if v == math.inf else -v)
        scale *= p ** t
        congruences.append((p, t - h, r))  # v_p(scale) = t

    # congruences satisfied by x = gamma * scale in Z
    residue, modulus = 0, 1
    for p, e, r in congruences:
        if e <= 0:
            continue
        q = p ** e
        rho = rational_residue(r * scale, p, e)
        # combine x = residue (mod modulus) with x = rho (mod q)
        inv = pow(modulus % q, -1, q)
        residue = residue + modulus * ((rho - residue) * inv % q)
        modulus *= q

    c = Fraction(residue % modulus, scale)
    return c, delta


# --- exact real quadratic arithmetic -------------------------------------


def _squarefree_split(d: int) -> tuple[int, int]:
    """Write d = s*s * d0 with d0 squarefree; returns (s, d0)."""
    s, d0 = 1, 1
    for p, e in factorize(d).items():
        s *= p ** (e // 2)
        if e % 2:
            d0 *= p
    return s, d0


def _sign_a_plus_b_sqrt_d(a: int, b: int, d: int) -> int:
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:  # a and b*sqrt(d) do not cancel
        return sa or sb
    x, y = a * a, b * b * d
    return 0 if x == y else sa if x > y else sb


def _floor_a_plus_b_sqrt_d(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d)) / c) for integers with c > 0 and either
    b == 0 or d squarefree and > 1.

    Then b*sqrt(d) is irrational, so with t = isqrt(b*b*d) the integer
    s = a + t (b > 0) or a - t - 1 (b < 0) satisfies s < a + b*sqrt(d)
    < s + 1, and floor(X / c) = floor(s / c) for every such X.
    """
    if b == 0:
        return a // c
    t = math.isqrt(b * b * d)
    return (a + (t if b > 0 else -t - 1)) // c


def _common_radicand(*reals: "ExactReal") -> int:
    """The radicand that every irrational one of reals shares, or 0 when
    all are rational; two different radicands raise FieldMismatch."""
    d = 0
    for x in reals:
        if x.d and x.d != d:
            if d:
                raise FieldMismatch(f"cannot mix sqrt({d}) with sqrt({x.d})")
            d = x.d
    return d


class ExactReal:
    """An element (a + b*sqrt(d)) / c of a real quadratic field, exact.

    Canonical form: c > 0, gcd(a, b, c) = 1, d squarefree, and d = 0
    whenever the value is rational (square parts of d are folded into b
    on construction).  Rational values therefore mix freely with any
    field; combining two genuinely irrational values from different
    fields raises FieldMismatch.
    """

    __slots__ = ("a", "b", "c", "d")

    def __new__(cls, a: int = 0, b: int = 0, c: int = 1, d: int = 0):
        if c == 0:
            raise ZeroDivisionError("zero denominator in ExactReal")
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if not d:
            b = 0
        elif b:
            s, d = _squarefree_split(d)
            b *= s
            if d == 1:
                a, b = a + b, 0
        return cls._reduced(a, b, c, d)

    def __setattr__(self, *_):
        raise AttributeError("ExactReal is immutable")

    @classmethod
    def _reduced(cls, a: int, b: int, c: int, d: int) -> "ExactReal":
        """The one canonicalisation: integer components, with d squarefree
        or b = 0, get their sign and gcd normalized."""
        if c < 0:
            a, b, c = -a, -b, -c
        if b == 0:
            d = 0
        g = math.gcd(a, b, c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        return self

    @classmethod
    def from_rational(cls, x: RationalLike) -> "ExactReal":
        x = Fraction(x)
        return cls._reduced(x.numerator, 0, x.denominator, 0)

    # predicates and conversions
    def is_rational(self) -> bool:
        return self.b == 0

    def is_integer(self) -> bool:
        return self.b == 0 and self.c == 1

    def sign(self) -> int:
        return _sign_a_plus_b_sqrt_d(self.a, self.b, self.d)

    def _halfway(self, base: int, bits: int) -> tuple[int, int]:
        """num/den: self if rational, else sign(self) * (m + 1/2) / base**k
        for the exact floor m = floor(|self| * base**k) >= 2**bits.  Both
        scale into (m, m + 1), which no rounding to under bits bits splits."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if not b:
            return a, c
        # |self| = |a*a - b*b*d| / (c * |a - b*sqrt(d)|) > 2**-low
        top = max(abs(a), abs(b) << d.bit_length() // 2 + 1).bit_length()
        low = top + c.bit_length() + 2 - (a * a - b * b * d).bit_length()
        k = max(0, -(-(bits + low) // (base.bit_length() - 1)))
        s, scale = self.sign(), base ** k
        m = _floor_a_plus_b_sqrt_d(s * a * scale, s * b * scale, c, d)
        return s * (2 * m + 1), 2 * scale

    def to_float(self) -> float:
        """Correctly rounded, from the exact floor; +-inf past the range."""
        num, den = self._halfway(2, 54)
        try:
            return num / den
        except OverflowError:
            return math.inf if num > 0 else -math.inf

    def decimal_str(self) -> str:
        """Correctly rounded to 30 significant digits, from the exact floor."""
        num, den = self._halfway(10, 103)  # 2**103 > 10**31
        with localcontext() as ctx:
            ctx.prec = 30
            return str(Decimal(num) / den)

    def exact_str(self) -> str:
        """Canonical exact rendering, e.g. '5/4 - (1/2)*sqrt(2)'."""
        if self.b == 0:
            return str(Fraction(self.a, self.c))
        rat = Fraction(self.a, self.c)
        coef = Fraction(self.b, self.c)
        mag = abs(coef)
        if mag == 1:
            root = f"sqrt({self.d})"
        elif mag.denominator == 1:
            root = f"{mag}*sqrt({self.d})"
        else:
            root = f"({mag})*sqrt({self.d})"
        if rat == 0:
            return root if coef > 0 else f"-{root}"
        sign = "+" if coef > 0 else "-"
        return f"{rat} {sign} {root}"

    # field coercion
    def _coerce(self, other) -> "ExactReal":
        if isinstance(other, ExactReal):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactReal._reduced(other.numerator, 0, other.denominator, 0)
        return NotImplemented  # type: ignore[return-value]

    # arithmetic
    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = _common_radicand(self, o)
        return ExactReal._reduced(self.a * o.c + o.a * self.c,
                                  self.b * o.c + o.b * self.c,
                                  self.c * o.c, d)

    __radd__ = __add__

    def __neg__(self):
        return ExactReal._reduced(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = _common_radicand(self, o)
        return ExactReal._reduced(self.a * o.a + self.b * o.b * d,
                                  self.a * o.b + self.b * o.a,
                                  self.c * o.c, d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactReal":
        if self.a == 0 and self.b == 0:
            raise ZeroDivisionError("inverse of zero ExactReal")
        norm = self.a * self.a - self.b * self.b * self.d
        return ExactReal._reduced(self.c * self.a, -self.c * self.b,
                                  norm, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # exact order
    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare ExactReal with {type(other)}")
        return (self - o).sign()

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def floor(self) -> int:
        """Greatest integer <= self, by one integer square root."""
        return _floor_a_plus_b_sqrt_d(self.a, self.b, self.c, self.d)

    def ceil(self) -> int:
        return -((-self).floor())

    def mod1(self) -> "ExactReal":
        """Fractional part in [0, 1)."""
        return self - self.floor()

    def __repr__(self):
        return f"ExactReal({self.exact_str()})"

    __str__ = __repr__


def ceil_exact(x) -> int:
    if isinstance(x, ExactReal):
        return x.ceil()
    return math.ceil(Fraction(x))
