"""Construction and certification of bounded remainder sets (BRS) on a
p-adic solenoid.

The allowable volumes for a rotation alpha are the nonnegative numbers

    xi = -gamma * alpha_real + sum_p {gamma * alpha_p}_p + n

with gamma a lattice rational and n an integer.  For each such volume
this module builds a finite weighted union of adelic boxes whose orbit
discrepancy stays bounded, together with exact witnesses: the associated
rational lambda, the integer scale M tying the real and p-adic box sizes
together, and a pointwise-nonnegativity certificate when a full-domain
box enters with negative weight.

Everything is exact; the only floating point in the whole pipeline lives
in rendering and plotting.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (NegativeIndicator, NegativeVolume, PrimeSetMismatch,
                     ZeroGamma)
from .exact import (ExactReal, PrimeSet, RationalLike, _common_radicand,
                    _floor_a_plus_b_sqrt_d, _sign_a_plus_b_sqrt_d, ceil_exact,
                    crt_coset, factorize, padic_abs, padic_valuation)
from .solenoid import (AdeleVector, SolenoidPoint, as_lattice, fractional_sum,
                       is_minimal)


# --- geometry -------------------------------------------------------------


class PAdicBall:
    """Closed ball {x in Q_p : v_p(x - center) >= -radius_exponent}.

    Radius p**radius_exponent; exponent 0 gives Z_p translates, negative
    exponents give congruence conditions, positive exponents allow
    denominators.  Haar measure is p**radius_exponent.
    """

    __slots__ = ("p", "center", "radius_exponent")

    def __init__(self, p: int, center: RationalLike, radius_exponent: int):
        self.p = p
        self.center = Fraction(center)
        self.radius_exponent = radius_exponent

    def __eq__(self, other):
        if not isinstance(other, PAdicBall):
            return NotImplemented
        return (self.p, self.center, self.radius_exponent) == \
            (other.p, other.center, other.radius_exponent)

    def measure(self) -> Fraction:
        return Fraction(self.p) ** self.radius_exponent


class AdelicBox:
    """Product of a half-open real interval [lo, hi) and one p-adic ball
    per prime, ordered by prime."""

    __slots__ = ("lo", "hi", "balls")

    def __init__(self, lo: ExactReal, hi: ExactReal,
                 balls: tuple[PAdicBall, ...]):
        ps = [ball.p for ball in balls]
        if ps != sorted(set(ps)):
            raise ValueError("balls must be sorted by distinct primes")
        if not lo < hi:
            raise ValueError("real interval must be nonempty")
        self.lo, self.hi, self.balls = lo, hi, balls

    def volume(self) -> ExactReal:
        v = self.hi - self.lo
        for ball in self.balls:
            v = v * ball.measure()
        return v

    @classmethod
    def full_domain(cls, primes: Iterable[int]) -> "AdelicBox":
        balls = tuple(PAdicBall(p, Fraction(0), 0) for p in PrimeSet(primes))
        return cls(ExactReal(0), ExactReal(1), balls)

    def serialize(self, weight: int) -> str:
        ball_part = " ".join(
            f"{b.p}:{b.center}:{b.radius_exponent}" for b in self.balls)
        return f"{weight} | {self.lo.exact_str()} | {self.hi.exact_str()} | {ball_part}"


class WeightedBoxSet:
    """Finite formal sum of adelic boxes with integer weights, plus the
    volume it claims to realize and a nonnegativity certificate.

    The certificate is an integer lower bound on the lift count of the
    positive terms wherever a negative term applies.  The set is certified
    when it dominates the total magnitude of negative weights; the
    constructor records the certificate and certified() checks it, as
    volume_consistent() checks the claimed volume.
    """

    __slots__ = ("terms", "claimed_volume", "certificate", "source_gamma",
                 "source_n")

    def __init__(self, terms: tuple[tuple[AdelicBox, int], ...],
                 claimed_volume: ExactReal, certificate: int = 0,
                 source_gamma: Fraction | None = None,
                 source_n: int | None = None):
        if claimed_volume < 0:
            raise NegativeVolume(
                f"claimed volume {claimed_volume.exact_str()}")
        self.terms, self.claimed_volume = terms, claimed_volume
        self.certificate = certificate
        self.source_gamma, self.source_n = source_gamma, source_n

    def volume_consistent(self) -> bool:
        total = ExactReal(0)
        for box, w in self.terms:
            total = total + box.volume() * w
        return total == self.claimed_volume

    def certified(self) -> bool:
        return self.certificate >= sum(-w for _, w in self.terms if w < 0)

    def serialize(self) -> str:
        return "\n".join(box.serialize(w) for box, w in self.terms)


class VolumeElement:
    """One allowable volume together with the (gamma, n) that realizes it."""

    __slots__ = ("gamma", "n", "value")

    def __init__(self, gamma: Fraction, n: int, value: ExactReal):
        self.gamma, self.n, self.value = gamma, n, value


class BRSConstruction:
    """Full witness of one construction run.

    gamma is the reduced index +-(p_1*...*p_k)**(-ell); the target index
    result.source_gamma = copies * gamma.  lam = lam1/lam2 drives the box
    shape, box_scale is the integer M with
    prod_p |lam1 + lam2*alpha_p|_p = 1/M, and surplus counts the
    full-domain boxes added (negatively if the base boxes overshoot the
    target volume).
    """

    __slots__ = ("sign", "ell", "gamma", "n", "lam1", "lam2", "lam",
                 "box_scale", "xi", "base_box", "copies", "surplus", "result")

    def __init__(self, sign: int, ell: int, gamma: Fraction, n: int,
                 lam1: Fraction, lam2: Fraction, lam: Fraction,
                 box_scale: int, xi: ExactReal, base_box: AdelicBox,
                 copies: int, surplus: int, result: WeightedBoxSet):
        self.sign, self.ell, self.gamma, self.n = sign, ell, gamma, n
        self.lam1, self.lam2, self.lam = lam1, lam2, lam
        self.box_scale, self.xi, self.base_box = box_scale, xi, base_box
        self.copies, self.surplus, self.result = copies, surplus, result


# --- volumes --------------------------------------------------------------


def allowable_volume(alpha: AdeleVector, gamma: RationalLike,
                     n: int) -> ExactReal:
    """xi = -gamma*alpha_real + sum_p {gamma*alpha_p}_p + n, exact."""
    g = as_lattice(gamma, alpha.primes)
    return alpha.real * (-g) + fractional_sum(g, alpha) + n


def choose_n(alpha: AdeleVector, gamma: RationalLike) -> int:
    """Smallest integer n with xi(alpha, gamma, n) >= 0 that also keeps
    lambda distinct from every -alpha_p.

    For irrational alpha_real at most one n is excluded per prime, so
    the scan below terminates after at most |Q| + 1 candidates.
    """
    g = as_lattice(gamma, alpha.primes)
    base = allowable_volume(alpha, g, 0)
    n = (-base).ceil()
    while _lambda_veto(alpha, g, n):
        n += 1
    return n


def _lambda_veto(alpha: AdeleVector, g: Fraction, n: int) -> bool:
    # lambda = -lam1/gamma equals -alpha_p iff lam1 = gamma * alpha_p
    if g == 0:
        return False
    lam1 = fractional_sum(g, alpha) + n
    return any(lam1 == g * ap for _, ap in alpha.parts)


def enumerate_volumes(alpha: AdeleVector, bound: int) -> list[VolumeElement]:
    """All allowable volumes xi in [0, bound] whose index gamma has
    numerator magnitude <= bound and denominator exponents <= bound.

    Sorted by volume; exact comparisons throughout.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    out: list[VolumeElement] = []
    exps = range(bound + 1)
    for combo in itertools.product(exps, repeat=len(alpha.primes)):
        den = 1
        for p, e in zip(alpha.primes, combo):
            den *= p ** e
        for num in range(-bound, bound + 1):
            g = Fraction(num, den)
            if g.denominator != den:
                continue  # not in lowest terms; seen at a smaller exponent
            base = allowable_volume(alpha, g, 0)
            n = (-base).ceil()
            while True:
                xi = base + n
                if xi > bound:
                    break
                out.append(VolumeElement(g, n, xi))
                n += 1
    out.sort(key=lambda v: (v.value, v.gamma, v.n))
    return out


# --- construction ---------------------------------------------------------


def construct_brs(alpha: AdeleVector, gamma: RationalLike,
                  n: int) -> WeightedBoxSet:
    """Bounded remainder set of volume xi(alpha, gamma, n) as a weighted
    box set; see construct_witness for the full audit trail."""
    g = as_lattice(gamma, alpha.primes)
    if g == 0:  # n full-domain boxes; the constructor refuses n < 0
        terms = ((AdelicBox.full_domain(alpha.primes), n),) if n else ()
        return WeightedBoxSet(terms, ExactReal(n), 0, g, n)
    return construct_witness(alpha, g, n).result


def _reduced_exponent(g: Fraction, primes: PrimeSet) -> int:
    """ell >= 1, the least exponent with g * (prod Q)**ell an integer."""
    return max([1, *(-padic_valuation(g, p) for p in primes)])


def construct_witness(alpha: AdeleVector, gamma: RationalLike,
                      n: int) -> BRSConstruction:
    """Like construct_brs for gamma != 0, with the full witness.

    gamma = copies * g0 for the reduced index g0 = +-(p_1*...*p_k)**(-ell),
    ell >= 1 the smallest uniform exponent clearing gamma's denominator,
    and n0 = choose_n(alpha, g0).  The base box is
    [0, M*|lam + alpha_real|) x prod_p Ball(0, |lam + alpha_p|_p) with
    lam = lam1/lam2, lam1 = sum_p {g0*alpha_p}_p + n0, lam2 = -g0, and M
    the integer with prod_p |lam1 + lam2*alpha_p|_p = 1/M; its volume is
    xi(alpha, g0, n0) = M * |lam + alpha_real| * prod_p |lam + alpha_p|_p.
    copies base boxes are fused into one box with the real edge scaled by
    copies, and surplus full-domain boxes (an integer, possibly negative)
    top the volume up to the target xi' = xi(alpha, gamma, n).  Negative
    full-box weight is certified by the exact floor of the fused box
    volume, which lower-bounds its lift count at every point.  A negative
    xi' is refused by the WeightedBoxSet constructor.
    """
    g = as_lattice(gamma, alpha.primes)
    if g == 0:
        raise ZeroGamma("gamma = 0 has no reduced index")
    xi_target = allowable_volume(alpha, g, n)
    if not is_minimal(alpha):
        raise ValueError("rotation is not minimal; no BRS theory applies")
    sign = 1 if g > 0 else -1
    ell = _reduced_exponent(g, alpha.primes)
    g0 = Fraction(sign, math.prod(alpha.primes) ** ell)
    copies = g / g0
    assert copies.denominator == 1 and copies > 0
    copies = int(copies)
    n0 = choose_n(alpha, g0)
    lam1 = fractional_sum(g0, alpha) + n0
    lam2 = -g0
    lam = lam1 / lam2
    xi = alpha.real * lam2 + lam1

    box_scale = 1
    balls = []
    for p, ap in alpha.parts:
        # nonzero by choose_n's veto, and p-integral as each of its terms is
        box_scale *= p ** padic_valuation(lam1 + lam2 * ap, p)
        balls.append(PAdicBall(p, Fraction(0), -padic_valuation(lam + ap, p)))
    base_box = AdelicBox(ExactReal(0), abs(lam + alpha.real) * box_scale,
                         tuple(balls))
    fused = AdelicBox(base_box.lo, base_box.hi * copies, base_box.balls)
    surplus = xi_target - xi * copies
    assert surplus.is_integer()
    surplus = surplus.floor()
    terms: list[tuple[AdelicBox, int]] = [(fused, 1)]
    if surplus != 0:
        terms.append((AdelicBox.full_domain(alpha.primes), surplus))
    certificate = fused.volume().floor() if surplus < 0 else 0
    result = WeightedBoxSet(tuple(terms), xi_target, certificate, g, n)
    return BRSConstruction(
        sign=sign, ell=ell, gamma=g0, n=n0, lam1=lam1, lam2=lam2, lam=lam,
        box_scale=box_scale, xi=xi, base_box=base_box, copies=copies,
        surplus=surplus, result=result)


# --- counting and certification -------------------------------------------


def count_coset_in_interval(c: RationalLike, delta: RationalLike,
                            lo, hi) -> int:
    """Number of lattice translates c + a*delta, a in Z, falling in the
    half-open real interval [lo, hi).  Endpoints may be ExactReal."""
    c, delta = Fraction(c), Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return max(0, ceil_exact((hi - c) / delta) - ceil_exact((lo - c) / delta))


def box_lift_count(box: AdelicBox, x: SolenoidPoint) -> int:
    """Number of lattice elements gamma with x + gamma inside the box.

    The p-adic ball conditions pin gamma to a single rational coset,
    found by modular-inverse CRT; the real interval then counts it.
    """
    cons = [(ball.p, ball.radius_exponent, ball.center - x.part(ball.p))
            for ball in box.balls]
    c, delta = crt_coset(cons)
    return count_coset_in_interval(c, delta, box.lo - x.real,
                                   box.hi - x.real)


def multiplicity(boxset: WeightedBoxSet, x: SolenoidPoint) -> int:
    """Weighted lift count of the point across all terms; this is the
    multiset indicator the discrepancy sums."""
    total = 0
    for box, w in boxset.terms:
        total += w * box_lift_count(box, x)
    if total < 0:
        raise NegativeIndicator(f"indicator {total} at {x!r}")
    return total


class DiscrepancyRecord:
    __slots__ = ("n", "value", "running_sup")

    def __init__(self, n: int, value: ExactReal, running_sup: ExactReal):
        self.n, self.value, self.running_sup = n, value, running_sup


class DiscrepancySummary:
    __slots__ = ("records", "sup_at")

    def __init__(self, records: tuple[DiscrepancyRecord, ...], sup_at: int):
        self.records, self.sup_at = records, sup_at


# Bits of room the fixed-point walks keep above their error bounds: a
# certified comparison falls back to the exact route about once in
# 2**(G-2) tries with G of them, and on exact ties.
_GUARD_BITS = 32


def _fixed_point(d: int, bound: int) -> tuple[int, int]:
    """(P, S) with S = floor(sqrt(d) * 2**P), where 2**P exceeds bound by
    _GUARD_BITS bits; (0, 0) when nothing irrational moves (d or bound
    is 0), which makes the fixed-point arithmetic exact."""
    if not d or not bound:
        return 0, 0
    shift = max(0, bound.bit_length() + _GUARD_BITS)
    return shift, _floor_a_plus_b_sqrt_d(0, 1 << shift, 1, d)


def _arc_walk(start: ExactReal, step: ExactReal, width: ExactReal,
              n: int) -> tuple:
    """The fixed-point walk of the arc (start, step, width) over n steps:
    (m, f, r, unit, below, above, top, exact).  m = floor(W), f is the
    point at step 0 on the circle [0, unit) and r its step, f in
    [0, below) certifies [f < g] and f in [above, top] certifies its
    negation, and exact holds the integers _arc_hit reads.

    Over one denominator c, the point at step k is (a + b*sqrt(d))/c with
    integers a and b linear in k, and it is kept in fixed point.  With
    S = floor(sqrt(d) * 2**P), so that sqrt(d)*2**P = S + eps for some
    0 < eps < 1, the integer X = a*2**P + b*S differs from
    (a + b*sqrt(d))*2**P by b*eps, less than |b|.  The walk keeps
    F = X mod U for the unit U = c*2**P, which moves by the fixed integer
    R = X_step mod U.  If |b| <= F <= U - |b|, X and (a + b*sqrt(d))*2**P
    share their quotient by U, so F is within |b| of f*U.  The threshold
    T = g*c*2**P is fixed-point too, within |b_g| of g*U.  So F certifies
    [f < g] when it clears T by more than |b| + |b_g| on one side and
    clears 0 and U by |b| on the other.  The walk keeps f = (F - B) mod U
    for B = |b_0| + n*|b_1|, at least |b| at every step, so that the range
    certified below T starts at 0 and one compare tests it.  P is chosen
    per arc, _GUARD_BITS bits above the largest |b| + |b_g| its
    walk can reach, so F falls outside those ranges about once in 2**30
    tries, or on an exact tie, which a rational point or a point landing
    on its threshold can give.  Then _arc_hit decides.
    """
    d = _common_radicand(start, step, width)
    m = width.floor()
    g = width - m
    c = math.lcm(start.c, step.c, g.c)
    a, b = start.a * (c // start.c), start.b * (c // start.c)
    a1, b1 = step.a * (c // step.c), step.b * (c // step.c)
    ga, gb = g.a * (c // g.c), g.b * (c // g.c)
    edge = abs(b) + n * abs(b1)  # B above
    shift, root = _fixed_point(d, edge + abs(gb))
    unit = c << shift
    tie = (ga << shift) + gb * root
    f = ((a << shift) + b * root - edge) % unit
    r = ((a1 << shift) + b1 * root) % unit
    return (m, f, r, unit, tie - 2 * edge - abs(gb), tie + abs(gb),
            unit - 2 * edge, (a, b, a1, b1, c, d, ga, gb))


def _arc_hit(k: int, a: int, b: int, a1: int, b1: int, c: int, d: int,
             ga: int, gb: int) -> bool:
    """[f_k < g] by the exact route, for the point f_k at step k of an arc
    with the integers of _arc_walk: the exact floor of the point (an
    integer square root of b*b*d), then one exact sign test of f_k - g."""
    ak, bk = a + k * a1, b + k * b1
    q = _floor_a_plus_b_sqrt_d(ak, bk, c, d)
    return _sign_a_plus_b_sqrt_d(ak - q * c - ga, bk - gb, d) < 0


def _walk_arc(totals: Iterable[int], w: int, start: ExactReal,
              step: ExactReal, width: ExactReal, n: int) -> Iterator[int]:
    """Yield total + w * (floor(y) - floor(y - W)) with y = x + k*t, for
    the k-th total read from totals, k = 0, ..., n-1: one walked box,
    the arc (w, x, t, W) = (w, start, step, width).  A walk over several
    boxes is a chain of these stages, each reading the totals of the
    one before it; discrepancy_series walks a set of one arc without
    them, and this chain is its reference.

    With y = q + f and W = m + g split into integer and fractional parts,
    floor(y) - floor(y - W) = m + [f < g]: the count is floor(W) plus one
    when the point f, rotating by t on the unit circle, lies on the arc
    [0, g).  So a step costs one integer add, a wrap into the circle and
    a test against the fixed margins of _arc_walk, and no floor; the rare
    step those margins leave open takes the exact route, _arc_hit.
    """
    m, f, r, unit, below, above, top, exact = _arc_walk(start, step, width, n)
    base, hit = w * m, w * m + w
    for k, total in enumerate(totals):
        if f < below or (not above <= f <= top and _arc_hit(k, *exact)):
            total += hit
        else:
            total += base
        f += r
        if f >= unit:
            f -= unit
        yield total


def _arcs(terms: Sequence[tuple[AdelicBox, int]], alpha: AdeleVector,
          x0: SolenoidPoint) -> tuple[int, list[tuple]]:
    """(const, arcs) for the weighted lift count of x0 + k*alpha over the
    terms: const is the total of the terms whose count never moves, and
    arcs holds the arc (w, x, t, W) of each other term, so that the count
    at step k is const plus w * (floor(x + k*t) - floor(x + k*t - W))
    summed over the arcs.  See discrepancy_series for why, and why a term
    whose real length is an integer multiple of its coset spacing is not
    walked."""
    if x0.primes != alpha.primes:
        raise PrimeSetMismatch(f"{x0.primes} != {alpha.primes}")
    _common_radicand(alpha.real, x0.real, *(box.lo for box, _ in terms),
                     *(box.hi for box, _ in terms))
    const = 0
    arcs = []
    for box, w in terms:
        c, delta = crt_coset([(ball.p, ball.radius_exponent,
                               ball.center - x0.part(ball.p))
                              for ball in box.balls])
        width = (box.hi - box.lo) / delta
        if width.is_integer():
            const += w * width.a
            continue
        u, _ = crt_coset([(ball.p, ball.radius_exponent, -alpha.part(ball.p))
                          for ball in box.balls])
        arcs.append((w, (x0.real + c - box.lo) / delta,
                     (alpha.real + u) / delta, width))
    return const, arcs


def _chain(const: int, arcs: Sequence[tuple], n: int) -> Iterator[int]:
    """The totals of _arcs(...) for k = 0, ..., n-1: the constant total
    seeds the chain, and each arc adds one _walk_arc stage to it."""
    totals = itertools.repeat(const, n)
    for arc in arcs:
        totals = _walk_arc(totals, *arc, n)
    return totals


class _Discrepancy:
    """The fixed point of one discrepancy series; see discrepancy_series.
    The walk keeps D_N * vc * 2**P as an integer acc, in which unit is a
    lift count of 1 and move is |A|; this keeps the running sup of |D_N|,
    exactly (sup_a, sup_b) and in fixed point (sup).  grow and record are
    the only places that leave fixed point."""

    __slots__ = ("vb", "vc", "d", "slack", "shift", "root", "unit", "move",
                 "sup", "sup_a", "sup_b", "sup_at")

    def __init__(self, volume: ExactReal, goal: int):
        self.vb, self.vc, self.d = volume.b, volume.c, volume.d
        self.slack = 2 * goal * abs(volume.b)  # E
        self.shift, self.root = _fixed_point(volume.d, self.slack)
        self.unit = volume.c << self.shift  # a lift count of 1
        self.move = (volume.a << self.shift) + volume.b * self.root  # |A|
        self.sup = self.sup_a = self.sup_b = self.sup_at = 0

    def grow(self, acc: int, n: int) -> int:
        """Make |D_n| the running sup if it exceeds it, for the
        fixed-point acc of D_n, and return the sup less E: an |acc|
        below that leaves the sup as it is."""
        acc_b = -n * self.vb
        acc_a = (acc - acc_b * self.root) >> self.shift
        if abs(acc) - self.sup > self.slack:
            negative = acc < 0
        else:
            d = self.d
            negative = _sign_a_plus_b_sqrt_d(acc_a, acc_b, d) < 0
            if _sign_a_plus_b_sqrt_d(
                    (-acc_a if negative else acc_a) - self.sup_a,
                    (-acc_b if negative else acc_b) - self.sup_b, d) <= 0:
                return self.sup - self.slack
        if negative:
            acc, acc_a, acc_b = -acc, -acc_a, -acc_b
        self.sup, self.sup_a, self.sup_b, self.sup_at = acc, acc_a, acc_b, n
        return acc - self.slack

    def record(self, acc: int, n: int) -> DiscrepancyRecord:
        acc_b = -n * self.vb
        return DiscrepancyRecord(
            n, ExactReal._reduced((acc - acc_b * self.root) >> self.shift,
                                  acc_b, self.vc, self.d),
            ExactReal._reduced(self.sup_a, self.sup_b, self.vc, self.d))


def discrepancy_series(boxset: WeightedBoxSet, alpha: AdeleVector,
                       x0: SolenoidPoint,
                       checkpoints: Sequence[int]) -> DiscrepancySummary:
    """Exact discrepancy D_N = sum_{k<N} chi(x0 + k*alpha) - N*|A| along
    the orbit of x0, reported at the given checkpoints.

    running_sup is the maximum of |D_M| over all M <= N, not only over
    checkpoints, and sup_at records where it was attained.

    The orbit point x0 + k*alpha is never reduced: a lift count does not
    change under a lattice translation, and the ball conditions are
    linear in the point.  So if c + delta*Z solves a box's balls at x0
    and u solves them at -alpha, the admissible lattice elements at step
    k are c + k*u + delta*Z, and with theta = alpha_real + u and
    w_k = x0_real + c + k*theta the box's lift count is

        floor((w_k - lo) / delta) - floor((w_k - hi) / delta),

    two floors of linear functions of k, whose arguments differ by the
    box's width W = (hi - lo) / delta.  Their difference is floor(W) plus
    one when the fractional part of (w_k - lo) / delta, which rotates by
    theta / delta on the unit circle, is below that of W: the box is an
    arc, walked in fixed point (_arc_walk).  So crt_coset runs twice per
    box, and a step costs one add and one compare per box, no floor, and
    nothing for the orbit.  A term is not walked when its real length is
    K coset spacings for an integer K, as a full-domain term is with
    K = 1: the count is floor(t + K) - floor(t) = K for every real t, so
    the term adds w*K at each step (_arcs).

    D_N is kept in fixed point too, with its own P and
    S = floor(sqrt(d) * 2**P).  D_N*c, for the denominator c of
    |A| = (va + vb*sqrt(d)) / c, has the sqrt(d) coefficient -N*vb, so it
    is kept as one fixed-point integer acc whose error is below N*|vb|,
    and its rational part is recovered exactly as (acc + N*vb*S) >> P.
    The running sup, kept both exactly and in fixed point, is off by less
    than N*|vb| as well.  So when |acc| exceeds it by more than
    E = 2*N*|vb| the sup grows, with D_N of the sign of acc, and when
    |acc| falls short of it by more than E the sup stays; inside +-E the
    exact sign tests, which square their integers, decide.  When d = 0 or
    vb = 0, P = 0 and there is no error to bound.  A step compares |acc|
    with sup - E, which moves only when the sup does.

    A set with one walked arc, as every construction and control box is,
    is walked in one loop with no generator.  Its step adds one of two
    fixed integers to acc, for a count of hit = const + w*floor(W) + w on
    the arc or base = const + w*floor(W) off it, and the exact signs of
    hit - |A| and base - |A| say which way D_N moves, so only that side
    of the band is tested: |D_N| can only pass the sup on the side D_N
    moves to.  The loop runs one range per checkpoint segment, and wraps
    the point by one compare.  Other sets, and a set with a negative
    count, which must fail at the step that has it, add the totals of
    the _walk_arc chain.  The fixed point only selects which exact answer
    to take, so the results equal those of orbit plus multiplicity
    exactly.
    """
    checkpoints = sorted(set(checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValueError("checkpoints must be positive integers")
    goal = checkpoints[-1]
    const, arcs = _arcs(boxset.terms, alpha, x0)
    vol = boxset.claimed_volume
    series = _Discrepancy(vol, goal)
    unit, move, grow = series.unit, series.move, series.grow
    low = -series.slack  # the sup less E, at sup 0
    acc = n = 0  # D_N in fixed point (times way, in the one-arc loop)
    records = []
    if len(arcs) == 1:
        w, start, step, width = arcs[0]
        m, f, r, cycle, below, above, top, exact = _arc_walk(start, step,
                                                            width, goal)
        base, hit = const + w * m, const + w * m + w
        if 0 <= min(base, hit) <= vol <= max(base, hit):
            way = 1 if hit >= base else -1  # the way D_N moves on the arc
            up, down = way * (hit * unit - move), way * (base * unit - move)
            high, wrap = -low, cycle - r
            for mark in checkpoints:
                for n in range(n + 1, mark + 1):
                    if f < below or (not above <= f <= top
                                     and _arc_hit(n - 1, *exact)):
                        acc += up
                        if acc >= low:
                            low = grow(way * acc, n)
                            high = -low
                    else:
                        acc += down
                        if acc <= high:
                            low = grow(way * acc, n)
                            high = -low
                    if f < wrap:
                        f += r
                    else:
                        f -= wrap
                records.append(series.record(way * acc, mark))
            return DiscrepancySummary(tuple(records), series.sup_at)
    totals = _chain(const, arcs, goal)
    for mark in checkpoints:
        for n, total in zip(range(n + 1, mark + 1), totals):
            if total < 0:
                raise NegativeIndicator(f"indicator {total} at step {n - 1}")
            acc += total * unit - move
            if abs(acc) >= low:
                low = grow(acc, n)
        records.append(series.record(acc, mark))
    return DiscrepancySummary(tuple(records), series.sup_at)


def character_volume_identity(boxset: WeightedBoxSet,
                              alpha: AdeleVector) -> bool:
    """Exact check that the claimed volume is allowable for the indices
    the set was built from: |A| + gamma*alpha_real - sum_p
    {gamma*alpha_p}_p must be an integer."""
    if boxset.source_gamma is None:
        raise ValueError("box set carries no construction indices")
    return (boxset.claimed_volume
            - allowable_volume(alpha, boxset.source_gamma, 0)).is_integer()


def _window(alpha: AdeleVector, lam: Fraction) -> ExactReal:
    """|lam + alpha_real| * prod_p |lam + alpha_p|_p, exact."""
    window = abs(lam + alpha.real)
    for p, ap in alpha.parts:
        window = window * padic_abs(lam + ap, p)
    return window


def witness_flags(alpha: AdeleVector, boxset: WeightedBoxSet,
                  witness: BRSConstruction | None = None) -> dict[str, bool]:
    """The exact identities a construction must satisfy, by name.

    Every box set is checked for volume consistency, the character
    volume identity and its nonnegativity certificate; with a witness
    (gamma != 0) the window identity M * |lam + alpha_real| *
    prod_p |lam + alpha_p|_p = xi of the base box is checked too.
    """
    flags = {
        "volume_consistent": boxset.volume_consistent(),
        "character_identity": character_volume_identity(boxset, alpha),
        "certificate_ok": boxset.certified(),
    }
    if witness is not None:
        flags["window_identity"] = (
            _window(alpha, witness.lam) * witness.box_scale == witness.xi)
    return flags


# --- reduction from infinite prime sets ------------------------------------


def reduce_to_finite(real: ExactReal, parts: Mapping[int, Fraction],
                     gamma: RationalLike) -> AdeleVector:
    """A rotation on the full adelic torus (all primes), given by its real
    coordinate and the finitely many p-adic coordinates in parts (every
    other one is 0), restricted to the finite prime set that carries all
    of the construction data for gamma: the primes of gamma's
    denominator and the p with |alpha_p|_p > 1.  Outside it every
    fractional part in the volume series vanishes, so the BRS problem
    restricts losslessly."""
    primes = PrimeSet([*factorize(Fraction(gamma).denominator),
                       *(p for p, x in parts.items()
                         if padic_valuation(x, p) < 0)])
    return AdeleVector(primes, real, {p: parts.get(p, 0) for p in primes})
