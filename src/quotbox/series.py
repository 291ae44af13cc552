"""Exact truncated power series over the integers.

A TruncatedSeries holds coefficients of q^0 .. q^order as Python ints, so
every operation is exact at arbitrary coefficient size.  Arithmetic between
series of different orders is an error rather than a silent re-truncation:
verification code should never lose precision without noticing.

The module also provides the closed-form products the rest of the package
is checked against:

* ``macmahon(order)``, the plane partition generating function
  prod_{k>=1} (1 - q^k)^(-k);
* ``box_product(v, order)``, the generating polynomial of plane partitions
  fitting inside a v1 x v2 x v3 box, in telescoped form
  prod_{i<=v1, j<=v2} (1 - q^(i+j+v3-1)) / (1 - q^(i+j-1));
* ``quot_closed_form(v, order)``, the predicted colength generating series
  macmahon(order)^2 * box_product(v, order) for graded quotients of the
  rank-2 module attached to v.

They and every product of series run through the ring map q -> 2^W from
Z[q]/(q^N) to Z/2^(N*W): one int per series, coefficient n in bit field n,
exact when each coefficient of the result fits its field.  W comes from a
bound each docstring proves: n * max|a| * max|b| and a sign bit for a
product of n terms (``_product``), order + 1 for macmahon, and the box's
count for box_product.  A square such as M(q)^2 packs its series once and
squares the int.  A factor 1/(1 - q^e) is the doubling product
(1 + q^e)(1 + q^2e)(1 + q^4e)..., one shift-add per step: box_product
takes it for every denominator factor, and macmahon for (1 - q^k)^(-k),
as k such passes, wherever they take fewer steps than its binomial sum.

Every int and triple the package takes from a caller is checked by
``_int`` or ``_triple`` here, whose ValueError names the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["TruncatedSeries", "box_product", "macmahon", "quot_closed_form"]


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series truncated at a fixed order (inclusive)."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != _int(self.order, "order", 0) + 1:
            raise ValueError("need exactly order+1 coefficients")
        for c in self.coeffs:
            _int(c, "coefficients")

    @classmethod
    def from_coeffs(cls, coeffs, order: int | None = None) -> "TruncatedSeries":
        """Build from a coefficient list, zero-padded up to order."""
        coeffs = list(coeffs)
        order = len(coeffs) - 1 if order is None else _int(order, "order", 0)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than order allows")
        coeffs += [0] * (order + 1 - len(coeffs))
        return cls(order, tuple(coeffs))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order, (0,) * (_int(order, "order", 0) + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (1,) + (0,) * _int(order, "order", 0))

    @classmethod
    def monomial(cls, order: int, exponent: int, coeff: int = 1) -> "TruncatedSeries":
        """c * q^exponent, truncated; exponents beyond the order vanish."""
        _int(exponent, "exponent", 0)
        _int(coeff, "coeff")
        coeffs = [0] * (_int(order, "order", 0) + 1)
        if exponent <= order:
            coeffs[exponent] = coeff
        return cls(order, tuple(coeffs))

    def __getitem__(self, n: int) -> int:
        """The q^n coefficient, for an int n (not a bool) in 0 .. order."""
        if type(n) is not int:
            raise TypeError(f"coefficient index must be an int, got {n!r}")
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def _check_order(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if other.order != self.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}; "
                "truncate explicitly before mixing"
            )

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop coefficients above a smaller order."""
        if _int(order, "order", 0) > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(order, self.coeffs[: order + 1])

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        """The product with a series of this order (see _product) or an int, not a bool."""
        if type(other) is int:
            return TruncatedSeries(self.order, tuple(other * a for a in self.coeffs))
        self._check_order(other)
        return TruncatedSeries(self.order, _product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if _int(exponent, "exponent") < 0:
            return self.inverse() ** (-exponent)
        result = TruncatedSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires constant term +1 or -1 to stay
        integral."""
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("inverse needs constant term 1 or -1")
        n = self.order
        inv = [0] * (n + 1)
        inv[0] = c0
        for m in range(1, n + 1):
            acc = 0
            for k in range(1, m + 1):
                acc += self.coeffs[k] * inv[m - k]
            inv[m] = -c0 * acc
        return TruncatedSeries(n, tuple(inv))

    def degree(self) -> int:
        """Index of the last nonzero coefficient, or -1 for the zero series."""
        for n in range(self.order, -1, -1):
            if self.coeffs[n]:
                return n
        return -1

    def is_palindromic(self) -> bool:
        """True when coefficients read the same reversed up to the degree."""
        d = self.degree()
        if d < 0:
            return True
        return all(self.coeffs[i] == self.coeffs[d - i] for i in range(d + 1))

    def __str__(self) -> str:
        terms = [
            str(c) if n == 0 else f"{c}*q" if n == 1 else f"{c}*q^{n}"
            for n, c in enumerate(self.coeffs)
            if c
        ]
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order + 1})"


def _unpacked(packed: int, width: int, order: int) -> TruncatedSeries:
    """The series whose q^n coefficient is bit field n of packed, width bits wide."""
    field, shifts = (1 << width) - 1, range(0, width * (order + 1), width)
    return TruncatedSeries(order, tuple([packed >> s & field for s in shifts]))


def _product(a, b) -> tuple[int, ...]:
    """The first n coefficients of a * b, for coefficient tuples of one
    length n, by one int multiply.  Each is a sum of at most n terms, so
    |c| < 2^(w-1), and with 2^(w-1) added to each kept field it holds
    c + 2^(w-1) in [0, 2^w); the terms past q^(n-1) add multiples of 2^(n*w).
    A square, one tuple as both a and b as in m * m, packs once and squares
    the int, which CPython does with about half the digit products of a
    general multiply."""
    n = len(a)
    width = (n * max(map(abs, a)) * max(map(abs, b))).bit_length() + 1
    half, field, kept = 1 << width - 1, (1 << width) - 1, (1 << width * n) - 1
    shifts = range(0, width * n, width)
    packed = sum([x << s for x, s in zip(a, shifts)])
    packed *= packed if b is a else sum([x << s for x, s in zip(b, shifts)])
    packed = packed + half * (kept // field) & kept  # + 2^(w-1) per field
    return tuple([(packed >> s & field) - half for s in shifts])


def _bounds(low, high) -> str:
    """The bounds of a check as text: ' >= low', ' <= high', both, or none."""
    return " and".join(f" {op} {b}" for op, b in ((">=", low), ("<=", high)) if b is not None)


def _int(x, what: str, low: int | None = None, high: int | None = None) -> int:
    """x as an int (type int exactly, so not a bool) within the bounds
    given; anything else is a ValueError that names the input what."""
    if type(x) is not int or low is not None and x < low or high is not None and x > high:
        raise ValueError(f"{what} must be an int{_bounds(low, high)}, got {x!r}")
    return x


def _triple(t, what: str, low: int | None = None) -> tuple[int, int, int]:
    """t as a tuple of three ints (type int exactly, so no bool), each
    >= low if given; anything else is a ValueError that names the input
    what.  The entries are checked here rather than by _int: Coprofile
    checks one triple per weight of every stratum it lists."""
    try:
        a, b, c = t
    except (TypeError, ValueError):
        a = b = c = None  # not three items: the check below raises
    if (type(a) is not int or type(b) is not int or type(c) is not int
            or low is not None and (a < low or b < low or c < low)):
        raise ValueError(f"{what} must be three ints{_bounds(low, None)}, got {t!r}")
    return a, b, c


def _dominates(w, u) -> bool:
    """w >= u componentwise, for two exponent triples."""
    return w[0] >= u[0] and w[1] >= u[1] and w[2] >= u[2]


def macmahon(order: int) -> TruncatedSeries:
    """MacMahon's function prod_{k>=1} (1 - q^k)^(-k) up to q^order.

    The q^n coefficient counts plane partitions of n.  The series is one int
    with coefficient n in bit field n of W = order + 1 bits, and the factors
    are applied in turn, masked to order + 1 fields.  The factor
    (1 - q^k)^(-k) takes the shorter of two expansions, with m = order // k.
    Binomially, sum_j C(j+k-1, j) q^(jk) is m shift-adds, each times a
    binomial.  By doubling, it is k passes of 1/(1 - q^k) =
    (1 + q^k)(1 + q^2k)(1 + q^4k)..., each m.bit_length() shift-adds (the
    k * 2^t <= order), as in box_product.  Doubling is taken when
    k * m.bit_length() < m, at order 100 for k <= 4.

    No kept field carries.  Every partial product, on either route, is the
    product of the factors done times a part of (1 - q^k)^(-k): a prefix of
    its binomial sum, or some passes of 1/(1 - q^k) times a prefix of the
    doubling product, which is a truncation of 1/(1 - q^k).  Every one of
    these has coefficients >= 0 and is at most its full factor
    coefficientwise, so the partial product is at most M, and field n is at
    most M_n < 2^(n+1) <= 2^W.  As sigma_2(n) <= 2^n but at n = 2, 3, 4
    (sigma_2(n) < 1.65 n^2 <= 2^n from n = 7 on),
    log M = sum_n sigma_2(n) q^n / n <= log 1/(1-2q) + E coefficientwise,
    E = q^2/2 + 2q^3/3 + 5q^4/4.  All these are nonnegative, so M <= exp(E)/(1-2q)
    and M_n <= sum_k [q^k]exp(E) 2^(n-k) <= 2^n exp(E(1/2)) = 2^n e^0.2865 < 2^(n+1).
    """
    width = _int(order, "order", 0) + 1
    fields = (1 << width * (order + 1)) - 1
    a = 1
    for k in range(1, order + 1):
        m = order // k
        steps = m.bit_length()
        if k * steps < m:  # k doubling passes of 1/(1 - q^k)
            for _ in range(k):
                for t in range(steps):
                    a = (a + (a << width * (k << t))) & fields
            continue
        out, term, c = a, a, 1
        for j in range(1, m + 1):
            c = c * (j + k - 1) // j  # C(j+k-1, j)
            term = (term << width * k) & fields  # a * q^(jk), truncated
            out += c * term
        a = out & fields
    return _unpacked(a, width, order)


def _box_count(v1: int, v2: int, v3: int) -> int:
    """MacMahon's count of plane partitions in a v1 x v2 x v3 box,
    prod (i+j+k-1)/(i+j+k-2) over its cells (i, j, k)."""
    # the product telescopes in k to prod (i+j+v3-1)/(i+j-1), an exact quotient
    hooks = [i + j - 1 for i in range(1, v1 + 1) for j in range(1, v2 + 1)]
    return math.prod(h + v3 for h in hooks) // math.prod(hooks)


def box_product(v, order: int | None = None) -> TruncatedSeries:
    """Generating polynomial of plane partitions inside a v1 x v2 x v3 box.

    Computed in the telescoped two-index form

        prod_{i=1..v1, j=1..v2} (1 - q^(i+j+v3-1)) / (1 - q^(i+j-1)),

    whose denominator exponents are always >= 1, so no 0/0 factor appears.
    The series is one int mod 2^((order+1) * W), W = _box_count(v).bit_length():
    a numerator factor is one shift-subtract, 1/(1 - q^e) the doubling
    product (1 + q^e)(1 + q^2e)(1 + q^4e)... up to the order, each masked.
    q -> 2^W is a ring map from Z[q]/(q^(order+1)), so the int ends as the
    image of the result whatever negative or carried fields came between,
    and its coefficients, in [0, _box_count(v)] below 2^W, decode exactly.
    The result is a polynomial of degree v1*v2*v3 (symmetric in v and
    palindromic); order defaults to exactly that degree.
    """
    v1, v2, v3 = _triple(v, "box sides", 1)
    order = v1 * v2 * v3 if order is None else _int(order, "order", 0)
    width = _box_count(v1, v2, v3).bit_length()
    fields = (1 << width * (order + 1)) - 1
    a = 1
    for e in (i + j - 1 for i in range(1, v1 + 1) for j in range(1, v2 + 1)):
        a = (a - (a << width * (e + v3))) & fields
        for t in range((order // e).bit_length()):  # the e * 2^t <= order
            a = (a + (a << width * (e << t))) & fields
    return _unpacked(a, width, order)


def quot_closed_form(v, order: int) -> TruncatedSeries:
    """Predicted colength generating series for graded quotients of the
    rank-2 module attached to v:  macmahon(order)^2 * box_product(v, order).
    """
    _triple(v, "v", 1)
    m = macmahon(order)
    return m * m * box_product(v, order)
