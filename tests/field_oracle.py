"""The tests' prime-field oracle for one stratum's Euler characteristic.

Every coprofile stratum has a polynomial point count (Katz, appendix to
Hausel–Rodriguez-Villegas), so counting its points over a few prime
fields and interpolating the count polynomial at p = 1 gives its Euler
characteristic with no code shared with ``stratum_euler``.  It reads
the same ``ConstraintSystem`` as ``stratum_euler``, so it checks the
evaluation, not the constraint rule.
"""

import itertools
from fractions import Fraction

from quotbox.partitions import GuardExceeded
from quotbox.quotfixed import ConstraintSystem


def _interp_coeffs(xs, ys):
    """Lagrange interpolation coefficients, low power first, as Fractions."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            # multiply basis by (x - xs[j])
            nxt = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] -= c * xs[j]
                nxt[d + 1] += c
            basis = nxt
            denom *= Fraction(xs[i] - xs[j])
        scale = Fraction(ys[i]) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    return coeffs


_ORACLE_PRIMES = (5, 7, 11, 13, 17, 19)


def stratum_euler_oracle_fp(cs: ConstraintSystem) -> int:
    """Euler characteristic via point counts over prime fields.

    Counts solutions in a product of P^1(F_p) for the first m + 2 primes
    of 5, 7, 11, 13, 17, 19 (m variables), fits the counts by a polynomial
    in p of degree at most m and evaluates it at p = 1.  m + 1 counts fix
    such a polynomial; the one extra count makes counts that fit none
    raise ArithmeticError.  The primes keep the engine's distinct forced
    lines distinct modulo p.  More than 4 variables raise GuardExceeded.
    """
    if cs.infeasible:
        return 0
    m = len(cs.variables)
    if m + 2 > len(_ORACLE_PRIMES):
        limit = len(_ORACLE_PRIMES) - 2
        raise GuardExceeded(f"field oracle takes <= {limit} variables, got {m}")
    primes = _ORACLE_PRIMES[: m + 2]

    index = {w: i for i, w in enumerate(cs.variables)}
    fixed = [(index[w], pt) for w, pt in cs.fixed_lines.items()]
    links = [(index[s], index[t]) for s, t in cs.links]

    counts = []
    for p in primes:
        # one canonical representative per point of P^1(F_p)
        points = [(1, t) for t in range(p)] + [(0, 1)]
        total = 0
        for assign in itertools.product(points, repeat=m):
            ok = all(
                (assign[i][0] * pt[1] - assign[i][1] * pt[0]) % p == 0
                for i, pt in fixed
            ) and all(assign[si] == assign[ti] for si, ti in links)
            total += ok
        counts.append(total)

    coeffs = _interp_coeffs(primes, counts)
    for d in range(m + 1, len(coeffs)):
        if coeffs[d] != 0:
            raise ArithmeticError(
                "field counts do not fit a polynomial of degree <= variable count"
            )
    value = sum(coeffs)
    if value.denominator != 1:
        raise ArithmeticError("interpolated Euler characteristic is not integral")
    return int(value)
