"""Torus-fixed locus of finite-colength graded quotients of R0.

A torus-fixed quotient of colength n is the same thing as a graded
submodule F of R0 with total codimension n.  Group submodules by their
coprofile: the map  w  ->  dim (R0)_w - dim F_w  restricted to its finite
support.  Each coprofile stratum is cut out inside a product of projective
lines, one P^1 for every support weight where the fiber is 2-dimensional
and exactly one dimension is removed (there F_w is a line in C^2; at every
other support weight F_w is forced to a fixed subspace by dimension
count).

Valid supports satisfy a reachability rule: every support weight is a
generator weight or has a predecessor w - e_k in the support.  This is
forced by the module structure, since away from the generator degrees the
fiber of R0 is spanned by the images of its three predecessors, so a
dimension drop at w entails one at some predecessor.

R0 has 2-dimensional fibers exactly on the cone w >= v, all in the fixed
basis (class of e1, class of e2), so multiplication between two of them
is the identity.  Every line variable sits on that cone, and the
constraint system of a stratum is correspondingly plain: some variables
are forced to the image line of a 1-dimensional neighbor, some pairs of
variables are linked (they must be the same line), or the stratum is
infeasible because a map leaves too little room in its target.
``stratum_euler`` evaluates such a system exactly: the links split the
variables into components, a component forced to two different lines
makes the stratum empty, and otherwise every unforced component is a free
P^1, so the Euler characteristic is 0 or 2^(free components).

``quot_series`` sums these over one depth-first search that adds
(weight, drop) pairs in increasing lex order of weight and covers every
colength up to the order at once.  The conditions of a stratum are
indexed by their target weight w and read only the drops at the
predecessors w - e_k, which come earlier in lex order.  So when a pair
(w, c) is added, the conditions with target w are final and are decided
right then; every extension of the branch keeps them, so infeasibility
is monotone along a branch and an infeasible pair is cut with its whole
subtree.  Every lex-order prefix of a consistent stratum is again a
consistent stratum, so the search visits exactly the consistent strata.
``fixed_locus_summary`` lists the nodes of the same search at one
colength.  ``enumerate_coprofiles`` and ``profile_constraint_system``
build the full stratification, infeasible strata included, one
coprofile at a time; they are the tests' reference for the search.

``stratum_euler_oracle_fp`` recomputes the same number independently by
counting points over several prime fields and interpolating the count
polynomial at 1.  Everything is exact integer arithmetic; enumeration
and search depth are guarded.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .partitions import GuardExceeded
from .reflexive import _E, ReflexiveParams, Weight, fiber_dim, mult_matrix
from .series import TruncatedSeries

Point = tuple[int, int]


def _normalize_point(x: int, y: int) -> Point:
    """Primitive representative of [x : y], first nonzero entry positive."""
    if x == 0 and y == 0:
        raise ValueError("(0, 0) does not define a projective point")
    g = math.gcd(abs(x), abs(y))
    x, y = x // g, y // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return (x, y)


@dataclass(frozen=True)
class Coprofile:
    """Finitely supported dimension-drop profile, entries sorted by weight."""

    entries: tuple[tuple[Weight, int], ...]

    def __post_init__(self):
        norm = tuple((tuple(w), c) for w, c in self.entries)
        if not all(
            len(w) == 3 and all(isinstance(x, int) for x in (*w, c))
            for w, c in norm
        ):
            raise ValueError("weights must be three ints and drops ints")
        object.__setattr__(self, "entries", norm)
        weights = [w for w, _ in norm]
        if weights != sorted(weights):
            raise ValueError("entries must be sorted by weight")
        if len(set(weights)) != len(weights):
            raise ValueError("duplicate weight in coprofile")
        if any(c < 1 for _, c in norm):
            raise ValueError("dimension drops must be >= 1")
        if any(min(w) < 0 for w in weights):
            raise ValueError("weights must be >= 0")

    @property
    def n(self) -> int:
        return sum(c for _, c in self.entries)

    @property
    def support(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self.entries)

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.entries)

    def to_jsonable(self):
        return [[list(w), c] for (w, c) in self.entries]

    @classmethod
    def from_jsonable(cls, data) -> "Coprofile":
        return cls(tuple((tuple(w), c) for (w, c) in data))


def _fiber_tables(params: ReflexiveParams):
    """Memoized fiber dimension at w, and the normalized line that
    multiplication by x_k carries a 1-dimensional fiber at w to."""

    @functools.cache
    def dim(w: Weight) -> int:
        return fiber_dim(params, w)

    @functools.cache
    def line(w: Weight, k: int) -> Point:
        (x,), (y,) = mult_matrix(params, w, k).matrix
        return _normalize_point(x, y)

    return dim, line


def _candidates(gens, drops: dict[Weight, int]) -> list[Weight]:
    """Weights the reachability rule lets a search add next, in lex order.

    These are the generator weights and the successors w + e_k of the
    weights already chosen (the keys of drops, in the order they were
    added), kept when they come after the last weight added.  Successors
    of nonzero fibers are nonzero.
    """
    found = set(gens)
    for w in drops:
        found.update((w[0] + e[0], w[1] + e[1], w[2] + e[2]) for e in _E)
    if drops:
        last = next(reversed(drops))
        return sorted(w for w in found if w > last)
    return sorted(found)


def _check_order(order, guard: int) -> None:
    """A search's colength bound must be an int >= 0 and at most guard."""
    if not isinstance(order, int) or order < 0:
        raise ValueError(f"colength bound must be an int >= 0, got {order!r}")
    if order > guard:
        raise GuardExceeded(f"stratum search guarded at colength <= {guard}")


def enumerate_coprofiles(v, n: int, guard: int = 5) -> list["Coprofile"]:
    """All coprofiles of total drop n for the module attached to v.

    A depth-first search adds (weight, drop) pairs in increasing lex order
    of weight, the order Coprofile entries are kept in.  The candidate
    weights at a node are those of ``_candidates``; each takes a drop
    1 <= c <= min(fiber dimension, remaining drop), and a coprofile is
    complete when the remaining drop is 0.  Candidates are exactly the
    weights the reachability rule allows.  Each coprofile is produced
    exactly once: its weights can only be added in lex order, and every
    lex-order prefix of a valid support is valid, because a predecessor
    w - e_k comes before w.
    """
    params = ReflexiveParams.of(v)
    _check_order(n, guard)
    gens = params.generator_weights()
    dim, _ = _fiber_tables(params)
    out: list[Coprofile] = []
    drops: dict[Weight, int] = {}

    def grow(remaining: int) -> None:
        if remaining == 0:
            out.append(Coprofile(tuple(drops.items())))
            return
        for w in _candidates(gens, drops):
            for c in range(1, min(dim(w), remaining) + 1):
                drops[w] = c
                grow(remaining - c)
                del drops[w]

    grow(n)
    return sorted(out, key=lambda p: p.entries)


@dataclass(frozen=True, order=True)
class Link:
    """F_source and F_target must be the same line.

    Both ends are line variables on the cone w >= v, where multiplication
    from source to target is the identity in the fixed fiber basis.
    """

    source: Weight
    target: Weight


@dataclass
class ConstraintSystem:
    """Incidence constraints of one coprofile stratum.

    variables lists the weights whose F_w is a free line (a P^1 each);
    fixed_lines forces some of them to a line, as a normalized point;
    links ties pairs of them to the same line; infeasible is set when a
    required containment can never hold.
    """

    variables: tuple[Weight, ...]
    fixed_lines: dict[Weight, Point]
    links: tuple[Link, ...]
    infeasible: bool = False


def _target_rule(dim, line, wt: Weight, ct: int, drops: dict[Weight, int]):
    """Decide the conditions x_k F_{wt - e_k} <= F_wt for one target.

    Every multiplication map has rank equal to its source dimension, so
    only dimensions decide the outcome: a full 1-dimensional source forces
    a free target line to its image, a free line source links to a free
    target line, and any other nonzero source leaves too little room in
    the target.  Returns (forced line or None, link sources, infeasible);
    a second, different forced line makes the target infeasible and the
    first one is kept.  Only the drops at the predecessors wt - e_k are
    read.
    """
    free_t = dim(wt) - ct
    forced = None
    sources = []
    infeasible = False
    for k in (1, 2, 3):
        ws = (wt[0] - _E[k - 1][0], wt[1] - _E[k - 1][1], wt[2] - _E[k - 1][2])
        if min(ws) < 0:
            continue
        ds = dim(ws)
        cs = drops.get(ws, 0)
        if ds == cs:
            continue  # zero or fully removed source fiber, no condition
        if free_t == 1 and ds == 1:
            image = line(ws, k)
            if forced is None:
                forced = image
            elif forced != image:
                infeasible = True
        elif free_t == 1 and cs == 1:
            sources.append(ws)
        else:
            infeasible = True
    return forced, sources, infeasible


def profile_constraint_system(v, profile: Coprofile) -> ConstraintSystem:
    """Build the constraint system of one coprofile.

    For every support weight w and direction k the multiplication map from
    w - e_k must carry F_{w-e_k} into F_w; ``_target_rule`` decides the
    conditions of each target.
    """
    dim, line = _fiber_tables(ReflexiveParams.of(v))
    drops = profile.as_dict()
    variables = []
    fixed: dict[Weight, Point] = {}
    links: list[Link] = []
    infeasible = False

    for w, c in profile.entries:
        d = dim(w)
        if c > d:
            raise ValueError(f"drop {c} exceeds fiber dimension {d} at {w}")
        if d == 2 and c == 1:
            variables.append(w)

    for wt, ct in profile.entries:
        forced, sources, bad = _target_rule(dim, line, wt, ct, drops)
        if forced is not None:
            fixed[wt] = forced
        links.extend(Link(ws, wt) for ws in sources)
        infeasible = infeasible or bad

    return ConstraintSystem(
        variables=tuple(sorted(variables)),
        fixed_lines=fixed,
        links=tuple(sorted(links)),
        infeasible=infeasible,
    )


def _consistent_strata(params: ReflexiveParams, order: int):
    """Every stratum of total drop <= order whose constraint system is not
    infeasible, as (entries, drop total, ConstraintSystem), one per search
    node, in pre-order, which is lex order of the entries.

    The search is that of ``enumerate_coprofiles``, except that every node
    is a stratum of its own drop, and a (weight, drop) pair is decided the
    moment it is added: the drops of its predecessors are final then, so
    ``_target_rule`` settles its conditions, and an infeasible pair is cut
    with its whole subtree.  The entries are those a ``Coprofile`` keeps,
    already valid, so none is built here.
    """
    gens = params.generator_weights()
    dim, line = _fiber_tables(params)
    drops: dict[Weight, int] = {}

    def grow(remaining, variables, fixed, links):
        yield tuple(drops.items()), order - remaining, ConstraintSystem(
            variables, dict(fixed), tuple(sorted(links))
        )
        for w in _candidates(gens, drops):
            d = dim(w)
            for c in range(1, min(d, remaining) + 1):
                forced, sources, infeasible = _target_rule(dim, line, w, c, drops)
                if infeasible:
                    continue
                drops[w] = c
                yield from grow(
                    remaining - c,
                    variables + (w,) if d == 2 and c == 1 else variables,
                    fixed if forced is None else {**fixed, w: forced},
                    links + tuple(Link(ws, w) for ws in sources),
                )
                del drops[w]

    yield from grow(order, (), {}, ())


def stratum_euler(cs: ConstraintSystem) -> int:
    """Exact Euler characteristic of one coprofile stratum."""
    if cs.infeasible:
        return 0
    parent = {w: w for w in cs.variables}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for link in cs.links:
        parent[find(link.source)] = find(link.target)
    forced: dict[Weight, Point] = {}
    for w, line in cs.fixed_lines.items():
        if forced.setdefault(find(w), line) != line:
            return 0
    free = sum(1 for w in cs.variables if find(w) == w and w not in forced)
    return 2**free


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


def stratum_euler_oracle_fp(
    cs: ConstraintSystem, primes=None, guard: int = 4
) -> int:
    """Euler characteristic via point counts over prime fields.

    Counts solutions in a product of P^1(F_p), fits the counts by a
    polynomial in p of degree at most the number of variables m, and
    evaluates at p = 1.  Primes must be pairwise distinct, at least m + 2
    of them so that a count that is not such a polynomial raises
    ArithmeticError, and large enough that distinct forced lines stay
    distinct modulo p.  The default takes the first m + 2 of
    5, 7, 11, 13, 17, 19.
    """
    if cs.infeasible:
        return 0
    m = len(cs.variables)
    if m > guard:
        raise GuardExceeded(f"field oracle guarded at {guard} variables, got {m}")
    primes = _ORACLE_PRIMES[: m + 2] if primes is None else tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    if len(primes) < m + 2:
        raise ValueError("need at least two primes more than the variable count")

    index = {w: i for i, w in enumerate(cs.variables)}
    fixed = [(index[w], pt) for w, pt in cs.fixed_lines.items()]
    links = [(index[l.source], index[l.target]) for l in cs.links]

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


@dataclass(frozen=True)
class StratumRecord:
    coprofile: Coprofile
    euler: int


@dataclass
class FixedLocusSummary:
    """Stratum-by-stratum account of the fixed locus for one (v, n)."""

    v: Weight
    n: int
    strata: list[StratumRecord]
    total: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "v": list(self.v),
                "n": self.n,
                "strata": [
                    {"coprofile": s.coprofile.to_jsonable(), "euler": s.euler}
                    for s in self.strata
                ],
                "total": self.total,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FixedLocusSummary":
        data = json.loads(text)
        strata = [
            StratumRecord(Coprofile.from_jsonable(s["coprofile"]), s["euler"])
            for s in data["strata"]
        ]
        return cls(tuple(data["v"]), data["n"], strata, data["total"])


def fixed_locus_summary(v, n: int, guard: int = 5) -> FixedLocusSummary:
    """Every consistent stratum of colength n and its Euler characteristic.

    The strata are the nodes of the pruned search with drop exactly n, in
    lex order of their entries.  A consistent stratum can still have
    euler 0, when a linked component is forced to two lines.
    """
    params = ReflexiveParams.of(v)
    _check_order(n, guard)
    records = [
        StratumRecord(Coprofile(entries), stratum_euler(system))
        for entries, drop, system in _consistent_strata(params, n)
        if drop == n
    ]
    return FixedLocusSummary(
        params.triple, n, records, sum(r.euler for r in records)
    )


def quot_fixed_euler(v, n: int, guard: int = 5) -> int:
    """Euler characteristic of the colength-n fixed locus."""
    return quot_series(v, n, guard=guard).coeffs[n]


def quot_series(v, order: int, guard: int = 5) -> TruncatedSeries:
    """Generating series of fixed-locus Euler characteristics up to q^order.

    One pruned search covers every colength n <= order: each consistent
    stratum adds its Euler characteristic to coefficient n.
    """
    params = ReflexiveParams.of(v)
    _check_order(order, guard)
    coeffs = [0] * (order + 1)
    for _, drop, system in _consistent_strata(params, order):
        coeffs[drop] += stratum_euler(system)
    return TruncatedSeries(order, tuple(coeffs))
