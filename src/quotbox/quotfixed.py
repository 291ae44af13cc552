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

Two routes read the strata.  ``_consistent_strata`` is one depth-first
search that adds (weight, drop) pairs in increasing lex order of weight,
every colength up to the order at once.  The conditions with target w
read only the drops at w - e_k, earlier in lex order, so they are decided
when (w, c) is added, and an infeasible pair is cut with its subtree;
every lex-order prefix of a consistent stratum is consistent, so the
search visits exactly the consistent strata.  A child's candidates are
its parent's after the weight added, with that weight's successors
merged in (``_frontier``); a per-weight fiber table, read off
``ReflexiveParams.dim_at`` and ``image_line`` alone, feeds
``_target_rule``; and the branch's links and forced lines live in
``_Components``, a union-find with undo that counts the unforced
components and notes a clash, so each node's Euler characteristic is
known without a constraint system.  The search keys weights as packed
ints (see ``_fiber_tables``), so lex order is integer order and an
x1-layer an integer range.  ``fixed_locus_summary`` lists its nodes.

``quot_series`` (and so ``quot_fixed_euler``) runs ``_layer_transfer``
instead: the same search, memoised at x1-layer boundaries (a tail past
layer a sees only the layer-a entries, their components and those
components' forced lines).  It runs on v sorted descending, so the
layers cut the longest side: permuting coordinates is a torus-equivariant
isomorphism R0(v) = R0(sigma v), and that orientation needed the fewest
rule checks of all six on every triple measured.  The summary's total
against ``quot_fixed_euler`` checks the two routes against each other.

The tests' reference lists every coprofile of one colength with
``enumerate_coprofiles``, the set closure of the reachability rule,
sharing no code with the search; ``profile_constraint_system`` and
``stratum_euler`` build and evaluate one coprofile's system, and the
tests' field oracle recounts it over prime fields.  Everything is exact
integer arithmetic; enumeration and search depth are guarded at colength
``COLENGTH_GUARD`` unless the guard is raised.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
from dataclasses import dataclass

from .partitions import GuardExceeded
# bound here for perfbench/spans.TARGETS, which tests/test_bench_bindings.py checks
from .reflexive import _E, ReflexiveParams, Weight, fiber_dim, mult_matrix  # noqa: F401
from .series import (
    TruncatedSeries, _int_triple, _json_fields, _json_list, _series_order,
)

# the reference layer (enumerate_coprofiles, ConstraintSystem,
# profile_constraint_system, stratum_euler) is not exported
__all__ = [
    "Coprofile", "FixedLocusSummary", "StratumRecord", "fixed_locus_summary",
    "quot_fixed_euler", "quot_series",
]

Point = tuple[int, int]

COLENGTH_GUARD = 5  # default colength bound of every stratum search


@dataclass(frozen=True)
class Coprofile:
    """Finitely supported dimension-drop profile, entries sorted by weight."""

    entries: tuple[tuple[Weight, int], ...]

    def __post_init__(self):
        norm = tuple((_int_triple(w), c) for w, c in self.entries)
        object.__setattr__(self, "entries", norm)
        prev = None
        for w, c in norm:
            if prev is not None and w <= prev:
                raise ValueError("entries must be sorted by weight, no repeats")
            if min(w) < 0:
                raise ValueError("weights must be >= 0")
            if type(c) is not int or c < 1:
                raise ValueError("dimension drops must be ints >= 1")
            prev = w

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
        """Read what to_jsonable writes, a list of [weight, drop] pairs;
        anything else is a ValueError."""
        entries = _json_list(data, "a coprofile")
        return cls(tuple(_json_list(e, "a coprofile entry") for e in entries))


def _pack(w: Weight, base: int) -> int:
    return (w[0] * base + w[1]) * base + w[2]


def _unpack(x: int, base: int) -> Weight:
    return (x // (base * base), x // base % base, x % base)


def _fiber_tables(params: ReflexiveParams, order: int):
    """The packing base B of a search to this order, and the memoized
    fiber table of a packed weight.

    The search keys w as x = (w1*B + w2)*B + w3, exact and in lex order
    while w2, w3 < B; then x + 1, x + B, x + B^2 are its successors and
    x // B^2 its x1-layer.  It reads the generator weights and the
    successors of a weight added with drop left after it, at most
    order - 2 steps above a generator weight, so B = max(v) + order (and
    at least max(v) + 1) is above every coordinate it reads.

    table(x) is (fiber dimension at x, predecessors), the predecessors
    one (x - e_k, its fiber dimension, image line) for each k whose
    predecessor fiber is nonzero.  The image line is the line that x_k
    carries that fiber to when it is 1-dimensional and the fiber at x is
    2-dimensional, else None.  The table reads the module only through
    ``ReflexiveParams.dim_at``, once per weight decoded by two divmods,
    and ``image_line``.
    """
    base = max(params) + max(order, 1)
    layer = base * base
    dim_at = params.dim_at
    lines = [params.image_line(k) for k in (1, 2, 3)]

    @functools.cache
    def dim(x: int) -> int:
        w1, r = divmod(x, layer)
        w2, w3 = divmod(r, base)
        return dim_at(w1, w2, w3)

    @functools.cache
    def table(x: int):
        w1, r = divmod(x, layer)
        w2, w3 = divmod(r, base)
        d = dim(x)
        preds = []
        for wk, step, line in zip((w1, w2, w3), (layer, base, 1), lines):
            if wk and (ds := dim(x - step)):
                preds.append((x - step, ds, line if ds == 1 and d == 2 else None))
        return d, tuple(preds)

    return base, table


def _frontier(cands: list[int], i: int, base: int) -> list[int]:
    """The search's candidates once x = cands[i] is added, in lex order:
    those after x in cands, with the successors x + e_k (which come after
    x) merged in where missing."""
    x = cands[i]
    out = cands[i + 1 :]
    lo = 0
    for s in (x + 1, x + base, x + base * base):
        lo = bisect.bisect_left(out, s, lo)
        if lo == len(out) or out[lo] != s:
            out.insert(lo, s)
    return out


def _check_order(order, guard: int) -> None:
    """A search's colength bound must be an int >= 0 and at most guard."""
    if _series_order(order) > guard:
        raise GuardExceeded(f"stratum search guarded at colength <= {guard}")


def enumerate_coprofiles(v, n: int, guard: int = COLENGTH_GUARD) -> list[Coprofile]:
    """All coprofiles of total drop n for the module attached to v, sorted
    by entries and read off the definition; no code is shared with the
    search.

    The supports are the set closure of the reachability rule: starting
    from the empty support, n times add a generator weight or a successor
    w + e_k of a member.  Each support takes every drop vector with
    1 <= c <= fiber dimension that sums to n (support fibers are nonzero:
    generator fibers are, and so is every successor of a nonzero fiber).
    """
    params = ReflexiveParams.of(v)
    _check_order(n, guard)
    gens = set(params.generator_weights())
    level = supports = {frozenset()}
    for _ in range(n):
        level = {
            s | {w}
            for s in level
            for w in gens | {(a + i, b + j, c + k) for a, b, c in s for i, j, k in _E}
            if w not in s
        }
        supports = supports | level
    allowed = {w: range(1, fiber_dim(params, w) + 1) for w in set().union(*supports)}
    out = sorted(
        tuple(zip(ws, drops))
        for ws in map(sorted, supports)
        for drops in itertools.product(*map(allowed.__getitem__, ws))
        if sum(drops) == n
    )
    return [Coprofile(entries) for entries in out]


@dataclass
class ConstraintSystem:
    """Incidence constraints of one coprofile stratum.

    variables lists the weights whose F_w is a free line (a P^1 each);
    fixed_lines forces some of them to a line, as a normalized point;
    links, sorted (source, target) pairs with target = source + e_k, ties
    two of them to the same line (multiplication is the identity there);
    infeasible is set when a required containment can never hold.
    """

    variables: tuple[Weight, ...]
    fixed_lines: dict[Weight, Point]
    links: tuple[tuple[Weight, Weight], ...]
    infeasible: bool = False


def _target_rule(preds, free_t: int, drops: dict[Weight, int]):
    """Decide the conditions x_k F_{w - e_k} <= F_w for one target w.

    preds is the predecessor list of w and free_t = dim(w) - drop(w).
    Every multiplication map has rank equal to its source dimension, so
    only dimensions decide the outcome: a full 1-dimensional source forces
    a free target line to its image, a free line source links to a free
    target line, and any other nonzero source leaves too little room in
    the target.  Returns (forced line or None, link sources, infeasible);
    a second, different forced line makes the target infeasible and the
    first one is kept.  Only the drops at the predecessors are read.
    """
    forced = None
    sources = []
    infeasible = False
    for ws, ds, image in preds:
        cs = drops.get(ws, 0)
        if ds == cs:
            continue  # fully removed source fiber, no condition
        if free_t == 1 and ds == 1:
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
    params = ReflexiveParams.of(v)
    # a base for "order" M is above M, the largest coordinate of the profile
    base, table = _fiber_tables(params, max(sum(profile.support, (0,))))
    drops = {_pack(w, base): c for w, c in profile.entries}
    variables = []
    fixed: dict[Weight, Point] = {}
    links: list[tuple[Weight, Weight]] = []
    infeasible = False

    for w, c in profile.entries:
        d, _ = table(_pack(w, base))
        if c > d:
            raise ValueError(f"drop {c} exceeds fiber dimension {d} at {w}")
        if d == 2 and c == 1:
            variables.append(w)

    for wt, ct in profile.entries:
        xt = _pack(wt, base)
        d, preds = table(xt)
        forced, sources, bad = _target_rule(preds, d - ct, drops)
        if forced is not None:
            fixed[wt] = forced
        links.extend((_unpack(xs, base), wt) for xs in sources)
        infeasible = infeasible or bad

    return ConstraintSystem(
        variables=tuple(sorted(variables)),
        fixed_lines=fixed,
        links=tuple(sorted(links)),
        infeasible=infeasible,
    )


class _Components:
    """The line variables of a branch in a union-find with undo.

    Union by size, no path compression, so a merge is undone by resetting
    one parent.  parent holds exactly the branch's line variables (a root
    is its own parent), and each root keeps in line the line its component
    is forced to, or None.  A branch's Euler characteristic is 0 once some
    component is forced to two different lines (a clash), and otherwise
    2^(unforced components); both routes carry that count and flag along
    with the structure.
    """

    def __init__(self):
        self.parent: dict[Weight, Weight] = {}
        self.size: dict[Weight, int] = {}
        self.line: dict[Weight, Point | None] = {}

    def find(self, x: Weight) -> Weight:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def add_variable(self, w, forced, sources, free, clash):
        """Add line variable w, forced or not, linked to sources.  Returns
        the merges made, to undo, and the new (free, clash)."""
        parent, size, line, find = self.parent, self.size, self.line, self.find
        parent[w] = w
        size[w] = 1
        line[w] = forced
        free += forced is None
        merges = []
        for ws in sources:
            a, b = find(ws), find(w)
            if a == b:
                continue
            if size[a] < size[b]:
                a, b = b, a
            la, lb = line[a], line[b]
            merges.append((b, a, la))
            parent[b] = a
            size[a] += size[b]
            if la is None or lb is None:
                free -= 1  # an unforced component joins another
                if la is None:
                    line[a] = lb
            elif la != lb:
                clash = True
        return merges, free, clash

    def remove_variable(self, w, merges):
        parent, size, line = self.parent, self.size, self.line
        for b, a, la in reversed(merges):
            parent[b] = b
            size[a] -= size[b]
            line[a] = la
        del parent[w], size[w], line[w]


def _consistent_strata(params: ReflexiveParams, order: int):
    """Every stratum of total drop <= order whose constraint system is not
    infeasible, as (entries, drop total, Euler characteristic), one per
    search node, in pre-order, which is lex order of the entries.

    The root's candidates are the generator weights and a child's those
    of ``_frontier``, the weights the reachability rule allows; each takes
    a drop 1 <= c <= min(fiber dimension, remaining drop), and a pair is
    decided by ``_target_rule`` the moment it is added (see the module
    docstring).  No ``Coprofile`` is built: the entries are already valid.
    """
    base, table = _fiber_tables(params, order)
    comps = _Components()
    add_variable, remove_variable = comps.add_variable, comps.remove_variable
    drops: dict[int, int] = {}  # the branch's entries, keyed packed
    entries: list[tuple[Weight, int]] = []  # the same, decoded

    def grow(cands, remaining, free, clash):
        yield tuple(entries), order - remaining, 0 if clash else 1 << free
        if not remaining:
            return
        for i, x in enumerate(cands):
            d, preds = table(x)
            after = None
            for c in range(1, min(d, remaining) + 1):
                forced, sources, infeasible = _target_rule(preds, d - c, drops)
                if infeasible:
                    continue
                if after is None and c < remaining:
                    after = _frontier(cands, i, base)
                drops[x] = c
                entries.append((_unpack(x, base), c))
                if d == 2 and c == 1:
                    merges, f, cl = add_variable(x, forced, sources, free, clash)
                    yield from grow(after, remaining - c, f, cl)
                    remove_variable(x, merges)
                else:
                    yield from grow(after, remaining - c, free, clash)
                entries.pop()
                del drops[x]

    try:
        gens = sorted(_pack(g, base) for g in params.generator_weights())
        yield from grow(gens, order, 0, False)
    finally:
        # grow reaches itself through its cell: free its tables now
        del grow


def _layer_transfer(params: ReflexiveParams, order: int) -> list[int]:
    """Coefficients 0 .. order of the sum of Euler characteristic * q^drop
    over the consistent strata: the search of ``_consistent_strata``,
    memoised at x1-layer boundaries.

    Weights are added in lex order, so once a later x1-layer is entered
    layer a is final.  The children of a node whose last weight lies in
    layer a split at the packed weight (a + 1) * B^2: those in layer a are
    searched as before, and the later-layer tail sees of the branch only
    the layer-a entries: its candidates are the generator weights past
    layer a and the successors w + e1 of layer-a weights, its conditions
    read drops in layer a at the earliest, and its links reach the
    branch's components only through layer-a line variables.  So the tail
    is memoised under the key (the layer-a entries, the components of
    the layer-a line variables in canonical labels with each one's forced
    line, remaining drop).  Its value is computed with the free count set
    to the open unforced components, those with a layer-a member; the
    others are closed, since no later link can reach them, and each shifts
    the caller's copy of the value by one power of 2.  A pair that makes a
    clash is skipped, because the Euler characteristic is 0 on its whole
    subtree.
    """
    base, table = _fiber_tables(params, order)
    layer_size = base * base
    comps = _Components()
    add_variable, remove_variable = comps.add_variable, comps.remove_variable
    find, parent, line = comps.find, comps.parent, comps.line
    drops: dict[int, int] = {}
    path: list[tuple[int, int]] = []  # the branch's entries, in order
    memo: dict[tuple, list[int]] = {}

    def children(cands, lo, hi, start, remaining, free, out):
        """Add the series of the subtree of each child (w, c), w among
        cands[lo:hi], to out, shifted by c.  start is the index in path
        where the child's layer begins: the parent's own for a candidate
        in the parent's layer, len(path) for one in a later layer."""
        for i in range(lo, hi):
            x = cands[i]
            d, preds = table(x)
            after = None
            for c in range(1, min(d, remaining) + 1):
                forced, sources, infeasible = _target_rule(preds, d - c, drops)
                if infeasible:
                    continue
                merges = None
                f = free
                if d == 2 and c == 1:
                    merges, f, clash = add_variable(x, forced, sources, free, False)
                    if clash:
                        remove_variable(x, merges)
                        continue
                if c == remaining:  # a leaf: no drop left for children
                    out[c] += 1 << f
                else:
                    if after is None:
                        after = _frontier(cands, i, base)
                    drops[x] = c
                    path.append((x, c))
                    sub = node(after, start, remaining - c, f)
                    for k, s in enumerate(sub, c):
                        out[k] += s
                    path.pop()
                    del drops[x]
                if merges is not None:
                    remove_variable(x, merges)

    def node(cands, start, remaining, free):
        """Series of the subtree of the node whose last entry is path[-1]
        and whose last layer is path[start:], with drops counted from the
        node's; free is its count of unforced components."""
        out = [0] * (remaining + 1)
        out[0] = 1 << free
        a = path[-1][0] // layer_size
        split = bisect.bisect_left(cands, (a + 1) * layer_size)
        children(cands, 0, split, start, remaining, free, out)
        if split == len(cands):
            return out
        layer = tuple(path[start:])
        roots: dict[int, int] = {}
        labels = []
        lines = []
        for x, _ in layer:
            if x in parent:
                r = find(x)
                if r not in roots:
                    roots[r] = len(lines)
                    lines.append(line[r])
                labels.append(roots[r])
        key = (layer, tuple(labels), tuple(lines), remaining)
        open_free = lines.count(None)
        tail = memo.get(key)
        if tail is None:
            tail = [0] * (remaining + 1)
            children(cands, split, len(cands), len(path), remaining, open_free, tail)
            memo[key] = tail
        closed = free - open_free
        for k, x in enumerate(tail):
            out[k] += x << closed
        return out

    out = [1] + [0] * order
    gens = sorted(_pack(g, base) for g in params.generator_weights())
    children(gens, 0, len(gens), 0, order, 0, out)
    # the two closures reach each other through their cells; unlinking
    # them frees the memo and the tables now, not at the next collection
    del children, node
    return out


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

    for source, target in cs.links:
        parent[find(source)] = find(target)
    forced: dict[Weight, Point] = {}
    for w, line in cs.fixed_lines.items():
        if forced.setdefault(find(w), line) != line:
            return 0
    free = sum(1 for w in cs.variables if find(w) == w and w not in forced)
    return 2**free


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
        """Read what to_json writes: v three ints, n an order, strata a
        list of colength-n coprofiles, each euler and the total an int,
        the total their sum; anything else, a float or a bool included, is
        a ValueError."""
        v, n, strata, total = _json_fields(json.loads(text), "v", "n", "strata", "total")
        records = [
            StratumRecord(Coprofile.from_jsonable(cop), euler)
            for cop, euler in (
                _json_fields(s, "coprofile", "euler")
                for s in _json_list(strata, "strata")
            )
        ]
        eulers = [r.euler for r in records]
        if any(type(x) is not int for x in [total] + eulers):
            raise ValueError("euler and total must be ints")
        n = _series_order(n)
        if total != sum(eulers) or any(r.coprofile.n != n for r in records):
            raise ValueError("strata must have colength n and total their euler sum")
        return cls(_int_triple(v), n, records, total)


def fixed_locus_summary(v, n: int, guard: int = COLENGTH_GUARD) -> FixedLocusSummary:
    """Every consistent stratum of colength n and its Euler characteristic.

    The strata are the nodes of the pruned search with drop exactly n, in
    lex order of their entries.  A consistent stratum can still have
    euler 0, when a linked component is forced to two lines.
    """
    params = ReflexiveParams.of(v)
    _check_order(n, guard)
    records = [
        StratumRecord(Coprofile(entries), chi)
        for entries, drop, chi in _consistent_strata(params, n)
        if drop == n
    ]
    return FixedLocusSummary(
        params.triple, n, records, sum(r.euler for r in records)
    )


def quot_fixed_euler(v, n: int, guard: int = COLENGTH_GUARD) -> int:
    """Euler characteristic of the colength-n fixed locus."""
    return quot_series(v, n, guard=guard).coeffs[n]


def quot_series(v, order: int, guard: int = COLENGTH_GUARD) -> TruncatedSeries:
    """Generating series of fixed-locus Euler characteristics up to q^order.

    One pruned search covers every colength n <= order: each consistent
    stratum adds its Euler characteristic to coefficient n.  It runs on v
    sorted descending, so the x1-layers cut the longest side; permuting
    coordinates is a torus-equivariant isomorphism R0(v) = R0(sigma v).
    """
    params = ReflexiveParams.of(v)
    _check_order(order, guard)
    longest_first = ReflexiveParams(*sorted(params, reverse=True))
    return TruncatedSeries(order, tuple(_layer_transfer(longest_first, order)))
