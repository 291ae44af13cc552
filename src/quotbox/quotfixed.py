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

R0 has 2-dimensional fibers exactly on the cone w >= v, each of them
all of C^2, so multiplication between two of them is the identity.
Every line variable sits on that cone, and the constraint system of a
stratum is correspondingly plain: some variables are forced to the image
line of a 1-dimensional neighbor, some pairs of variables are linked
(they must be the same line), or the stratum is infeasible because a map
leaves too little room in its target.
``stratum_euler`` evaluates such a system exactly: the links split the
variables into components, a component forced to two different lines
makes the stratum empty, and otherwise every unforced component is a free
P^1, so the Euler characteristic is 0 or 2^(free components).

One walk reads the strata, ``_layer_transfer``: it adds (weight, drop)
pairs in increasing lex order of weight, every colength up to the order
at once.  The conditions with target w read only the drops at w - e_k,
earlier in lex order, so they are decided when (w, c) is added, and an
infeasible pair is cut with its subtree; every lex-order prefix of a
consistent stratum is consistent, so the walk visits exactly the
consistent strata.  A branch is a few bitmasks and its line components,
so each node's chi is known without a constraint system, and the walk
reads R0 only through ``ReflexiveParams.generator_weights``,
``fiber_masks`` and ``image_line``.  ``quot_series`` (and so
``quot_fixed_euler``) runs it as a forward transfer over x1-layers, each
state at a layer's end searched once, on v sorted descending so that a
layer, n2*n3 bits, is smallest (permuting coordinates is a
torus-equivariant isomorphism R0(v) = R0(sigma v)).
``fixed_locus_summary`` lists its nodes depth-first on the caller's v, so
its total against ``quot_fixed_euler`` checks transfer and orientation.

The tests' reference shares no code with the walk and reads R0 only
through ``fiber``: ``enumerate_coprofiles`` lists every coprofile of one
colength, the set closure of the reachability rule, and
``profile_constraint_system`` builds each one's system by its own
containment rule, on predecessors and forced lines read from ``fiber``;
the tests' field oracle recounts it over prime fields.
Everything is exact integer arithmetic, and enumeration and walk depth
are guarded at colength ``COLENGTH_GUARD``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .partitions import _guarded
# bound here for perfbench/spans.TARGETS, which tests/test_bench_bindings.py checks
from .reflexive import _E, ReflexiveParams, Weight, fiber_dim, mult_matrix  # noqa: F401
from .reflexive import _cone_mask, fiber
from .series import TruncatedSeries, _int, _triple

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
        norm, prev = [], (-1,)  # (-1,) sorts below every weight >= 0
        for entry in self.entries:
            try:
                w, c = entry
            except (TypeError, ValueError):
                raise ValueError(f"an entry is a (weight, drop) pair, got {entry!r}") from None
            w = _triple(w, "weights", 0)
            if w <= prev:
                raise ValueError("entries must be sorted by weight, no repeats")
            norm.append((w, _int(c, "dimension drops", 1)))
            prev = w
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def n(self) -> int:
        return sum(c for _, c in self.entries)

    @property
    def support(self) -> tuple[Weight, ...]:
        return tuple(w for w, _ in self.entries)

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.entries)


def _entries(held: int, doubles: int, window: Weight) -> list[tuple[Weight, int]]:
    """A branch's (weight, drop) entries in lex order: a weight at each bit
    of held, lowest first, its drop 2 at the bits of doubles, else 1."""
    _, n2, n3 = window
    entries = []
    while held:
        x = (held & -held).bit_length() - 1
        held &= held - 1
        entries.append(((x // (n2 * n3), x // n3 % n2, x % n3), 1 + (doubles >> x & 1)))
    return entries


def _window(params: ReflexiveParams, order: int) -> Weight:
    """The packing window (n1, n2, n3) of a search to this order.

    The search keys w as x = (w1*n2 + w2)*n3 + w3 and as bit x of a mask,
    exact and in lex order while w2 < n2 and w3 < n3; x + 1, x + n3 and
    x + n2*n3 are its successors and x // (n2*n3) its x1-layer.  A weight
    of a stratum of colength <= order is at most order - 1 steps above a
    generator weight, so its k-th coordinate is at most v_k + order - 1,
    with v_k the largest k-th coordinate of a generator; the window
    [0, n1) x [0, n2) x [0, n3), n_k = v_k + order (at least v_k + 1),
    holds every weight the search reads.  Each bound is reached, by a
    chain of drops up from a generator.
    """
    n1, n2, n3 = (max(c) + max(order, 1) for c in zip(*params.generator_weights()))
    return n1, n2, n3


def enumerate_coprofiles(v, n: int, guard: int = COLENGTH_GUARD) -> list[Coprofile]:
    """All coprofiles of total drop n for the module attached to v, sorted
    by entries and read off the definition; no code is shared with the
    walk.

    The supports are the set closure of the reachability rule: starting
    from the empty support, n times add a generator weight or a successor
    w + e_k of a member.  Each support takes every drop vector with
    1 <= c <= fiber dimension that sums to n (support fibers are nonzero:
    generator fibers are, and so is every successor of a nonzero fiber).
    """
    params = ReflexiveParams.of(v)
    _guarded(_int(n, "n", 0), guard, "stratum search at colength {}")
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


def profile_constraint_system(v, profile: Coprofile) -> ConstraintSystem:
    """Build the constraint system of one coprofile.

    For every support weight w and direction k the multiplication map from
    w - e_k must carry F_{w-e_k} into F_w, with dimensions read from
    ``fiber_dim``.  Every multiplication map is an inclusion, of rank its
    source dimension, so only dimensions decide: a zero or fully removed
    source sets no condition; when F_w is a line, a full 1-dimensional
    source forces it to the source's own line, its basis in ``fiber`` (a
    second, different forced line makes the stratum infeasible, the first
    stays in fixed_lines) and a line source is linked to it; any other
    source leaves too little room in F_w.
    """
    params = ReflexiveParams.of(v)
    drops = profile.as_dict()
    variables = []
    fixed: dict[Weight, Point] = {}
    links: list[tuple[Weight, Weight]] = []
    infeasible = False

    for w, c in profile.entries:
        d = fiber_dim(params, w)
        if c > d:
            raise ValueError(f"drop {c} exceeds fiber dimension {d} at {w}")
        line = d - c == 1  # F_w is a line: d = 2, c = 1
        if line:
            variables.append(w)
        for e in _E:
            ws = tuple(map(int.__sub__, w, e))
            ds = fiber_dim(params, ws)
            cs = drops.get(ws, 0)
            if ds == cs:
                continue
            if line and ds == 1:
                (image,) = fiber(params, ws)
                if fixed.setdefault(w, image) != image:
                    infeasible = True  # a second, different forced line
            elif line and cs == 1:
                links.append((ws, w))
            else:
                infeasible = True

    return ConstraintSystem(
        tuple(sorted(variables)), fixed, tuple(sorted(links)), infeasible
    )


def _relabel(comp, joined, tag, lo):
    """A line child's comp: comp from bit lo on, each tag in joined made tag."""
    return {y: tag if t in joined else t for y, t in comp.items() if y >= lo}


def _layer_transfer(params: ReflexiveParams, order: int, visit=None) -> list[int]:
    """Coefficients 0 .. order of the sum of Euler characteristic * q^drop
    over the consistent strata, by the walk of the module docstring.

    A branch carries the masks F of its fully dropped weights and P of its
    line variables, all it keeps of its drops (a drop is 2 exactly at a bit
    of F on D2).  bad marks the weights with a predecessor of nonzero
    fiber outside F, badline those with one of 2-dimensional fiber outside
    F | P: unions of shifts by step_k, bad less the bits a shift wraps from
    w_k = n_k - 1 to w_k = 0 (badline is read only on D2, where w_k > 0).  A
    full drop at x is allowed iff x is not in bad.  A line must be outside
    badline, and then each predecessor x - step_k, a nonzero fiber as x is
    on the cone w >= v, is read off the masks: in F it sets no condition,
    in P it is a link source, and otherwise it is a 1-dimensional fiber at
    w_k = v_k that forces image_line(k); a second, different forced line
    makes the pair infeasible.  A branch also carries free, its count of
    unforced components, clash, noting one forced to two lines, and comp,
    which maps each line variable of its frontier, the layers from the one
    below its last line's on, to a tag (x0, line): the bit whose line made
    the component, and its forced line or None.  A line child's comp is a
    new dict, its joins retagged and the layers no later line links to cut
    (``_relabel``); no dict changes once a child has it, so nothing is undone.

    Once a later x1-layer is entered, layer a is final: the rest of a
    branch reads F and P there at the earliest and links to it only
    through layer-a line variables.  So a node whose last weight is in
    layer a walks its layer-a children in place and, with candidates past
    layer a, is a state of layer a, keyed by F | P and F from layer a on
    and the components of the layer-a line variables, lowest first, in
    canonical labels with their forced lines.  A state keeps the search of
    the first branch to reach it (candidates, comp, and the masks from
    layer a on, all of F and P the search reads) and a series S whose
    coefficient d sums 2^closed over the branches that reach it with drop
    d, closed counting the unforced components with no layer-a member,
    which no later link can reach.  After the root's search the states are
    searched layer by layer, each once, from free = open_free, the other
    unforced components, and left = order - lo, lo the least drop in S,
    exact as all its branches come from earlier layers: a node at drop
    delta above lo adds 2^free q^delta to a tail T, a state t adds
    2^(free - open_free(t)) q^delta S to its own S, and S T goes to the
    sum.  A pair that makes a clash is skipped, as chi is 0 on its
    subtree, and a line leaf (no drop left after it) adds its 2^free
    without a node; no other leaf does.  Every child of a node with one
    unit of drop left is a leaf, and a full drop changes neither free nor
    clash, so such a node adds its full drops' popcount shifted by free,
    walks only its lines, and is no state.

    A series is one int, coefficient d at bit d*W, W = 5*order + 5.  Each
    field sums terms of distinct strata of one colength d <= order, each
    at most its chi, so it is at most c_d.  A stratum has k <= d weights,
    at most 2^k drop vectors and chi <= 2^k, and its support, each weight
    but a generator hung from its predecessor w - e_k of least k and the
    generators from an extra root, is one of binom(3k + 3, k + 1)/(2k + 3)
    <= 8^(k+1) ternary trees of k + 1 nodes.  So c_d <= sum_(k <= d) 4^k
    8^(k+1) < 2^(5d + 4): only fields above the order, masked off, carry.

    With visit, it lists the strata: visit(F | P, F & D2, drop, chi) at each
    node in pre-order (``_entries`` reads the entries off the two masks),
    no state filed, clash pairs followed with chi = 0 and line leaves made nodes.
    """
    window = _window(params, order)
    n1, n2, n3 = window
    layer_size = n2 * n3
    # a line's predecessors: the step to each, and the line x_k carries it to
    preds = tuple(zip((layer_size, n3, 1), map(params.image_line, (1, 2, 3))))
    d1, d2 = params.fiber_masks(window)
    v1 = max(w1 for w1, _, _ in params.generator_weights())  # the last generator layer
    # (D1|D2, D1, D2) to layer max(a + 1, v1), the last that can hold a candidate
    keeps = ((1 << max(t, v1 + 1) * layer_size) - 1 for t in range(n1 + 2))
    cuts = [((d1 | d2) & keep, d1 & keep, d2 & keep) for keep in keeps]
    # w2 > 0 and w3 > 0, where shifts by n3 and 1 do not wrap (n2*n3 cannot)
    row, col = _cone_mask((0, 1, 0), window), _cone_mask((0, 0, 1), window)
    width = 5 * order + 5  # bits per packed coefficient, see above
    states: list = [{} for _ in range(n1)]  # per x1-layer: key -> [S, the search]

    def children(full_at, line_at, left, full, held, free, clash, comp, out):
        """Walk a full drop at each bit of full_at, a line at each of line_at."""
        m = full_at | line_at
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            if low & line_at:
                forced, joined = None, set()
                for step, image in preds:
                    source = low >> step
                    if source & full:
                        continue  # fully dropped: no condition
                    if source & held:
                        joined.add(comp[x - step])  # a line variable: linked
                    elif forced is None:
                        forced = image  # 1-dimensional, at w_k = v_k
                    elif forced != image:
                        break  # a second, different forced line
                else:
                    line, f, cl = forced, free, clash
                    for _, joined_line in joined:
                        if joined_line is None:
                            f -= 1  # an unforced component joins x's
                        elif line is None:
                            line = joined_line
                        elif line != joined_line:
                            cl = True  # forced to two different lines
                    f += line is None
                    if left == 1 and not visit:  # a leaf: no drop left for children
                        out[-1] += 0 if cl else 1 << f
                    elif not cl or visit:
                        tag = (x, line)
                        lo = (x // layer_size - 1) * layer_size
                        c = _relabel(comp, joined, tag, lo)
                        c[x] = tag
                        node(left - 1, full, held | low, f, cl, c, out)
            if low & full_at and (c := 2 if low & d2 else 1) <= left:
                node(left - c, full | low, held | low, free, clash, comp, out)

    def node(left, full, held, free, clash, comp, out):
        """Add to out[~left:], which ends at drop order, the node's series up
        to its states: masks F = full and F | P = held, free, clash, comp."""
        chi = 0 if clash else 1 << free
        out[~left] += chi
        if visit:
            visit(held, full & d2, order - left, chi)
        if not left:
            return
        above = held.bit_length()  # past the branch's last weight, 0 at the root
        a = (above - 1) // layer_size  # that weight's x1-layer, -1 at the root
        nonzero, ones, twos = cuts[a + 2]
        bad = nonzero ^ full
        bad = bad << layer_size | (bad << n3) & row | (bad << 1) & col
        badline = twos & ~held
        badline = badline << layer_size | badline << n3 | badline << 1
        full_at = (nonzero & ~bad) >> above << above
        line_at = (twos & ~badline) >> above << above
        if visit or not held:  # no states in the listing, no layer to split at the root
            children(full_at, line_at, left, full, held, free, clash, comp, out)
            return
        if left == 1:
            out[-1] += (full_at & ones).bit_count() << free
            children(0, line_at, 1, full, held, free, clash, comp, out)
            return
        start = a * layer_size  # the first weight of layer a
        inside = (1 << start + layer_size) - 1  # the weights up to layer a
        children(full_at & inside, line_at & inside, left, full, held, free, clash, comp, out)
        full_at, line_at = full_at & ~inside, line_at & ~inside
        roots: dict[tuple, int] = {}
        labels, lines = [], []
        m = (held ^ full) >> start  # the line variables of layer a
        while m:
            t = comp[start + (m & -m).bit_length() - 1]
            m &= m - 1
            if t not in roots:
                roots[t] = len(lines)
                lines.append(t[1])
            labels.append(roots[t])
        held_a, full_a = held >> start, full >> start  # F | P and F from layer a on
        key = (held_a, full_a, tuple(labels), tuple(lines))
        open_free = lines.count(None)
        state = states[a].setdefault(key, [0, full_at, line_at, held_a, full_a, open_free, comp])
        state[0] += series << (top - left) * width + free - open_free

    out = [0] * (order + 1)
    series, top = 1, order  # the searching state's S and left: the root's
    node(order, 0, 0, 0, False, {}, out)
    total = 0
    for a in range(n1):
        start = a * layer_size
        for s, full_at, line_at, held, full, free, comp in states[a].values():
            series = s & (1 << (order + 1) * width) - 1
            top = order - ((series & -series).bit_length() - 1) // width
            tail = [0] * (top + 1)
            children(full_at, line_at, top, full << start, held << start, free, False, comp, tail)
            total += series * sum(x << k * width for k, x in enumerate(tail))
        states[a] = None  # every state of layer a is searched
    del children, node  # unlink the closures' cycle: the tables go now, not at a collection
    return [x + (total >> k * width & (1 << width) - 1) for k, x in enumerate(out)]


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


def fixed_locus_summary(v, n: int, guard: int = COLENGTH_GUARD) -> FixedLocusSummary:
    """Every consistent stratum of colength n and its Euler characteristic.

    The strata are the nodes of the walk with drop exactly n, in lex order
    of their entries.  A consistent stratum can still have euler 0, when
    a linked component is forced to two lines.
    """
    params = ReflexiveParams.of(v)
    _guarded(_int(n, "n", 0), guard, "stratum search at colength {}")
    window = _window(params, n)
    records = []

    def visit(held, doubles, drop, chi):
        if drop == n:
            entries = _entries(held, doubles, window)
            records.append(StratumRecord(Coprofile(entries), chi))

    _layer_transfer(params, n, visit)
    return FixedLocusSummary(params.triple, n, records, sum(r.euler for r in records))


def quot_fixed_euler(v, n: int, guard: int = COLENGTH_GUARD) -> int:
    """Euler characteristic of the colength-n fixed locus."""
    return quot_series(v, n, guard=guard).coeffs[n]


def quot_series(v, order: int, guard: int = COLENGTH_GUARD) -> TruncatedSeries:
    """Generating series of fixed-locus Euler characteristics up to q^order.

    One walk covers every colength n <= order: each consistent stratum
    adds its Euler characteristic to coefficient n.  It runs on v sorted
    descending, the orientation of the module docstring.
    """
    params = ReflexiveParams.of(v)
    _guarded(_int(order, "order", 0), guard, "stratum search at colength {}")
    longest_first = ReflexiveParams(*sorted(params, reverse=True))
    return TruncatedSeries(order, tuple(_layer_transfer(longest_first, order)))
