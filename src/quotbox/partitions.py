"""Plane partitions, box-bounded counting, and monomial ideals.

A plane partition is stored as its height matrix: a tuple of rows of
positive integers, weakly decreasing along rows and down columns.  Its
boxes form a downward-closed subset of Z_{>=0}^3 (the staircase), which is
also how the bijection with finite-colength monomial ideals works: the
staircase is the set of monomials outside the ideal.

Every brute-force route walks the stacks of rows under a bound whose
total is at most a budget, visiting each exactly once.  The stack walker
``_stacks`` yields each stack with its total, and
``enumerate_plane_partitions`` keeps the stacks of one total.  The tally
``_count_stacks`` walks the same stacks without building them: it adds
each one to the count of its total, by its own increment, inside its
parent's loop, so one walk counts every size.  Both read the rows that
may follow a row from ``_ROWS``, one list per row and binding budget,
shared by every walk in the process and bounded.  It shares no counts:
counting each stack itself keeps the tally a brute-force route,
independent of the DP, which sums counts over rows.

Three independent counting routes are provided for box-bounded partitions,
kept deliberately separate so they can check each other:

* direct enumeration, one tally by size (``count_box_partitions``),
* a row-by-row transfer DP (``box_partition_polynomial_dp``),
* the closed-form product (``quotbox.series.box_product``).

The DP never compares two rows.  A row s may follow any row t >= s
componentwise, so one row step takes, for every s, the sum over the
up-set {t >= s} of weakly decreasing tuples.  That sum is built as
suffix sums one coordinate at a time, last coordinate first, and then
every polynomial, one packed int, is shifted by |s|: v2 sweeps over the
C(v2+v3, v2) states per row, v1 * v2 * C(v2+v3, v2) int additions in all.

Enumeration sizes are guarded: every guard goes through ``_guarded``,
which raises GuardExceeded before any work, naming the size it met and
the bound, rather than grinding or exhausting memory.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .series import TruncatedSeries, _box_count, _dominates, _int, _triple, _unpacked

__all__ = [
    "GuardExceeded", "MonomialIdeal", "PlanePartition", "box_partition_polynomial_dp",
    "count_box_partitions", "count_partition_pairs", "enumerate_box_monomial_ideals",
    "enumerate_plane_partitions", "monomial_ideal_to_partition",
    "partition_to_monomial_ideal",
]


PLANE_PARTITION_GUARD = 12  # default size bound of plane partition walks
BOX_WALK_GUARD = 1_000_000  # bound on the stacks one box walk visits
DP_STATE_GUARD = 10_000_000  # bound on the row states of the box DP
ANTICHAIN_GUARD = 1 << 16  # bound on the nodes of the antichain search


class GuardExceeded(RuntimeError):
    """An enumeration was asked to exceed its configured size guard."""


def _guarded(n: int, guard, what: str) -> int:
    """n, an int the caller has checked, against guard before any work: a
    guard not an int >= 0 (a bool included) is a ValueError, and n above it
    raises GuardExceeded, "what.format(n), guard is {guard}"."""
    if n > _int(guard, "guard", 0):
        raise GuardExceeded(f"{what.format(n)}, guard is {guard}")
    return n


@dataclass(frozen=True)
class PlanePartition:
    """Height-matrix form of a plane partition.

    rows[a][b] is the stack height over cell (a, b).  Invariants: entries
    positive, rows weakly decreasing left to right, successive rows weakly
    smaller componentwise (hence weakly shorter).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        prev = None
        for row in self.rows:
            if not row:
                raise ValueError("empty row in height matrix")
            for h in row:
                _int(h, "heights", 1)
            if any(row[b] < row[b + 1] for b in range(len(row) - 1)):
                raise ValueError("row not weakly decreasing")
            if prev is not None:
                if len(row) > len(prev) or any(
                    row[b] > prev[b] for b in range(len(row))
                ):
                    raise ValueError("rows must decrease componentwise")
            prev = row

    @property
    def size(self) -> int:
        return sum(sum(row) for row in self.rows)

    def boxes(self) -> frozenset[tuple[int, int, int]]:
        """The staircase: all (a, b, c) with c < rows[a][b]."""
        return frozenset(
            (a, b, c) for a, row in enumerate(self.rows) for b, h in enumerate(row)
            for c in range(h)
        )

    def fits_in_box(self, v) -> bool:
        v1, v2, v3 = _triple(v, "box sides", 1)
        top = self.rows[0] if self.rows else ()  # the longest row, tallest first
        return len(self.rows) <= v1 and len(top) <= v2 and max(top, default=0) <= v3

    @classmethod
    def from_boxes(cls, boxes) -> "PlanePartition":
        """Rebuild from a box set; raises if it is not downward closed."""
        boxes = frozenset(_triple(b, "box coordinates", 0) for b in boxes)
        heights: dict[tuple[int, int], int] = {}
        for (a, b, c) in boxes:
            heights[(a, b)] = max(heights.get((a, b), 0), c + 1)
        rows = []
        if heights:
            nrows = max(a for (a, _) in heights) + 1
            for a in range(nrows):
                ncols = max((b for (x, b) in heights if x == a), default=-1) + 1
                rows.append(tuple(heights.get((a, b), 0) for b in range(ncols)))
        pp = cls(rows)
        if pp.boxes() != boxes:
            raise ValueError("box set is not downward closed")
        return pp


def _rows_fitting(bound, budget):
    """Every nonempty row under bound with sum <= budget, with its sum.

    A row is a weakly decreasing tuple of positive heights; bound is
    itself weakly decreasing and caps position b at bound[b].  The rows
    of length b + 1 extend by one height those of length b whose sum is
    below budget.
    """
    level = [((h,), h) for h in range(min(bound[0], budget), 0, -1)] if bound else []
    out = level[:]
    for b in bound[1:]:
        level = [
            (row + (h,), s + h)
            for row, s in level if s < budget
            for h in range(min(row[-1], b, budget - s), 0, -1)
        ]
        if not level:
            break
        out += level
    return out


class _RowLists(dict):
    """rows[last, left]: the rows that may follow last, each with its sum,
    as _rows_fitting(last, left) lists them.  One table, _ROWS, serves all walks.

    No row under last sums past sum(last), so every left above it lists
    the same rows: one list is built per (last, min(left, sum(last))),
    and a larger left is filed under that list.
    """

    def __missing__(self, key):
        last, left = key
        cap = sum(last)
        rows = self[last, cap] if left > cap else _rows_fitting(last, left)
        self[key] = rows
        return rows


_ROW_TABLE_BOUND = 4096  # keys _ROWS may hold as a walk starts; see _row_lists
_ROWS = _RowLists()


def _row_lists() -> _RowLists:
    """_ROWS, emptied first if it holds more than _ROW_TABLE_BOUND keys: stanley
    on (3,3,4), hilb and rank2free at order 12 file 561, (4,4,4) alone 1,690."""
    if len(_ROWS) > _ROW_TABLE_BOUND:
        _ROWS.clear()
    return _ROWS


def _stacks(bound, budget, max_rows):
    """Every row stack with total <= budget, together with that total.

    A stack is a tuple of at most max_rows nonempty rows, the first under
    bound and each later row under the one before it; the empty stack is
    one of them.  Each stack is visited exactly once, depth first and
    unsorted.
    """
    rows = _row_lists()
    todo = [((), bound, 0)]
    while todo:
        stack, last, total = todo.pop()
        yield stack, total
        if len(stack) < max_rows:
            todo.extend(
                (stack + (row,), row, total + s)
                for row, s in rows[last, budget - total]
            )


def _count_stacks(bound, budget, max_rows) -> list[int]:
    """counts[n] = number of the stacks _stacks(bound, budget, max_rows)
    visits with total n, for n = 0 .. budget.

    The same walk without building a stack: each child row is tallied
    in its parent's loop, by its own increment, and pushed only if it can
    still grow, with a row left and total below budget.  The explicit
    stack holds (last row, total, rows left).
    """
    rows = _row_lists()
    counts = [0] * (budget + 1)
    counts[0] = 1  # the empty stack
    todo = [(bound, 0, max_rows)] if max_rows > 0 and budget > 0 else []
    pop, push = todo.pop, todo.append
    while todo:
        last, total, more = pop()
        more -= 1
        for row, s in rows[last, budget - total]:
            t = total + s
            counts[t] += 1
            if more and t < budget:
                push((row, t, more))
    return counts


def enumerate_plane_partitions(
    n: int, guard: int = PLANE_PARTITION_GUARD
) -> list[PlanePartition]:
    """All plane partitions of n, sorted by height matrix.

    Exhaustive, so intended for n up to about 12; larger n raises
    GuardExceeded unless the guard is raised explicitly.  n and guard
    must be ints >= 0 (not bools), else ValueError.
    """
    n = _guarded(_int(n, "n", 0), guard, "plane partition enumeration at n = {}")
    found = [
        PlanePartition(rows)
        for rows, total in _stacks((n,) * n, n, n)
        if total == n
    ]
    return sorted(found, key=lambda p: p.rows)


def count_box_partitions(v) -> list[int]:
    """Plane partitions inside a v1 x v2 x v3 box, counted by size.

    Entry n of the returned list, for n = 0 .. v1*v2*v3, is the number of
    partitions of n in the box.  One tally counts every stack of at most
    v1 rows under the top row (v3,) * v2 by its total, each stack by its
    own increment; this is the brute-force reference for the DP and the
    product formula.  The tally visits one stack per partition in the
    box, MacMahon's prod (i+j+k-1)/(i+j+k-2) over its cells (i, j, k);
    above BOX_WALK_GUARD it raises GuardExceeded before any work.
    """
    v1, v2, v3 = _triple(v, "box sides", 1)
    _guarded(_box_count(v1, v2, v3), BOX_WALK_GUARD, "box walk of {} stacks")
    volume = v1 * v2 * v3
    return _count_stacks((v3,) * v2, volume, v1)


def box_partition_polynomial_dp(v) -> TruncatedSeries:
    """Size generating polynomial of box-bounded plane partitions via DP.

    States are weakly decreasing tuples of length v2 with entries in
    [0, v3]; the DP walks the v1 rows, each row componentwise below the
    previous.  The state count is C(v2+v3, v2) and is checked against
    DP_STATE_GUARD before any state is generated.

    One row step sends g to g'(s) = q^|s| * sum_{t >= s} g(t).  The sum
    over the up-set is taken by suffix sums over coordinates
    b = v2-1, ..., 0: in decreasing lex order of s, g(s) += g(s + e_b)
    whenever s + e_b is a state (s_b < v3, and s_b < s_(b-1) for b > 0).
    s + e_b is lex-larger than s, so it is already summed along b when it
    is read, and after the sweeps for v2-1, ..., b, g(s) is the sum over
    decreasing t with t_j >= s_j for j >= b and t_j = s_j for j < b.
    Sweeping first to last coordinate instead would leave the decreasing
    tuples on the way and miss terms.  Each polynomial is one int with the
    q^n coefficient in bit field n of width W = _box_count(v).bit_length(),
    so the cost is v1 * v2 * C(v2+v3, v2) int additions.  No field carries:
    every coefficient, suffix sums included, counts distinct stacks in the
    box, fewer than 2^W, none larger than v1*v2*v3, so no mask is needed.
    """
    v1, v2, v3 = _triple(v, "box sides", 1)
    _guarded(math.comb(v2 + v3, v2), DP_STATE_GUARD, "DP would need {} states")
    # weakly decreasing tuples, in decreasing lex order
    states = list(itertools.combinations_with_replacement(range(v3, -1, -1), v2))
    index = {s: i for i, s in enumerate(states)}
    # sweeps[k] pairs each state s with s + e_b, b = v2-1-k, when that is
    # again a state; s + e_b is lex-larger, so it comes first in states.
    sweeps = [
        [
            (i, index[s[:b] + (s[b] + 1,) + s[b + 1:]])
            for i, s in enumerate(states)
            if s[b] < v3 and (b == 0 or s[b] < s[b - 1])
        ]
        for b in range(v2 - 1, -1, -1)
    ]
    shifts = [sum(s) for s in states]

    # poly[i] = packed generating polynomial of the stacks so far whose last
    # row is states[i]; before the first row, the last row is the full top.
    width = _box_count(v1, v2, v3).bit_length()
    poly = [0] * len(states)
    poly[index[(v3,) * v2]] = 1
    for _ in range(v1):
        for pairs in sweeps:
            for i, j in pairs:
                poly[i] += poly[j]
        poly = [p << width * w for p, w in zip(poly, shifts)]
    return _unpacked(sum(poly), width, v1 * v2 * v3)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators (an antichain of
    exponent triples).

    box=None means an ideal of the full polynomial ring in three
    variables; box=(v1,v2,v3) means an ideal of the quotient by the pure
    powers x1^v1, x2^v2, x3^v3, in which case generators live strictly
    inside the box.

    Membership has one rule, ``_contains``, in plain comparisons: a
    monomial is in the ideal when it lies outside the box or above a
    generator.  ``contains`` checks a caller's triple, ints >= 0 as the
    generators are, before it applies the rule; ``staircase`` and
    ``colength`` apply it to the box monomials they generate themselves,
    which need no check.
    """

    generators: tuple[tuple[int, int, int], ...]
    box: tuple[int, int, int] | None = None

    def __post_init__(self):
        gens = tuple(sorted(_triple(g, "exponents", 0) for g in self.generators))
        object.__setattr__(self, "generators", gens)
        if self.box is not None:
            v = _triple(self.box, "box sides", 1)
            object.__setattr__(self, "box", v)
            for g in gens:
                if any(g[i] >= v[i] for i in range(3)):
                    raise ValueError("generator lies outside the box quotient")
        for g, h in itertools.combinations(gens, 2):
            if _dominates(h, g) or _dominates(g, h):
                raise ValueError("generators must form an antichain")

    def contains(self, m) -> bool:
        """Membership of the monomial with exponent triple m, ints >= 0."""
        return self._contains(*_triple(m, "exponents", 0))

    def _contains(self, a, b, c) -> bool:
        """Membership of x1^a x2^b x3^c, for ints a, b, c >= 0 that the
        caller has checked."""
        box = self.box
        if box is not None and (a >= box[0] or b >= box[1] or c >= box[2]):
            return True  # the monomial is zero in the quotient ring
        for g1, g2, g3 in self.generators:
            if a >= g1 and b >= g2 and c >= g3:
                return True
        return False

    def _axis_bounds(self) -> tuple[int, int, int]:
        if self.box is not None:
            return self.box
        bounds = []
        for i in range(3):
            pure = [g[i] for g in self.generators
                    if g[(i + 1) % 3] == 0 and g[(i + 2) % 3] == 0]
            if not pure:
                raise ValueError("ideal has infinite colength")
            bounds.append(min(pure))
        return tuple(bounds)

    def staircase(self) -> frozenset[tuple[int, int, int]]:
        """Monomials outside the ideal; finite iff the colength is."""
        b, inside = self._axis_bounds(), self._contains
        return frozenset(
            m for m in itertools.product(range(b[0]), range(b[1]), range(b[2]))
            if not inside(*m)
        )

    def colength(self) -> int:
        return len(self.staircase())


def partition_to_monomial_ideal(pp: PlanePartition, box=None) -> MonomialIdeal:
    """Ideal whose staircase is the partition's box set.

    With box=None the partition must be nonempty on every axis only in the
    trivial sense that the resulting ideal always has finite colength; with
    a box the partition must fit inside it and the ideal lives in the
    quotient ring.
    """
    lam = pp.boxes()
    if box is not None:
        v = _triple(box, "box sides", 1)
        if not pp.fits_in_box(v):
            raise ValueError("partition does not fit in the box")
        bounds = v
    else:
        bounds = tuple(
            max((m[i] for m in lam), default=-1) + 2 for i in range(3)
        )
    gens = []
    for m in itertools.product(range(bounds[0]), range(bounds[1]), range(bounds[2])):
        if m in lam:
            continue
        preds_inside = all(
            m[i] == 0 or tuple(m[j] - (j == i) for j in range(3)) in lam
            for i in range(3)
        )
        if preds_inside:
            gens.append(m)
    return MonomialIdeal(tuple(gens), box=tuple(bounds) if box is not None else None)


def monomial_ideal_to_partition(ideal: MonomialIdeal) -> PlanePartition:
    """Inverse of partition_to_monomial_ideal: staircase as a partition."""
    return PlanePartition.from_boxes(ideal.staircase())


def enumerate_box_monomial_ideals(v) -> list[MonomialIdeal]:
    """All monomial ideals of the box quotient ring, via antichains.

    Enumerates antichains in the box poset directly, one ideal per
    antichain (the empty antichain is the zero ideal).  The search is a
    tree of depth cells whose every node has a leaf, one ideal, below it,
    so it visits at most (cells + 1) * ideals nodes, with the ideals
    counted by MacMahon's formula; above ANTICHAIN_GUARD it raises
    GuardExceeded before any work.
    """
    v1, v2, v3 = _triple(v, "box sides", 1)
    cells = sorted(itertools.product(range(v1), range(v2), range(v3)))
    nodes = (len(cells) + 1) * _box_count(v1, v2, v3)
    _guarded(nodes, ANTICHAIN_GUARD, "antichain search of up to {} nodes")
    out: list[MonomialIdeal] = []

    def comparable(a, b):
        return _dominates(b, a) or _dominates(a, b)

    def rec(idx, chosen):
        if idx == len(cells):
            out.append(MonomialIdeal(tuple(chosen), box=(v1, v2, v3)))
            return
        rec(idx + 1, chosen)
        c = cells[idx]
        if all(not comparable(c, g) for g in chosen):
            rec(idx + 1, chosen + [c])

    rec(0, [])
    return out


def count_partition_pairs(order: int, guard: int = PLANE_PARTITION_GUARD) -> list[int]:
    """Ordered pairs of plane partitions, counted by total size.

    Entry n of the returned list, for n = 0 .. order, is the number of
    pairs (P, Q) with |P| + |Q| = n.  One tally counts every plane
    partition of size <= order by its size, each by its own increment,
    and the pair counts are the convolution of those counts; this is the
    brute-force reference for the coefficients of macmahon^2.  order and
    guard must be ints >= 0 (not bools), else ValueError; above guard it
    raises GuardExceeded before any work.
    """
    order = _guarded(_int(order, "order", 0), guard, "pair counting at order {}")
    counts = _count_stacks((order,) * order, order, order)
    return [
        sum(counts[k] * counts[n - k] for k in range(n + 1))
        for n in range(order + 1)
    ]
