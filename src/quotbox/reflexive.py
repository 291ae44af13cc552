"""Graded fibers of the rank-2 singular module attached to a triple v.

For v = (v1, v2, v3) with all entries >= 1, set the three generator
weights

    g1 = (v1, v2, 0),   g2 = (v1, 0, v3),   g3 = (0, v2, v3).

The module R0 is spanned by three generators e1, e2, e3, where e_i sits in
degree g_i and is free over the monomials above it, except that on the
common upward cone w >= v = (v1, v2, v3) the single relation
e1 + e2 + e3 = 0 is imposed.  Like every equivariant rank-2 reflexive
module, R0 is a family of subspaces F_w of C^2, one per weight, and
multiplication by x_k is the inclusion F_w <= F_{w + e_k}.  In the basis
(class of e1, class of e2) of C^2, the class of e3 is (-1, -1), and

    F_w = C^2                   on the cone w >= v,
    F_w = the line _LINES[k-1]  when w >= 0 lies below v in coordinate
                                k only (w >= g_(4-k), spanned by e_(4-k)),
    F_w = 0                     otherwise.

So fiber dimensions are 0, 1 or 2, and every multiplication matrix has
entries in {0, 1}.  The rule is written once, as the table
``ReflexiveParams._fibers`` of four cones and their fibers, and
``fiber``, ``fiber_dim``, ``mult_matrix``, ``fiber_masks``,
``generator_weights`` and ``line_submodule_dim`` all read it.

The checks of R0's presentation against these fibers live in ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .partitions import MonomialIdeal
from .series import _dominates, _int, _triple

__all__ = ["ReflexiveParams", "fiber", "fiber_dim", "mult_matrix", "sing_ideal"]

Weight = tuple[int, int, int]
Basis = tuple[tuple[int, int], ...]

_E = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# F_w where w >= 0 lies below v in coordinate k only, for k = 1, 2, 3
_LINES = ((1, 1), (0, 1), (1, 0))


@dataclass(frozen=True)
class ReflexiveParams:
    """The defining triple v, validated once."""

    v1: int
    v2: int
    v3: int

    def __post_init__(self):
        _triple(self, "v", 1)

    @classmethod
    def of(cls, v) -> "ReflexiveParams":
        if isinstance(v, cls):
            return v
        return cls(*_triple(v, "v", 1))

    def __iter__(self):
        yield self.v1
        yield self.v2
        yield self.v3

    @property
    def triple(self) -> Weight:
        return (self.v1, self.v2, self.v3)

    @cached_property
    def _fibers(self) -> tuple[tuple[Weight, Basis], ...]:
        """R0's fibers as (corner, basis) pieces: F_w is spanned by the
        basis of the first piece whose corner w dominates, and is 0 past
        them all.  All of C^2 on the cone w >= v, then for k = 3, 2, 1 the
        line _LINES[k-1] on the cone w >= g_(4-k), whose weights off the
        cone w >= v are those below v in coordinate k only."""
        v1, v2, v3 = self
        return (
            ((v1, v2, v3), ((1, 0), (0, 1))),
            ((v1, v2, 0), (_LINES[2],)),
            ((v1, 0, v3), (_LINES[1],)),
            ((0, v2, v3), (_LINES[0],)),
        )

    def generator_weights(self) -> tuple[Weight, Weight, Weight]:
        """g1, g2, g3: the corners of the line pieces, where a fiber is not
        spanned by its predecessors' images."""
        return tuple(corner for corner, _ in self._fibers[1:])

    @staticmethod
    def image_line(k: int) -> tuple[int, int]:
        """The line onto which x_k carries a 1-dimensional fiber stepping
        into the cone w >= v: that fiber lies below v in coordinate k
        only, so it is the line _LINES[k-1] of C^2 itself."""
        return _LINES[_int(k, "direction k", 1, 3) - 1]

    def fiber_masks(self, window: Weight) -> tuple[int, int]:
        """Bitmasks D1, D2 of the weights in the window [0, n1) x [0, n2) x
        [0, n3) whose fiber has dimension 1 and 2 (see ``_cone_mask``): D2
        is the cone of the plane piece, D1 the union of the line pieces'
        cones minus D2."""
        d2, *lines = (_cone_mask(corner, window) for corner, _ in self._fibers)
        return (lines[0] | lines[1] | lines[2]) & ~d2, d2


def _cone_mask(lo: Weight, window: Weight) -> int:
    """Bitmask of the weights w >= lo in the window [0, n1) x [0, n2) x
    [0, n3), bit (w1*n2 + w2)*n3 + w3 for w: a product of one run of bits
    per coordinate, with no carry."""
    _, n2, n3 = window
    mask = 1
    for low, n, step in zip(lo, window, (n2 * n3, n3, 1)):
        run = ((1 << n * step) - 1) // ((1 << step) - 1)  # n digits, all 1
        mask *= run >> low * step << low * step
    return mask


def fiber(v, w) -> Basis:
    """Basis of the fiber F_w of R0, a subspace of C^2: two vectors, one,
    or none (see the module docstring)."""
    w = _triple(w, "weights")
    for corner, basis in ReflexiveParams.of(v)._fibers:
        if _dominates(w, corner):
            return basis
    return ()


def fiber_dim(v, w) -> int:
    """Dimension of the fiber at w."""
    return len(fiber(v, w))


def mult_matrix(v, w, k: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication by x_k from weight w to w + e_k: the inclusion
    F_w <= F_{w + e_k} in the fibers' bases, rows indexed by the target
    basis and columns by the source basis.  Into C^2 a column is the
    source vector itself; into a line it is (1,), since a nonzero source
    is that same line."""
    e = _E[_int(k, "direction k", 1, 3) - 1]
    params = ReflexiveParams.of(v)
    w = _triple(w, "weights")
    source = fiber(params, w)
    target = fiber(params, tuple(map(int.__add__, w, e)))
    cols = source if len(target) == 2 else ((1,),) * len(source)
    return tuple(tuple(col[r] for col in cols) for r in range(len(target)))


def sing_ideal(v) -> MonomialIdeal:
    """Monomial ideal cutting out the singular locus: pure powers
    (x1^v1, x2^v2, x3^v3)."""
    v1, v2, v3 = ReflexiveParams.of(v)
    return MonomialIdeal(((v1, 0, 0), (0, v2, 0), (0, 0, v3)))


def line_submodule_dim(params: ReflexiveParams, w: Weight) -> int:
    """Graded dimension of the line submodule: one line of C^2 on the
    cone of the plane piece, w >= v, and 0 elsewhere.

    Every line of C^2 gives a submodule, since the cone is upward closed
    and F_w = C^2 on it; graded dimensions do not depend on the choice,
    so the class of e1 + e2, the line (1, 1), is fixed here.
    """
    return 1 if _dominates(w, params._fibers[0][0]) else 0
