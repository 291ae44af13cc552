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
entries in {0, 1}.

The module ``check_cosection_quotient`` compares graded dimensions of
R0 / (line submodule spanned by the class of e1 + e2) against the
monomial ideal (x1^v1 x2^v2, x1^v1 x3^v3, x2^v2 x3^v3), and
``check_resolution_dims`` checks the Euler-characteristic identity of the
three-line-bundle presentation of R0.  Both work weight by weight over a
finite window; dimensions are the only invariants compared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .partitions import MonomialIdeal
from .series import _box_triple, _dominates, _int_triple

__all__ = [
    "DimCheckReport", "FiberDescription", "MultMap", "ReflexiveParams",
    "check_cosection_quotient", "check_resolution_dims", "fiber", "fiber_dim",
    "mult_matrix", "sing_ideal",
]

Weight = tuple[int, int, int]

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
        _box_triple(self)

    @classmethod
    def of(cls, v) -> "ReflexiveParams":
        if isinstance(v, cls):
            return v
        return cls(*_box_triple(v))

    def __iter__(self):
        yield self.v1
        yield self.v2
        yield self.v3

    @property
    def triple(self) -> Weight:
        return (self.v1, self.v2, self.v3)

    @property
    def box_volume(self) -> int:
        return self.v1 * self.v2 * self.v3

    def generator_weights(self) -> tuple[Weight, Weight, Weight]:
        return (
            (self.v1, self.v2, 0),
            (self.v1, 0, self.v3),
            (0, self.v2, self.v3),
        )

    def dim_at(self, w1: int, w2: int, w3: int) -> int:
        """Fiber dimension at w, unchecked: w >= g_i when w passes v in
        the two coordinates where g_i is nonzero, so passing v in 0 .. 3
        coordinates gives dimension max(passes - 1, 0)."""
        return (0, 0, 1, 2)[(w1 >= self.v1) + (w2 >= self.v2) + (w3 >= self.v3)]

    @staticmethod
    def image_line(k: int) -> tuple[int, int]:
        """The line onto which x_k carries a 1-dimensional fiber stepping
        into the cone w >= v: that fiber lies below v in coordinate k
        only, so it is the line _LINES[k-1] of C^2 itself."""
        return _LINES[k - 1]

    def fiber_masks(self, window: Weight) -> tuple[int, int]:
        """Bitmasks D1, D2 of the weights in the window [0, n1) x [0, n2) x
        [0, n3) whose fiber has dimension 1 and 2 (see ``_cone_mask``): D2
        is the cone w >= v, D1 the union of the cones w >= g_i minus D2."""
        d2 = _cone_mask(self.triple, window)
        c1, c2, c3 = (_cone_mask(g, window) for g in self.generator_weights())
        return (c1 | c2 | c3) & ~d2, d2


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


@dataclass(frozen=True)
class FiberDescription:
    """Fiber F_w of R0 at one weight: basis vectors of a subspace of C^2."""

    weight: Weight
    dim: int
    basis: tuple[tuple[int, int], ...]


def fiber(v, w) -> FiberDescription:
    """Describe the fiber of R0 at weight w (see the module docstring)."""
    params = ReflexiveParams.of(v)
    w = _int_triple(w)
    below = [k for k in range(3) if w[k] < params.triple[k]]
    if not below:
        basis = ((1, 0), (0, 1))
    elif len(below) == 1 and min(w) >= 0:
        basis = (_LINES[below[0]],)
    else:
        basis = ()
    return FiberDescription(w, len(basis), basis)


def fiber_dim(v, w) -> int:
    """Dimension of the fiber at w."""
    return fiber(v, w).dim


@dataclass(frozen=True)
class MultMap:
    """Matrix of multiplication by x_k from weight w to w + e_k.

    Rows are indexed by the target fiber basis, columns by the source
    fiber basis.
    """

    source: Weight
    direction: int
    matrix: tuple[tuple[int, ...], ...]

    @property
    def target(self) -> Weight:
        e = _E[self.direction - 1]
        return tuple(self.source[i] + e[i] for i in range(3))

    @property
    def source_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def target_dim(self) -> int:
        return len(self.matrix)


def mult_matrix(v, w, k: int) -> MultMap:
    """Multiplication by x_k on fibers: the inclusion F_w <= F_{w + e_k}
    in the fibers' bases.  Into C^2 a column is the source vector itself;
    into a line it is (1,), since a nonzero source is that same line."""
    if type(k) is not int or k not in (1, 2, 3):
        raise ValueError(f"direction k must be 1, 2 or 3, got {k!r}")
    params = ReflexiveParams.of(v)
    w = _int_triple(w)
    src = fiber(params, w)
    tgt = fiber(params, tuple(w[i] + _E[k - 1][i] for i in range(3)))
    cols = src.basis if tgt.dim == 2 else ((1,),) * src.dim
    matrix = tuple(tuple(col[r] for col in cols) for r in range(tgt.dim))
    return MultMap(w, k, matrix)


def sing_ideal(v) -> MonomialIdeal:
    """Monomial ideal cutting out the singular locus: pure powers
    (x1^v1, x2^v2, x3^v3)."""
    params = ReflexiveParams.of(v)
    return MonomialIdeal(
        ((params.v1, 0, 0), (0, params.v2, 0), (0, 0, params.v3))
    )


def line_submodule_dim(params: ReflexiveParams, w: Weight) -> int:
    """Graded dimension of the line submodule: one line of C^2 on the
    cone w >= v, 0 elsewhere.

    Every line of C^2 gives a submodule, since the cone is upward closed
    and F_w = C^2 on it; graded dimensions do not depend on the choice,
    so the class of e1 + e2, the line (1, 1), is fixed here.
    """
    return 1 if _dominates(w, params.triple) else 0


def _window_weights(window):
    """Iterate integer weights of a window: an int m >= 0 means [0, m]^3,
    a pair (lo, hi) of triples with lo <= hi means the closed box between
    them.  An empty window is a ValueError, so no check passes vacuously."""
    if isinstance(window, (tuple, list)):
        lo, hi = map(_int_triple, window)
    else:
        lo, hi = (0, 0, 0), _int_triple((window,) * 3)
    if any(a > b for a, b in zip(lo, hi)):
        raise ValueError(f"empty window from {lo} to {hi}")
    for a in range(lo[0], hi[0] + 1):
        for b in range(lo[1], hi[1] + 1):
            for c in range(lo[2], hi[2] + 1):
                yield (a, b, c)


@dataclass(frozen=True)
class DimCheckEntry:
    weight: Weight
    lhs_dim: int
    rhs_dim: int

    @property
    def ok(self) -> bool:
        return self.lhs_dim == self.rhs_dim


@dataclass
class DimCheckReport:
    """Weight-by-weight dimension comparison over a window."""

    name: str
    entries: list[DimCheckEntry]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def first_mismatch(self) -> DimCheckEntry | None:
        return next((e for e in self.entries if not e.ok), None)

    def to_json(self) -> str:
        return json.dumps([
            {"weight": list(e.weight), "lhs_dim": e.lhs_dim, "rhs_dim": e.rhs_dim,
             "ok": e.ok}
            for e in self.entries
        ])


def check_cosection_quotient(v, window) -> DimCheckReport:
    """Check dim (R0 / line submodule)_w == dim (ideal of the three
    doubled walls)_w over the window.

    The right side is the monomial ideal
    (x1^v1 x2^v2, x1^v1 x3^v3, x2^v2 x3^v3): its weight-w piece has
    dimension 1 exactly when w dominates one of the generator weights.
    """
    params = ReflexiveParams.of(v)
    gens = params.generator_weights()
    entries = []
    for w in _window_weights(window):
        lhs = fiber_dim(params, w) - line_submodule_dim(params, w)
        rhs = 1 if any(_dominates(w, g) for g in gens) else 0
        entries.append(DimCheckEntry(w, lhs, rhs))
    return DimCheckReport("cosection_quotient", entries)


def check_resolution_dims(v, window) -> DimCheckReport:
    """Check the graded Euler identity of the presentation
    0 -> L -> N1 + N2 + N3 -> R0 -> 0 over the window.

    N_i is free of rank one on the cone above g_i, L is the line module on
    the cone above v, so the identity reads

        sum_i [w >= g_i]  ==  [w >= v] + dim (R0)_w.
    """
    params = ReflexiveParams.of(v)
    gens = params.generator_weights()
    entries = []
    for w in _window_weights(window):
        lhs = sum(1 for g in gens if _dominates(w, g))
        rhs = line_submodule_dim(params, w) + fiber_dim(params, w)
        entries.append(DimCheckEntry(w, lhs, rhs))
    return DimCheckReport("resolution_dims", entries)
