"""Workloads of the quotbox benchmark: seeded inputs, checks and their gate.

A workload is a fixed list of checks.  Each check is one public quotbox
call (timed) and a judge (untimed) that decides whether the returned
result is correct.  The seed only chooses the orientation of the triples,
never their shapes, so every seed asks for the same amount of work and
the spread across seeds measures the machine, not the input mix.

The checks look up ``quotbox.<name>`` when they run, not when they are
built, so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("product-deep", "product-wide", "closed-forms")

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures"

# Sorted shapes of the product-wide triples: largest entry 4..8, the other
# two entries 1 and 1 or 1 and 2, so the candidate window grows while the
# strata count stays near 1,400 per triple at order 5.
WIDE_SHAPES = (
    (1, 1, 4), (1, 2, 4), (1, 1, 5), (1, 2, 6),
    (1, 1, 7), (1, 2, 7), (1, 1, 8), (1, 2, 8),
)


@dataclass(frozen=True)
class Check:
    label: str
    call: Callable[[], Any]
    judge: Callable[[Any], bool]


def _data_lines(name):
    with open(FIXTURES / name) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line


def golden_series() -> dict:
    """{v: engine series prefix} from the test fixture of golden series."""
    out = {}
    for line in _data_lines("quot_series.txt"):
        head, _, tail = line.partition("|")
        key = tuple(int(t) for t in head.split())
        out[key[:3]] = [int(t) for t in tail.split()]
    return out


def plane_partition_counts() -> list[int]:
    table = dict(
        (int(n), int(c)) for n, c in (line.split() for line in _data_lines(
            "plane_partition_counts.txt"))
    )
    return [table[n] for n in range(len(table))]


def macmahon_sigma2(order: int) -> list[int]:
    """MacMahon coefficients from n*a_n = sum_k sigma_2(k) * a_(n-k).

    An independent route to the closed form: the library multiplies
    inverted factors instead.
    """
    sigma2 = [0] + [
        sum(d * d for d in range(1, k + 1) if k % d == 0) for k in range(1, order + 1)
    ]
    a = [1]
    for n in range(1, order + 1):
        total = sum(sigma2[k] * a[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError("sigma_2 recurrence left a remainder")
        a.append(total // n)
    return a


def box_polynomial_enum(v) -> list[int]:
    """Size polynomial of plane partitions in a v1 x v2 x v3 box, by
    enumerating height matrices cell by cell."""
    v1, v2, v3 = v
    counts = [0] * (v1 * v2 * v3 + 1)

    def fill(cell, rows, size):
        if cell == v1 * v2:
            counts[size] += 1
            return
        i, j = divmod(cell, v2)
        cap = v3
        if i:
            cap = min(cap, rows[(i - 1) * v2 + j])
        if j:
            cap = min(cap, rows[cell - 1])
        for h in range(cap + 1):
            rows.append(h)
            fill(cell + 1, rows, size + h)
            rows.pop()

    fill(0, [], 0)
    return counts


def _mul(a, b, order):
    return [
        sum(a[i] * b[n - i] for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1))
        for n in range(order + 1)
    ]


def _product_check(quotbox, v, order, guard, golden) -> Check:
    prefix = golden.get(v, [])[: order + 1]

    def judge(rep):
        return (
            rep.ok
            and len(rep.lhs) == order + 1
            and rep.lhs == rep.rhs
            and rep.lhs[: len(prefix)] == prefix
        )

    return Check(
        f"product v={v} order={order}",
        lambda: quotbox.verify_product_formula(v, order, guard=guard),
        judge,
    )


def _report_check(label, call) -> Check:
    return Check(label, call, lambda rep: rep.ok and rep.lhs == rep.rhs)


def _closed_form_checks(quotbox, rng, tiny) -> list[Check]:
    stanley_v = tuple(rng.sample((1, 1, 2) if tiny else (3, 3, 4), 3))
    dp_v = (2, 2, 2) if tiny else (5, 5, 5)
    hilb_v = tuple(rng.sample((1, 1, 2) if tiny else (2, 2, 2), 3))
    pairs_order = 4 if tiny else 12
    qcf_v, qcf_order = (3, 3, 3), 10 if tiny else 100

    # References are built on first use, inside the untimed judge.
    @functools.cache
    def pairs():
        pp = plane_partition_counts()
        return _mul(pp, pp, pairs_order)

    @functools.cache
    def qcf_expected():
        m = macmahon_sigma2(qcf_order)
        return _mul(_mul(m, m, qcf_order), box_polynomial_enum(qcf_v), qcf_order)

    def dp_call():
        return (
            quotbox.box_partition_polynomial_dp(dp_v).coeffs,
            quotbox.box_product(dp_v).coeffs,
        )

    return [
        _report_check(f"stanley v={stanley_v}", lambda: quotbox.verify_stanley(stanley_v)),
        Check(f"dp v={dp_v} against box_product", dp_call, lambda r: r[0] == r[1]),
        _report_check(f"hilb v={hilb_v}", lambda: quotbox.verify_hilb_counts(hilb_v)),
        Check(
            f"rank2free order={pairs_order}",
            lambda: quotbox.verify_rank2_free(pairs_order),
            lambda rep: rep.ok and rep.lhs == rep.rhs == pairs(),
        ),
        Check(
            f"quot_closed_form v={qcf_v} order={qcf_order}",
            lambda: quotbox.quot_closed_form(qcf_v, qcf_order),
            lambda s: list(s.coeffs) == qcf_expected(),
        ),
    ]


def build(name: str, seed: int, tiny: bool = False) -> list[Check]:
    """The checks of one pass of workload ``name`` for ``seed``.

    ``tiny`` keeps the same checks at sizes that run in milliseconds; it
    serves the warm-up check and the benchmark's self-test.
    """
    import quotbox

    rng = random.Random(f"{name}:{seed}")
    if name == "product-deep":
        golden = golden_series()
        order = 3 if tiny else 6
        vs = [(1, 1, 1), (2, 2, 2), tuple(rng.sample((1, 2, 3), 3))]
        return [_product_check(quotbox, v, order, 6, golden) for v in vs]
    if name == "product-wide":
        golden = golden_series()
        order = 2 if tiny else 5
        vs = [tuple(rng.sample(shape, 3)) for shape in WIDE_SHAPES]
        return [_product_check(quotbox, v, order, 5, golden) for v in vs]
    if name == "closed-forms":
        return _closed_form_checks(quotbox, rng, tiny)
    raise ValueError(f"unknown workload {name!r}")
