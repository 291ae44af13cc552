"""Stratifying the torus-fixed quotients and evaluating Euler numbers.

Run with: python demos/04_fixed_locus_walkthrough.py
"""

from quotbox import fixed_locus_summary, quot_closed_form, quot_series

v = (1, 1, 1)
print(f"v = {v}: fixed quotients of colength n are graded submodules")
print("with dimension-drop profiles (coprofiles) summing to n.  The")
print("summary lists the strata whose constraint system is consistent.\n")

for n in (1, 2):
    summary = fixed_locus_summary(v, n)
    print(f"colength {n}: {len(summary.strata)} consistent strata, total "
          f"Euler characteristic {summary.total}")
    for rec in summary.strata:
        cells = ", ".join(f"{w}:{c}" for w, c in rec.coprofile.entries)
        print(f"  [{cells}] -> {rec.euler}")
    print()

print("A drop at the corner weight alone is not a valid profile: the")
print("three generator fibers push distinct lines into the corner, so")
print("the would-be stratum is empty, and the search never lists it.")
print("No colength-1 stratum has the corner in its support:")
corner = (1, 1, 1)
supports = [rec.coprofile.support for rec in fixed_locus_summary(v, 1).strata]
print(f"  supports {supports}")
print(f"  corner {corner} in one of them: {any(corner in s for s in supports)}\n")

print("A consistent stratum can still be empty, when links join two")
print("differently forced lines:")
summary = fixed_locus_summary(v, 5)
empty = sum(1 for rec in summary.strata if rec.euler == 0)
print(f"  colength 5: {len(summary.strata)} consistent strata, {empty} of "
      f"them with Euler characteristic 0\n")

print("The engine's series sums these strata for each n, reusing the")
print("sum past each x1-layer across branches, and matches the closed form:")
for u in [(1, 1, 1), (2, 2, 2), (1, 2, 3)]:
    got = quot_series(u, 3)
    want = quot_closed_form(u, 3)
    marker = "ok" if got == want else "MISMATCH"
    print(f"  v={u}: engine {list(got.coeffs)}  closed {list(want.coeffs)}  "
          f"{marker}")
