"""Stratifying the torus-fixed quotients and evaluating Euler numbers.

Run with: python demos/04_fixed_locus_walkthrough.py
"""

from quotbox import (
    Coprofile,
    fixed_locus_summary,
    profile_constraint_system,
    quot_series,
    quot_closed_form,
    stratum_euler,
)

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
print("the would-be stratum is empty.  Building it by hand shows the")
print("constraint system noticing:")
corner = Coprofile((((1, 1, 1), 1),))
cs = profile_constraint_system(v, corner)
print(f"  infeasible: {cs.infeasible}, forced lines {cs.fixed_lines}")
print(f"  engine: {stratum_euler(cs)}\n")

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
