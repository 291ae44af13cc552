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
    stratum_euler_oracle_fp,
)

v = (1, 1, 1)
print(f"v = {v}: fixed quotients of colength n are graded submodules")
print("with dimension-drop profiles (coprofiles) summing to n.\n")

for n in (1, 2):
    summary = fixed_locus_summary(v, n)
    print(f"colength {n}: {len(summary.strata)} strata, total Euler "
          f"characteristic {summary.total}")
    for rec in summary.strata:
        cells = ", ".join(f"{w}:{c}" for w, c in rec.coprofile.entries)
        tag = "" if rec.feasible else "   (infeasible)"
        print(f"  [{cells}] -> {rec.euler}{tag}")
    print()

print("A drop at the corner weight alone is not a valid profile: the")
print("three generator fibers push distinct lines into the corner, so")
print("the would-be stratum is empty.  Building it by hand shows the")
print("constraint system noticing:")
corner = Coprofile((((1, 1, 1), 1),))
cs = profile_constraint_system(v, corner)
print(f"  infeasible: {cs.infeasible}, forced lines {cs.fixed_lines}")
print(f"  engine: {stratum_euler(cs)}   "
      f"field oracle: {stratum_euler_oracle_fp(cs)}\n")

print("A feasible stratum has a consistent constraint system, yet it")
print("can still be empty, when links join two differently forced lines:")
summary = fixed_locus_summary(v, 5)
feasible = [rec for rec in summary.strata if rec.feasible]
empty = sum(1 for rec in feasible if rec.euler == 0)
print(f"  colength 5: {len(summary.strata)} strata, {len(feasible)} feasible, "
      f"{empty} of those with Euler characteristic 0\n")

print("Summing strata for each n gives the engine's series, which")
print("matches the closed form:")
for u in [(1, 1, 1), (2, 2, 2), (1, 2, 3)]:
    got = quot_series(u, 3)
    want = quot_closed_form(u, 3)
    marker = "ok" if got == want else "MISMATCH"
    print(f"  v={u}: engine {list(got.coeffs)}  closed {list(want.coeffs)}  "
          f"{marker}")
