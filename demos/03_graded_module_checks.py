"""Fibers and multiplication maps of the rank-2 graded module for v.

Run with: python demos/03_graded_module_checks.py
"""

from quotbox import (
    ReflexiveParams,
    check_cosection_quotient,
    check_resolution_dims,
    fiber,
    mult_matrix,
    sing_ideal,
)

v = ReflexiveParams(2, 1, 1)
print(f"v = {v.triple}; generator weights {v.generator_weights()}")

print("\nEach fiber is a subspace of C^2: all of it on the cone above v,")
print("one of three fixed lines where w >= 0 lies below v in one")
print("coordinate only, and 0 elsewhere:")
for w in [(0, 0, 0), (2, 1, 0), (2, 0, 1), (1, 1, 1), (2, 1, 1), (3, 2, 2)]:
    basis = fiber(v, w)
    print(f"  w={w}: dim {len(basis)}  basis {basis}")

print("\nMultiplication matrices are the inclusions of one fiber in the")
print("next, in the fibers' bases; entries stay in 0, 1:")
for (w, k) in [((2, 1, 0), 3), ((0, 1, 1), 1), ((2, 1, 1), 1)]:
    target = tuple(wi + (i == k) for i, wi in enumerate(w, 1))
    print(f"  x_{k}: {w} -> {target}: {mult_matrix(v, w, k)}")

print("\nThe singular locus is cut out by pure powers; its colength is")
print("the box volume:")
ideal = sing_ideal(v)
print(f"  generators {ideal.generators}, colength {ideal.colength()}")

print("\nTwo structural identities, checked weight by weight on a window;")
print("a failure names the index of the first bad weight in lex order:")
cosec = check_cosection_quotient(v, max(v.triple) + 3)
resol = check_resolution_dims(v, max(v.triple) + 3)
print(f"  quotient by the distinguished line vs wall ideal: "
      f"{'ok' if cosec.ok else f'weight #{cosec.first_mismatch}'} "
      f"({len(cosec.lhs)} weights)")
print(f"  three-line-bundle presentation dimension count: "
      f"{'ok' if resol.ok else f'weight #{resol.first_mismatch}'} "
      f"({len(resol.lhs)} weights)")
