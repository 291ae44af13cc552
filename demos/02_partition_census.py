"""Plane partitions three ways: enumeration, DP, and the product formula.

Run with: python demos/02_partition_census.py
"""

from quotbox import (
    box_partition_polynomial_dp,
    box_product,
    count_box_partitions,
    enumerate_plane_partitions,
    macmahon,
    monomial_ideal_to_partition,
    partition_to_monomial_ideal,
)

print("Plane partitions of n, by exhaustive enumeration vs the series:")
m = macmahon(8)
for n in range(9):
    count = len(enumerate_plane_partitions(n))
    marker = "ok" if count == m[n] else "MISMATCH"
    print(f"  n={n}: enumerated {count:4d}   series {m[n]:4d}   {marker}")

print("\nA partition is a weakly decreasing height matrix; its boxes form")
print("a staircase in the octant.  The three partitions of 2:")
for p in enumerate_plane_partitions(2):
    print(f"  rows={p.rows}  boxes={sorted(p.boxes())}")

print("\nBox-bounded counts agree three ways (enumeration, transfer DP,")
print("product formula), here for a 2 x 2 x 2 box:")
v = (2, 2, 2)
dp = box_partition_polynomial_dp(v)
prod = box_product(v)
brute = count_box_partitions(v)
print(f"  enumeration: {brute}")
print(f"  DP:          {list(dp.coeffs)}")
print(f"  product:     {list(prod.coeffs)}")

print("\nThe staircase correspondence sends a partition to the monomial")
print("ideal whose complement is its box set:")
p = enumerate_plane_partitions(3)[0]
ideal = partition_to_monomial_ideal(p)
print(f"  partition rows {p.rows}")
print(f"  ideal generators {ideal.generators}, colength {ideal.colength()}")
print(f"  round trip ok: {monomial_ideal_to_partition(ideal) == p}")
