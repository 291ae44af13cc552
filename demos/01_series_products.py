"""Closed-form series: MacMahon's function and box-bounded products.

Run with: python demos/01_series_products.py
"""

from quotbox import box_product, macmahon, quot_closed_form

print("MacMahon's function counts plane partitions by total size:")
m = macmahon(10)
print(" ", m)

print("\nIts coefficients grow quickly; the series is a product of")
print("geometric factors (1 - q^k)^(-k), all handled exactly:")
for n in (5, 10):
    print(f"  coefficient of q^{n}: {m[n]}")

print("\nRestricting to partitions inside an A x B x C box gives a")
print("polynomial, symmetric under permuting the box sides and")
print("palindromic about half the volume:")
for v in [(2, 2, 2), (1, 2, 3), (3, 2, 1)]:
    bp = box_product(v)
    print(f"  box {v}: {list(bp.coeffs)}  degree {bp.degree()}")

print("\nSquaring MacMahon and multiplying by a box polynomial predicts")
print("the Euler characteristic series of the quotient loci studied in")
print("the fixed-locus demos:")
for v in [(1, 1, 1), (2, 2, 2)]:
    print(f"  v={v}: {list(quot_closed_form(v, 4).coeffs)}")

print("\nSeries arithmetic is order-strict; mixing truncation orders is")
print("an error rather than a silent loss of precision:")
try:
    macmahon(4) + macmahon(5)
except ValueError as exc:
    print(" ", exc)
