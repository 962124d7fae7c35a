"""Discrete-log field arithmetic: build GF(q^n), inspect norms and subfields.

Every nonzero element is an exponent of a fixed primitive element g, so
multiplying is adding exponents and the Galois action is multiplying the
exponent by a power of q.  Zero rides along as the sentinel -1.
"""

from orbitforge import field as F
from orbitforge.field import make_field

ctx = make_field(3, 1, 4)  # GF(81) over GF(3)
print(f"{ctx!r}: size {ctx.size}, primitive polynomial {ctx.poly} (low degree first)")
print(f"g^1 has packed coordinate form {F.to_integer(ctx, 1)},",
      f"g^80 = {F.power(ctx, 1, 80)} (exponent 0 means the element 1)")

# the norm onto GF(9) multiplies the exponent by 1 + 9
y = 1  # the primitive element itself
norm = F.norm_map(ctx, 2, y)
print(f"\nnorm of g onto GF(9): exponent {norm}, lies in GF(9):",
      F.in_subfield(ctx, norm, 2))

# norms are surjective with fibers of equal size (q^n-1)/(q^(n/s)-1)
fibers = {}
for x in ctx.nonzero():
    fibers.setdefault(F.norm_map(ctx, 2, x), []).append(x)
sizes = sorted(set(len(v) for v in fibers.values()))
print(f"norm fibers over GF(81): {len(fibers)} values, each hit {sizes} times")

# additive structure is still available through the packed coordinates
a, b = 5, 17
print(f"\ng^5 + g^17 = g^{F.add(ctx, a, b)},  -g^5 = g^{F.neg(ctx, a)}")

# a bigger field in milliseconds: its 65535 powers of g are 256 lanes of 256
# consecutive powers, and one numpy step multiplies every lane by x
big = make_field(2, 1, 16)
print(f"\n{big!r}: size {big.size}, poly {big.poly}")
