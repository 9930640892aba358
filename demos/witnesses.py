"""The two hand-checkable witnesses, printed step by step.

1. Exoticness: the span of {u_g f_g u_v} is a proper invariant
   subalgebra — the vector x = u_t(u_0 - u_{e1}) is orthogonal to every
   spanning element but pairs to 1 against u_t, so u_t stays outside.
2. The Cantor-model commutation failure: neither signed candidate
   ½·u_g(1 ± f̃_B) commutes with the indicator involution f̃_A.
"""

from fractions import Fraction

from isrlab.algebra import combine, inner_product, unit
from isrlab.f2 import F2Matrix, F2Vector
from isrlab.groups import Affine, Cantor
from isrlab.zoo import build_mexo, cantor_case3_witness


def exoticness():
    spec = build_mexo(2)
    t = F2Matrix.transvection(1, 2)
    ut = unit(Affine.matrix(t))
    x = ut * (unit(Affine.vector(F2Vector(0))) - unit(Affine.vector(F2Vector.basis(1))))
    # tau(x* b) = <x, b>: a sum over the common support, with no product
    worst = max(abs(inner_product(x, b).re) for b in spec._distinct)
    print(f"max |tau(x* b)| over the {len(spec._distinct)} distinct of "
          f"{len(spec.basis)} spanning elements: {worst}")
    print(f"tau(x* u_t) = {inner_product(x, ut)}  (nonzero => u_t outside the span)")


def cantor_rows():
    sw = list(range(4))
    sw[1], sw[3] = 3, 1
    g = Cantor.perm(2, tuple(sw))
    f_a = unit(Cantor.indicator(3, {0, 1}))
    f_b = unit(Cantor.indicator(2, {1, 3}))
    one = unit(Cantor.identity())
    half = Fraction(1, 2)
    for sgn in (1, -1):
        cand = unit(g) * combine(half, one, sgn * half, f_b)
        left, right = cand * f_a, f_a * cand
        print(f"\nsign {sgn:+d}:")
        print(f"  E(g)·f_A = {left!r}")
        print(f"  f_A·E(g) = {right!r}")
        print(f"  equal? {left == right}")
    print(f"\nwitness verdict (both signs fail to commute): {cantor_case3_witness()}")


if __name__ == "__main__":
    exoticness()
    cantor_rows()
