#!/usr/bin/env python3
"""Walk a ray through the degeneracy locus and print the rank profile.

Uses the six-dimensional model of S3: the 2-form om drops from full
rank to rank 2 exactly on the plane x1 = x2 = x3 = 0, and the point
test certifies the transverse structure there (4-dimensional kernel,
3-dimensional gradient image, semi-definite wedge square).  The walk
approaches the locus along a ray and shows where float rank decisions
enter the undecided band.
"""

import argparse
from fractions import Fraction

from nsx.dsl import parse_scenario
from nsx.pointcheck import near_symplectic_at, rank_at
from nsx.runner import RunConfig, elaborate_scope
from nsx.scenarios import SUITE


def base_point():
    return {
        "t1": Fraction(1, 3),
        "t2": Fraction(-1, 2),
        "t3": Fraction(1, 5),
        "x1": Fraction(0),
        "x2": Fraction(0),
        "x3": Fraction(0),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ray", default="1,1,1",
                    help="direction in the (x1, x2, x3) fibre, comma-separated")
    ap.add_argument("--float-tail", action="store_true",
                    help="continue the walk into float offsets below 1e-6")
    args = ap.parse_args()

    text = {sid: t for sid, _anchor, t in SUITE}["S3"]
    scope = elaborate_scope(parse_scenario(text), RunConfig())
    om = scope.named("form", "om")
    direction = [Fraction(d) for d in args.ray.split(",")]

    offsets = [Fraction(1, 2) ** k for k in range(0, 13, 2)] + [Fraction(0)]
    if args.float_tail:
        offsets = offsets[:-1] + [1e-7, 1e-9, 1e-12, Fraction(0)]

    print(f"ray direction {args.ray} through {base_point()}\n")
    print(f"{'offset':>12}  {'rank':>4}  {'undecided':>9}  verdict")
    for eps in offsets:
        env = base_point()
        for name, d in zip(("x1", "x2", "x3"), direction):
            env[name] = d * eps if isinstance(eps, Fraction) else float(d) * eps
        r = rank_at(om, env)
        v = near_symplectic_at(om, env)
        label = "pass" if v.passed else v.reason
        shown = f"{float(eps):.1e}" if eps else "0"
        print(f"{shown:>12}  {r.rank:>4}  {str(r.undecided):>9}  {label}")
    print("\nthe rank drops to 2 only on the locus; the transverse data there")
    v = near_symplectic_at(om, base_point())
    print(f"kernel dim {v.kernel_dim}, image dim {v.image_dim}, "
          f"wedge-square sign {v.q_sign}, signature {v.q_signature}")


if __name__ == "__main__":
    main()
