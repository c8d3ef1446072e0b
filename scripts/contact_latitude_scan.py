#!/usr/bin/env python3
r"""Locate the sign change of the sphere-sweep density for each constant.

The suite's final three checks declare a uniform sign for
alpha /\ (d alpha)^2 over the unit-sphere parametrizations, and the
sampler reports mixed signs instead.  This script sweeps the polar
angle on the north chart, brackets every zero of the top coefficient,
and compares each bracketed root against the closed form

    x1^2 = (K - 1) / (2 K)

which keeps a zero circle strictly inside the sphere for every K > 1.
Raising K moves the circle toward x1^2 = 1/2 but never off the sphere,
so no choice of the constant can make the declared checks pass.
"""

import argparse
import math

from nsx.charts import DForm
from nsx.dsl import parse_scenario
from nsx.runner import RunConfig, elaborate_scope
from nsx.scenarios import SUITE
from nsx.symexpr import evaluate, rat

# Dyadic auxiliary settings, several of them: the bracketed roots must
# not move when the base coordinates do, or the circle story is wrong.
AUX_SETTINGS = (
    {"z1": 0.3125, "z2": -0.375, "z3": 0.4375, "ph": 0.7},
    {"z1": -0.15625, "z2": 0.0625, "z3": -0.71875, "ph": 2.3},
    {"z1": 0.0, "z2": 0.5, "z3": 0.25, "ph": 4.1},
)


def sweep_coefficient(chart_map_name):
    r"""Top coefficient of alpha /\ (d alpha)^2 pulled back to the sphere chart.

    The constant Kp is left symbolic; bind it with .subs per scan.
    """
    text = {sid: t for sid, _anchor, t in SUITE}["S8"]
    scope = elaborate_scope(parse_scenario(text), RunConfig())
    beta = scope.named("map", chart_map_name).pullback(scope.named("form", "alpha"))
    top = beta.wedge(beta.d().wedge_power(2))
    (coeff,) = top.comps.values()
    return coeff


def bind(coeff, k_value):
    return coeff.subs({"Kp": rat(k_value)})


def bracket_roots(coeff, aux, steps):
    """Sign profile over th in (0, pi) plus the sign-change brackets."""
    values = []
    for i in range(steps):
        th = (i + 0.5) * math.pi / steps
        values.append((th, float(evaluate(coeff, dict(aux, th=th)))))
    brackets = [
        (values[i][0], values[i + 1][0])
        for i in range(len(values) - 1)
        if (values[i][1] < 0) != (values[i + 1][1] < 0)
    ]
    pos = sum(1 for _t, v in values if v > 0)
    neg = sum(1 for _t, v in values if v < 0)
    return brackets, pos, neg


def bisect(coeff, aux, lo, hi):
    flo = float(evaluate(coeff, dict(aux, th=lo)))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = float(evaluate(coeff, dict(aux, th=mid)))
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--constants", default="2,5,10,20,100",
                    help="comma-separated values of the stabilizing constant")
    ap.add_argument("--steps", type=int, default=1024,
                    help="polar-angle grid resolution per sweep")
    ap.add_argument("--chart", default="sphN", choices=("sphN", "sphS"),
                    help="sphere parametrization to sweep")
    args = ap.parse_args()

    free = sweep_coefficient(args.chart)
    print(f"sweeping {args.chart}, {args.steps} polar steps, "
          f"{len(AUX_SETTINGS)} auxiliary settings\n")
    for k_text in args.constants.split(","):
        k_value = int(k_text)
        coeff = bind(free, k_value)
        predicted = (k_value - 1) / (2 * k_value)
        print(f"K = {k_value:<4d} predicted x1^2 = {predicted:.12f}")
        for idx, aux in enumerate(AUX_SETTINGS):
            brackets, pos, neg = bracket_roots(coeff, aux, args.steps)
            roots = [bisect(coeff, aux, lo, hi) for lo, hi in brackets]
            squares = ", ".join(f"{math.cos(r) ** 2:.12f}" for r in roots)
            worst = max(
                (abs(math.cos(r) ** 2 - predicted) for r in roots), default=float("nan")
            )
            print(f"  aux {idx}: {len(roots)} roots, cos^2 = [{squares}], "
                  f"max |diff| = {worst:.2e}, sign split {pos}+/{neg}-")
        print()
    print("every constant leaves a zero circle inside the sphere; "
          "a uniform sign over the sweep is not attainable.")


if __name__ == "__main__":
    main()
