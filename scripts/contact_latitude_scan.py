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

With --certify the script proves the sign change in exact arithmetic
instead.  On P6, alpha is a polynomial form (its exp(c0) factors cancel),
so Omega = alpha /\ (d alpha)^2 has polynomial coefficients.  At a rational
point p of the unit sphere the frame v = e2 x p (e1 x p if that is 0),
w = p x v is rational and positively oriented for the outward normal,
since det(p, v, w) = |v|^2 > 0.  Omega(d/dz1, d/dz2, d/dz3, v, w) is then
an exact rational whose sign does not depend on the positive frame.  Two
points with opposite exact signs prove that the density vanishes
somewhere on the connected R^3 x S^2, so alpha is not a contact form
there.  The script exits 0 only if every constant shows both signs.
"""

import argparse
import math
import sys
from fractions import Fraction

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


# The base point and the two sphere points of the exact certificate.  The
# points come from the Pythagorean parametrization below: t = 1/8 gives
# x1 = 63/65, above every zero circle x1^2 = (K - 1) / (2 K) < 1/2, and
# t = 1 gives x1 = 0, below every one.
CERTIFY_BASE = {"z1": Fraction(5, 16), "z2": Fraction(-3, 8), "z3": Fraction(7, 16)}
CERTIFY_T = (Fraction(1, 8), Fraction(1))
CERTIFY_ROTATION = Fraction(1, 3)
CERTIFY_CONSTANTS = "5,10,20"


def sphere_point(t, s=CERTIFY_ROTATION):
    """The rational point x1 = (1 - t^2)/(1 + t^2) at radius 2t/(1 + t^2)
    from the x1 axis, turned by the rational angle with tangent half s."""
    x1, r = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    c, s_ = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
    p = (x1, r * c, r * s_)
    if sum(x * x for x in p) != 1:
        raise AssertionError(f"{p} is not on the unit sphere")
    return p


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def density_form():
    r"""Omega = alpha /\ (d alpha)^2 of S8 on P6, with Kp left symbolic."""
    text = {sid: t for sid, _anchor, t in SUITE}["S8"]
    scope = elaborate_scope(parse_scenario(text), RunConfig())
    alpha = scope.named("form", "alpha")
    return alpha.wedge(alpha.d().wedge_power(2))


def omega_on_frame(omega, k_value, p):
    """Omega(d/dz1, d/dz2, d/dz3, v, w) at the base point over p, with
    Kp = k_value, as an exact Fraction, or None if a value is a float.

    v and w have no z part, so only the components dz1 dz2 dz3 dx_a dx_b
    contribute, each times the 2x2 minor v_a w_b - v_b w_a.
    """
    v = _cross((0, 1, 0), p)
    if not any(v):
        v = _cross((1, 0, 0), p)
    w = _cross(p, v)
    env = dict(CERTIFY_BASE, x1=p[0], x2=p[1], x3=p[2], Kp=Fraction(k_value))
    total = Fraction(0)
    for idx, coeff in omega.comps.items():
        if idx[:3] != (0, 1, 2):
            continue
        value = evaluate(coeff, env)
        if not isinstance(value, Fraction):
            return None
        a, b = idx[3] - 3, idx[4] - 3
        total += value * (v[a] * w[b] - v[b] * w[a])
    return total


def certify(constants):
    """Print the exact certificate for each constant; True if every one
    shows opposite signs at its two points."""
    omega = density_form()
    points = [sphere_point(t) for t in CERTIFY_T]
    base = ", ".join(f"{c} = {v}" for c, v in CERTIFY_BASE.items())
    print(f"base point {base}; frame v = e2 x p, w = p x v\n")
    certified = True
    for k_value in constants:
        print(f"K = {k_value}, zero circle x1^2 = {Fraction(k_value - 1, 2 * k_value)}")
        signs = set()
        for p in points:
            value = omega_on_frame(omega, k_value, p)
            coords = ", ".join(map(str, p))
            if value is None:
                print(f"  p = ({coords}): not exact")
                certified = False
                continue
            sign = (value > 0) - (value < 0)
            signs.add(sign)
            print(f"  p = ({coords}), x1^2 = {p[0] ** 2}: Omega = {value} (sign {sign:+d})")
        if signs == {1, -1}:
            print("  opposite exact signs: the density vanishes on R^3 x S^2, so alpha is not contact\n")
        else:
            print("  no sign change certified\n")
            certified = False
    return certified


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--constants", default=None,
                    help="comma-separated values of the stabilizing constant "
                         "(default 2,5,10,20,100, or 5,10,20 with --certify)")
    ap.add_argument("--steps", type=int, default=1024,
                    help="polar-angle grid resolution per sweep")
    ap.add_argument("--chart", default="sphN", choices=("sphN", "sphS"),
                    help="sphere parametrization to sweep")
    ap.add_argument("--certify", action="store_true",
                    help="prove the sign change with exact values at two rational points")
    args = ap.parse_args()

    if args.certify:
        constants = [int(k) for k in (args.constants or CERTIFY_CONSTANTS).split(",")]
        sys.exit(0 if certify(constants) else 1)
    free = sweep_coefficient(args.chart)
    print(f"sweeping {args.chart}, {args.steps} polar steps, "
          f"{len(AUX_SETTINGS)} auxiliary settings\n")
    for k_text in (args.constants or "2,5,10,20,100").split(","):
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
