#!/usr/bin/env python3
"""Reproduce the full numerical study in one go.

Writes, under --out (default ./out):
  * spectrum tables for n = 1, 2, 3 (closed form vs two-grid extrapolation),
  * Fourier-mode tables on H^1 for both equatorial matching classes,
  * all four verification suites,
  * the pole-to-pole geodesic trace.

Prints, and does not write:
  * the Gamma-condition roots next to the closed forms,
  * Poincare estimates (radial, and the exploratory full H^1 variant).

Every underlying command is also reachable through the `hprofile` CLI; this
script just sequences them and prints a short summary.
"""
import argparse
import os
import sys

import numpy as np

from hprofile.cli import RunConfig, run
from hprofile.geometry import ProfileParams
from hprofile.spectrum import (eigencondition_even_roots,
                               eigencondition_odd_roots,
                               poincare_constant_estimate, radial_eigenvalue)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out")
    ap.add_argument("--grid", type=int, default=1000)
    ap.add_argument("--mode-grid", type=int, default=400)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    failures = 0
    for n in (1, 2, 3):
        cfg = RunConfig(command="spectrum", n=n, k_max=8, grid=args.grid,
                        out_dir=args.out, fmt="csv", plot=True)
        failures += run(cfg) != 0
        print(f"spectrum n={n}: wrote {args.out}/spectrum_{n}.csv")

    print("\nGamma-condition roots vs closed form:")
    for n in (1, 2):
        params = ProfileParams(n)
        lmax = 9 * (9 + 2 * n) + 1.0
        roots = sorted(eigencondition_even_roots(lmax, params)
                       + eigencondition_odd_roots(lmax, params))
        closed = [radial_eigenvalue(k, params) for k in range(1, 9)]
        dev = max(abs(r - c) for r, c in zip(roots, closed))
        print(f"  n={n}: first 8 roots {np.round(roots[:8], 10)}, "
              f"max |root - closed| = {dev:.2e}")

    for matching in ("continuity", "antisymmetry"):
        cfg = RunConfig(command="modes", n=1, k_range=tuple(range(5)),
                        grid=args.mode_grid, count=6, matching=matching,
                        out_dir=args.out, fmt="json")
        code = run(cfg)
        failures += code != 0
        os.replace(os.path.join(args.out, "modes_1.json"),
                   os.path.join(args.out, f"modes_1_{matching}.json"))
        print(f"modes ({matching}): wrote {args.out}/modes_1_{matching}.json")

    mu, cp = poincare_constant_estimate(ProfileParams(1), args.grid)
    print(f"\nPoincare, radial restriction (n=1): mu = {mu:.6f}, "
          f"C_P = {cp:.6f}")
    mu_f, cp_f = poincare_constant_estimate(ProfileParams(1), args.grid,
                                            include_modes=True,
                                            mode_grid=args.mode_grid)
    print(f"Poincare, with Fourier modes (n=1, exploratory; the mode "
          f"problems are non-self-adjoint): mu = {mu_f:.6f}, C_P = {cp_f:.6f}")

    for suite in ("identities", "green", "orthogonality", "geometry"):
        cfg = RunConfig(command="verify", n=1, suite=suite, out_dir=args.out)
        code = run(cfg)
        failures += code != 0
        os.replace(os.path.join(args.out, "verify_1.json"),
                   os.path.join(args.out, f"verify_1_{suite}.json"))
        print(f"verify {suite}: exit {code}")

    cfg = RunConfig(command="geodesic", n=1, plast=2.0, steps=10_000,
                    out_dir=args.out)
    failures += run(cfg) != 0
    print(f"geodesic: wrote {args.out}/geodesic_1.csv")

    print(f"\n{'OK' if failures == 0 else 'FAILED'} "
          f"({failures} command(s) failed)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
