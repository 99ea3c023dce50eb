#!/usr/bin/env python3
"""Accepted-fraction trend of the second Melnikov condition under kappa and
k-cutoff sweeps, as plottable CSV."""

import argparse
import sys

from wavekam.birkhoff import rescale, solve_homological
from wavekam.kamcheck import melnikov_sweep
from wavekam.polyham import build_p4
from wavekam.spectrum import AdmissibleSet, FrequencySystem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modes", default="1")
    ap.add_argument("--mass", type=float, default=1.31)
    ap.add_argument("--nu", type=float, default=1e-4)
    ap.add_argument("--kappas", default="1e-8,1e-7,1e-6,1e-5,5e-5")
    ap.add_argument("--kmax", type=int, default=10)
    ap.add_argument("--smax", type=int, default=40)
    ap.add_argument("--rho-grid", type=int, default=200)
    args = ap.parse_args()

    try:
        A = AdmissibleSet(int(x) for x in args.modes.split(","))
        kappas = [float(x) for x in args.kappas.split(",")]
        # melnikov_sweep's own check and `wavekam kamcheck`'s, made before the
        # normal form is built
        for kappa in kappas:
            if not 0.0 < kappa < args.nu:
                raise ValueError(f"need 0 < kappa < nu = {args.nu!r}, got {kappa!r}")
        if not A.normal_modes(args.smax):
            raise ValueError(f"--smax {args.smax} leaves no normal mode to check")
        fs = FrequencySystem(args.mass)
        # the normal form is built only for its near-resonance gate; the
        # sweep reads the frequency maps alone
        solve_homological(build_p4(max(A.n_bound + 2, 4), fs), fs, A)
        rnf = rescale(fs, A, args.nu)

        kmaxes = (args.kmax, 2 * args.kmax)
        # one sweep over every kappa per kmax; the rows are kappa-major
        sweeps = [melnikov_sweep(rnf, kappas, kmax, args.smax, points_per_dim=args.rho_grid)
                  for kmax in kmaxes]
        rows = [f"{kappa!r},{kmax},{rep.accepted_fraction!r},{rep.checked_count}"
                for kappa, reps in zip(kappas, zip(*sweeps))
                for kmax, rep in zip(kmaxes, reps)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # stdout gets the CSV only once every row is computed
    print("kappa,kmax,accepted_fraction,checked")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
