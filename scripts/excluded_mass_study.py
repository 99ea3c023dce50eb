#!/usr/bin/env python3
"""Grid-sampled measure of the mass set excluded by the small-divisor lower
bounds, swept over kappa and the k-cutoff, next to the kappa^tau N^iota bound
shape."""

import argparse
import sys

from wavekam.smalldiv import excluded_mass_sweep
from wavekam.spectrum import AdmissibleSet


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modes", default="1")
    ap.add_argument("--kappas", default="1e-8,1e-6,1e-4,1e-3,1e-2")
    ap.add_argument("--kmaxes", default="1,2,3")
    ap.add_argument("--smax", type=int, default=8)
    ap.add_argument("--grid", type=int, default=20000)
    args = ap.parse_args()

    try:
        A = AdmissibleSet(int(x) for x in args.modes.split(","))
        kappas = [float(x) for x in args.kappas.split(",")]
        Ns = [int(x) for x in args.kmaxes.split(",")]
        rows = [f"{est.parameters['kappa']!r},{est.parameters['N']},"
                f"{est.sampled_measure!r},{est.bound_shape!r},"
                f"{est.parameters['tau_d3']!r},{est.parameters['iota_d3']!r}"
                for est in excluded_mass_sweep(A, kappas, Ns, args.smax, grid=args.grid)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # stdout gets the CSV only once every row is computed
    print("kappa,kmax,excluded_fraction,bound_shape,tau_d3,iota_d3")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
