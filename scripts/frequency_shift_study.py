#!/usr/bin/env python3
"""Sweep the action scale nu and compare the measured tangential frequency
against omega + M I.  All nu values run as one integrate_batch call, and
the CSV goes to stdout only once every run has been fitted, one row per
run and mode:

    nu, mode, omega_linear, omega_predicted, omega_extracted, gap, tolerance

The gap should scale like nu^2 (degree-6 remainder), well inside the
O(nu^(3/2)) tolerance of the modulation law.
"""

import argparse
import sys
import time

import numpy as np

from wavekam.birkhoff import frequency_matrix
from wavekam.simulate import (BlowUpError, FrequencyExtractionError, SimConfig,
                              extract_frequencies, integrate_batch)
from wavekam.spectrum import AdmissibleSet, FrequencySystem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--modes", default="1")
    ap.add_argument("--mass", type=float, default=1.3)
    ap.add_argument("--nus", default="1e-3,2e-3,4e-3")
    ap.add_argument("--cutoff", type=int, default=32)
    ap.add_argument("--tmax", type=float, default=2000.0)
    ap.add_argument("--dt", type=float, default=5e-4)
    args = ap.parse_args()

    try:
        A = AdmissibleSet(int(x) for x in args.modes.split(","))
        fs = FrequencySystem(args.mass)
        nus = [float(x) for x in args.nus.split(",")]
        # every run's configuration is checked before the batch starts
        cfgs = [SimConfig(cutoff=args.cutoff, mass=args.mass, A=A,
                          actions={a: nu for a in A.modes}, dt=args.dt,
                          T=args.tmax, store_every=100) for nu in nus]
        M = frequency_matrix(fs, A)
        omega = fs.omega_vector(A)
        t0 = time.perf_counter()
        trajs = integrate_batch(cfgs)
        took = time.perf_counter() - t0
        rows, gaps = [], []
        for nu, traj in zip(nus, trajs):
            extracted = extract_frequencies(traj, A)
            shift = M @ np.full(A.n, nu)
            for i, a in enumerate(A.modes):
                predicted = float(omega[i] + shift[i])
                gap = abs(extracted[a] - predicted)
                gaps.append(gap)
                rows.append(f"{nu!r},{a},{float(omega[i])!r},{predicted!r},"
                            f"{extracted[a]!r},{gap!r},{10 * nu ** 1.5!r}")
    except (ValueError, BlowUpError, FrequencyExtractionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("nu,mode,omega_linear,omega_predicted,omega_extracted,gap,tolerance")
    print("\n".join(rows))
    print(f"# integrate_batch over {len(nus)} nu took {took:.2f} s", file=sys.stderr)
    if len(nus) >= 2:
        slope = float(np.polyfit(np.log(nus), np.log(gaps[::A.n][:len(nus)]), 1)[0])
        print(f"# fitted gap exponent: {slope:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
