"""Constructive normal-form and non-resonance toolkit for the cubic wave
equation on the circle: dispersion-relation machinery, small-divisor scans,
the order-4 Birkhoff normal form, KAM-type hypothesis checks, and symplectic
spectral simulation of the truncated system."""

__version__ = "0.1.0"
