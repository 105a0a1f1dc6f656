"""Exact-arithmetic toolkit for radial convolution operators on free groups.

Words and spheres, the exact radial convolution algebra, discrete
Lorentz norms, set-search norm estimators and truncated column sups,
and composite verifiers that certify the weak-type operator norm bounds
at desk scale.  fgw.oracle holds the brute-force ground truth they are
tested against; no certifier module imports it.  Each name is reached
as fgw.<module>.<name>, and this file imports nothing.
"""

__version__ = "0.1.0"
