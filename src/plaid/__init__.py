"""Exact-arithmetic construction and verification of the plaid model.

Tilings, distinguished polygons, copying phenomena and the associated
polytope-exchange dynamics for even rational parameters, all in integer or
exact field arithmetic, with desk-scale verification sweeps for every
identity the construction rests on.  The package root exposes only
``__version__``; import from the submodules.
"""

__version__ = "0.1.0"
