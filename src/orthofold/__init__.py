"""Stratification toolkit for compact matrix group actions.

Computes stabilizers, slice representations, orbit-type and isostabilizer
decompositions, local-model fingerprints with the Klein partition they
induce, quotient dimension maps, and interval quotient models for a catalog
of concrete actions.
"""

__version__ = "0.1.0"
