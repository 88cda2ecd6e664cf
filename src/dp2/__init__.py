"""Exact computations on the degree-2 del Pezzo double plane.

The package models the blow-up of the plane at seven general points (the
double cover of the plane branched on a smooth quartic) purely through its
Picard lattice: the census of 56 exceptional curves, the covering involution
and its group cohomology, exact cohomology dimensions of line bundles,
Chern character arithmetic, and the Ext bookkeeping for the cyclic quaternion
order built from a disjoint pair of exceptional curves.  The ``replay``
module re-verifies every recorded numerical statement and the ``dp2`` command
line exposes the lot.  The library is used through its submodules, e.g.
``from dp2 import cohom``; importing the package loads none of them.
"""

__version__ = "0.1.0"
