"""Exact q-dimensions, residues mod q^n - 1 and cyclic sieving of crystals.
The package exports only ``__version__``: each public name is imported from
its module, one of qpoly, cartan, qdim, partitions, tableaux, csp, errors, cli."""

__version__ = "0.1.0"
