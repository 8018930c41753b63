"""oscilab: a numerical laboratory for oscillating potentials and spectral
diagnostics of one-dimensional and radial Schrodinger/Dirac operators.
"""

__version__ = "0.1.0"
