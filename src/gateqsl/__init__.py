"""Quantum speed-limit bounds for unitary gates.

Lower bounds on the time needed to enact a unitary, parameterized only
by the trace modulus of the gate and gross statistics of the generating
energy spectrum, together with the exact minimal-time machinery
(eigenphase branch enumeration) used to verify them.
"""

__version__ = "0.1.0"
