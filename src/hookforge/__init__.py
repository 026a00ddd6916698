"""Exact-arithmetic verification of hook expansion identities.

The package machine-checks, with zero floating-point error, the identities
tying together hook lengths of partitions, standard Young tableaux, and
involutions: the hook-weight expansion of exp(t + z t^2/2), its involution
reformulation in q, the extend-retract corner identity, the corner-content
relations, and the supporting symmetric rational-function identities.

Each name is imported from the module that defines it (`hookforge.exact`,
`.partitions`, `.tableaux`, `.involutions`, `.identity`, `.cli`); the package
root imports nothing, so it offers no second path to any of them.
"""

__version__ = "0.1.0"
