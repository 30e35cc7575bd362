"""Exact invariants of rank-1 quotient problems and ruled surfaces.

Four layers, each importable on its own: the exterior algebra of the
curve (exterior), integer index bookkeeping (indices), the closed-form
counts and Seiberg-Witten values (invariants) together with the
independent Segre-series oracle (picard), and the slant-product algebra
with its parser (slant).  The checks module runs the cross-validation
grids, and the cli module exposes all of it as the ruledinv command.

Names come from their layer module (from ruledinv.exterior import
Multivector); the package itself imports nothing, so a ruledinv request
loads only the layers its subcommand uses.
"""

__version__ = "0.1.0"
