"""Desk-scale laboratory for distributed set-join protocols.

Packed F2/Boolean linear algebra, exact simulation of distributed
Grover-style search, the output-sensitive Boolean and F2 matrix product
protocols, embedding constructions, and a communication-cost ledger.
"""

__version__ = "0.1.0"
