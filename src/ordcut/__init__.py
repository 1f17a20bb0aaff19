"""Exact symbolic computation with totally ordered abelian groups.

Modules:
  ordsets    segments and cuts of finite chains, with the adjoint triple;
  scalars    exact arithmetic for a + b*sqrt(d) and rank-one group kinds;
  lexgroups  finite lexicographic products, convex subgroups, morphisms;
  cuts       cut descriptors, invariance, classification, transport;
  hahnomega  omega-indexed lex sums and the tightened cut type;
  dsl / cli  the textual mini-language and command-line front end.
"""

from .errors import DomainError, ParseError

__all__ = ["DomainError", "ParseError"]
