"""costpcf: a call-by-push-value PCF with an explicit cost effect.

Programs are classified by a polarized type system, executed by a
cost-counting abstract machine, and interpreted into a delay/cost monad;
the harness checks that the two semantics agree.
"""

from .denote import denote_closed
from .syntax import parse, print_term
from .typecheck import infer

__all__ = ["denote_closed", "infer", "parse", "print_term"]
