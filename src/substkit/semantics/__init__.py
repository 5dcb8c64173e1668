"""Finite-set strong-monad semantics for the call-by-value case study.

The package re-exports finite sets, the monads and the model.  The
interpreter (:mod:`.denote`) and the check suites (:mod:`.checks`) are
imported from their own modules, so the monad laws load neither.
"""

from .finset import EnumerationTooLarge, FinSet, FunSpace
from .model import (Denotation, Model, context_space, identity_sem_env,
                    interp_size, interpret_type, model, precompose, projection,
                    subst_denotation)
from .monads import (BUNDLED, ExceptionMonad, IdentityMonad, Monoid, NONE,
                     OptionMonad, PowersetMonad, StateMonad, StrongMonad,
                     UnsupportedCapability, WriterMonad, check_monad_laws,
                     monad_by_name, z3_monoid)

__all__ = [
    "BUNDLED", "Denotation", "EnumerationTooLarge", "ExceptionMonad", "FinSet",
    "FunSpace", "IdentityMonad", "Model", "Monoid", "NONE", "OptionMonad",
    "PowersetMonad", "StateMonad", "StrongMonad", "UnsupportedCapability",
    "WriterMonad", "check_monad_laws", "context_space", "identity_sem_env",
    "interp_size", "interpret_type", "model", "monad_by_name", "precompose",
    "projection", "subst_denotation",
]
