"""Finite-set strong-monad semantics for the call-by-value case study."""

from .checks import (check_compatibility, check_sem_action_axioms,
                     check_substitution_lemma_exhaustive,
                     check_substitution_lemma_random)
from .denote import (Interpreter, NonConvergence, denote, elgot_iterate,
                     elgot_unrolling_oracle, kleene_fixpoint)
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
    "FunSpace", "IdentityMonad", "Interpreter", "Model", "Monoid", "NONE",
    "NonConvergence", "OptionMonad", "PowersetMonad", "StateMonad",
    "StrongMonad", "UnsupportedCapability", "WriterMonad",
    "check_compatibility", "check_monad_laws", "check_sem_action_axioms",
    "check_substitution_lemma_exhaustive", "check_substitution_lemma_random",
    "context_space", "denote", "elgot_iterate", "elgot_unrolling_oracle",
    "identity_sem_env", "interp_size", "interpret_type", "kleene_fixpoint",
    "model", "monad_by_name", "precompose", "projection",
    "subst_denotation",
]
