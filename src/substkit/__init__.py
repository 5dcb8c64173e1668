"""Scope-safe abstract syntax from binding signatures, with law checking.

The package derives terms, renaming, capture-avoiding and metavariable
substitution, and generic folds from a declared sorting system and operator
table; verifies the algebraic laws of the substitution tensor on explicit
finite presheaves; and instantiates a call-by-value case study (128 fragment
combinations) with finite-set strong-monad semantics.

The package re-exports sorts, contexts and renamings only.  Signatures
(:mod:`.signatures`) and terms (:mod:`.terms`) are imported from their own
modules, so a layer that needs neither (the monad laws) does not load them.
"""

from .sorts import (Context, Renaming, Sort, SortingSystem, compose_renamings,
                    concat_contexts, first, identity_renaming, second)

__all__ = [
    "Context", "Renaming", "Sort", "SortingSystem", "compose_renamings",
    "concat_contexts", "first", "identity_renaming", "second",
]
