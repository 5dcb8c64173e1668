"""Scope-safe abstract syntax from binding signatures, with law checking.

The package derives terms, renaming, capture-avoiding and metavariable
substitution, and generic folds from a declared sorting system and operator
table; verifies the algebraic laws of the substitution tensor on explicit
finite presheaves; and instantiates a call-by-value case study (128 fragment
combinations) with finite-set strong-monad semantics.
"""

from .sorts import (Context, Renaming, Sort, SortingSystem, compose_renamings,
                    concat_contexts, first, identity_renaming, second)
from .signatures import (Argument, Operator, OperatorTable, flatten,
                         route_environment)
from .terms import (HoleDecl, Meta, MetaSubst, Op, SubstEnv, Term, Var, fold,
                    identity_env, meta_substitute, rename, substitute,
                    substitute_direct)

__all__ = [
    "Argument", "Context", "HoleDecl", "Meta", "MetaSubst", "Op", "Operator",
    "OperatorTable", "Renaming", "Sort", "SortingSystem", "SubstEnv", "Term",
    "Var", "compose_renamings", "concat_contexts", "first", "flatten", "fold",
    "identity_env", "identity_renaming", "meta_substitute", "rename",
    "route_environment", "second", "substitute", "substitute_direct",
]
