"""The call-by-value case study: the package re-exports its types only.

The operator table (:mod:`.ops`), the reader (:mod:`.surface`), the
typechecker (:mod:`.typecheck`) and the corpus generator (:mod:`.gen`) are
imported from their own modules, so a caller that only needs types (a model
interpreting them, say) loads none of them, nor the signatures they rest on.
"""

from .types import (EXTENSIONS, Base, DepthExceeded, FragmentConfig, Fun,
                    NAT, NatType, Record, TypeExpr, UNIT, Variant,
                    all_fragment_configs, config, done_cont_shape, fun,
                    maybe_shape, record,
                    type_to_label, type_to_str, types_upto, valid_type, variant)

__all__ = [
    "Base", "DepthExceeded", "EXTENSIONS", "FragmentConfig", "Fun", "NAT",
    "NatType", "Record", "TypeExpr", "UNIT", "Variant",
    "all_fragment_configs", "config", "done_cont_shape", "fun", "maybe_shape",
    "record", "type_to_label", "type_to_str", "types_upto", "valid_type",
    "variant",
]
