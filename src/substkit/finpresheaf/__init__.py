"""Explicit finite presheaves over bounded contexts and their law checks."""

from .structures import (BoundExceeded, FinStructure, TensorResult,
                         empty_structure, enumerate_contexts, enumerate_envs,
                         enumerate_renamings, exponential, free_structure,
                         shift_structure, tensor, terminal_structure,
                         variables_structure)
from .laws import (PairObject, PointedStructure, StructMap, associator_map,
                   check_action_axioms, check_pointed_tensor, check_skew,
                   kneut_pair, left_unitor_map, maps_equal, pointed_free,
                   pointed_variables, right_unitor_inv, right_unitor_map,
                   tensor_left_map, tensor_right_map)

__all__ = [
    "BoundExceeded", "FinStructure", "PairObject", "PointedStructure",
    "StructMap", "TensorResult", "associator_map", "check_action_axioms",
    "check_pointed_tensor", "check_skew", "empty_structure",
    "enumerate_contexts", "enumerate_envs", "enumerate_renamings",
    "exponential", "free_structure", "kneut_pair", "left_unitor_map",
    "maps_equal", "pointed_free", "pointed_variables",
    "right_unitor_inv", "right_unitor_map", "shift_structure",
    "tensor", "tensor_left_map", "tensor_right_map", "terminal_structure",
    "variables_structure",
]
