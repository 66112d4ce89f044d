"""Level-one crystal combinatorics for affine sl2.

Charged-partition and LS-path models of the two level-one highest weight
crystals, the explicit bijection between them, tensor products, and
Kostant-Kumar submodule crystals with their decomposition tables.
"""

from .iso import partition_to_path, path_to_partition
from .kk import (KKSpec, MultiplicityTable, decomposition,
                 decomposition_via_crystal, dominant_set, in_kk_crystal,
                 in_kk_crystal_by_weyl, kk_crystal_graph, kk_crystal_members,
                 weight_of_dominant)
from .partitions import (ChargedPartition, Signature, box_label,
                         closed_form_signature, conjugate, e_op,
                         enumerate_regular, epsilon, f_op, gap_conjugate,
                         phi, reduce_signature, signature, weight_of)
from .paths import (LSPath, PiecewiseLinearH, direction_weight, e_path,
                    f_path, h_function, is_lambda_dominant, path_epsilon,
                    path_phi)
from .tensor import (CrystalGraph, TensorElement, associated_weyl_element,
                     associated_weyl_element_by_minima, concat_path_op,
                     crystal_graph, is_highest_weight, tensor_e, tensor_f)
from .weights import (ALPHA0, ALPHA1, DELTA, LAMBDA0, LAMBDA1, Weight, act,
                      fundamental, is_dominant, pair_coroot, reflect,
                      simple_root)
from .weyl import (IDENTITY, CosetRep, WeylElement, bruhat_ideal,
                   bruhat_ideal_min, bruhat_leq, coset_element,
                   double_coset_min, double_coset_min_index, generator,
                   left_multiply, right_multiply, wedge)

__all__ = [name for name in dir() if not name.startswith("_")]
