"""Level-one crystal combinatorics for affine sl2.

Charged-partition and LS-path models of the two level-one highest weight
crystals, the explicit bijection between them, tensor products, and
Kostant-Kumar submodule crystals with their decomposition tables.  The
oracle routes that the verify suites check these against (the column
scan of signatures, wedge and Bruhat-ideal minima, the concatenated-path
operators, the Bruhat-bound membership and the crystal-count tables) are
imported from their own modules.
"""

from .iso import partition_to_path, path_to_partition
from .kk import (KKSpec, MultiplicityTable, associated_weyl_element,
                 decomposition, dominant_set, in_kk_crystal, kk_crystal_graph,
                 kk_crystal_members, weight_of_dominant)
from .partitions import (ChargedPartition, e_op, enumerate_regular, epsilon,
                         f_op, gap_conjugate, phi, weight_of)
from .paths import (LSPath, direction_weight, e_path, f_path,
                    is_lambda_dominant, path_epsilon, path_phi)
from .tensor import (CrystalGraph, TensorElement, crystal_graph,
                     is_highest_weight, tensor_e, tensor_f, tensor_pairs)
from .weights import (ALPHA0, ALPHA1, DELTA, LAMBDA0, LAMBDA1, Weight,
                      fundamental, pair_coroot, reflect, simple_root)
from .weyl import (IDENTITY, WeylElement, act, bruhat_leq, coset_element,
                   double_coset_min_index, left_multiply, right_multiply)

__all__ = [name for name in dir() if not name.startswith("_")]
