"""The public surface: what the package re-exports, and the names that
tools outside the library (such as the perfbench tracer and workloads)
look up on each module."""

import ast
import importlib
from pathlib import Path

import kkcrystals

# oracle routes the verify suites check the library against: importable
# from their own modules, not re-exported by the package
ORACLE_ROUTES = {
    "partitions": ("signature", "signs", "reduce_signature",
                   "closed_form_signature"),
    "kk": ("in_kk_crystal_by_weyl", "decomposition_via_crystal"),
    "tensor": ("concat_path_op",),
    "weyl": ("bruhat_ideal_min", "double_coset_min", "wedge"),
}

# every module the benchmark imports, with the names it looks up there
MODULE_NAMES = {
    "weyl": (),
    "weights": ("Weight",),
    "iso": ("partition_to_path", "path_to_partition"),
    "partitions": ("ChargedPartition", "signature", "enumerate_regular",
                   "e_op", "f_op", "phi", "epsilon"),
    "paths": ("e_path", "f_path", "path_phi", "path_epsilon",
              "direction_weight"),
    "tensor": ("TensorElement", "concat_path_op", "tensor_e", "tensor_f",
               "crystal_graph", "CrystalGraph"),
    "kk": ("in_kk_crystal", "in_kk_crystal_by_weyl", "decomposition",
           "decomposition_via_crystal", "kk_crystal_members"),
    "verify": ("run_suites",),
    "cli": ("main",),
}
METHODS = {"Weight": ("__post_init__", "__add__", "__sub__", "__neg__",
                      "__mul__", "display"),
           "CrystalGraph": ("to_dot",)}


def test_oracle_routes_stay_in_their_modules():
    exported = set(kkcrystals.__all__)
    for module_name, names in ORACLE_ROUTES.items():
        module = importlib.import_module("kkcrystals." + module_name)
        for name in names:
            assert name not in exported
            assert callable(getattr(module, name))


# the package namespace: a name that a move drops fails here, not only
# in the code that imports it
EXPORTED = {
    "ALPHA0", "ALPHA1", "ChargedPartition", "CrystalGraph", "DELTA",
    "IDENTITY", "KKSpec", "LAMBDA0", "LAMBDA1", "LSPath", "MultiplicityTable",
    "TensorElement", "Weight", "WeylElement", "act",
    "associated_weyl_element", "bruhat_leq", "coset_element", "crystal_graph",
    "decomposition", "direction_weight", "dominant_set",
    "double_coset_min_index", "e_op", "e_path", "enumerate_regular",
    "epsilon", "f_op", "f_path", "fundamental", "gap_conjugate",
    "in_kk_crystal", "is_highest_weight", "is_lambda_dominant", "iso", "kk",
    "kk_crystal_graph", "kk_crystal_members", "left_multiply", "pair_coroot",
    "partition_to_path", "partitions", "path_epsilon", "path_phi",
    "path_to_partition", "paths", "phi", "reflect", "right_multiply",
    "simple_root", "tensor", "tensor_e", "tensor_f", "tensor_pairs",
    "weight_of", "weight_of_dominant", "weights", "weyl",
}


def test_the_exported_names_are_pinned():
    assert set(kkcrystals.__all__) == EXPORTED


def test_every_exported_name_imports():
    namespace = {}
    exec("from kkcrystals import *", namespace)
    assert all(name in namespace for name in kkcrystals.__all__)


def test_names_reached_by_module_path_resolve():
    for module_name, names in MODULE_NAMES.items():
        module = importlib.import_module("kkcrystals." + module_name)
        for name in names:
            assert getattr(module, name).__module__ == module.__name__, name
    for cls in (kkcrystals.weights.Weight, kkcrystals.tensor.CrystalGraph):
        for method in METHODS[cls.__name__]:
            # as perfbench's tracer reads it: defined on the class itself
            assert method in vars(cls), method
    assert hasattr(kkcrystals.paths.direction_weight.cache_info(), "hits")


def imported_from(module, source):
    """The names that `module` imports from its sibling module `source`."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == source
                  for alias in node.names)


def test_the_weyl_group_sits_on_the_weight_lattice():
    # weights is the bottom layer with the shared checks; the Weyl group is
    # read only by kk's Bruhat route, where the pair's Weyl element lives
    siblings = [path.stem for path in
                Path(kkcrystals.__file__).parent.glob("*.py")]
    assert all(imported_from(kkcrystals.weights, name) == []
               for name in siblings)
    for module in (kkcrystals.weights, kkcrystals.partitions,
                   kkcrystals.paths, kkcrystals.iso, kkcrystals.tensor):
        assert imported_from(module, "weyl") == [], module.__name__
    assert imported_from(kkcrystals.kk, "weyl") == [
        "WeylElement", "bruhat_leq", "coset_element", "double_coset_min_index"]
    assert kkcrystals.act.__module__ == "kkcrystals.weyl"
    assert kkcrystals.associated_weyl_element.__module__ == "kkcrystals.kk"


def test_tensor_reads_each_factor_through_its_record():
    # the rule compares phi and epsilon and takes the move from the same
    # stored record, so no second memo or operator is imported
    assert imported_from(kkcrystals.tensor, "partitions") == [
        "ChargedPartition", "_kernel", "enumerate_regular", "weight_of"]


def test_no_module_imports_fractions():
    # the library is exact in ints; a Fraction anywhere is a regression.
    # Every record is a checked tuple (weights._checked_tuple), so a
    # dataclass would be a second way to declare one
    for path in sorted(Path(kkcrystals.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "fractions"
                           for name in names), path.name
            assert not any(name.split(".")[0] == "dataclasses"
                           for name in names), path.name
