"""The public surface of fockbench: what it exports, and what the benchmark wraps by name."""

import dataclasses
import functools
import importlib
import importlib.util
import inspect
import pkgutil
import types
from pathlib import Path

import numpy as np

import fockbench
from fockbench.boundedness import demo_bounded_L_unbounded_creators
from fockbench.deformations import Blocks, DeformationFamily
from fockbench.interacting import InteractingSpace, Squeezing
from fockbench.onemode import MomentSequence
from fockbench.opalg import OperatorSpan
from fockbench.subproduct import ProjectionFamily, product_maps

MODULES = [importlib.import_module(f"fockbench.{m.name}") for m in pkgutil.iter_modules(fockbench.__path__)]
REMOVED = ("encode_index", "decode_index", "permutation_operator", "kernel_onb", "eigen_kept", "singular_kept",
           "factor_K", "KernelFactorization", "grid_family", "block_compression", "creator_vs_squeezing_gap",
           "moment_pairing", "matrix_rank", "range_onb", "squeezing_norms", "stack_sectors", "label_blocks",
           "letter_types", "herm_residual", "first_letters", "last_letters", "LevelForms", "_right_stacks",
           "letter_products", "letter_norms", "CreatorBlocks", "_DEGREE_ZERO", "DEFAULT_RESIDUAL_TOL",
           "PSD_TOL", "word_on_vacuum", "vacuum_expectation", "_as_sign", "_on_one_grading")


def test_every_traced_layer_resolves():
    # perfbench/tracing.py wraps these by name; read it, patch and restore, change nothing
    spec = importlib.util.spec_from_file_location("tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for mod_name, fn_name in (target for targets in tracing.LAYERS.values() for target in targets):
        owner = importlib.import_module(f"fockbench.{mod_name}")
        for attr in fn_name.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{mod_name}.{fn_name}"
    build, eigh = fockbench.interacting.build, np.linalg.eigh
    with tracing.Tracer().installed():
        assert fockbench.interacting.build is not build
    assert fockbench.interacting.build is build and np.linalg.eigh is eigh


def test_exports_resolve_and_removed_names_are_gone():
    for module in MODULES:
        assert all(hasattr(module, name) for name in getattr(module, "__all__", ())), module.__name__
    for module in [fockbench, *MODULES]:
        assert not [name for name in REMOVED if hasattr(module, name)], module.__name__
    public = {name for name, value in vars(fockbench).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"TruncatedFockSpace", "kron_id"}
    assert not any(hasattr(InteractingSpace, name) for name in ("creator", "creators", "total_dim", "Lambda"))
    assert not hasattr(fockbench._linalg, "HERM_HARD_TOL")  # one home per tolerance: deformations
    assert not hasattr(Squeezing, "norms")
    assert not hasattr(MomentSequence, "pair")
    assert "_certified" not in inspect.signature(product_maps).parameters
    assert "x" not in inspect.signature(demo_bounded_L_unbounded_creators).parameters
    # a span is its graded coordinates on one space's ranks, with no dense one-block form
    assert not any(hasattr(OperatorSpan, name) for name in ("_one_block", "matrix_dim", "basis"))
    assert "basis" not in inspect.signature(OperatorSpan).parameters


def test_a_level_is_only_its_blocks():
    assert Blocks._fields == ("labels", "words", "mats")


def test_a_space_stores_only_what_build_measured():
    names = tuple(f.name for f in dataclasses.fields(InteractingSpace))
    assert names == ("family", "parts", "residuals", "rank_tol")
    # the creator blocks and their norms are derived, formed only when read
    assert isinstance(InteractingSpace.blocks, property)
    assert isinstance(InteractingSpace.kappa_norms, functools.cached_property)


def test_a_projection_family_is_its_deformation_family():
    # L := pi: the family is the deformation, with no wrapper field and no second name for L
    assert issubclass(ProjectionFamily, DeformationFamily)
    assert not any(hasattr(ProjectionFamily, name) for name in ("deformation", "_of", "pi"))
    family = fockbench.subproduct.symmetric_projections(2, 3)
    assert not hasattr(family, "deformation") and not hasattr(family, "pi")
