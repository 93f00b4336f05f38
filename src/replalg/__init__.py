"""Exact homological invariants of m-replicated path algebras.

The package computes, over exact rationals, the replicated algebra A^(m)
of a hereditary path algebra A = kQ, its module inventory, and certifies
that the endomorphism algebra of the canonical generator-cogenerator has
global dimension at most three (so rep.dim A^(m) <= 3) and that the
dominant dimension of A^(m) is at least m.
"""

from .algebra import AlgebraData
from .errors import (
    AmbientTooSmall,
    BudgetExceeded,
    CapTooSmall,
    CopyOutOfRange,
    CyclicQuiver,
    DuplicateLabel,
    EmptyQuiver,
    InternalCheckFailed,
    NonSplitSimple,
    NotBasic,
    NotProjInjective,
    ParseError,
    ReplalgError,
    UndecidableDecomposition,
)
from .homology import (
    DimBound,
    cosyzygy,
    dominant_dimension,
    end_global_dimension,
    ext1_dim,
    global_dimension,
    is_isomorphic,
    projective_dimension,
    right_approximation,
    stable_hom_dim,
)
from .linalg import EchelonSpace, Rational, RatMatrix
from .modules import (
    ModuleMap,
    ModuleRep,
    direct_sum,
    dual_module,
    hom_basis,
    injective_envelope,
    injective_module,
    is_injective_module,
    is_projective_module,
    kernel,
    projective_cover,
    projective_module,
    radical_submodule,
    simple_module,
    zero_module,
)
from .quiver import Quiver, build_hereditary, kronecker, linear_quiver, one_vertex
from .replicated import (
    GeneratorBundle,
    ReplicatedAlgebra,
    auslander_generator,
    build_replicated,
    embed,
    loewy_layers,
    minimal_cogenerator,
    projective_injectives,
    restrict_from_ambient,
    sigma_layers,
)
from .verify import (
    Certificate,
    verify_example_3_4,
    verify_ext_stablehom,
    verify_gl_dim_bounds,
    verify_lemma_2_4,
    verify_theorem_3_3,
    verify_theorem_3_5,
)

__version__ = "0.1.0"
