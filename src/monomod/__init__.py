"""Exact-arithmetic homological algebra over finite-dimensional algebras.

Algebras are given by structure constants over Q or a prime field; modules
by action-matrix families.  The package computes Hom spaces, duals and
canonical maps, projective resolutions, Ext/Tor, bounded (semi-)Gorenstein-
projectivity with certificates, triangular-matrix triple modules with the
explicit 2x2 dual formulas, tensor-algebra quiver representations with
monic checks, and a gallery of fully worked instances.
"""

from .algebra import (
    AlgebraPresentation,
    Element,
    multiply,
    radical_and_socle,
    regular_modules,
    validate_algebra,
)
from .duality import (
    ClassificationReport,
    DualData,
    a_dual,
    canonical_map,
    classify,
    dual_map,
    left_add_approximation,
)
from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    InconsistentSystem,
    MonomodError,
    ValidationError,
)
from .homology import (
    ExtTable,
    ProjResolution,
    ext_dims,
    ext_induced_map,
    has_minimal_covers,
    is_semi_gp,
    resolve,
    tor_dims,
)
from .linalg import GF, QQ, Field, Matrix
from .modules import (
    Bimodule,
    Module,
    ModuleMap,
    Verdict,
    cokernel,
    direct_sum,
    hom_space,
    is_isomorphic,
    k_dual,
    simples_and_projectives,
    submodule_generated,
    tensor_over,
    validate_bimodule,
    validate_module,
    zero_module,
)
from .quiver import (
    Quiver,
    QuiverRep,
    build_tensor,
    mon_membership,
    monic_check,
    module_to_rep,
    outer_tensor,
    rep_to_module,
)
from .triangular import (
    TripleModule,
    approximation_triple,
    build_triangular,
    classify_triple,
    is_monic_bimodule,
    make_triple,
    module_to_triple,
    t2_algebra,
    t2_dual_bundle,
    t2_triple,
    triple_to_module,
)
from .gallery import (
    lambda_q,
    lsgp_example,
    run_scenario,
    standard_family,
)

__version__ = "0.1.0"
