"""Exact-arithmetic algebra of double forms with curvature invariants."""

from .core import (
    BianchiRequiredError,
    CellBudgetError,
    DegreeError,
    DimensionMismatchError,
    DoubleForm,
    DoubleFormError,
    IdentityError,
    Scalar,
    cell_budget,
    eval_oracle,
    make_basis,
    make_g,
    make_scalar,
    make_zero,
    set_cell_budget,
)
from .curvature import (
    CurvatureTensor,
    Frame,
    FrameError,
    H4SignReport,
    InvariantReport,
    InvariantRow,
    SectionalSample,
    avez_pairing,
    build_invariant_report,
    einstein_tensor,
    has_constant_sectional,
    is_conformally_flat_algebraic,
    is_einstein,
    make_conformally_flat,
    make_constant_curvature,
    make_hypersurface,
    make_product,
    orthogonal_complement,
    p_curvature,
    power,
    pq_curvature_tensor,
    pq_sectional,
    sectional_curvature,
    sign_report_h4,
    weyl_invariant,
)
from .decomposition import (
    EffectiveDecomposition,
    decompose,
    g_power_matrix,
    is_effective,
    map_rank,
    project_conformal,
    reconstruct,
    star_bianchi,
    star_in_components,
)
from .exterior import (
    MAX_DIMENSION,
    BasisError,
    IndexSet,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
