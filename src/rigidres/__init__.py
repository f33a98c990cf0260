"""rigidres: lcm-lattices, Betti posets, and minimal free resolutions
of rigid monomial ideals, with exact verification throughout."""

__version__ = "0.1.0"

from .monomials import (  # noqa: F401
    Monomial,
    MonomialIdeal,
    IdealSyntaxError,
    parse_ideal,
    minimalize,
)
from .homology import (  # noqa: F401
    FieldSpec,
    HomologyBasis,
    SimplicialComplex,
    SpanBasis,
    homology_ranks,
    reduce_cycle,
    reduced_homology,
)
from .posets import (  # noqa: F401
    FiniteAtomicLattice,
    Poset,
    coordinatize,
    element_key,
    face_lattice,
    is_isomorphic,
    join_preserving_map,
    lcm_lattice,
    meet_closure,
    order_complex,
)
from .betti import (  # noqa: F401
    BettiTable,
    RigidityReport,
    betti_numbers,
    betti_poset,
    interval_ranks,
    rigidity_report,
)
from .frames import (  # noqa: F401
    Frame,
    GradedFreeResolution,
    ResolutionReport,
    build_frame,
    homogenize,
    relabel,
    resolve,
    scarf_complex,
    taylor_betti,
    verify_frame,
    verify_resolution,
)
from .deform import (  # noqa: F401
    Certificate,
    DeformationResult,
    ScanEntry,
    SearchOutcome,
    certify_rigid_deformation,
    search_rigid_deformation,
    simplicial_rigid_deformation,
)
