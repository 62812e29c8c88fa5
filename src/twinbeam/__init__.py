"""Two-particle beam-splitter interferometry with which-way detection.

Exact sparse simulation of identical bosons or fermions traversing
50:50 splitter networks, absorptionless path detectors, post-selected
spin entanglement, quantum-statistics identification, and the
entanglement-distinguishability trade-off.
"""

from types import ModuleType as _ModuleType

from .errors import (
    NetworkError,
    NotUnitaryError,
    OccupancyError,
    PauliExclusionError,
    StatisticsMismatchError,
    TwinbeamError,
)
from .fock import (
    FockState,
    Mode,
    Spin,
    Statistics,
    apply_spin_rotation,
    make_product_state,
)
from .interferometer import (
    BeamSplitter,
    Branch,
    BranchSet,
    ExcitationPattern,
    FeedbackRound,
    Network,
    build_tree,
    detect,
    feedback_run,
    fig1_network,
    fig2_network,
    opposite_spin_input,
    run_network,
)
from .metrics import (
    PSI_MINUS,
    PSI_PLUS,
    bell_labels,
    chsh_values,
    concurrences,
    distinguishability,
    dual_relabel,
    gaussian_overlap,
    reduce_to_spin_dm,
    tagged_opposite_spin_input,
    validate_dms,
)
from .reporting import Scalar, ScenarioReport
from .scenarios import (
    DEFAULT_SEED,
    list_scenarios,
    scenario_complementarity,
    scenario_dual,
    scenario_feedback,
    scenario_fig1,
    scenario_fig2,
    scenario_gaussian,
    scenario_mixed_input,
    scenario_statistics_test,
    scenario_tree,
)

__version__ = "0.1.0"

__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
