"""Core library: the paper's post-variational method end to end."""

from repro.core.ansatz import fig8_ansatz, hardware_efficient_ansatz
from repro.core.shifts import (
    ShiftConfiguration,
    count_shift_configurations,
    enumerate_shift_configurations,
)
from repro.core.strategies import (
    AnsatzExpansion,
    HybridStrategy,
    ObservableConstruction,
    Strategy,
    strategy_from_name,
)
from repro.core.features import (
    evaluate_features,
    feature_circuit_tasks,
    feature_jobs,
    generate_features,
    iter_feature_blocks,
)
from repro.core.pruning import apply_pruning, fidelity_prune, gradient_prune
from repro.core.model import PostVariationalClassifier, PostVariationalRegressor
from repro.core.variational import VariationalClassifier
from repro.core.measurement_budget import (
    proposition1_direct_measurements,
    proposition2_shadow_measurements,
    rmse_loss_difference,
    table2_grid,
    table2_row,
    theorem3_required_entry_error,
    theorem4_required_entry_error,
)
from repro.core.cqs import (
    CQSResult,
    ansatz_tree_unitaries,
    decompose_hamiltonian_loss,
    hamiltonian_observable,
    solve_cqs,
)
from repro.core.pipeline import HybridPipeline, PipelineReport
from repro.core.decomposition import (
    circuit_unitary,
    decomposition_weight_profile,
    heisenberg_observable,
    truncate_by_locality,
    truncate_by_weight,
)
from repro.core.analysis import QMatrixDiagnostics, diagnose_q_matrix, effective_rank
from repro.core.reuploading import ReuploadingClassifier
from repro.core.barren import GradientVarianceResult, barren_plateau_sweep, gradient_variance
from repro.core.expressibility import (
    entangling_capability,
    expressibility_kl,
    haar_fidelity_pdf,
    meyer_wallach_q,
)
from repro.core.kernels import QuantumKernelClassifier, fidelity_kernel
from repro.core.distributed_pipeline import (
    SpmdFitResult,
    fit_logistic_spmd,
    generate_features_spmd,
)
from repro.core.selection import GreedySelectionResult, greedy_forward_selection

__all__ = [
    "fig8_ansatz",
    "hardware_efficient_ansatz",
    "ShiftConfiguration",
    "count_shift_configurations",
    "enumerate_shift_configurations",
    "AnsatzExpansion",
    "HybridStrategy",
    "ObservableConstruction",
    "Strategy",
    "strategy_from_name",
    "evaluate_features",
    "feature_circuit_tasks",
    "feature_jobs",
    "iter_feature_blocks",
    "generate_features",
    "apply_pruning",
    "fidelity_prune",
    "gradient_prune",
    "PostVariationalClassifier",
    "PostVariationalRegressor",
    "VariationalClassifier",
    "proposition1_direct_measurements",
    "proposition2_shadow_measurements",
    "rmse_loss_difference",
    "table2_grid",
    "table2_row",
    "theorem3_required_entry_error",
    "theorem4_required_entry_error",
    "CQSResult",
    "ansatz_tree_unitaries",
    "decompose_hamiltonian_loss",
    "hamiltonian_observable",
    "solve_cqs",
    "HybridPipeline",
    "PipelineReport",
    "circuit_unitary",
    "decomposition_weight_profile",
    "heisenberg_observable",
    "truncate_by_locality",
    "truncate_by_weight",
    "QMatrixDiagnostics",
    "diagnose_q_matrix",
    "effective_rank",
    "ReuploadingClassifier",
    "GradientVarianceResult",
    "barren_plateau_sweep",
    "gradient_variance",
    "entangling_capability",
    "expressibility_kl",
    "haar_fidelity_pdf",
    "meyer_wallach_q",
    "QuantumKernelClassifier",
    "fidelity_kernel",
    "SpmdFitResult",
    "fit_logistic_spmd",
    "generate_features_spmd",
    "GreedySelectionResult",
    "greedy_forward_selection",
]
