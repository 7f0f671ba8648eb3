"""robustnet: sparsest maximally robust communication graphs.

Builders for the extremal graph families that reach the ceil(n/2)
robustness ceiling with provably minimal edge counts, an exact certifier
for the robustness of arbitrary small graphs (with witness certificates),
a W-MSR resilient-consensus simulator with configurable misbehaving
agents, and a reproducible random-graph experiment harness.
"""

from .graph import (
    MAX_EXACT_N,
    MAX_VERTICES,
    Graph,
    densest_subset_of_size,
    format_edge_list,
    graph_from_json_dict,
    load_graph,
    max_clique,
    new_graph,
    parse_edge_list,
    write_edge_list,
)
from .robustness import (
    BoundReport,
    LemmaCheck,
    RobustnessCertificate,
    StructuralReport,
    check_structural_lemmas,
    edge_lower_bound,
    is_r_robust,
    max_robustness,
    reachability,
    robustness_levels,
)
from .construct import (
    erdos_renyi,
    sparsest_even,
    sparsest_odd,
    tree_graph,
)
from .consensus import (
    Behavior,
    SimulationTrace,
    ThreatModel,
    Verdict,
    behavior_from_spec,
    check_validity,
    constant,
    linear_ramp,
    random_walk,
    simulate,
    sinusoid,
    trace_sidecar_dict,
    trace_to_csv_text,
)
from .experiment import (
    ExperimentConfig,
    ExperimentRecord,
    SummaryRow,
    derive_seed,
    records_to_csv_text,
    run_experiment,
    summary_to_csv_text,
)

__version__ = "0.1.0"
