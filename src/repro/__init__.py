"""repro — sampling-based optimization of top-k queries in sensor networks.

A full reproduction of Silberstein, Braynard, Ellis, Munagala & Yang,
"A Sampling-Based Approach to Optimizing Top-k Queries in Sensor
Networks" (ICDE 2006): the PROSPECTOR family of query planners
(Greedy, LP−LF, LP+LF, Proof, Exact), the naive and oracle baselines,
and every substrate they need — an LP modeling layer with two solver
backends, a tree-topology sensor network with a MICA2-style energy
model, a message-level simulator with failure injection, sample-matrix
maintenance, workload generators, and the experiment harness that
regenerates each figure of the paper's evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import (EnergyModel, LPLFPlanner, PlanningContext,
...                    SampleMatrix, random_topology)
>>> rng = np.random.default_rng(7)
>>> topology = random_topology(40, rng=rng)
>>> samples = SampleMatrix(rng.normal(25, 3, size=(20, 40)), k=5)
>>> context = PlanningContext(topology, EnergyModel.mica2(), samples,
...                           k=5, budget=60.0)
>>> plan = LPLFPlanner().plan(context)
>>> plan.static_cost(context.energy) <= context.budget
True
"""

from repro.analysis import compare_plans, explain_plan
from repro.datagen import (
    GaussianField,
    IntelLabSurrogate,
    Trace,
    ZoneWorkload,
    intel_lab_network,
    random_gaussian_field,
)
from repro.errors import (
    AdmissionError,
    BudgetError,
    ModelError,
    ObservabilityError,
    OverloadError,
    PlanError,
    ReproError,
    SamplingError,
    ServiceError,
    SessionError,
    SolverError,
    TopologyError,
    TraceError,
)
from repro.lp import available_backends, get_backend
from repro.network import (
    EnergyModel,
    GHSOutcome,
    LinkFailureModel,
    Topology,
    balanced_tree,
    build_mst,
    grid_topology,
    line_topology,
    random_topology,
    remove_node,
    star_topology,
    zoned_topology,
)
from repro.planners import (
    DPPlanner,
    ExactOutcome,
    ExactTopK,
    GreedyPlanner,
    LPLFPlanner,
    LPNoLFPlanner,
    OraclePlanner,
    OracleProofPlanner,
    PlannerConfig,
    PlanningContext,
    ProofPlanner,
    WeightedMajorityPlanner,
)
from repro.obs import (
    EnergyLedger,
    Instrumentation,
    MetricsRegistry,
    SpanTracer,
    chrome_trace_json,
    prometheus_text,
    render_flame,
    render_report,
)
from repro.plans import (
    QueryPlan,
    ThresholdPlan,
    ThresholdPlanner,
    count_topk_hits,
    execute_plan,
    execute_proof_plan,
    execute_threshold_plan,
    expected_hits,
    naive_k_collect,
    naive_one_collect,
)
from repro.queries import (
    AnswerMatrix,
    ClusterTopKQuery,
    QuantileQuery,
    SelectionQuery,
    SubsetQueryPlanner,
    TopKQuery,
    run_subset_query,
)
from repro.query import (
    AuditResult,
    EngineConfig,
    QueryResult,
    TopKEngine,
    accuracy,
)
from repro.sampling import AdaptiveSampler, SampleMatrix, SampleWindow
from repro.service import (
    InProcessClient,
    ServiceConfig,
    ServiceThread,
    SessionHandle,
    SharedPlanCache,
    SocketClient,
    TopKService,
)
from repro.simulation import (
    BatchSimulationReport,
    BatchSimulator,
    SimulationReport,
    Simulator,
)
from repro.stochastic import (
    ScenarioSet,
    SimpleTopKInstance,
    TwoStageSteinerTree,
)

__version__ = "1.1.0"

__all__ = [
    "AdaptiveSampler",
    "AdmissionError",
    "AuditResult",
    "AnswerMatrix",
    "BatchSimulationReport",
    "BatchSimulator",
    "BudgetError",
    "ClusterTopKQuery",
    "DPPlanner",
    "EnergyLedger",
    "EnergyModel",
    "EngineConfig",
    "ExactOutcome",
    "ExactTopK",
    "GHSOutcome",
    "GaussianField",
    "GreedyPlanner",
    "InProcessClient",
    "Instrumentation",
    "IntelLabSurrogate",
    "LPLFPlanner",
    "LPNoLFPlanner",
    "LinkFailureModel",
    "MetricsRegistry",
    "ModelError",
    "ObservabilityError",
    "OraclePlanner",
    "OracleProofPlanner",
    "OverloadError",
    "PlanError",
    "PlannerConfig",
    "PlanningContext",
    "ProofPlanner",
    "QuantileQuery",
    "QueryPlan",
    "QueryResult",
    "ReproError",
    "SampleMatrix",
    "SampleWindow",
    "SamplingError",
    "ScenarioSet",
    "SelectionQuery",
    "ServiceConfig",
    "ServiceError",
    "ServiceThread",
    "SessionError",
    "SessionHandle",
    "SharedPlanCache",
    "SimpleTopKInstance",
    "SimulationReport",
    "Simulator",
    "SocketClient",
    "SolverError",
    "SpanTracer",
    "SubsetQueryPlanner",
    "ThresholdPlan",
    "ThresholdPlanner",
    "TopKEngine",
    "TopKQuery",
    "TopKService",
    "TwoStageSteinerTree",
    "WeightedMajorityPlanner",
    "Topology",
    "TopologyError",
    "Trace",
    "TraceError",
    "ZoneWorkload",
    "accuracy",
    "available_backends",
    "balanced_tree",
    "build_mst",
    "chrome_trace_json",
    "compare_plans",
    "count_topk_hits",
    "execute_plan",
    "execute_proof_plan",
    "execute_threshold_plan",
    "expected_hits",
    "explain_plan",
    "get_backend",
    "grid_topology",
    "intel_lab_network",
    "line_topology",
    "naive_k_collect",
    "naive_one_collect",
    "prometheus_text",
    "random_gaussian_field",
    "random_topology",
    "remove_node",
    "render_flame",
    "render_report",
    "run_subset_query",
    "star_topology",
    "zoned_topology",
]
