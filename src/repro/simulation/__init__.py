"""Message-level network simulator.

The paper evaluates on "our own simulator of a network of Crossbow
MICA2 motes ... We model only communication costs" (§5).  This
subpackage is that simulator: it executes plans produced elsewhere in
the library, charges the energy model for every message (including the
distribution phases and failure retries), and reports measured costs.

Two simulators, chosen by the shape of the input: :class:`Simulator`
replays one epoch (the served path, and the proof, NAIVE-1 and
``priority`` protocols, which have no batch form), and
:class:`BatchSimulator` replays a whole ``(E, n)`` trace at once.
"""

from repro.simulation.distribution import (
    initial_distribution_cost,
    trigger_cost,
)
from repro.simulation.lossy import (
    LossyCollectionResult,
    execute_plan_lossy,
    redundancy_plan,
)
from repro.simulation.runtime import SimulationReport, Simulator

# imported after runtime on purpose: batch pulls in repro.query.accuracy,
# whose package init imports Simulator back from repro.simulation.runtime
from repro.simulation.batch import (  # noqa: E402  (see comment above)
    BatchSimulationReport,
    BatchSimulator,
)

__all__ = [
    "BatchSimulationReport",
    "BatchSimulator",
    "LossyCollectionResult",
    "SimulationReport",
    "Simulator",
    "execute_plan_lossy",
    "initial_distribution_cost",
    "redundancy_plan",
    "trigger_cost",
]
