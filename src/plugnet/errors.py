"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract: degenerate inputs and
interconnection-rule violations exit with 3, failed certificate conditions
with 2, anything else unexpected with 1.
"""

from __future__ import annotations


class PlugnetError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(PlugnetError):
    """Malformed graph or plug plan (self-loop, duplicate edge, bad reference)."""


class DegenerateInput(PlugnetError):
    """Input outside the certificate constructions' domain.

    Examples: a boundary node with zero passivity index (the edge-weight
    construction divides by its magnitude), or a boundary node with no
    intra-network neighbours on either side.
    """


class AssumptionViolation(DegenerateInput):
    """Boundary edges of a network plug plan share or join adjacent nodes."""


class RealizationError(PlugnetError):
    """Transfer function cannot be realized (improper, zero denominator)."""


class TableError(PlugnetError):
    """A tabulated coupling's table is malformed (not number pairs, bad knots)."""


class EstimatorError(PlugnetError):
    """Passivity-index sweep is undefined for the given dynamics."""


class UnsolvableIndex(EstimatorError):
    """The stationary points of Re H(jw) cannot be root-solved: E'F - EF'
    or its companion matrix is not finite."""


class SimulationDiverged(PlugnetError):
    """Integration produced a non-finite state.

    ``step`` counts RK4 steps from 1, so the state is first non-finite at
    the end of step ``step``, at time ``time = step * dt``; ``node`` is the
    first node, in the active graph's order, whose state is non-finite.
    """

    def __init__(self, time: float, node: int, step: int):
        super().__init__(
            f"simulation diverged (non-finite state) at node {node}, "
            f"step {step}, t = {time:.6g}"
        )
        self.time = time
        self.node = node
        self.step = step


class ScenarioError(PlugnetError):
    """Scenario file failed schema or cross-reference validation."""
