"""Unit tests for the two-stage stochastic Steiner tree."""

import numpy as np
import pytest

from repro.errors import BudgetError, ModelError
from repro.network.builder import line_topology, random_topology, star_topology
from repro.stochastic.scenarios import ScenarioSet
from repro.stochastic.steiner import TwoStageSteinerTree
from tests.lp._model_oracle import LinExpr, Model, compile_model


def algebraic_model(problem, scenarios, first_stage_budget=None):
    """The two-stage LP spelled constraint by constraint on the
    modeling oracle: ``(model, x)``."""
    model = Model("two-stage-steiner")
    x = {
        edge: model.add_variable(f"x_{edge}", lb=0.0, ub=1.0)
        for edge in problem.topology.edges
    }
    y = {}
    for s, scenario in enumerate(scenarios):
        for edge in problem._scenario_edges(scenario):
            y[edge, s] = model.add_variable(f"y_{edge}_{s}", lb=0.0, ub=1.0)
            model.add_constraint(
                x[edge] + y[edge, s] >= 1.0, name=f"cover_{edge}_{s}"
            )
    first = LinExpr.sum_of(
        problem.edge_costs[edge] * var for edge, var in x.items()
    )
    second = LinExpr.sum_of(
        (scenarios.probability * problem.inflation * problem.edge_costs[edge])
        * var
        for (edge, __), var in y.items()
    )
    if first_stage_budget is None:
        model.minimize(first + second)
    else:
        model.add_constraint(first <= first_stage_budget, name="budget")
        model.minimize(second)
    return model, x


def _random_instance(seed):
    """A random tree with random edge costs and demand scenarios."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    topology = random_topology(n, rng=rng, radio_range=max(25.0, 200.0 / n**0.5))
    costs = {
        edge: float(rng.uniform(0.1, 3.0)) for edge in topology.edges
    }
    problem = TwoStageSteinerTree(
        topology, edge_costs=costs, inflation=float(rng.uniform(1.0, 4.0))
    )
    scenarios = ScenarioSet(
        set(rng.choice(np.arange(1, n), size=int(rng.integers(0, n // 2 + 1)),
                       replace=False).tolist())
        for __ in range(int(rng.integers(1, 8)))
    )
    return problem, scenarios


class TestArrays:
    """The arrays the Steiner study builds directly equal the oracle
    ``compile_model`` of the constraint-by-constraint model, bitwise,
    and solve to the same fractional first stage."""

    @pytest.mark.parametrize("budget", [None, 0.0, 1.5, 4.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_form_equals_compiled_algebraic_model(self, seed, budget):
        problem, scenarios = _random_instance(seed)
        model, x = algebraic_model(problem, scenarios, budget)
        reference = compile_model(model)
        form = problem._compile(scenarios, budget)
        assert form.maximize == reference.maximize
        assert form.objective_constant == reference.objective_constant
        assert np.array_equal(form.c, reference.c)
        assert np.array_equal(form.b_ub, reference.b_ub)
        assert form.bounds == reference.bounds
        assert form.a_ub.shape == reference.a_ub.shape
        assert np.array_equal(form.a_ub.indptr, reference.a_ub.indptr)
        assert np.array_equal(form.a_ub.indices, reference.a_ub.indices)
        assert np.array_equal(form.a_ub.data, reference.a_ub.data)
        assert form.a_eq.shape == reference.a_eq.shape
        assert form.b_eq.size == reference.b_eq.size == 0

        oracle = model.solve()
        if budget is None:
            solution = problem.solve_total_cost(scenarios)
        else:
            solution = problem.solve_budgeted(scenarios, budget)
        assert solution.lp_objective == oracle.objective
        assert solution.fractional_first_stage == {
            edge: oracle.value(var) for edge, var in x.items()
        }


class TestConstruction:
    def test_validation(self, small_tree):
        with pytest.raises(ModelError):
            TwoStageSteinerTree(small_tree, inflation=0.0)
        with pytest.raises(ModelError):
            TwoStageSteinerTree(small_tree, edge_costs={1: -1.0})

    def test_default_unit_costs(self, small_tree):
        problem = TwoStageSteinerTree(small_tree)
        assert all(c == 1.0 for c in problem.edge_costs.values())


class TestTotalCost:
    def test_certain_demand_bought_up_front(self):
        """A node demanded in every scenario should be connected on
        day 1 when day 2 is more expensive."""
        topo = line_topology(4)
        problem = TwoStageSteinerTree(topo, inflation=3.0)
        scenarios = ScenarioSet([{3}, {3}, {3}])
        solution = problem.solve_total_cost(scenarios)
        assert solution.first_stage_edges == {1, 2, 3}
        assert solution.expected_second_stage_cost == 0.0
        assert solution.total_expected_cost == pytest.approx(3.0)

    def test_rare_demand_deferred(self):
        """A node demanded once in many scenarios is cheaper to connect
        on day 2 despite the inflation."""
        topo = star_topology(3)
        problem = TwoStageSteinerTree(topo, inflation=2.0)
        scenarios = ScenarioSet([{1}] * 9 + [{2}])
        solution = problem.solve_total_cost(scenarios)
        assert 1 in solution.first_stage_edges
        assert 2 not in solution.first_stage_edges
        # recourse: scenario {2} pays 2.0 with probability 1/10
        assert solution.expected_second_stage_cost == pytest.approx(0.2)

    def test_breakeven_probability(self):
        """Buying up front wins iff demand probability > 1/inflation."""
        topo = star_topology(2)
        problem = TwoStageSteinerTree(topo, inflation=4.0)
        frequent = ScenarioSet([{1}] * 2 + [frozenset()] * 2)  # p = 1/2
        rare = ScenarioSet([{1}] + [frozenset()] * 9)          # p = 1/10
        assert 1 in problem.solve_total_cost(frequent).first_stage_edges
        assert 1 not in problem.solve_total_cost(rare).first_stage_edges

    def test_shared_path_amortized(self, small_tree):
        """Scenarios in one subtree share the relay edge purchase."""
        problem = TwoStageSteinerTree(small_tree, inflation=2.0)
        scenarios = ScenarioSet([{3}, {4}, {3, 4}])
        solution = problem.solve_total_cost(scenarios)
        assert 1 in solution.first_stage_edges  # the shared relay edge

    def test_lp_objective_lower_bounds_rounded(self):
        topo = star_topology(5)
        problem = TwoStageSteinerTree(topo, inflation=1.5)
        scenarios = ScenarioSet([{1, 2}, {3}, {2, 4}])
        solution = problem.solve_total_cost(scenarios)
        assert solution.lp_objective <= solution.total_expected_cost + 1e-9


class TestBudgeted:
    def test_budget_zero_buys_nothing(self):
        topo = star_topology(3)
        problem = TwoStageSteinerTree(topo, inflation=1.0)
        scenarios = ScenarioSet([{1}, {2}])
        solution = problem.solve_budgeted(scenarios, first_stage_budget=0.0)
        assert solution.first_stage_edges == frozenset()
        assert solution.expected_second_stage_cost == pytest.approx(1.0)

    def test_budget_prefers_frequent_demands(self):
        topo = star_topology(4)
        problem = TwoStageSteinerTree(topo, inflation=1.0)
        scenarios = ScenarioSet([{1, 2}, {1, 3}, {1, 2}])
        solution = problem.solve_budgeted(scenarios, first_stage_budget=2.0)
        assert 1 in solution.first_stage_edges  # demanded every time
        assert 2 in solution.first_stage_edges  # demanded twice
        assert solution.first_stage_cost <= 2.0

    def test_negative_budget_rejected(self):
        topo = star_topology(2)
        problem = TwoStageSteinerTree(topo)
        with pytest.raises(BudgetError):
            problem.solve_budgeted(ScenarioSet([{1}]), -1.0)

    def test_generous_budget_eliminates_recourse(self, small_tree):
        problem = TwoStageSteinerTree(small_tree, inflation=2.0)
        scenarios = ScenarioSet([{3, 6}, {4}])
        solution = problem.solve_budgeted(scenarios, first_stage_budget=10.0)
        assert solution.expected_second_stage_cost == 0.0
