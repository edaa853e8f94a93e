"""Tests for the radio application substrate (deployment, interference, simulation, energy)."""

import numpy as np
import pytest

from repro.algorithms.degree_periodic import DegreePeriodicScheduler
from repro.algorithms.phased_greedy import PhasedGreedyScheduler
from repro.core.problem import ConflictGraph
from repro.core.schedule import ExplicitSchedule
from repro.radio.deployment import Deployment, clustered_deployment, grid_deployment, uniform_deployment
from repro.radio.energy import EnergyModel, EnergyReport
from repro.radio.interference import interference_edges, interference_graph
from repro.radio.simulation import RadioSimulation


class TestDeployment:
    def test_uniform_shape_and_range(self):
        deployment = uniform_deployment(50, seed=1)
        assert len(deployment) == 50
        assert deployment.positions.shape == (50, 2)
        assert deployment.positions.min() >= 0.0
        assert deployment.positions.max() <= 1.0

    def test_uniform_reproducible(self):
        a = uniform_deployment(20, seed=3).positions
        b = uniform_deployment(20, seed=3).positions
        assert np.allclose(a, b)

    def test_clustered_within_unit_square(self):
        deployment = clustered_deployment(60, clusters=3, spread=0.2, seed=2)
        assert deployment.positions.min() >= 0.0
        assert deployment.positions.max() <= 1.0

    def test_clustered_is_actually_clustered(self):
        tight = clustered_deployment(60, clusters=2, spread=0.01, seed=5)
        loose = uniform_deployment(60, seed=5)
        # mean pairwise distance should be clearly smaller for the tight clusters
        def mean_dist(dep):
            pos = dep.positions
            diffs = pos[:, None, :] - pos[None, :, :]
            return float(np.sqrt((diffs**2).sum(-1)).mean())

        assert mean_dist(tight) < mean_dist(loose)

    def test_grid_deployment(self):
        deployment = grid_deployment(4, 5)
        assert len(deployment) == 20
        assert deployment.position_of(0) == pytest.approx((0.1, 0.125))

    def test_grid_with_jitter_stays_in_bounds(self):
        deployment = grid_deployment(6, 6, jitter=0.3, seed=1)
        assert deployment.positions.min() >= 0.0
        assert deployment.positions.max() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Deployment(positions=np.zeros((3, 3)), labels=[0, 1, 2])
        with pytest.raises(ValueError):
            Deployment(positions=np.zeros((3, 2)), labels=[0, 1])
        with pytest.raises(ValueError):
            Deployment(positions=np.full((2, 2), 2.0), labels=[0, 1])
        with pytest.raises(ValueError):
            uniform_deployment(-1)

    def test_as_dict(self):
        deployment = grid_deployment(2, 2)
        d = deployment.as_dict()
        assert set(d) == {0, 1, 2, 3}


class TestInterference:
    def test_radius_zero_gives_no_edges(self):
        deployment = uniform_deployment(30, seed=1)
        assert interference_edges(deployment, 0.0) == []

    def test_radius_sqrt_two_gives_clique(self):
        deployment = uniform_deployment(12, seed=1)
        graph = interference_graph(deployment, 1.5)
        assert graph.num_edges() == 12 * 11 // 2

    def test_monotone_in_radius(self):
        deployment = uniform_deployment(40, seed=2)
        small = interference_graph(deployment, 0.1).num_edges()
        large = interference_graph(deployment, 0.3).num_edges()
        assert small <= large

    def test_edges_respect_distance(self):
        deployment = uniform_deployment(25, seed=3)
        radius = 0.2
        positions = deployment.as_dict()
        graph = interference_graph(deployment, radius)
        for u, v in graph.edges():
            (x1, y1), (x2, y2) = positions[u], positions[v]
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 <= radius**2 + 1e-9
        # and a couple of non-edges really are far apart
        non_edges = [
            (u, v)
            for u in graph.nodes()
            for v in graph.nodes()
            if u < v and not graph.has_edge(u, v)
        ][:10]
        for u, v in non_edges:
            (x1, y1), (x2, y2) = positions[u], positions[v]
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 > radius**2

    def test_single_radio(self):
        deployment = uniform_deployment(1, seed=0)
        graph = interference_graph(deployment, 0.5)
        assert graph.num_nodes() == 1 and graph.num_edges() == 0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            interference_edges(uniform_deployment(3, seed=0), -0.1)


class TestEnergyModel:
    def test_node_energy_accounting(self):
        model = EnergyModel(tx_cost=10.0, listen_cost=5.0, sleep_cost=1.0)
        assert model.node_energy(10, transmissions=2, awake_non_tx=3) == pytest.approx(
            2 * 10 + 3 * 5 + 5 * 1
        )

    def test_rejects_overcommitted_slots(self):
        with pytest.raises(ValueError):
            EnergyModel().node_energy(5, transmissions=3, awake_non_tx=3)

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_cost=-1.0)

    def test_report_aggregates(self):
        report = EnergyReport(horizon=10, per_node={0: 5.0, 1: 15.0})
        assert report.total == 20.0
        assert report.mean == 10.0
        assert report.max == 15.0
        assert set(report.summary()) == {"total", "mean", "max"}

    def test_empty_report(self):
        report = EnergyReport(horizon=10)
        assert report.total == 0.0 and report.mean == 0.0 and report.max == 0.0


class TestRadioSimulation:
    @pytest.fixture
    def setup(self):
        deployment = uniform_deployment(30, seed=4)
        graph = interference_graph(deployment, 0.25)
        schedule = DegreePeriodicScheduler().build(graph)
        return graph, schedule

    def test_no_collisions_for_legal_schedule(self, setup):
        graph, schedule = setup
        log = RadioSimulation(graph, schedule).run(horizon=128)
        assert log.total_collisions == 0
        assert log.total_transmissions > 0

    def test_collisions_detected_for_broken_schedule(self):
        graph = ConflictGraph.from_edges([(0, 1)])
        broken = ExplicitSchedule(graph, [[0, 1]], validate=False, cyclic=True)
        log = RadioSimulation(graph, broken).run(horizon=10)
        assert log.total_collisions == 20  # both radios collide every slot

    def test_longest_silence_equals_mul(self, setup):
        graph, schedule = setup
        simulation = RadioSimulation(graph, schedule)
        log = simulation.run(horizon=96)
        assert simulation.silence_matches_mul(log)

    def test_periodic_schedule_uses_less_energy_than_online(self):
        deployment = uniform_deployment(25, seed=9)
        graph = interference_graph(deployment, 0.25)
        periodic = DegreePeriodicScheduler().build(graph)
        online = PhasedGreedyScheduler(initial_coloring="greedy").build(graph)
        horizon = 64
        sim_periodic = RadioSimulation(graph, periodic)
        sim_online = RadioSimulation(graph, online)
        energy_periodic = sim_periodic.energy(sim_periodic.run(horizon))
        energy_online = sim_online.energy(sim_online.run(horizon))
        assert energy_periodic.total < energy_online.total

    def test_schedule_graph_mismatch_rejected(self, setup):
        graph, schedule = setup
        other = ConflictGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            RadioSimulation(other, schedule)

    def test_bad_horizon(self, setup):
        graph, schedule = setup
        with pytest.raises(ValueError):
            RadioSimulation(graph, schedule).run(horizon=0)

    def test_transmission_log_helpers(self, setup):
        graph, schedule = setup
        log = RadioSimulation(graph, schedule).run(horizon=64)
        node = graph.nodes()[0]
        assert log.transmission_count(node) == len(log.transmissions[node])
        assert 0 <= log.longest_silence(node) <= 64
