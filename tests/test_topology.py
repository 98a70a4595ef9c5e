"""Tests for repro.devices.topology."""

import hashlib

import pytest

from repro.analysis.machines import bisection_bandwidth_table
from repro.core.exceptions import DeviceError
from repro.devices.topology import (
    CouplingMap,
    bowtie_topology,
    falcon_topology,
    fully_connected_topology,
    grid_topology,
    heavy_hex_topology,
    hummingbird_topology,
    line_topology,
    ring_topology,
    star_topology,
    t_topology,
)


class TestCouplingMap:
    def test_invalid_edges_rejected(self):
        with pytest.raises(DeviceError):
            CouplingMap(3, [(0, 3)])
        with pytest.raises(DeviceError):
            CouplingMap(3, [(1, 1)])
        with pytest.raises(DeviceError):
            CouplingMap(0, [])

    def test_neighbors_and_degree(self):
        cmap = line_topology(4)
        assert cmap.neighbors(0) == [1]
        assert cmap.neighbors(1) == [0, 2]
        assert cmap.degree(1) == 2

    def test_distance_on_a_line(self):
        cmap = line_topology(5)
        assert cmap.distance(0, 4) == 4
        assert cmap.distance(2, 2) == 0

    def test_shortest_path_endpoints(self):
        cmap = line_topology(5)
        path = cmap.shortest_path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) == 4

    def test_disconnected_distance_raises(self):
        cmap = CouplingMap(4, [(0, 1), (2, 3)])
        assert not cmap.is_connected_graph()
        with pytest.raises(DeviceError):
            cmap.distance(0, 3)

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(DeviceError):
            line_topology(3).neighbors(5)

    def test_equality(self):
        assert line_topology(3) == line_topology(3)
        assert line_topology(3) != ring_topology(3)

    def test_subgraph_is_connected(self):
        cmap = t_topology()  # 0-1, 1-2, 1-3, 3-4
        assert cmap.subgraph_is_connected([0, 1, 3, 4])
        assert cmap.subgraph_is_connected([4])
        assert not cmap.subgraph_is_connected([0, 2])
        assert not cmap.subgraph_is_connected([])

    @pytest.mark.parametrize("qubits", [[0, 99], [-1, 0]])
    def test_subgraph_rejects_unknown_qubits(self, qubits):
        with pytest.raises(DeviceError):
            line_topology(5).subgraph_is_connected(qubits)

    def test_diameter(self):
        assert line_topology(5).diameter() == 4
        assert line_topology(1).diameter() == 0
        with pytest.raises(DeviceError):
            CouplingMap(4, [(0, 1), (2, 3)]).diameter()


#: Fig. 6 bisection bandwidths of the study fleet (seed 3). Machines above
#: 14 qubits use the Kernighan-Lin heuristic, so these pin its partitions.
FLEET_BISECTION = {
    "ibmq_armonk": 0, "ibmq_athens": 1, "ibmq_belem": 2, "ibmq_bogota": 1,
    "ibmq_burlington": 2, "ibmq_essex": 2, "ibmq_lima": 2, "ibmq_london": 2,
    "ibmq_ourense": 2, "ibmq_quito": 2, "ibmq_rome": 1, "ibmq_santiago": 1,
    "ibmq_valencia": 2, "ibmq_vigo": 2, "ibmqx2": 2, "ibmqx4": 2,
    "ibmq_casablanca": 1, "ibmq_16_melbourne": 3, "ibmq_guadalupe": 1,
    "ibmq_20_tokyo": 6, "ibmq_boeblingen": 6, "ibmq_johannesburg": 6,
    "ibmq_poughkeepsie": 6, "ibmq_paris": 3, "ibmq_toronto": 3,
    "ibmq_rochester": 3, "ibmq_manhattan": 4,
}

#: sha256 over every fleet map's all-pairs ``shortest_path``. Routing
#: inserts SWAPs along these paths, so a change in how equal-length paths
#: tie-break changes the transpiled circuits.
FLEET_PATHS_SHA256 = (
    "ac2ad6b27e0f421126f10df841ed90fab96841da6b87d8bdfcbd2a6b8fab414e")


class TestFleetPins:
    def test_bisection_bandwidth_table(self, fleet):
        table = {row.machine: row.bisection_bandwidth
                 for row in bisection_bandwidth_table(fleet)}
        assert table == FLEET_BISECTION

    def test_all_pairs_shortest_paths(self, fleet):
        digest = hashlib.sha256()
        for name in sorted(fleet):
            cmap = fleet[name].coupling_map
            for a in range(cmap.num_qubits):
                for b in range(cmap.num_qubits):
                    path = cmap.shortest_path(a, b)
                    digest.update(f"{name} {a} {b} {path}\n".encode())
        assert digest.hexdigest() == FLEET_PATHS_SHA256


class TestBisectionBandwidth:
    def test_line_is_one(self):
        assert line_topology(8).bisection_bandwidth() == 1

    def test_ring_is_two(self):
        assert ring_topology(8).bisection_bandwidth() == 2

    def test_grid_matches_mesh_formula(self):
        # The paper's comparison: an 8x8 mesh has bisection bandwidth 8.
        assert grid_topology(4, 4).bisection_bandwidth() == 4

    def test_fully_connected(self):
        # K4 split 2/2 has 4 crossing edges.
        assert fully_connected_topology(4).bisection_bandwidth() == 4

    def test_single_qubit_is_zero(self):
        assert line_topology(1).bisection_bandwidth() == 0

    def test_heuristic_close_to_exact_on_medium_graph(self):
        cmap = grid_topology(3, 4)  # 12 qubits: exact path
        exact = cmap.bisection_bandwidth(exact_limit=14)
        heuristic = cmap.bisection_bandwidth(exact_limit=2)
        assert heuristic >= exact
        assert heuristic <= 2 * exact + 1


class TestTopologyConstructors:
    def test_t_and_bowtie_sizes(self):
        assert t_topology().num_qubits == 5
        assert bowtie_topology().num_qubits == 5

    @pytest.mark.parametrize("qubits", [7, 16, 27])
    def test_falcon_layouts_connected(self, qubits):
        cmap = falcon_topology(qubits)
        assert cmap.num_qubits == qubits
        assert cmap.is_connected_graph()

    def test_falcon_unknown_size_rejected(self):
        with pytest.raises(DeviceError):
            falcon_topology(11)

    @pytest.mark.parametrize("qubits", [53, 65])
    def test_hummingbird_layouts(self, qubits):
        cmap = hummingbird_topology(qubits)
        assert cmap.num_qubits == qubits
        assert cmap.is_connected_graph()
        # Heavy-hex lattices are sparse: average degree well under 3.
        assert 2.0 * cmap.num_edges / cmap.num_qubits < 3.0

    def test_heavy_hex_connected(self):
        assert heavy_hex_topology(4, 9).is_connected_graph()

    def test_star_topology(self):
        cmap = star_topology(5)
        assert cmap.degree(0) == 4
        assert cmap.bisection_bandwidth() >= 2

    def test_grid_invalid_dimensions(self):
        with pytest.raises(DeviceError):
            grid_topology(0, 3)
