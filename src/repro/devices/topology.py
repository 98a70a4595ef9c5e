"""Coupling maps and topology metrics.

IBM superconducting devices restrict two-qubit gates to nearest-neighbour
pairs of a sparse coupling graph.  This module provides:

* :class:`CouplingMap` — the undirected connectivity graph with distance
  queries (used by routing) and the **bisection bandwidth** metric that
  Fig. 6 of the paper plots against machine size.
* Constructors for the topology families used by the machine catalog:
  lines, rings, grids, the 5-qubit T/bowtie layouts, the 16/27-qubit Falcon
  lattices and the 53/65-qubit Hummingbird heavy-hex lattices.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.exceptions import DeviceError

Edge = Tuple[int, int]
#: Qubit -> neighbours, both in edge-insertion order (values are unused).
Adjacency = Dict[int, Dict[int, None]]


class CouplingMap:
    """Undirected qubit-connectivity graph of a quantum machine."""

    def __init__(self, num_qubits: int, edges: Iterable[Edge]):
        if num_qubits < 1:
            raise DeviceError("a coupling map needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self._adjacency: Adjacency = {q: {} for q in range(self.num_qubits)}
        for a, b in edges:
            if a == b:
                raise DeviceError(f"self-loop edge ({a}, {b}) is invalid")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise DeviceError(
                    f"edge ({a}, {b}) out of range for {num_qubits} qubits"
                )
            a, b = int(a), int(b)
            self._adjacency[a][b] = None
            self._adjacency[b][a] = None
        self._distance_cache: Optional[Dict[int, Dict[int, int]]] = None
        self._edges = tuple(sorted({(min(a, b), max(a, b))
                                    for a, nbrs in self._adjacency.items()
                                    for b in nbrs}))

    # -- basic structure -----------------------------------------------------------

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, qubit: int) -> List[int]:
        self._check_qubit(qubit)
        return sorted(self._adjacency[qubit])

    def degree(self, qubit: int) -> int:
        self._check_qubit(qubit)
        return len(self._adjacency[qubit])

    def are_connected(self, qubit_a: int, qubit_b: int) -> bool:
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        return qubit_b in self._adjacency[qubit_a]

    def is_connected_graph(self) -> bool:
        """Whether the device graph is a single connected component."""
        return len(self._bfs(0)) == self.num_qubits

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise DeviceError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit map"
            )

    # -- distances -----------------------------------------------------------------

    def _bfs(self, source: int, within: Optional[Set[int]] = None
             ) -> Dict[int, int]:
        """Hop counts from ``source`` to the qubits it reaches (through
        ``within`` only, when given)."""
        adjacency = self._adjacency
        hops = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier = []
            for node in frontier:
                for nbr in adjacency[node]:
                    if nbr not in hops and (within is None or nbr in within):
                        hops[nbr] = hops[node] + 1
                        next_frontier.append(nbr)
            frontier = next_frontier
        return hops

    def _distances(self) -> Dict[int, Dict[int, int]]:
        if self._distance_cache is None:
            self._distance_cache = {q: self._bfs(q)
                                    for q in range(self.num_qubits)}
        return self._distance_cache

    def distance(self, qubit_a: int, qubit_b: int) -> int:
        """Shortest-path distance in the coupling graph."""
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        try:
            return self._distances()[qubit_a][qubit_b]
        except KeyError:
            raise DeviceError(
                f"qubits {qubit_a} and {qubit_b} are not connected"
            ) from None

    def shortest_path(self, qubit_a: int, qubit_b: int) -> List[int]:
        """One shortest path from ``qubit_a`` to ``qubit_b``, endpoints
        included; see :func:`_bidirectional_bfs` for which one."""
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        meeting = _bidirectional_bfs(self._adjacency, qubit_a, qubit_b)
        if meeting is None:
            raise DeviceError(
                f"qubits {qubit_a} and {qubit_b} are not connected"
            )
        pred, succ, node = meeting
        path = []
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[path[-1]]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def diameter(self) -> int:
        if not self.is_connected_graph():
            raise DeviceError("diameter undefined for disconnected coupling map")
        return max(max(hops.values()) for hops in self._distances().values())

    # -- bisection bandwidth (Fig. 6) ------------------------------------------------

    def bisection_bandwidth(self, exact_limit: int = 14) -> int:
        """Minimum number of edges crossing a balanced bipartition.

        For machines up to ``exact_limit`` qubits the exact optimum is found
        by enumerating balanced partitions; beyond that a Kernighan-Lin style
        heuristic (with several seeds) is used, which matches the accuracy
        needed to reproduce Fig. 6's qualitative claim that quantum devices
        have far lower bisection bandwidth than classical meshes.
        """
        if self.num_qubits == 1:
            return 0
        if self.num_qubits <= exact_limit:
            # Qubit 0 stays on the first side, so each split is counted once.
            return min(self._cut_size({0, *combo}) for combo in
                       itertools.combinations(range(1, self.num_qubits),
                                              self.num_qubits // 2 - 1))
        return min(self._cut_size(_kernighan_lin(self._adjacency, seed))
                   for seed in range(5))

    def _cut_size(self, side: Set[int]) -> int:
        return sum(1 for a, b in self._edges if (a in side) != (b in side))

    def subgraph_is_connected(self, qubits: Sequence[int]) -> bool:
        """Whether the induced subgraph over ``qubits`` is connected."""
        if not qubits:
            return False
        for qubit in qubits:
            self._check_qubit(qubit)
        members = set(qubits)
        return len(self._bfs(qubits[0], within=members)) == len(members)

    def __repr__(self) -> str:
        return f"CouplingMap(qubits={self.num_qubits}, edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingMap):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.edges == other.edges


# Transcriptions of NetworkX's routing and bisection algorithms: equal-cost
# choices must resolve as NetworkX's do, because the pinned traces (SWAP
# paths) and Fig. 6 values were computed with them.

def _bidirectional_bfs(adjacency: Adjacency, source: int, target: int
                       ) -> Optional[Tuple[Dict, Dict, int]]:
    """NetworkX's ``_bidirectional_pred_succ``: BFS from both ends, the
    smaller fringe first, giving ``(pred, succ, meeting node)`` or ``None``
    when ``source`` cannot reach ``target``."""
    pred: Dict[int, Optional[int]] = {source: None}
    succ: Dict[int, Optional[int]] = {target: None}
    if source == target:
        return pred, succ, source
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for v in level:
                for w in adjacency[v]:
                    if w not in pred:
                        forward.append(w)
                        pred[w] = v
                    if w in succ:
                        return pred, succ, w
        else:
            level, reverse = reverse, []
            for v in level:
                for w in adjacency[v]:
                    if w not in succ:
                        succ[w] = v
                        reverse.append(w)
                    if w in pred:
                        return pred, succ, w
    return None


def _kernighan_lin(adjacency: Adjacency, seed: int) -> Set[int]:
    """One side of NetworkX 3.x's ``kernighan_lin_bisection`` of a
    unit-weight graph with ``max_iter=20``: a ``random.Random(seed)``
    balanced split, then up to 20 sweeps, each keeping its best prefix of
    moves."""
    nodes = list(adjacency)
    random.Random(seed).shuffle(nodes)
    first = set(nodes[:len(nodes) // 2])
    side = {node: int(node in first) for node in adjacency}
    for _ in range(20):
        costs = list(_kernighan_lin_sweep(adjacency, side))
        min_cost, min_i, _ = min(costs)
        if min_cost >= 0:
            break
        for _, _, (u, v) in costs[:min_i]:
            side[u] = 1
            side[v] = 0
    return {node for node, s in side.items() if s == 0}


def _kernighan_lin_sweep(adjacency: Adjacency, side: Dict[int, int]
                         ) -> Iterator[Tuple[int, int, Edge]]:
    """Move the cheapest node off each side in turn, yielding the running
    cut change, the move count and the pair. Each side has a lazy heap of
    ``(cost, insertion count, node)``, as NetworkX's ``BinaryHeap``."""
    costs: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
    heaps: Tuple[list, list] = ([], [])
    counter = itertools.count()

    def push(node: int, s: int, cost: int) -> None:
        costs[s][node] = cost
        heapq.heappush(heaps[s], (cost, next(counter), node))

    def pop(s: int) -> Tuple[int, int]:
        while True:
            cost, _, node = heapq.heappop(heaps[s])
            if costs[s].get(node) == cost:
                del costs[s][node]
                return node, cost

    def moved(node: int) -> None:
        for nbr in adjacency[node]:
            s = side[nbr]
            if nbr in costs[s]:
                push(nbr, s, costs[s][nbr] + (-2 if s == side[node] else 2))

    for u, nbrs in adjacency.items():
        cost = sum(1 if side[v] else -1 for v in nbrs)
        push(u, side[u], cost if side[u] else -cost)
    total = moves = 0
    while costs[0] and costs[1]:
        u, cost_u = pop(0)
        moved(u)
        v, cost_v = pop(1)
        moved(v)
        total += cost_u + cost_v
        moves += 1
        yield total, moves, (u, v)


# ---------------------------------------------------------------------------
# Topology constructors
# ---------------------------------------------------------------------------

def line_topology(num_qubits: int) -> CouplingMap:
    """A 1-D chain of qubits."""
    return CouplingMap(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)])


def ring_topology(num_qubits: int) -> CouplingMap:
    """A 1-D ring."""
    if num_qubits < 3:
        return line_topology(num_qubits)
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingMap(num_qubits, edges)


def star_topology(num_qubits: int) -> CouplingMap:
    """Qubit 0 connected to every other qubit."""
    return CouplingMap(num_qubits, [(0, i) for i in range(1, num_qubits)])


def fully_connected_topology(num_qubits: int) -> CouplingMap:
    """All-to-all connectivity (used for fake/ideal comparisons)."""
    edges = list(itertools.combinations(range(num_qubits), 2))
    return CouplingMap(num_qubits, edges)


def grid_topology(rows: int, cols: int) -> CouplingMap:
    """A rows x cols 2-D mesh (the classical comparator in Fig. 6)."""
    if rows < 1 or cols < 1:
        raise DeviceError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return CouplingMap(rows * cols, edges)


def t_topology() -> CouplingMap:
    """The 5-qubit "T" layout of ibmq_ourense / vigo / valencia."""
    return CouplingMap(5, [(0, 1), (1, 2), (1, 3), (3, 4)])


def bowtie_topology() -> CouplingMap:
    """The 5-qubit bowtie layout of ibmqx2 (yorktown)."""
    return CouplingMap(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def falcon_topology(num_qubits: int) -> CouplingMap:
    """Falcon-family lattices (7, 16 or 27 qubits).

    These follow the heavy-hexagon fragments IBM used for the Falcon
    processors (casablanca/guadalupe/toronto/paris and peers).
    """
    if num_qubits == 7:
        edges = [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]
        return CouplingMap(7, edges)
    if num_qubits == 16:
        edges = [
            (0, 1), (1, 2), (2, 3), (3, 5), (4, 1), (5, 8), (6, 7), (7, 10),
            (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
        ]
        return CouplingMap(16, edges)
    if num_qubits == 27:
        edges = [
            (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
            (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
            (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21),
            (19, 20), (19, 22), (21, 23), (22, 25), (23, 24), (24, 25),
            (25, 26),
        ]
        return CouplingMap(27, edges)
    raise DeviceError(f"no Falcon layout defined for {num_qubits} qubits")


def heavy_hex_topology(rows: int, cols: int) -> CouplingMap:
    """A generic heavy-hexagon-like sparse lattice.

    Construction: take a ``rows x cols`` mesh and delete alternating vertical
    links so the average degree drops to ~2.3, which matches the sparsity of
    IBM heavy-hex devices closely enough for bisection-bandwidth and routing
    studies.
    """
    if rows < 1 or cols < 1:
        raise DeviceError("heavy-hex dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows and (c % 4 == r % 2 * 2):
                edges.append((node, node + cols))
    cmap = CouplingMap(rows * cols, edges)
    if not cmap.is_connected_graph():
        # Guarantee connectivity by stitching rows at the left edge.
        extra = [(r * cols, (r + 1) * cols) for r in range(rows - 1)]
        cmap = CouplingMap(rows * cols, edges + extra)
    return cmap


def hummingbird_topology(num_qubits: int) -> CouplingMap:
    """Hummingbird-family lattices (53 or 65 qubits, heavy-hex)."""
    if num_qubits == 65:
        return heavy_hex_topology(5, 13)
    if num_qubits == 53:
        cmap = heavy_hex_topology(5, 11)
        # trim to 53 qubits by removing the two highest-index nodes' edges
        keep = 53
        edges = [(a, b) for a, b in cmap.edges if a < keep and b < keep]
        trimmed = CouplingMap(keep, edges)
        if not trimmed.is_connected_graph():
            edges.append((keep - 2, keep - 1))
            edges.append((keep - 12, keep - 1))
            trimmed = CouplingMap(keep, edges)
        return trimmed
    raise DeviceError(f"no Hummingbird layout defined for {num_qubits} qubits")
