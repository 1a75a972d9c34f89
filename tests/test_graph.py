import gc
import itertools
import json
import math
from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districter import (InstanceError, Plan, connected_components,
                        is_connected, load_instance, repair, validate_plan)
from districter.geometry import RingTable, shared_boundaries
from districter.graph import (ContiguityGraph, corner_answer, corner_holes,
                              move_holes, split_territories,
                              stays_connected_without, whole_numbers)
from districter.instances import derive_adjacency

from conftest import (CORNER_MAPS, grid_adjacency, hex_ring,
                      make_grid_graph, make_hex_graph, make_ragged_graph,
                      plans_equal, reference_repair)


@pytest.fixture(scope="module")
def g3():
    return make_grid_graph(3, 3, pop=np.full(9, 10), cap=np.zeros(9))


def plan_on(g3, assignment, centers=(0, 8)):
    return Plan(np.asarray(assignment), np.asarray(centers))


def test_is_connected(g3):
    assert is_connected(g3, [0, 1, 2])
    assert not is_connected(g3, [0, 2])
    assert is_connected(g3, [4])
    assert not is_connected(g3, [])


def test_connected_components(g3):
    comps = connected_components(g3, [0, 2, 6, 7, 8])
    assert [set(c) for c in comps] == [{0}, {2}, {6, 7, 8}]
    assert len(connected_components(g3, range(9))) == 1
    assert connected_components(g3, []) == []


def test_components_partition_and_connect(g3):
    rng = np.random.default_rng(0)
    for _ in range(25):
        nodes = np.flatnonzero(rng.random(9) < 0.6)
        comps = connected_components(g3, nodes)
        merged = sorted(int(v) for c in comps for v in c)
        assert merged == sorted(int(v) for v in nodes)
        for c in comps:
            assert is_connected(g3, c)
        for i, c in enumerate(comps[:-1]):
            assert c.min() < comps[i + 1].min()


def random_edge_table(rng, n):
    """Random spanning tree plus extra edges, as a shuffled edge table in
    which some pairs come again, in either orientation."""
    order = rng.permutation(n).tolist()
    pairs = [(order[i], order[rng.integers(i)]) for i in range(1, n)]
    pairs += [(u, v) for u, v in rng.integers(n, size=(rng.integers(n), 2))
              .tolist() if u != v]
    again = rng.integers(len(pairs), size=n // 2) if pairs else []
    pairs += [pairs[i][::-1] if rng.random() < 0.5 else pairs[i]
              for i in again]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def random_connected_graph(rng, n):
    return ContiguityGraph(n, random_edge_table(rng, n))


def test_is_connected_matches_matrix_power_oracle():
    """is_connected and connected_components against reachability computed
    from powers of the induced adjacency matrix, on random graphs of up to
    64 nodes: the component node sets, each array sorted, the order by
    smallest member, and independence from the order the nodes are given."""
    rng = np.random.default_rng(7)
    split_deep = 0      # cases with several components, one of 4+ nodes
    for _ in range(40):
        n = int(rng.integers(2, 65))
        graph = random_connected_graph(rng, n)
        nodes = np.flatnonzero(rng.random(n) < rng.uniform(0.2, 0.8))
        a = np.zeros((n, n), dtype=bool)
        for u, v in graph.edges:
            a[u, v] = a[v, u] = True
        mask = np.zeros(n, dtype=bool)
        mask[nodes] = True
        induced = a & mask[:, None] & mask[None, :]
        reach = np.eye(n, dtype=bool) | induced
        for _ in range(n):
            reach = reach | (reach @ induced)
        expected = []   # nodes ascend, so components come by smallest member
        for v in nodes:
            if not any(v in c for c in expected):
                expected.append(nodes[reach[v, nodes]])

        comps = connected_components(graph, list(rng.permutation(nodes)))
        assert len(comps) == len(expected)
        for got, want in zip(comps, expected):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert is_connected(graph, nodes) == (len(expected) == 1)
        if len(expected) > 1 and max(len(c) for c in expected) >= 4:
            split_deep += 1
    assert split_deep >= 10


# ---------------------------------------------------------------------------
# split_territories against networkx and a per-territory search
# ---------------------------------------------------------------------------

def networkx_split(graph, assignment, k):
    """networkx: the territories of 0..k-1 with no node or more than one
    component among the edges inside them."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.node_count))
    g.add_edges_from((u, v) for u, v in graph.edges.tolist()
                     if assignment[u] == assignment[v])
    pieces = np.zeros(k, dtype=int)
    for component in nx.connected_components(g):
        pieces[assignment[next(iter(component))]] += 1
    return np.flatnonzero(pieces != 1).tolist()


def random_tiling(rng):
    """A rook grid, hex or ragged-rectangle tiling of up to 12 x 12 cells."""
    rows, cols = (int(x) for x in rng.integers(1, 13, size=2))
    kind = rng.integers(3)
    if kind == 2:
        xs = np.cumsum(rng.uniform(0.5, 2.0, size=cols + 1))
        ys = np.cumsum(rng.uniform(0.5, 2.0, size=rows + 1))
        zero = np.zeros(rows * cols, dtype=np.int64)
        return make_ragged_graph(xs, ys, zero, zero)
    return (make_grid_graph, make_hex_graph)[kind](rows, cols)


def test_split_territories_matches_networkx():
    """On random plans over grid, hex and ragged tilings, grown connected
    or labelled at random, with territories left empty: the territories
    networkx finds empty or in pieces, in ascending order."""
    rng = np.random.default_rng(31)
    seen = {"empty": 0, "split": 0, "whole": 0}
    for _ in range(120):
        graph = random_tiling(rng)
        n = graph.node_count
        k = int(rng.integers(1, n + 1))
        if rng.random() < 0.5:
            owner = np.array(grown_owner(graph, rng, k))
        else:
            owner = rng.integers(0, k, size=n)
        k += int(rng.integers(0, 3))        # territories no node is in
        got = split_territories(graph, owner, k)
        assert got == networkx_split(graph, owner, k)
        sizes = np.bincount(owner, minlength=k)
        seen["empty"] += int((sizes == 0).any())
        seen["split"] += int(any(sizes[t] for t in got))
        seen["whole"] += int(not got)
    assert min(seen.values()) >= 10


def test_split_territories_small_cases(g3):
    """An empty territory, one split into three pieces, a one-node graph,
    and an edgeless two-node graph (which no ContiguityGraph holds)."""
    # territory 0 = {0, 2, 7}: three pieces; territory 2 has no node
    a = np.array([0, 1, 0,
                  1, 1, 1,
                  1, 0, 1])
    assert split_territories(g3, a, 3) == [0, 2]
    assert split_territories(g3, a, 2) == [0]
    assert split_territories(g3, np.zeros(9, dtype=np.int64), 1) == []

    lone = ContiguityGraph(1, [])
    assert split_territories(lone, np.array([0]), 1) == []
    assert split_territories(lone, np.array([0]), 2) == [1]

    edgeless = SimpleNamespace(node_count=2,
                               edges=np.zeros((0, 2), dtype=np.int64))
    assert split_territories(edgeless, np.array([0, 0]), 1) == [0]
    assert split_territories(edgeless, np.array([0, 1]), 2) == []
    with pytest.raises(InstanceError, match="disconnected"):
        ContiguityGraph(2, [])


def test_split_territories_on_a_long_shuffled_path():
    """A path whose node ids are randomly permuted, so that labels come
    down from far along it: whole, then in two territories, then with a
    third territory that cuts the second in two."""
    n = 20_000
    rng = np.random.default_rng(5)
    order = rng.permutation(n)
    graph = ContiguityGraph(n, np.column_stack([order[:-1], order[1:]]))
    assert split_territories(graph, np.zeros(n, dtype=np.int64), 1) == []
    a = np.zeros(n, dtype=np.int64)
    a[order[n // 4:]] = 1                  # the path cut in two
    assert split_territories(graph, a, 2) == []
    a[order[n // 3:n // 2]] = 2            # cuts territory 1 in two
    assert split_territories(graph, a, 3) == [1]
    assert split_territories(graph, a, 4) == [1, 3]


def reference_hard_violations(plan, graph):
    """validate_plan's hard messages as a search of each territory in turn
    gives them, for an assignment of nodes to 0..k-1."""
    a, hard = plan.assignment, []
    n = graph.node_count
    for i, c in enumerate(plan.centers.tolist()):
        if not 0 <= c < n:
            hard.append(f"center {c} of territory {i} is not a node of "
                        f"0..{n - 1}")
        elif a[c] != i:
            hard.append(f"center moved: node {c} not in territory {i}")
    for i in range(plan.territory_count):
        members = plan.territory(i)
        if members.size == 0:
            hard.append(f"territory {i} is empty")
        elif not is_connected(graph, members):
            hard.append(f"territory {i} is disconnected")
    return hard


def test_validate_plan_matches_per_territory_reference():
    """validate_plan's hard violations, on random plans over grid, hex and
    ragged tilings, equal a per-territory is_connected loop's."""
    rng = np.random.default_rng(8)
    broken = 0
    for _ in range(80):
        graph = random_tiling(rng)
        n = graph.node_count
        k = int(rng.integers(1, min(n, 8) + 1))
        if rng.random() < 0.5:
            a = np.array(grown_owner(graph, rng, k))
        else:
            a = rng.integers(0, k, size=n)
        k = min(k + int(rng.integers(0, 2)), n)
        # mostly a member of each territory; a random free node otherwise
        free = rng.permutation(n).tolist()
        centers = []
        for i in range(k):
            members = np.flatnonzero(a == i)
            if members.size and rng.random() < 0.9:
                centers.append(int(rng.choice(members)))
            else:
                centers.append(next(v for v in free if v not in centers))
        if len(set(centers)) < k:
            continue
        plan = Plan(a, centers)
        result = validate_plan(plan, graph, 1.0)
        expected = reference_hard_violations(plan, graph)
        assert result.hard_violations == expected
        assert result.hard_ok == (not expected)
        broken += not result.hard_ok
    assert 10 <= broken <= 70


def test_validate_plan_range_checks_centers(g3):
    """A center outside 0..N-1 is a hard violation that names it: -1 used
    to read the last node's territory and pass, and 9 raised IndexError."""
    a = [0, 0, 0, 0, 0, 1, 1, 1, 1]
    for center in (-1, 9, 100):
        result = validate_plan(plan_on(g3, a, centers=(0, center)), g3, 1.0)
        assert not result.hard_ok and not result.centers_ok
        assert result.hard_violations == [
            f"center {center} of territory 1 is not a node of 0..8"]
    # also where the assignment itself is refused
    result = validate_plan(plan_on(g3, a[:4], centers=(0, -1)), g3, 1.0)
    assert not result.centers_ok
    assert result.hard_violations == [
        "assignment length does not match node count",
        "center -1 of territory 1 is not a node of 0..8"]


def test_validate_plan_passes(g3):
    p = plan_on(g3, [0, 0, 0, 0, 0, 1, 1, 1, 1])
    result = validate_plan(p, g3, tau=1.0)
    assert result.hard_ok and result.unique_assignment and result.centers_ok


def test_validate_plan_center_moved(g3):
    p = plan_on(g3, [0, 0, 0, 0, 0, 0, 0, 0, 0])  # center 8 not in territory 1
    result = validate_plan(p, g3, tau=1.0)
    assert not result.centers_ok
    assert any("center moved" in msg for msg in result.hard_violations)


def test_validate_plan_disconnected(g3):
    a = np.ones(9, dtype=np.int64)
    a[0] = 0
    a[2] = 0  # territory 0 = {0, 2}: no shared edge
    result = validate_plan(Plan(a, np.array([0, 8])), g3, tau=1.0)
    assert not result.contiguity_ok
    assert any("disconnected" in msg for msg in result.hard_violations)


def test_validate_plan_band_is_soft():
    g = make_grid_graph(3, 3, pop=np.full(9, 10), cap=np.array(
        [60, 0, 0, 0, 0, 0, 0, 0, 30]))
    p = Plan(np.array([0, 0, 0, 0, 0, 1, 1, 1, 1]), np.array([0, 8]))
    result = validate_plan(p, g, tau=0.05)
    assert result.hard_ok and not result.band_ok and result.soft_violations
    assert validate_plan(p, g, tau=1.0).band_ok


def test_validate_plan_requires_territories(g3):
    with pytest.raises(InstanceError):
        validate_plan(Plan(np.zeros(9, dtype=np.int64), np.array([], dtype=np.int64)),
                      g3, tau=0.1)
    with pytest.raises(ValueError):
        validate_plan(plan_on(g3, [0, 0, 0, 0, 0, 1, 1, 1, 1]), g3, tau=-1.0)


def test_validate_plan_refuses_nan_tau(g3):
    # NaN used to pass and put every territory "outside [nan, nan]"
    with pytest.raises(ValueError, match="tau must be non-negative"):
        validate_plan(plan_on(g3, [0, 0, 0, 0, 0, 1, 1, 1, 1]), g3,
                      tau=float("nan"))


@pytest.mark.parametrize("assignment, centers, match", [
    ([0, 0.5, 1.7, 1], [0, 3], "plan assignment of node 1 is 0.5, not a "
     "finite whole number"),
    (["1", 0], [0, 1], "plan assignment of node 0 is '1', not a number"),
    ([True, 0], [0, 1], "plan assignment of node 0 is True, not a number"),
    ([0, 1], [0, 2.9], "plan center 1 is 2.9, not a finite whole number"),
    ([0, float("nan")], [0, 1], "plan assignment of node 1 is nan"),
    ([0, 2 ** 70], [0, 1], f"plan assignment of node 1 is {2 ** 70}"),
    (np.array([0, 2 ** 63], dtype=np.uint64), [0, 1],
     f"plan assignment of node 1 is {2 ** 63}"),
], ids=["fraction", "text", "bool", "fractional-center", "nan", "huge",
        "huge-unsigned"])
def test_plan_refuses_entries_that_are_not_whole_numbers(assignment, centers,
                                                         match):
    # the first three used to become 0 or 1 and the center 2; NaN and 2**70
    # raised numpy's ValueError and OverflowError, and 2**63 unsigned
    # wrapped round to -2**63
    with pytest.raises(InstanceError, match=match):
        Plan(assignment, centers)


def test_plan_keeps_integer_arrays_and_whole_numbers():
    for assignment in ([0, 1.0, 1], np.array([0, 1, 1], dtype=np.int32),
                       np.array([0, 1, 1], dtype=np.uint8),
                       np.array([0, 1, 1])):
        plan = Plan(assignment, (0, 2))
        assert plan.assignment.dtype == plan.centers.dtype == np.int64
        assert plan.assignment.tolist() == [0, 1, 1]


def test_graph_construction_contracts():
    with pytest.raises(InstanceError):
        ContiguityGraph(2, [[0, 1], [0, 0]])  # self-loop
    with pytest.raises(InstanceError):
        ContiguityGraph(3, [[0, 1]])  # disconnected


def test_per_node_sequences_are_left_out_of_collections():
    """The graph's per-node sequences hold only numbers, so after one
    collection the cyclic collector no longer tracks them, and they add
    nothing to what later collections walk."""
    graph = make_hex_graph(12, 12)
    along = graph.along_neighbors(np.ones(graph.edge_count))
    gc.collect()
    assert not any(gc.is_tracked(nb) for nb in graph.neighbor_lists)
    assert not any(gc.is_tracked(values) for values in along)


def distinct_neighbour_objects(graph) -> int:
    return len({id(v) for nb in graph.neighbor_lists for v in nb})


def test_neighbour_lists_share_one_int_per_node(tmp_path):
    """Every neighbour entry naming a node is one int object, so the lists
    hold at most N ints however many edges there are: on a hand-built hex
    graph and on a loaded polygon-only hex instance, both past the
    interpreter's cached small ints."""
    graph = make_hex_graph(30, 30)
    assert 2 * graph.edge_count > 3 * graph.node_count
    assert distinct_neighbour_objects(graph) <= graph.node_count
    units = [{"id": v, "polygon": [hex_ring(*divmod(v, 30))],
              "population": {"ES": 1}, "capacity": {"ES": int(v == 0)}}
             for v in range(900)]
    path = tmp_path / "hex.json"
    path.write_text(json.dumps({"units": units}))
    loaded = load_instance(path, "ES").graph
    assert loaded.neighbor_lists == graph.neighbor_lists
    assert distinct_neighbour_objects(loaded) <= loaded.node_count


def test_graph_construction_matches_sets_and_sorted():
    """On random edge tables with repeated pairs in both orientations:
    ``neighbor_lists`` and ``edges`` equal a plain build from sets and
    ``sorted``, and ``along_neighbors`` equals a dict lookup of each edge's
    value.  Adding a self-loop, an out-of-range pair or an isolated node is
    refused."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        table = random_edge_table(rng, n)
        graph = ContiguityGraph(n, table)
        sets = [set() for _ in range(n)]
        for u, v in table:
            sets[u].add(v)
            sets[v].add(u)
        assert graph.neighbor_lists == tuple(tuple(sorted(s)) for s in sets)
        assert all(type(v) is int for nb in graph.neighbor_lists for v in nb)
        edges = sorted({(min(u, v), max(u, v)) for u, v in table})
        assert graph.edges.dtype == np.int64
        assert graph.edges.tolist() == [list(e) for e in edges]
        values = rng.random(len(edges))
        value = dict(zip(edges, values.tolist()))
        assert graph.along_neighbors(values) == tuple(
            tuple(value[min(u, v), max(u, v)] for v in nb)
            for u, nb in enumerate(graph.neighbor_lists))

        u = int(rng.integers(n))
        for bad in ((u, u), (u, n), (-1, u)):
            with pytest.raises(InstanceError, match=rf"edge \[{bad[0]}, "
                               rf"{bad[1]}\] is not two distinct nodes of "
                               rf"0\.\.{n - 1}"):
                ContiguityGraph(n, table[:1] + [bad] + table[1:])
        with pytest.raises(InstanceError, match="disconnected"):
            ContiguityGraph(n + 1, table)


def unique_lexsort_build(n, table):
    """``edges``, ``neighbor_lists`` and ``along_neighbors`` of the edge
    table ``table`` over ``n`` nodes, built with ``np.unique`` of the
    ``lo * n + hi`` keys and ``np.lexsort`` of both directions."""
    lo, hi = np.sort(np.asarray(table, dtype=np.int64).reshape(-1, 2),
                     axis=1).T
    edges = np.column_stack(np.divmod(np.unique(lo * n + hi), n))
    both = np.concatenate([edges, edges[:, ::-1]])
    order = np.lexsort((both[:, 1], both[:, 0]))
    ends = np.cumsum(np.bincount(both[:, 0], minlength=n))[:-1]

    def per_node(flat):
        return tuple(tuple(part.tolist()) for part in np.split(flat, ends))

    return (edges, per_node(both[order, 1]),
            lambda values: per_node(np.concatenate([values, values])[order]))


def bench_edge_table(case, rng):
    """The edges of one of the benchmark's three instance shapes, a third
    of them again reversed, half of all rows reversed, rows shuffled."""
    if case == "hex-80x80":
        rings = RingTable.from_lists([[hex_ring(*divmod(v, 80))]
                                      for v in range(6400)])
        n, edges = 6400, derive_adjacency(shared_boundaries(rings))
    else:
        size = 10 if case == "grid-10x10" else 40
        n, edges = size * size, np.array(grid_adjacency(size, size))
    table = np.concatenate([edges, edges[rng.random(len(edges)) < 1 / 3]])
    flip = rng.random(len(table)) < 0.5
    table[flip] = table[flip, ::-1]
    return n, table[rng.permutation(len(table))]


@pytest.mark.parametrize("case", ["random", "grid-10x10", "grid-40x40",
                                  "hex-80x80"])
def test_graph_build_equals_unique_and_lexsort(case):
    """The one-sort edge merge and the key argsort of both directions give
    the ``edges``, ``neighbor_lists`` and ``along_neighbors`` that
    ``np.unique`` and ``np.lexsort`` give, on random edge tables with
    repeats, reversed pairs and shuffled rows and on the bench shapes."""
    rng = np.random.default_rng(14)
    if case == "random":
        cases = [(n, random_edge_table(rng, n))
                 for n in rng.integers(1, 60, size=40).tolist()]
    else:
        cases = [bench_edge_table(case, rng)]
    for n, table in cases:
        graph = ContiguityGraph(n, table)
        edges, lists, along = unique_lexsort_build(n, table)
        assert graph.edges.tobytes() == edges.tobytes()
        assert graph.neighbor_lists == lists
        values = rng.random(len(edges))
        assert graph.along_neighbors(values) == along(values)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_whole_numbers_of_integer_arrays(dtype):
    """An integer array gives the int64 array its nested lists give."""
    values = np.random.default_rng(12).integers(0, 100, (4, 3)).astype(dtype)
    got = whole_numbers(values, "x")
    assert got.dtype == np.int64 and got is not values
    assert np.array_equal(got, whole_numbers(values.tolist(), "x"))
    assert whole_numbers(np.array(7, dtype), "x").tolist() == 7


@pytest.mark.parametrize("dtype, big", [
    (np.int64, 2 ** 53 + 1), (np.int64, -(2 ** 53) - 1),
    (np.int64, 2 ** 63 - 1), (np.int64, -(2 ** 63)), (np.uint64, 2 ** 63)])
def test_whole_numbers_of_integer_arrays_keep_the_range(dtype, big):
    """An entry beyond 2**53 in magnitude is refused by its flat index, in
    an integer array as in nested lists (where 2**53 + 1 would round to
    2**53 as a float); 2**53 itself is kept."""
    edge = [2 ** 53, -(2 ** 53) if dtype == np.int64 else 0]
    assert whole_numbers(np.array(edge, dtype), "x").tolist() == edge
    assert whole_numbers(edge, "x").tolist() == edge
    for values in (np.array([[0], [big]], dtype), [[0], [big]]):
        with pytest.raises(InstanceError, match=f"x 1 is {big}, not a "
                           "finite whole number"):
            whole_numbers(values, "x")


# entries of a flat list: each edge of the +-2**53 range and just past it,
# an int beyond the float range, whole and fractional floats, NaN and the
# infinities, and what is no number at all
SPECIAL_ENTRIES = [2 ** 53, -(2 ** 53), 2 ** 53 + 1, -(2 ** 53) - 1, 2 ** 63,
                   10 ** 400, 2.0, -0.0, 2.5, float("nan"), float("inf"),
                   float("-inf"), True, None, "3", [3]]


def reference_whole_numbers(values, what):
    """``whole_numbers`` of a flat list read one entry at a time: the int64
    array, or the message of the first entry that is not a number, else of
    the first that is not a whole number of magnitude at most 2**53."""
    for i, v in enumerate(values):
        if type(v) not in (int, float):
            return f"{what} {i} is {v!r}, not a number"
    for i, v in enumerate(values):
        whole = type(v) is int or (math.isfinite(v) and v.is_integer())
        if not (whole and abs(v) <= 2 ** 53):
            return f"{what} {i} is {v}, not a finite whole number"
    return np.array([int(v) for v in values], dtype=np.int64)


@settings(max_examples=500, deadline=None)
@given(values=st.lists(st.one_of(st.integers(-3, 3),
                                 st.sampled_from(SPECIAL_ENTRIES)),
                       max_size=8),
       column=st.booleans())
def test_whole_numbers_of_flat_lists_read_entry_by_entry(values, column):
    """A flat list, of plain ints or not, gives the int64 array or the
    message that reading it one entry at a time gives.  Without ``column``
    a list of which every entry is a list is a table, one row per entry."""
    if not column and values and all(type(v) is list for v in values):
        expected = np.array(values, dtype=np.int64)
    else:
        expected = reference_whole_numbers(values, "x")
    if isinstance(expected, str):
        with pytest.raises(InstanceError) as refusal:
            whole_numbers(values, "x", column=column)
        assert str(refusal.value) == expected
    else:
        got = whole_numbers(values, "x", column=column)
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_whole_numbers_refuses_bool_arrays():
    with pytest.raises(InstanceError, match="x 0 is True, not a number"):
        whole_numbers(np.array([[True, False]]), "x")
    with pytest.raises(InstanceError, match="x is False, not a number"):
        whole_numbers(np.array(False), "x")


@pytest.mark.parametrize("change, match", [
    ({"capacity": {"ES": [0.5, 3.9]}},
     r"capacity\[ES\] entry 0 is 0.5, not a finite whole number"),
    ({"population": {"MS": [1, float("nan")]}},
     r"population\[MS\] entry 1 is nan"),
    ({"edges": [[0, 1.5]]}, r"edge entry 1 is 1.5"),
], ids=["fractional-capacity", "nan-population", "fractional-edge"])
def test_hand_built_graph_refuses_bad_numbers(change, match):
    # the first used to become [0, 3]; the others raised a bare ValueError
    # (numpy's NaN cast, reshape) or truncated the edge to [0, 1]
    with pytest.raises(InstanceError, match=match):
        ContiguityGraph(2, **{"edges": [[0, 1]], **change})


# ---------------------------------------------------------------------------
# stays_connected_without against a plain search and networkx
# ---------------------------------------------------------------------------

def plain_stays_connected(graph, owner, node):
    """One breadth-first search from one territory neighbour of ``node``,
    never entering ``node``, must reach all the others."""
    t = owner[node]
    starts = [w for w in graph.neighbor_lists[node] if owner[w] == t]
    if not starts:
        return False
    seen = {node, starts[0]}
    queue = [starts[0]]
    for u in queue:
        for w in graph.neighbor_lists[u]:
            if w not in seen and owner[w] == t:
                seen.add(w)
                queue.append(w)
    return all(w in seen for w in starts)


def territory_pieces(graph, owner, node):
    """networkx: whether the territory of ``node`` is connected, and the
    number of pieces it falls into without ``node``."""
    t = owner[node]
    g = nx.Graph()
    g.add_nodes_from(u for u in range(graph.node_count) if owner[u] == t)
    g.add_edges_from((u, v) for u, v in graph.edges.tolist()
                     if owner[u] == t and owner[v] == t)
    connected = nx.is_connected(g)
    g.remove_node(node)
    return connected, nx.number_connected_components(g)


def grown_owner(graph, rng, k):
    """k territories grown from random seeds one random frontier node at a
    time: each is connected, with ragged borders and cut vertices."""
    n = graph.node_count
    owner = [-1] * n
    frontier = []
    for t, s in enumerate(rng.choice(n, size=k, replace=False).tolist()):
        owner[s] = t
        frontier += [(w, t) for w in graph.neighbor_lists[s]]
    while frontier:
        i = int(rng.integers(len(frontier)))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        w, t = frontier.pop()
        if owner[w] < 0:
            owner[w] = t
            frontier += [(x, t) for x in graph.neighbor_lists[w] if owner[x] < 0]
    return owner


@st.composite
def tiling_owners(draw):
    """A rook grid or hex tiling of up to 7 x 7 cells and an assignment:
    territories grown connected, or labels drawn at random (pieces of every
    size).  Up to one territory per node, so 1- and 2-node territories
    are common."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    make = draw(st.sampled_from([make_grid_graph, make_hex_graph]))
    graph = make(rows, cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, graph.node_count))
    if draw(st.booleans()):
        return graph, grown_owner(graph, rng, k)
    return graph, rng.integers(0, k, size=graph.node_count).tolist()


@settings(max_examples=150, deadline=None)
@given(case=tiling_owners())
def test_stays_connected_without_matches_bfs_and_networkx(case):
    """For every node: the lockstep search answers as one plain search does
    and, where the territory is connected, as networkx does."""
    graph, owner = case
    for node in range(graph.node_count):
        got = stays_connected_without(graph, owner, node)
        assert got == plain_stays_connected(graph, owner, node)
        connected, pieces = territory_pieces(graph, owner, node)
        if connected:
            assert got == (pieces == 1)


def ray(graph, center, toward, length):
    """The ``length`` nodes on the straight line from ``center`` through its
    neighbour ``toward``, found by their centroids."""
    cen = graph.centroids
    step = cen[toward] - cen[center]
    out = []
    for i in range(1, length + 1):
        d = np.hypot(*(cen - (cen[center] + i * step)).T)
        out.append(int(np.argmin(d)))
        assert d[out[-1]] < 1e-9
    return out


@pytest.mark.parametrize("make, arms", [(make_grid_graph, 4),
                                        (make_hex_graph, 3)])
def test_stays_connected_without_multi_way_splits(make, arms):
    """A star of rays of lengths 1, 2 and 3 around a center: removing the
    center splits its territory into ``arms`` pieces, removing a ray's inner
    node into two, and removing a ray's tip leaves it connected.  A
    one-node territory empties; a two-node one keeps its other node."""
    graph = make(7, 7)
    center = 24
    around = list(graph.neighbor_lists[center])
    cen = graph.centroids
    around.sort(key=lambda w: np.arctan2(*(cen[w] - cen[center])[::-1]))
    rays = [ray(graph, center, w, 1 + i % 3)
            for i, w in enumerate(around[::len(around) // arms])]
    owner = [1] * graph.node_count
    for node in [center] + [u for r in rays for u in r]:
        owner[node] = 0
    expected = {center: arms}
    for r in rays:
        expected.update({u: 2 for u in r[:-1]})
        expected[r[-1]] = 1
    for node, pieces in expected.items():
        assert territory_pieces(graph, owner, node) == (True, pieces)
        assert stays_connected_without(graph, owner, node) == (pieces == 1)
        assert plain_stays_connected(graph, owner, node) == (pieces == 1)

    lone, pair = 0, [graph.node_count - 1, graph.node_count - 2]
    owner[lone] = 2
    owner[pair[0]] = owner[pair[1]] = 3
    assert not stays_connected_without(graph, owner, lone)
    assert all(stays_connected_without(graph, owner, u) for u in pair)


# ---------------------------------------------------------------------------
# repair on random plans
# ---------------------------------------------------------------------------

@st.composite
def centered_plans(draw):
    """:func:`tiling_owners`' tilings and assignments as plans: territories
    numbered 0, 1, ... in order of first appearance, each with one center, a
    random member.  Grown assignments are feasible; drawn labels mostly
    leave pieces away from their center."""
    graph, owner = draw(tiling_owners())
    labels: dict = {}
    a = np.array([labels.setdefault(t, len(labels)) for t in owner])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = np.array([rng.choice(np.flatnonzero(a == t))
                        for t in range(len(labels))])
    return graph, Plan(a, centers), rng


def center_pieces(graph, plan):
    """networkx: the nodes in the piece of their territory that holds its
    center."""
    a = plan.assignment
    g = nx.Graph()
    g.add_nodes_from(range(graph.node_count))
    g.add_edges_from((u, v) for u, v in graph.edges.tolist() if a[u] == a[v])
    return set().union(*(nx.node_connected_component(g, int(c))
                         for c in plan.centers))


@settings(max_examples=150, deadline=None)
@given(case=centered_plans())
def test_repair_properties(case):
    """repair gives a hard-feasible plan, leaves it alone when asked again,
    never moves a node that is in its center's piece, and returns a
    feasible plan unchanged."""
    graph, plan, rng = case
    instance = SimpleNamespace(graph=graph, centers=plan.centers)
    fixed = repair(plan, instance, rng)
    assert validate_plan(fixed, graph, 1.0).hard_ok
    assert plans_equal(repair(fixed, instance, rng), fixed)
    for v in center_pieces(graph, plan):
        assert fixed.assignment[v] == plan.assignment[v]
    if validate_plan(plan, graph, 1.0).hard_ok:
        assert plans_equal(fixed, plan)


@settings(max_examples=150, deadline=None)
@given(case=centered_plans())
def test_repair_matches_reference(case):
    """repair's maintained frontier makes the plan and the draws of a
    rescan of the component before every draw."""
    graph, plan, rng = case
    instance = SimpleNamespace(graph=graph, centers=plan.centers)
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    assert plans_equal(repair(plan, instance, rng),
                       reference_repair(plan, instance, twin))
    assert rng.bit_generator.state == twin.bit_generator.state


# ---------------------------------------------------------------------------
# The corner rule against the search
# ---------------------------------------------------------------------------

def check_corner_answers(graph, owner, k):
    """For every node whose territory is connected, corner_answer equals
    the search where it answers; the count of each answer."""
    holes = corner_holes(graph.corners, owner, k)
    broken = set(split_territories(graph, np.asarray(owner), k))
    seen = {True: 0, False: 0, None: 0}
    for node in range(graph.node_count):
        if owner[node] in broken:
            continue
        fast = corner_answer(graph.corners, owner, node, holes)
        if fast is not None:
            assert fast == stays_connected_without(graph, owner, node), node
        seen[fast] += 1
    return seen


def test_corner_answers_match_the_search_on_tilings():
    """Grown plans (connected territories, some enclosing others) and
    random labels on grid, hex and ragged tilings: every answer the corner
    rule gives is the search's, and it answers nearly every check."""
    rng = np.random.default_rng(34)
    seen = {True: 0, False: 0, None: 0}
    for _ in range(150):
        graph = random_tiling(rng)
        n = graph.node_count
        k = int(rng.integers(1, n // 4 + 2))
        owner = (grown_owner(graph, rng, k) if rng.random() < 0.8
                 else rng.integers(0, k, size=n).tolist())
        for answer, count in check_corner_answers(graph, owner, k).items():
            seen[answer] += count
    assert seen[True] > 1000 and seen[False] > 500
    assert seen[None] < (seen[True] + seen[False]) / 50


@settings(max_examples=100, deadline=None)
@given(case=tiling_owners())
def test_corner_answers_match_the_search(case):
    graph, owner = case
    check_corner_answers(graph, owner, max(owner) + 1)


def polygon_graph(polygons):
    """The graph of unit polygons (lists of rings of [x, y] pairs), with
    the adjacency their shared sides give."""
    rings = RingTable.from_lists(polygons)
    return ContiguityGraph(len(polygons), shared_boundaries(rings)[0],
                           polygons=rings)


@pytest.mark.parametrize("name", sorted(CORNER_MAPS))
def test_corner_answers_match_the_search_on_hand_made_maps(name):
    """Every assignment of the map's units to its territories: the rule
    gives the search's answer wherever it answers, for the graph as built
    (the T-junction's graph lacks the pairs 0-2 and 1-2)."""
    polygons, k = CORNER_MAPS[name]
    graph = polygon_graph(polygons)
    if name == "t-junction":
        assert graph.edges.tolist() == [[0, 1], [1, 3], [2, 4], [3, 4]]
    seen = {True: 0, False: 0, None: 0}
    for owner in itertools.product(range(k), repeat=graph.node_count):
        for answer, count in check_corner_answers(graph, list(owner),
                                                  k).items():
            seen[answer] += count
    assert seen[True] and seen[False]
    # a hole, or a unit that meets a corner twice, sends the rule to the
    # search
    assert bool(seen[None]) == (name in ("enclosing", "hex", "gap",
                                         "hole-ring", "hole-gap", "pinch",
                                         "two-stretches", "twice"))


@pytest.mark.parametrize("name", sorted(CORNER_MAPS))
def test_hole_updates_match_a_fresh_count_on_hand_made_maps(name):
    """Every assignment of the map's units to its territories, connected
    or not, and every move of one unit to another territory: move_holes
    leaves the counts corner_holes gives for the moved assignment.  The
    maps hold units with holes, units that meet a corner twice and a corner
    of six units."""
    polygons, k = CORNER_MAPS[name]
    corners = polygon_graph(polygons).corners
    fresh = {}

    def holes_of(owner):
        key = tuple(owner)
        if key not in fresh:
            fresh[key] = corner_holes(corners, owner, k)
        return fresh[key]

    for owner in map(list, itertools.product(range(k), repeat=len(polygons))):
        holes = holes_of(owner)
        for node, donor in enumerate(owner):
            for recipient in range(k):
                if recipient != donor:
                    owner[node] = recipient
                    moved = list(holes)
                    move_holes(corners, moved, owner, node, donor, recipient)
                    assert moved == holes_of(owner), (owner, node, donor)
                    owner[node] = donor
