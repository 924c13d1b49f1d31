"""The benchmark's output checks count corrupted outputs as failed.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
from repro import EdgeList, ParallelConfig, generate_graph  # noqa: E402
from repro.datasets import catalog  # noqa: E402
from workloads import GenerateWorkload, RandomizeWorkload  # noqa: E402


@pytest.fixture(scope="module")
def generated():
    dist = catalog.load("as20")
    graph, report = generate_graph(
        dist, swap_iterations=2, config=ParallelConfig(threads=2, seed=3))
    return dist, graph, report


def _workload(cls, dist, graph, tmp_path):
    wl = cls(0, tmp_path)
    wl.dist = dist
    wl.input_degrees = checks.degree_sequence(graph.u, graph.v, graph.n)
    return wl


def _counted(problems) -> int:
    tally = checks.Tally()
    tally.op(problems)
    return tally.failed


def _with_edge(graph, a, b):
    # a bare record rather than an EdgeList, which would refuse some of
    # the corruptions before the check could see them
    u, v = np.append(graph.u, a), np.append(graph.v, b)
    return SimpleNamespace(u=u, v=v, n=graph.n, m=len(u))


def test_clean_output_passes(generated, tmp_path):
    dist, graph, report = generated
    info = {"expected_edges": report.probabilities.total_expected_edges}
    assert _counted(_workload(GenerateWorkload, dist, graph, tmp_path)
                    .check(graph, info)) == 0
    assert _counted(_workload(RandomizeWorkload, dist, graph, tmp_path)
                    .check(graph, {})) == 0


@pytest.mark.parametrize("corrupt", [
    lambda g: _with_edge(g, g.u[0], g.v[0]),   # duplicated edge
    lambda g: _with_edge(g, g.v[0], g.u[0]),   # same edge, reversed
    lambda g: _with_edge(g, 5, 5),             # self loop
    lambda g: _with_edge(g, 0, g.n),           # endpoint out of range
])
def test_corrupted_generated_output_is_failed(generated, tmp_path, corrupt):
    dist, graph, report = generated
    info = {"expected_edges": report.probabilities.total_expected_edges}
    wl = _workload(GenerateWorkload, dist, graph, tmp_path)
    assert _counted(wl.check(corrupt(graph), info)) == 1


def test_changed_degree_sequence_is_failed(generated, tmp_path):
    dist, graph, _ = generated
    wl = _workload(RandomizeWorkload, dist, graph, tmp_path)
    # a simple graph with one edge moved to another endpoint
    u = graph.u.copy()
    v = graph.v.copy()
    taken = set(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
    w = next(x for x in range(graph.n)
             if x != u[0] and (min(u[0], x), max(u[0], x)) not in taken)
    v[0] = w
    assert _counted(wl.check(EdgeList(u, v, graph.n), {})) == 1


def test_edge_count_far_from_expectation_is_failed(generated, tmp_path):
    dist, graph, report = generated
    wl = _workload(GenerateWorkload, dist, graph, tmp_path)
    expected = graph.m + 7 * np.sqrt(graph.m)
    assert _counted(wl.check(graph, {"expected_edges": expected})) == 1


def test_different_output_for_same_seed_is_failed(generated):
    _, graph, _ = generated
    other = EdgeList(graph.u[::-1].copy(), graph.v[::-1].copy(), graph.n)
    assert _counted(checks.same_graph_problems(graph, other, "repeat")) == 1
    assert _counted(checks.same_graph_problems(graph, graph.copy(), "repeat")) == 0


def test_degree_l1_error_is_zero_on_the_target_itself():
    dist = catalog.load("as20")
    from repro.generators.havel_hakimi import havel_hakimi_graph

    graph = havel_hakimi_graph(dist)
    assert checks.degree_l1_error(
        graph.u, graph.v, graph.n, dist.degrees, dist.counts) == 0.0
