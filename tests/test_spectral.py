import math
import re
import time
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from netelast import (
    Graph,
    SizeGuardError,
    algebraic_connectivity,
    complete_graph,
    connected_components,
    cycle_graph,
    eigenvalues,
    erdos_renyi,
    grid_graph,
    laplacian,
    make_graph,
    path_graph,
    star_graph,
    wheel_graph,
)
from netelast.cli import main


def spectrum(g):
    return eigenvalues(laplacian(g)).eigenvalues


def test_laplacian_k2():
    lap = laplacian(make_graph(2, [(0, 1)]))
    assert lap.tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_laplacian_p3():
    lap = laplacian(path_graph(3))
    assert lap.tolist() == [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]


def test_laplacian_refuses_the_empty_graph(tmp_path, capsys):
    with pytest.raises(ValueError, match="^laplacian requires at least one node$"):
        laplacian(Graph(0, []))
    path = tmp_path / "empty.txt"
    path.write_text("# no links\n")
    assert main(["spectral", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: laplacian requires at least one node\n"


def test_laplacian_edgeless():
    lap = laplacian(make_graph(3, []))
    assert not lap.any()


def test_analytic_spectra():
    assert spectrum(complete_graph(5)) == pytest.approx((0, 5, 5, 5, 5), abs=1e-8)
    assert spectrum(path_graph(3)) == pytest.approx((0, 1, 3), abs=1e-8)
    assert spectrum(cycle_graph(4)) == pytest.approx((0, 2, 2, 4), abs=1e-8)
    assert spectrum(star_graph(5)) == pytest.approx((0, 1, 1, 1, 5), abs=1e-8)


def test_wheel_algebraic_connectivity():
    assert algebraic_connectivity(wheel_graph(6)) == pytest.approx(2.38197, abs=1e-4)
    # closed form: 3 - 2*cos(2*pi/5)
    assert algebraic_connectivity(wheel_graph(6)) == pytest.approx(
        3 - 2 * math.cos(2 * math.pi / 5), abs=1e-9
    )


def test_disconnected_lambda2_zero():
    two_k2 = make_graph(4, [(0, 1), (2, 3)])
    assert algebraic_connectivity(two_k2) == pytest.approx(0.0, abs=1e-8)
    assert spectrum(two_k2) == pytest.approx((0, 0, 2, 2), abs=1e-8)


def test_cycle_lambda2_closed_form():
    for n in (4, 5, 8):
        expected = 2 - 2 * math.cos(2 * math.pi / n)
        assert algebraic_connectivity(cycle_graph(n)) == pytest.approx(expected, abs=1e-8)


def test_trace_identity_and_psd():
    for seed in range(12):
        g = erdos_renyi(18, 0.25, seed=seed)
        summary = eigenvalues(laplacian(g))
        assert math.fsum(summary.eigenvalues) == pytest.approx(2 * g.m, abs=1e-8 * max(g.n, 1))
        assert summary.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)
        assert all(v >= -1e-10 for v in summary.eigenvalues)
        assert summary.mean_eigenvalue == pytest.approx(2 * g.m / g.n, abs=1e-8)


def test_lambda2_positive_iff_connected():
    for seed in range(15):
        g = erdos_renyi(14, 0.15, seed=seed)
        lam2 = algebraic_connectivity(g)
        connected = connected_components(g).count == 1
        assert (lam2 > 1e-10) == connected


def test_matches_reference_eigensolver():
    # networkx builds its own Laplacian from the edge list
    for seed in range(6):
        g = erdos_renyi(20, 0.3, seed=seed)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        ours = np.array(spectrum(g))
        ref = np.sort(nx.laplacian_spectrum(h))
        assert ours == pytest.approx(ref, abs=1e-8)


def test_single_node_spectrum():
    summary = eigenvalues(laplacian(make_graph(1, [])))
    assert summary.eigenvalues == (0.0,)
    assert summary.lambda2 is None


@pytest.mark.parametrize("lap", [np.zeros((0, 0)), np.zeros(3), np.zeros((2, 3)),
                                 np.zeros((2, 2, 2)), np.float64(1.0)],
                         ids=["empty", "1-D", "not-square", "3-D", "scalar"])
def test_eigenvalues_refuses_what_is_not_a_nonempty_square_matrix(lap):
    shape = re.escape(str(np.shape(lap)))
    with pytest.raises(ValueError, match=f"^Laplacian must be a non-empty square 2-D array, "
                                         f"got shape {shape}$"):
        eigenvalues(lap)


@pytest.mark.parametrize("lap, message", [
    ([[0.0, 1.0], [0.0, 0.0]], "Laplacian must be symmetric"),
    ([[1.0, -1.0], [-1.0 + 1e-12, 1.0]], "Laplacian must be symmetric"),
    ([[np.nan, 0.0], [0.0, 1.0]], "Laplacian must hold only finite numbers"),
    ([[1.0, -np.inf], [-np.inf, 1.0]], "Laplacian must hold only finite numbers")],
    ids=["triangular", "off-by-1e-12", "nan", "inf"])
def test_eigenvalues_refuses_a_matrix_that_is_not_symmetric_or_not_finite(lap, message):
    # the solver reads one triangle and does not see NaN, so these would
    # give a spectrum without an error
    with pytest.raises(ValueError, match=f"^{message}$"):
        eigenvalues(np.array(lap))


def test_size_guard():
    with pytest.raises(SizeGuardError):
        laplacian(path_graph(5), size_guard=4)
    with pytest.raises(SizeGuardError):
        algebraic_connectivity(path_graph(5), size_guard=4)
    assert laplacian(path_graph(5), size_guard=5).shape == (5, 5)
    with pytest.raises(ValueError):
        algebraic_connectivity(make_graph(1, []))


def test_size_guard_fires_before_the_matrix_exists():
    # the 5041-node Laplacian would take 203 MB; the refusal must not
    g = grid_graph(71, 71)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError):
            laplacian(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_wheel_runtime_under_a_second():
    start = time.perf_counter()
    algebraic_connectivity(wheel_graph(6))
    assert time.perf_counter() - start < 1.0


def test_grid_lambda2_closed_form():
    # path-product closed form: 4*sin^2(pi/(2*max_side))
    for rows, cols in ((8, 8), (32, 32), (8, 20)):
        lam = algebraic_connectivity(grid_graph(rows, cols))
        expected = 4 * math.sin(math.pi / (2 * max(rows, cols))) ** 2
        assert lam == pytest.approx(expected, abs=1e-8)
