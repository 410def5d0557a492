"""Cross-backend differential validation: Charm++, AMPI and MPI integrate
the same PDE bit-for-bit, across decompositions, fusion strategies and
CUDA graphs."""

import numpy as np
import pytest

from repro.apps import Jacobi3DConfig, run_jacobi3d
from repro.hardware import MachineSpec
from repro.validate import (
    default_base,
    default_matrix,
    diff_histories,
    run_differential_matrix,
)

# Three distinct problems: anisotropic grid, more iterations, higher ODF.
BASES = [
    Jacobi3DConfig(version="charm-d", nodes=1, grid=(16, 16, 16), odf=2,
                   iterations=4, warmup=1, data_mode="functional",
                   machine=MachineSpec.small_debug()),
    Jacobi3DConfig(version="charm-d", nodes=1, grid=(24, 12, 8), odf=2,
                   iterations=3, warmup=0, data_mode="functional",
                   machine=MachineSpec.small_debug()),
    Jacobi3DConfig(version="charm-d", nodes=1, grid=(8, 8, 32), odf=4,
                   iterations=5, warmup=2, data_mode="functional",
                   machine=MachineSpec.small_debug()),
]
FUSIONS = ["none", "A", "B", "C"]


def _residuals(config):
    return run_jacobi3d(config, validate=True).residuals


@pytest.mark.parametrize("base_idx", range(len(BASES)))
@pytest.mark.parametrize("fusion", FUSIONS)
def test_charm_ampi_mpi_bitwise_identical_residuals(base_idx, fusion):
    """Acceptance criterion: >= 3 configs x fusion {off, A, B, C} produce
    bitwise-identical residual histories across all three runtimes.
    Fusion applies to charm-d only (paper §III-D); AMPI and MPI run the
    plain rank program against the charm-d reference."""
    base = BASES[base_idx]
    reference = _residuals(base.with_(fusion=fusion))
    ampi = _residuals(base.with_(version="ampi-d", fusion="none"))
    mpi = _residuals(base.with_(version="mpi-d", odf=1, fusion="none"))
    assert diff_histories(reference, ampi) is None
    assert diff_histories(reference, mpi) is None
    assert len(reference) == base.total_iterations


def test_full_matrix_reports_clean():
    report = run_differential_matrix()
    assert report.ok, report.report()
    assert len(report.cases) == 13
    assert report.reference == "charm-d"
    labels = [c.label for c in report.cases]
    assert {"charm-d", "ampi-d", "ampi-h", "mpi-d", "mpi-h", "charm-h"} <= set(labels)
    assert "charm-d fusion=C graphs" in labels
    assert "0 failure(s)" in report.report()


def test_quick_matrix_is_cross_runtime_only():
    cases = default_matrix(default_base(), quick=True)
    assert [label for label, _ in cases] == [
        "charm-d", "charm-h", "ampi-d", "ampi-h", "mpi-d", "mpi-h"]
    assert all(not c.cuda_graphs for _, c in cases)


def test_mismatch_reports_first_differing_iteration():
    """A case integrating a different problem (one extra iteration) must be
    flagged with the exact divergence point, not just a boolean."""
    base = BASES[0]
    report = run_differential_matrix(base=base, cases=[
        ("ref", base),
        ("longer", base.with_(iterations=base.iterations + 1)),
    ])
    assert not report.ok
    bad = report.failures()[0]
    assert bad.label == "longer"
    # Identical prefix, so the first difference is the length mismatch.
    assert bad.first_diff_iteration == base.total_iterations
    assert "iteration count" in bad.detail
    assert "MISMATCH" in str(bad)


def test_mismatch_reports_divergent_physics():
    """A different problem must be flagged.  Early residuals of different
    grid sizes can legitimately coincide (the hot-boundary front has not
    reached the far wall yet), so the harness must also diff the final
    grids — here caught as a shape mismatch."""
    base = BASES[0]
    report = run_differential_matrix(base=base, cases=[
        ("ref", base),
        ("other-problem", base.with_(grid=(12, 12, 12))),
    ])
    bad = report.failures()[0]
    assert bad.first_diff_iteration == 0 or "grid" in bad.detail


def test_modeled_mode_rejected():
    with pytest.raises(ValueError, match="functional"):
        run_differential_matrix(base=default_base().with_(data_mode="modeled"))


# ---------------------------------------------------------------------------
# diff_histories unit behaviour
# ---------------------------------------------------------------------------


def test_diff_histories_identical():
    assert diff_histories([0.1, 0.2, 0.3], [0.1, 0.2, 0.3]) is None


def test_diff_histories_first_difference():
    assert diff_histories([0.1, 0.2, 0.3], [0.1, 0.25, 0.3]) == 1


def test_diff_histories_length_mismatch():
    assert diff_histories([0.1, 0.2], [0.1, 0.2, 0.3]) == 2
    assert diff_histories([0.1, 0.2, 0.3], [0.1]) == 1


def test_diff_histories_is_bitwise_not_numeric():
    # 0.0 == -0.0 numerically, but the bit patterns differ: a sign drift
    # must not be able to hide.
    assert diff_histories([0.0], [-0.0]) == 0
    assert diff_histories([], []) is None


def test_final_grids_match_serial_reference():
    """The assembled functional grid equals a straight serial integration
    of the same problem (independent of any runtime)."""
    from repro.apps.stencil.geometry import BlockGeometry
    from repro.kernels import alloc_block, apply_boundary, hot_top_boundary, jacobi_update

    base = BASES[1]  # warmup=0: total_iterations == iterations
    result = run_jacobi3d(base, validate=True)
    geo = BlockGeometry.auto(base.n_blocks(), base.grid)
    grid = result.assemble_grid(geo)

    u = alloc_block(base.grid)
    apply_boundary(u, hot_top_boundary, base.grid, offset=(0, 0, 0))
    out = u.copy()
    for _ in range(base.total_iterations):
        jacobi_update(u, out)
        u, out = out, u
    assert np.array_equal(grid.view(np.int64),
                          u[1:-1, 1:-1, 1:-1].view(np.int64))
