"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

import repro
from repro.cli import main

LINT_FIXTURES = Path(__file__).resolve().parents[1] / "lint" / "fixtures"


def test_run_command_prints_metrics(capsys):
    rc = main(["run", "--version", "charm-d", "--nodes", "1",
               "--grid", "96", "96", "96", "--odf", "2", "--iterations", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "time/iteration" in out
    assert "charm-d" in out
    assert "protocol" in out


def test_run_functional_mode(capsys):
    rc = main(["run", "--version", "mpi-h", "--grid", "24", "24", "24",
               "--iterations", "2", "--warmup", "0", "--functional"])
    assert rc == 0
    assert "mpi-h" in capsys.readouterr().out


def test_run_with_fusion_and_graphs(capsys):
    rc = main(["run", "--version", "charm-d", "--grid", "96", "96", "96",
               "--odf", "2", "--fusion", "C", "--graphs", "--iterations", "3"])
    assert rc == 0


def test_figure_command_with_custom_ladder(capsys):
    rc = main(["figure", "7b", "--nodes", "1", "2", "--no-plot", "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fig7b" in out
    assert "PASS" in out


def test_figure_save_json(tmp_path, capsys):
    path = tmp_path / "fig.json"
    rc = main(["figure", "7b", "--nodes", "1", "--no-plot", "--quiet",
               "--save", str(path)])
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["figure_id"] == "fig7b"


def test_sweep_command(capsys):
    rc = main(["sweep", "--base", "192", "--nodes", "2", "--odfs", "1", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "best ODF" in out


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "42"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_run_ampi_version_with_validate(capsys):
    rc = main(["run", "--version", "ampi-d", "--grid", "96", "96", "96",
               "--odf", "2", "--iterations", "3", "--validate"])
    assert rc == 0
    assert "ampi-d" in capsys.readouterr().out


def test_validate_quick_exits_zero(capsys):
    rc = main(["validate", "--quick", "--quiet"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "differential matrix vs charm-d" in out
    assert "0 failure(s)" in out
    # quick mode: cross-runtime cases only, golden store untouched
    assert "ampi-d" in out and "mpi-h" in out
    assert "golden store" not in out


def test_validate_update_golden_roundtrip(tmp_path, capsys):
    rc = main(["validate", "--quick", "--quiet", "--update-golden",
               "--golden-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "refreshed 14 entries" in out
    assert len(list(tmp_path.glob("*.json"))) == 14
    # Every registered app contributes entries.
    assert (tmp_path / "charm-d.json").exists()
    assert (tmp_path / "jacobi2d-charm-d.json").exists()
    assert (tmp_path / "cholesky-charm-d.json").exists()
    assert (tmp_path / "allreduce-charm-d-ring.json").exists()


def test_validate_scoped_to_one_app(tmp_path, capsys):
    rc = main(["validate", "--app", "jacobi2d", "--quick", "--quiet",
               "--update-golden", "--golden-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "refreshed 2 entries" in out
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == [
        "jacobi2d-charm-d", "jacobi2d-mpi-h"]
    # Scoped runs skip the other apps' differential matrices.
    assert "== app:" not in out


def test_apps_lists_registered_workloads(capsys):
    rc = main(["apps"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "jacobi3d" in out and "jacobi2d" in out
    assert "ndim=3" in out and "ndim=2" in out
    # Non-stencil apps describe their own geometry instead of a grid.
    assert "cholesky" in out and "tiles=8x8" in out
    assert "allreduce" in out and "algorithm=ring" in out


def test_run_second_app(capsys):
    rc = main(["run", "--app", "jacobi2d", "--version", "charm-d",
               "--grid", "96", "96", "--odf", "2", "--iterations", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "time/iteration" in out


def test_run_grid_arity_checked_against_app():
    with pytest.raises(SystemExit, match="--grid needs 2 value"):
        main(["run", "--app", "jacobi2d", "--grid", "96", "96", "96"])


def test_run_cholesky_app(capsys):
    rc = main(["run", "--app", "cholesky", "--version", "charm-d",
               "--tiles", "4", "--tile", "32", "--odf", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cholesky" in out and "time/iteration" in out


def test_run_allreduce_app(capsys):
    rc = main(["run", "--app", "allreduce", "--version", "mpi-d",
               "--nodes", "2", "--elements", "4096", "--algorithm", "tree",
               "--chunks", "2", "--iterations", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "allreduce" in out and "time/iteration" in out


def test_inapplicable_flags_rejected_per_app():
    with pytest.raises(SystemExit, match="--grid is not meaningful"):
        main(["run", "--app", "allreduce", "--grid", "96"])
    with pytest.raises(SystemExit, match="--tiles is not meaningful"):
        main(["run", "--app", "jacobi3d", "--tiles", "4"])
    with pytest.raises(SystemExit, match="--iterations is not meaningful"):
        # a cholesky run's iteration count IS its tile count
        main(["run", "--app", "cholesky", "--iterations", "5"])
    with pytest.raises(SystemExit, match="--fusion is not meaningful"):
        main(["run", "--app", "cholesky", "--fusion", "C"])


@pytest.mark.parametrize("argv, field", [
    (["run", "--nodes", "0"], "nodes"),
    (["run", "--odf", "0"], "odf"),
    (["run", "--version", "mpi-d", "--odf", "2"], "odf"),
    (["run", "--app", "cholesky", "--tiles", "0"], "tiles"),
    (["run", "--app", "allreduce", "--chunks", "0"], "chunks"),
    (["perf", "run", "--nodes", "0"], "nodes"),
    (["perf", "profile", "--nodes", "0"], "nodes"),
    (["perf", "whatif", "--nodes", "0", "--advise-odf", "1,2"], "nodes"),
])
def test_invalid_config_exits_with_message_naming_field(argv, field):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert message.startswith("repro: ")
    assert field in message


def test_sweep_requires_a_stencil_app():
    with pytest.raises(SystemExit, match="no grid to weak-scale"):
        main(["sweep", "--app", "cholesky"])


def test_lint_strict_clean_on_shipped_tree(capsys):
    src = Path(repro.__file__).resolve().parent
    rc = main(["lint", "--strict", str(src)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean: 0 findings" in out


def test_lint_nonstrict_reports_but_exits_zero(capsys):
    rc = main(["lint", str(LINT_FIXTURES / "rpl001_unyielded_command.py")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "RPL001" in out


def test_lint_strict_fails_on_violation(capsys):
    rc = main(["lint", "--strict",
               str(LINT_FIXTURES / "rpl001_unyielded_command.py")])
    assert rc == 1
    assert "RPL001" in capsys.readouterr().out


def test_lint_json_schema(capsys):
    rc = main(["lint", "--format", "json",
               str(LINT_FIXTURES / "rpl001_unyielded_command.py")])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"version", "files", "suppressed", "counts", "findings"}
    assert data["version"] == 2
    assert data["files"] == 1
    assert data["counts"] == {"RPL001": 2}
    for finding in data["findings"]:
        assert set(finding) == {"path", "line", "col", "code", "rule",
                                "family", "message"}
        assert finding["family"] == "sdag"
    assert data["findings"][0]["rule"] == "unyielded-command"


def test_lint_rules_listing(capsys):
    rc = main(["lint", "--rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for code in ("RPL001", "RPL004", "RPL010", "RPL011", "RPL020", "RPL023"):
        assert code in out
    assert "repro-lint: disable=" in out


def test_lint_missing_path_exits_two(capsys):
    rc = main(["lint", "no/such/path.py"])
    assert rc == 2
    assert "no/such/path.py" in capsys.readouterr().err


def test_lint_no_messageflow_flag(capsys):
    rc = main(["lint", "--strict", "--no-messageflow",
               str(LINT_FIXTURES / "rpl011_when_without_sender.py")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "clean" in out


PERF_RUN = ["perf", "run", "--version", "charm-d", "--grid", "96", "96", "96",
            "--odf", "2", "--iterations", "4", "--warmup", "1"]


def test_perf_run_prints_report(capsys):
    rc = main(PERF_RUN)
    out = capsys.readouterr().out
    assert rc == 0
    for needle in ("makespan", "critical path", "phase footprint", "counters"):
        assert needle in out


def test_perf_run_writes_artifacts(tmp_path, capsys):
    report = tmp_path / "r.perf.json"
    html = tmp_path / "r.html"
    trace = tmp_path / "r.trace.json"
    rc = main(PERF_RUN + ["--quiet", "--json", str(report),
                          "--html", str(html), "--trace", str(trace)])
    assert rc == 0
    assert capsys.readouterr().out == ""  # --quiet suppresses the text report
    doc = json.loads(report.read_text())
    assert doc["schema"] == "repro.perf/1"
    assert doc["time_per_iteration"] > 0
    assert html.read_text().startswith("<!doctype html>")
    assert all(ev["ph"] in ("X", "i") for ev in json.loads(trace.read_text()))


def test_perf_compare_gate_exit_codes(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    rc = main(PERF_RUN + ["--quiet", "--json", str(baseline)])
    assert rc == 0

    # Identical inputs pass the gate.
    assert main(["perf", "compare", str(baseline), str(baseline)]) == 0
    assert "0 regression(s)" in capsys.readouterr().out

    # A 10% slowdown fails it at the default 5% tolerance...
    doc = json.loads(baseline.read_text())
    doc["time_per_iteration"] *= 1.10
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(doc))
    assert main(["perf", "compare", str(baseline), str(slower)]) == 1
    assert "REGRESSION" in capsys.readouterr().out

    # ...and passes with the tolerance widened.
    assert main(["perf", "compare", str(baseline), str(slower),
                 "--tolerance", "0.2"]) == 0


def test_perf_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["perf"])


PERF_PROFILE = ["perf", "profile", "--version", "charm-d", "--grid", "64", "64", "64",
                "--odf", "2", "--iterations", "2", "--warmup", "1"]


def test_perf_profile_prints_hotspots(capsys):
    rc = main(PERF_PROFILE + ["--top", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    # A cProfile table naming the event kernel as a hot frame.
    assert "cumulative time" in out
    assert "sim/engine.py" in out


def test_perf_profile_sort_and_pstats_dump(tmp_path, capsys):
    import pstats

    dump = tmp_path / "run.pstats"
    rc = main(PERF_PROFILE + ["--top", "3", "--sort", "tottime",
                              "--pstats", str(dump)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "internal time" in captured.out  # pstats' tottime heading
    assert str(dump) in captured.err
    # The dump round-trips through the standard pstats loader.
    stats = pstats.Stats(str(dump))
    assert stats.total_calls > 0


# ---------------------------------------------------------------------------
# Observability CLI: compare --format json / overrides, diff, trend, whatif
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def perf_baseline(tmp_path_factory):
    """One recorded perf report shared by the compare/diff CLI tests."""
    path = tmp_path_factory.mktemp("perf") / "baseline.json"
    assert main(PERF_RUN + ["--quiet", "--json", str(path)]) == 0
    return path


def _slowed_copy(baseline: Path, out: Path, factor: float = 1.10) -> Path:
    """A copy of ``baseline`` uniformly ``factor``x slower, keeping the
    critical-path composition tiling the makespan exactly."""
    doc = json.loads(baseline.read_text())
    doc["makespan"] *= factor
    doc["time_per_iteration"] *= factor
    cp = doc["critical_path"]
    cp["composition"] = {k: v * factor for k, v in cp["composition"].items()}
    out.write_text(json.dumps(doc))
    return out


def test_perf_compare_json_schema_is_pinned(perf_baseline, capsys):
    rc = main(["perf", "compare", str(perf_baseline), str(perf_baseline),
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    # The v1 machine-readable contract: exactly these keys.
    assert set(doc) == {"schema", "ok", "tolerance", "overrides",
                        "regressions", "improvements", "unchanged", "blame"}
    assert doc["schema"] == "repro.perf-compare/1"
    assert doc["ok"] is True and doc["blame"] is None
    assert doc["unchanged"] == 2  # time_per_iteration + makespan


def test_perf_compare_gate_trip_carries_a_blame_line(
        perf_baseline, tmp_path, capsys):
    slower = _slowed_copy(perf_baseline, tmp_path / "slower.json")
    rc = main(["perf", "compare", str(perf_baseline), str(slower),
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["ok"] is False
    assert [r["metric"] for r in doc["regressions"]] == \
        ["makespan", "time_per_iteration"]
    for row in doc["regressions"]:
        assert set(row) == {"metric", "baseline", "current", "ratio"}
        assert row["ratio"] == pytest.approx(1.10)
    # The diff-based explanation of *why* the gate tripped rides along.
    assert isinstance(doc["blame"], str) and doc["blame"]

    rc = main(["perf", "compare", str(perf_baseline), str(slower)])
    out = capsys.readouterr().out
    assert rc == 1 and "blame:" in out


def test_perf_compare_per_metric_tolerance_overrides(
        perf_baseline, tmp_path, capsys):
    slower = _slowed_copy(perf_baseline, tmp_path / "slower.json")
    rc = main(["perf", "compare", str(perf_baseline), str(slower),
               "--tolerance-for", "time_per_iteration=0.2",
               "--tolerance-for", "makespan=0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tolerance override" in out
    # Overrides for metrics absent from these inputs are allowed.
    assert main(["perf", "compare", str(perf_baseline), str(slower),
                 "--tolerance-for", "time_per_iteration=0.2",
                 "--tolerance-for", "makespan=0.2",
                 "--tolerance-for", "fig6a.wall_s=0.5"]) == 0
    capsys.readouterr()


def test_perf_compare_bad_override_spec_exits_two(perf_baseline, capsys):
    for bad in ("time_per_iteration", "=0.2", "makespan=-0.1", "makespan=x"):
        rc = main(["perf", "compare", str(perf_baseline), str(perf_baseline),
                   "--tolerance-for", bad])
        captured = capsys.readouterr()
        assert rc == 2, bad
        assert "--tolerance-for" in captured.err


def test_perf_diff_text_and_json(perf_baseline, tmp_path, capsys):
    slower = _slowed_copy(perf_baseline, tmp_path / "slower.json")
    rc = main(["perf", "diff", str(perf_baseline), str(slower)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "perf diff: makespan" in out and "blame:" in out

    rc = main(["perf", "diff", str(perf_baseline), str(slower),
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["schema"] == "repro.perf-diff/1"
    assert doc["makespan_delta"] == pytest.approx(
        json.loads(perf_baseline.read_text())["makespan"] * 0.10)


def test_perf_diff_incomparable_exits_two(perf_baseline, tmp_path, capsys):
    # Exit 2 (not the gate-fail 1): a pre-app report has no comparable
    # phase vocabulary.
    old_doc = json.loads(perf_baseline.read_text())
    old_doc["config"].pop("app")
    old = tmp_path / "old.json"
    old.write_text(json.dumps(old_doc))
    rc = main(["perf", "diff", str(old), str(perf_baseline)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "pre-app report shape" in captured.err

    rc = main(["perf", "diff", str(perf_baseline), "/nonexistent.json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "cannot read" in captured.err


def test_perf_trend_writes_the_dashboard(tmp_path, capsys):
    meta = tmp_path / "bench_meta.json"
    meta.write_text(json.dumps({"fig": {
        "latest": {"at": "2026-08-08T00:00:00+00:00", "wall_s": 0.2},
        "history": [{"at": "2026-08-08T00:00:00+00:00", "wall_s": 0.2}]}}))
    out = tmp_path / "trend.html"
    rc = main(["perf", "trend", "--meta", str(meta), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert str(out) in captured.err
    assert "repro.trend/1" in out.read_text()


def test_perf_trend_missing_meta_exits_two(tmp_path, capsys):
    rc = main(["perf", "trend", "--meta", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "trend.html")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "cannot read" in captured.err


PERF_WHATIF = ["perf", "whatif", "--version", "charm-d",
               "--grid", "64", "64", "64", "--odf", "2",
               "--iterations", "2", "--warmup", "1"]


def test_perf_whatif_projects_interventions(capsys):
    rc = main(PERF_WHATIF + ["--intervene", "net*0",
                             "--intervene", "h2d*0.5", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["recorded_makespan"] > 0
    # Canonical spelling: the multiply sign renders as "x".
    assert [p["intervention"] for p in doc["predictions"]] == \
        ["netx0", "h2dx0.5"]
    for pred in doc["predictions"]:
        assert 0 < pred["makespan"] <= doc["recorded_makespan"] * (1 + 1e-9)


def test_perf_whatif_check_validates_against_reruns(capsys):
    rc = main(PERF_WHATIF + ["--intervene", "net*0", "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "what-if model" in out
    assert "predicted" in out and "actual" in out and "error" in out


def test_perf_whatif_bad_inputs_exit_two(capsys):
    rc = main(PERF_WHATIF + ["--intervene", "warp*fast"])
    assert rc == 2
    assert "perf whatif" in capsys.readouterr().err
    # Nothing to project is an input error, not a silent no-op.
    rc = main(PERF_WHATIF)
    assert rc == 2
    assert "nothing to project" in capsys.readouterr().err
