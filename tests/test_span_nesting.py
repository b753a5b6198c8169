"""Run manifests nest: plan -> sweep/cell -> resolve/replay.

Every span lies inside its parent, and the children a span has in one
process never sum to more than the span.  Checked over the manifests of
cold and warm ``run_plan`` runs, serial and parallel, and of an explore
pass.
"""

import pytest

import repro.api as api
from repro.harness.engine import clear_process_memo
from repro.harness.plans import build_plan
from repro.obs import nesting_errors


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_process_memo()


def children(manifest, span):
    return [s for s in manifest.spans if s["parent_id"] == span["span_id"]]


@pytest.mark.parametrize("workers", [1, 2])
def test_cold_and_warm_plan_manifests_nest(small_sizes, workers):
    overrides = dict(ruu_sizes=(10, 50), units=(1, 4))
    cold = api.run_table(
        "table7", sizes=small_sizes, workers=workers, observe=True,
        **overrides,
    ).manifest
    warm = api.run_table(
        "table7", sizes=small_sizes, workers=workers, observe=True,
        **overrides,
    ).manifest
    assert nesting_errors(cold.spans) == []
    assert nesting_errors(warm.spans) == []

    # Cold: one sweep per trace, each with a resolve and a replay child,
    # and no per-cell spans at all.
    plan = build_plan("table7", small_sizes, **overrides)
    sweeps = [s for s in cold.spans if s["name"].startswith("sweep:")]
    assert {s["name"] for s in sweeps} == {
        f"sweep:{cell.source}" for cell in plan.cells
    }
    assert sum(s["attrs"]["cells"] for s in sweeps) == len(plan.cells)
    for sweep in sweeps:
        assert [c["name"] for c in children(cold, sweep)] == [
            "resolve", "replay",
        ]
    assert not any(s["name"].startswith("cell:") for s in cold.spans)

    # Warm: every cell is a cached hit with its own span, nothing else.
    names = [s["name"] for s in warm.spans]
    assert names[0] == "plan:table7"
    assert len(names) == 1 + len(plan.cells)
    assert all(name.startswith("cell:") for name in names[1:])


def test_limits_cells_nest(small_sizes):
    manifest = api.run_table(
        "table2", sizes=small_sizes, workers=1, observe=True
    ).manifest
    assert nesting_errors(manifest.spans) == []
    sweeps = [s for s in manifest.spans if s["name"].startswith("sweep:")]
    assert sweeps and all(s["attrs"]["cells"] == 1 for s in sweeps)
    assert [c["name"] for c in children(manifest, sweeps[0])] == [
        "resolve", "limits",
    ]


def test_explore_manifest_nests():
    run = api.explore(
        "family=ruu;width=1,2;window=4,16;bus=nbus;fu=1",
        ["branchy:seed=3:n=120"], workers=1, audit=1, observe=True,
    )
    assert run.manifest is not None
    assert nesting_errors(run.manifest.spans) == []
    assert len(api.list_runs()) == 1


def test_nesting_errors_flags_overfull_and_escaping_children():
    spans = [
        {"name": "plan", "span_id": 1, "parent_id": None,
         "start": 0.0, "end": 1.0, "pid": 1},
        {"name": "a", "span_id": 2, "parent_id": 1,
         "start": 0.0, "end": 0.7, "pid": 1},
        {"name": "b", "span_id": 3, "parent_id": 1,
         "start": 0.3, "end": 1.0, "pid": 1},
        # Another process may run alongside without overfilling.
        {"name": "c", "span_id": 4, "parent_id": 1,
         "start": 0.0, "end": 0.9, "pid": 2},
        {"name": "d", "span_id": 5, "parent_id": 4,
         "start": 0.5, "end": 0.95, "pid": 2},
    ]
    errors = nesting_errors(spans)
    assert len(errors) == 2
    assert any("children in pid 1" in e for e in errors)
    assert any("span 5 (d) leaves its parent 4" in e for e in errors)
