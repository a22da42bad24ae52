"""A declared RNG stream break changes bytes, not the physics.

``tests/data/stream_v2_memload.json`` holds summaries written by
``tools/stream_fixture.py`` from the last commit on stream v2 (before
``VmMemory.advance`` stopped drawing the discarded page choice).  The
current code must reproduce them statistically: every MEMLOAD scenario's
95 % transfer-energy interval overlaps its v2 interval on both hosts,
and Table VII's WAVM3 cells stay put.
"""

import importlib.util
import json
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "stream_fixture", _ROOT / "tools" / "stream_fixture.py"
)
stream_fixture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stream_fixture)

V2 = json.loads(
    (_ROOT / "tests" / "data" / "stream_v2_memload.json").read_text(encoding="utf-8")
)


def test_fixture_matches_the_tool_settings():
    assert V2["stream"] == "v2"
    assert V2["memload"]["seed"] == stream_fixture.MEMLOAD_SEED
    assert V2["memload"]["runs"] == stream_fixture.MEMLOAD_RUNS
    assert len(V2["memload"]["transfer_energy_j"]) == 18
    assert V2["table7"]["seed"] == stream_fixture.TABLE7_SEED
    assert V2["table7"]["runs"] == stream_fixture.TABLE7_RUNS
    assert V2["table7"]["training_fraction"] == stream_fixture.TABLE7_TRAINING_FRACTION


def test_memload_transfer_energy_intervals_overlap_v2():
    current = stream_fixture.memload_summary()
    recorded = V2["memload"]["transfer_energy_j"]
    assert current.keys() == recorded.keys()
    apart = [
        (label, role)
        for label, roles in recorded.items()
        for role, old in roles.items()
        if not (
            old["lo"] <= current[label][role]["hi"]
            and current[label][role]["lo"] <= old["hi"]
        )
    ]
    assert apart == []


def test_table7_wavm3_cells_hold():
    """Non-live runs log no dirty pages, so their cells are unchanged; the
    live cells may move, but by less than the 0.4-point slack the Table VII
    claim grants WAVM3 against HUANG.  The cells were recorded with
    scipy's solvers; the pure-numpy fallbacks fit different coefficients."""
    pytest.importorskip("scipy")
    current = stream_fixture.table7_cells()
    recorded = V2["table7"]["wavm3_nrmse_pct"]
    assert current.keys() == recorded.keys()
    for cell, old in recorded.items():
        if cell.startswith("non-live/"):
            assert current[cell] == pytest.approx(old, rel=1e-9), cell
        else:
            assert abs(current[cell] - old) < 0.4, cell
