"""The paired A/B tool ``tests/ab.py``: its report, and its equality gate."""

import json
import shutil

import pytest

import ab


def test_geometry_report_has_every_stage_and_round(capsys):
    ab.main(["geometry", str(ab.ROOT), str(ab.ROOT), "--rounds", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["workload"] == "geometry"
    assert report["ops_per_round"] == 55  # the benchmark's round
    assert list(report["stages"]) == ["round", "outer_bound_region", "double_description",
                                      "vertex_enumerate", "closed_form", "regions_equal", "other"]
    for stage in report["stages"].values():
        assert stage["rounds"] == 2
        assert stage["parent_ms"] >= 0 and stage["change_ms"] >= 0
    assert report["stages"]["round"]["parent_ms"] > 0


def test_a_tree_that_drops_a_vertex_stops_at_the_gate(tmp_path):
    shutil.copytree(ab.ROOT / "src" / "doflab", tmp_path / "src" / "doflab")
    source = tmp_path / "src" / "doflab" / "exactgeom.py"
    text = source.read_text()
    last = "return [tuple(map(values.__getitem__, key)) for key in keys]"
    assert last in text
    source.write_text(text.replace(last, last.replace("in keys]", "in keys[1:]]")))
    with pytest.raises(SystemExit) as stopped:
        ab.main(["geometry", str(tmp_path), str(ab.ROOT), "--rounds", "2"])
    # the first op of the catalog, the benchmark's warm-up, has vertices
    assert str(stopped.value) == 'ab: the trees differ on op ["geometry",3,[2,2,1]]'
