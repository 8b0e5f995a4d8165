import argparse
import contextlib
import copy
import gc
import io
import json
import math
import runpy
import sys
import types
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from projnorm import (SimplicialMesh, build_interval_partition, build_uniform_square, cli,
                      counterexample, load_mesh, mesh_to_dict, projection)
from projnorm import mesh as meshmod


def run(*argv):
    return cli.main(list(argv))


# data options of project: two values for the two triangles of uniform n=1
VALUES = ("--values", "1,2")
OSCILLATING = ("--oscillating",)


# a valid mesh file for VALUES, and the places a fuzzed file changes it
FUZZ_MESH = {**mesh_to_dict(build_uniform_square(1)), "labels": {"0": "corner", "3": "x"}}
FUZZ_SITES = [("dim",), ("vertices",), ("vertices", 1), ("vertices", 1, 0), ("simplices",),
              ("simplices", 1), ("simplices", 1, 2), ("labels",), ("labels", "0"),
              ("labels", "3")]
# JSON text of wrong types, bools, non-finite numbers, label maps and ragged or
# nested lists
FUZZ_VALUES = st.recursive(
    st.sampled_from(["null", "true", "false", "NaN", "1e400", "-1e400", "-1", "0", "2.5",
                     "7", '"0"', '"center"', "{}", '{"0": 1}', '{"-1": "x"}', '{"4": "x"}']),
    lambda inner: st.lists(inner, max_size=3).map(lambda items: f"[{','.join(items)}]"),
    max_leaves=6)


class TestMeshCommand:
    def test_counterexample2d(self, tmp_path, capsys):
        out = tmp_path / "mesh.json"
        assert run("mesh", "counterexample2d", "--J", "2", "--t", "0.3",
                   "-o", str(out)) == 0
        mesh = load_mesh(out)
        assert mesh.n_vertices == 13 and mesh.n_simplices == 20
        text = capsys.readouterr().out
        assert "vertices: 13" in text and "angles:" in text

    def test_pyramid(self, tmp_path):
        out = tmp_path / "mesh.json"
        assert run("mesh", "pyramid", "--J", "1", "--t", "0.3", "--d", "3",
                   "-o", str(out)) == 0
        assert load_mesh(out).dim == 3

    def test_uniform(self, tmp_path):
        out = tmp_path / "mesh.json"
        assert run("mesh", "uniform", "--n", "3", "-o", str(out)) == 0
        assert load_mesh(out).n_simplices == 18

    def test_interval(self, tmp_path):
        out = tmp_path / "mesh.json"
        assert run("mesh", "interval", "--breakpoints", "0,0.5,0.75,1",
                   "-o", str(out)) == 0
        assert load_mesh(out).n_simplices == 3

    def test_interval_with_negative_breakpoints(self, tmp_path):
        out = tmp_path / "mesh.json"
        assert run("mesh", "interval", "--breakpoints", "-1,-0.5,0,1",
                   "-o", str(out)) == 0
        assert load_mesh(out).vertices[0, 0] == -1.0

    def test_invalid_parameters_exit_2(self, tmp_path):
        out = tmp_path / "mesh.json"
        assert run("mesh", "counterexample2d", "--J", "0", "--t", "0.3",
                   "-o", str(out)) == 2
        assert run("mesh", "counterexample2d", "--J", "2", "--t", "1.5",
                   "-o", str(out)) == 2
        assert not out.exists()

    def test_huge_d_exits_2(self, tmp_path, capsys, monkeypatch):
        # refused before numpy is asked for a vertex array this large, and
        # the sweep before its first row
        def ring_system(*args):
            raise AssertionError("a row was computed before d was checked")

        monkeypatch.setattr(counterexample, "_ring_system", ring_system)
        out = tmp_path / "mesh.json"
        assert run("mesh", "pyramid", "--J", "1", "--t", "0.5", "--d", "1000000000",
                   "-o", str(out)) == 2
        assert run("reproduce", "--pyramid", "--J", "1,2", "--t", "0.5", "--d", "1000000000",
                   "-o", str(tmp_path / "s.csv")) == 2
        assert capsys.readouterr().err.count("error: d=1000000000 gives simplex volumes") == 2
        assert not out.exists()

    def test_mesh_dimension_guard_exits_2(self, tmp_path, capsys, monkeypatch):
        # refused before the facet kernel, and the sweep with norms before its
        # first row; a sweep without norms builds no mesh and keeps d <= 167
        cross = meshmod._cross

        def refuse(*args):
            raise AssertionError("a row was computed before the mesh dimension was checked")

        def guarded(E):  # the 2D base mesh is still built
            if len(E) > 2:
                raise AssertionError("the facet kernel ran above the dimension limit")
            return cross(E)

        monkeypatch.setattr(counterexample, "_ring_system", refuse)
        monkeypatch.setattr(meshmod, "_cross", guarded)
        out = tmp_path / "mesh.json"
        assert run("mesh", "pyramid", "--J", "1", "--t", "0.5", "--d", "40", "-o", str(out)) == 2
        assert run("reproduce", "--pyramid", "--d", "40", "--J", "1,2", "--t", "0.5",
                   "--with-norms", "-o", str(tmp_path / "s.csv")) == 2
        err = capsys.readouterr().err
        assert err.count("error: d=40 is above 12, the largest mesh dimension supported") == 2
        assert not out.exists() and not (tmp_path / "s.csv").exists()

    def test_deterministic_output_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("mesh", "counterexample2d", "--J", "3", "--t", "0.1",
                       "-o", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestProjectCommand:
    @pytest.fixture
    def mesh_file(self, tmp_path):
        out = tmp_path / "mesh.json"
        run("mesh", "counterexample2d", "--J", "1", "--t", "0.3", "-o", str(out))
        return out

    def test_oscillating(self, mesh_file, tmp_path):
        report_file = tmp_path / "report.json"
        assert run("project", "--mesh", str(mesh_file), "--oscillating",
                   "-o", str(report_file)) == 0
        report = json.loads(report_file.read_text())
        assert 1.0 <= report["sup_norm"] <= 4.0
        assert report["residual"] <= 1e-10
        assert len(report["nodal_values"]) == 9

    def test_constant_values_reproduced_exactly(self, mesh_file, tmp_path):
        report_file = tmp_path / "report.json"
        assert run("project", "--mesh", str(mesh_file), "--values",
                   ",".join(["1"] * 12), "-o", str(report_file)) == 0
        report = json.loads(report_file.read_text())
        assert np.abs(np.array(report["nodal_values"]) - 1.0).max() < 1e-12

    def test_value_count_mismatch_exits_2(self, mesh_file, tmp_path):
        assert run("project", "--mesh", str(mesh_file), "--values", "1,2,3",
                   "-o", str(tmp_path / "r.json")) == 2

    def test_negative_first_value(self, mesh_file, tmp_path):
        # the space-separated form takes a list that starts with a minus sign
        values = ",".join(["-0.5", "0.25"] * 6)
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert run("project", "--mesh", str(mesh_file), "--values", values,
                   "-o", str(spaced)) == 0
        assert run("project", "--mesh", str(mesh_file), f"--values={values}",
                   "-o", str(joined)) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert run("project", "--mesh", str(mesh_file), "--values", "-1",
                   "-o", str(tmp_path / "r.json")) == 2  # 1 value for 12 simplices

    def test_oscillating_needs_labels(self, tmp_path):
        mesh_file = tmp_path / "u.json"
        run("mesh", "uniform", "--n", "2", "-o", str(mesh_file))
        assert run("project", "--mesh", str(mesh_file), "--oscillating",
                   "-o", str(tmp_path / "r.json")) == 2

    def test_malformed_mesh_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "vertices": "nope"}')
        assert run("project", "--mesh", str(bad), "--oscillating",
                   "-o", str(tmp_path / "r.json")) == 2

    @pytest.mark.parametrize(
        "field, value, data_args",
        [
            ("labels", [1], VALUES),
            ("simplices", [[0, 1, 1e30], [0, 3, 2]], VALUES),
            ("simplices", [[0, 1, 2.7], [0, 3, 2]], VALUES),
            ("simplices", [[0, True, 3], [0, 3, 2]], VALUES),
            ("dim", 2.5, VALUES),
            ("dim", 2.0, VALUES),
            ("dim", "2", VALUES),
            ("dim", True, VALUES),
            # the 1 of vertex 1, [1, 0]; JSON integers stay coordinates
            ("vertices", [[0.0, 0.0], [True, 0.0], [0.0, 1.0], [1.0, 1.0]], VALUES),
            ("vertices", [[0.0, 0.0], ["1", 0.0], [0.0, 1.0], [1.0, 1.0]], VALUES),
            # labels are read only by --oscillating
            ("labels", {"0": ""}, OSCILLATING),
            ("labels", {"0": "ring x corner 1"}, OSCILLATING),
            # a label key is the decimal form of a vertex id, 0..3 here
            ("labels", {"0_1": "center"}, VALUES),
            ("labels", {" 2": "center"}, VALUES),
            ("labels", {"999": "center"}, VALUES),
            # a label is a string: null and [3] are not "None" and "[3]"
            ("labels", {"0": None}, VALUES),
            ("labels", {"0": [3]}, VALUES),
            # a mesh has one center; a second would make the witness data +1 everywhere
            ("labels", {"0": "ring 0 corner 1", "1": "ring 0 corner 2",
                        "2": "center", "3": "center"}, OSCILLATING),
            # one corner label on two vertices would decode to wrong witness data
            ("labels", {"0": "ring 0 corner 1", "1": "ring 0 corner 1",
                        "2": "ring 0 corner 2", "3": "center"}, OSCILLATING),
            # no UTF-8 form: neither a report nor a mesh file could hold it
            ("labels", {"0": "\ud800"}, VALUES),
        ],
        ids=["labels-list", "id-1e30", "id-fractional", "id-bool",
             "dim-fractional", "dim-float", "dim-string", "dim-bool",
             "coord-bool", "coord-string",
             "label-empty", "label-ring-not-a-number",
             "label-underscore", "label-space", "label-out-of-range", "label-null", "label-number",
             "label-second-center", "label-twin-corner", "label-lone-surrogate"],
    )
    def test_malformed_mesh_json_exits_2(self, tmp_path, capsys, field, value, data_args):
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "uniform", "--n", "1", "-o", str(mesh_file))
        data = json.loads(mesh_file.read_text())
        data[field] = value
        mesh_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("project", "--mesh", str(mesh_file), *data_args,
                   "-o", str(tmp_path / "r.json")) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("field, row, col, value, message", [
        ("vertices", 600, 1, True, "vertex coordinates must be numbers"),
        ("simplices", 1500, 1, False, "simplex ids must be integers"),
    ], ids=["coord-true", "id-false"])
    def test_bool_deep_in_a_large_mesh_file_exits_2(self, tmp_path, capsys, field, row,
                                                    col, value, message):
        # only entries equal to 0 or 1 have their type looked up; a bool on an
        # interior row of 1,089 vertices and 2,048 simplices is one of them
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "uniform", "--n", "32", "-o", str(mesh_file))
        data = json.loads(mesh_file.read_text())
        data[field][row][col] = value
        mesh_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert run("project", "--mesh", str(mesh_file), "--values", ",".join(["1.5"] * 2048),
                   "-o", str(tmp_path / "r.json")) == 2
        captured = capsys.readouterr()
        assert f"error: mesh data: {message}" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_malformed_mesh_file_leaves_the_collector_as_found(self, tmp_path, enabled):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "vertices": [[0.0, true]], "simplices": [[0, 0, 0]]}')
        (gc.enable if enabled else gc.disable)()
        try:
            assert run("project", "--mesh", str(bad), *VALUES,
                       "-o", str(tmp_path / "r.json")) == 2
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("raw", [
        b"\xff\xfe",
        # a valid mesh file but for the byte ff in a label
        b'{"dim":1,"vertices":[[0.0],[1.0]],"simplices":[[0,1]],"labels":{"0":"\xff"}}',
    ], ids=["bom-only", "label-byte-ff"])
    def test_undecodable_mesh_file_exits_2(self, tmp_path, capsys, raw):
        mesh_file = tmp_path / "bin.json"
        mesh_file.write_bytes(raw)
        assert run("project", "--mesh", str(mesh_file), "--values", "1",
                   "-o", str(tmp_path / "r.json")) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_deeply_nested_mesh_file_exits_2(self, tmp_path, capsys):
        # deeper than the JSON decoder's recursion allows
        mesh_file = tmp_path / "deep.json"
        mesh_file.write_text("[" * 100000)
        assert run("project", "--mesh", str(mesh_file), "--values", "1",
                   "-o", str(tmp_path / "r.json")) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.sampled_from(FUZZ_SITES), st.none() | FUZZ_VALUES)
    def test_mutated_mesh_file_exits_0_or_2(self, tmp_path_factory, site, value):
        # one field of a valid 2-triangle mesh file deleted (None) or replaced
        data = copy.deepcopy(FUZZ_MESH)
        *path, last = site
        node = data
        for key in path:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = "MUTANT"
        mesh_file = tmp_path_factory.getbasetemp() / "fuzz.json"
        mesh_file.write_text(json.dumps(data).replace('"MUTANT"', value or ""))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run("project", "--mesh", str(mesh_file), *VALUES,
                       "-o", str(tmp_path_factory.getbasetemp() / "fuzz-report.json"))
        assert code in (0, 2)
        assert code == 0 or "error:" in err.getvalue()
        assert "Traceback" not in out.getvalue() + err.getvalue()

    def test_missing_mesh_file_exits_2(self, tmp_path):
        assert run("project", "--mesh", str(tmp_path / "absent.json"),
                   "--oscillating", "-o", str(tmp_path / "r.json")) == 2


class TestNormCommand:
    def test_prints_norm_and_bounds(self, tmp_path, capsys):
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "counterexample2d", "--J", "1", "--t", "0.3", "-o", str(mesh_file))
        capsys.readouterr()
        assert run("norm", "--mesh", str(mesh_file)) == 0
        text = capsys.readouterr().out
        assert "exact_operator_norm: 3.5079092" in text
        assert "exact <= bound: True" in text
        assert "satisfied: True" in text

    def test_report_file(self, tmp_path):
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "uniform", "--n", "2", "-o", str(mesh_file))
        report_file = tmp_path / "report.json"
        assert run("norm", "--mesh", str(mesh_file), "-o", str(report_file)) == 0
        report = json.loads(report_file.read_text())
        assert report["exact_operator_norm"] == pytest.approx(3.002075824636801)
        assert report["exact_operator_norm"] <= report["ainv_bound"] + 1e-9
        assert report["c0"] == pytest.approx(0.125)

    def test_residual_gate_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # dual rows 22% too large leave a normalized residual of 0.22
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "counterexample2d", "--J", "2", "--t", "0.1", "-o", str(mesh_file))
        factor = projection.splu

        def perturbed(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return types.SimpleNamespace(solve=lambda b: 1.22 * lu.solve(b))

        monkeypatch.setattr(projection, "splu", perturbed)
        capsys.readouterr()
        assert run("norm", "--mesh", str(mesh_file)) == 3
        assert "normalized residual 2.200e-01" in capsys.readouterr().err

    def test_repeat_runs_write_identical_bytes(self, tmp_path, capsys):
        # a warning printed on the first call only would make the runs differ
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "counterexample2d", "--J", "20", "--t", "0.01", "-o", str(mesh_file))
        capsys.readouterr()
        report_file = tmp_path / "report.json"
        runs = []
        for _ in range(2):
            assert run("norm", "--mesh", str(mesh_file), "-o", str(report_file)) == 0
            captured = capsys.readouterr()
            runs.append((captured.out, captured.err, report_file.read_bytes()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("t", ["3e-78", "1e-100"])
    def test_overflowed_bound_stays_infinite(self, tmp_path, capsys, t):
        # c0 = 9e-156 squares below the normal doubles and c0 = 1e-200 squares
        # to 0.0, so prop1_bound is inf: json.loads reads it back as inf, not
        # as the null of an unset key
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "counterexample2d", "--J", "1", "--t", t, "-o", str(mesh_file))
        report_file = tmp_path / "report.json"
        assert run("norm", "--mesh", str(mesh_file), "-o", str(report_file)) == 0
        assert "prop1_bound: inf" in capsys.readouterr().out
        assert json.loads(report_file.read_text())["prop1_bound"] == math.inf

    def test_interval_skips_2d_coupling_bound(self, tmp_path, capsys):
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "interval", "--breakpoints", "0,1,2,4", "-o", str(mesh_file))
        capsys.readouterr()
        assert run("norm", "--mesh", str(mesh_file)) == 0
        assert "c0:" not in capsys.readouterr().out


class TestOneAssemblyPerCommand:
    # the norm, its bound, c0 and Proposition 1's bound all come from one
    # mass matrix and one factorization of it
    @pytest.mark.parametrize("command, mesh_args", [
        (("norm",), ("counterexample2d", "--J", "4", "--t", "0.1")),
        (("norm",), ("pyramid", "--J", "2", "--t", "0.1", "--d", "3")),
        (("project", "--oscillating"), ("counterexample2d", "--J", "6", "--t", "0.01")),
    ], ids=["norm-2d", "norm-d3", "project-graded"])
    def test_one_assembly_and_one_factorization(self, tmp_path, monkeypatch, command,
                                                mesh_args):
        mesh_file = tmp_path / "mesh.json"
        assert run("mesh", *mesh_args, "-o", str(mesh_file)) == 0
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in "assemble_mass", "splu":
            monkeypatch.setattr(projection, name, counted(name, getattr(projection, name)))
        assert run(*command, "--mesh", str(mesh_file), "-o", str(tmp_path / "r.json")) == 0
        assert calls == {"assemble_mass": 1, "splu": 1}


def plain_value(value):
    """A report value as the file holds it: a mesh as the dim, vertices,
    simplices and labels of its file, an array as a list."""
    if isinstance(value, SimplicialMesh):
        return {"dim": value.dim, "vertices": value.vertices.tolist(),
                "simplices": value.simplices.tolist(),
                "labels": {str(k): v for k, v in sorted(value.labels.items())}}
    return value.tolist() if isinstance(value, np.ndarray) else value


class TestReportFile:
    """The report files of project and norm hold every key of _REPORT_KEYS,
    in order, with the values the command passed and null for the rest."""

    @pytest.fixture
    def written(self, tmp_path, monkeypatch):
        reports = []
        write = cli._write_report

        def spy(report, path):
            reports.append(report)
            write(report, path)

        monkeypatch.setattr(cli, "_write_report", spy)
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "counterexample2d", "--J", "3", "--t", "0.1", "-o", str(mesh_file))
        return mesh_file, reports

    @pytest.mark.parametrize("command", [["project", "--oscillating"], ["norm"]],
                             ids=["project", "norm"])
    def test_file_is_the_report_dict(self, tmp_path, written, command):
        mesh_file, reports = written
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run(command[0], "--mesh", str(mesh_file), *command[1:],
                       "-o", str(path)) == 0
        text = paths[0].read_text()
        # the command passes the mesh and its arrays; the file holds them as
        # a mesh file's object and as lists
        expected = {key: plain_value(reports[0].get(key)) for key in cli._REPORT_KEYS}
        loaded = json.loads(text)
        # stdlib json.dumps of both compares key order at every level and
        # every float's repr, so bit-equal floats; null fields are kept
        assert set(reports[0]) <= set(cli._REPORT_KEYS)
        assert json.dumps(loaded) == json.dumps(expected)
        assert None in loaded.values()
        assert loaded["mesh"] == mesh_to_dict(load_mesh(mesh_file))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # one top-level key per line
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(expected) + 2

    def test_floats_read_back_bit_for_bit(self, tmp_path):
        # every finite double: subnormals, -0.0 and the largest ones included
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        x = np.concatenate([x[np.isfinite(x)], [-0.0, 5e-324, -1.7976931348623157e308]])
        mesh = build_interval_partition([-1e300, -0.0, 0.01**60, 1e-7, 1e16])
        sup = float(x[1])
        cli._write_report({"mesh": mesh, "nodal_values": x, "sup_norm": sup},
                          tmp_path / "report.json")
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert np.array(loaded["nodal_values"]).tobytes() == x.tobytes()
        assert loaded["sup_norm"].hex() == sup.hex()
        assert np.array(loaded["mesh"]["vertices"]).tobytes() == mesh.vertices.tobytes()

    @pytest.mark.parametrize("command", [["project", "--oscillating"], ["norm"]],
                             ids=["project", "norm"])
    def test_mesh_line_is_the_mesh_file(self, tmp_path, written, command):
        # one encoding: the report's mesh value is the file projnorm mesh wrote
        mesh_file, _ = written
        report = tmp_path / "report.json"
        assert run(command[0], "--mesh", str(mesh_file), *command[1:], "-o", str(report)) == 0
        mesh_bytes = mesh_file.read_bytes()
        assert mesh_bytes.endswith(b"\n") and mesh_bytes.count(b"\n") == 1
        assert report.read_bytes().split(b"\n")[1] == b'"mesh":' + mesh_bytes[:-1] + b","


class TestReproduceCommand:
    def test_theorem_small_J(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("reproduce", "--theorem", "--J", "1..5", "--t", "0.01",
                   "-o", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6  # header + 5 rows
        assert "needs >= 2" in capsys.readouterr().out

    def test_theorem_fails_honestly_at_J8(self, tmp_path, capsys):
        # finite-t drift pushes the J = 8 witness below 16 at t = 0.01
        out = tmp_path / "sweep.csv"
        assert run("reproduce", "--theorem", "--J", "8", "--t", "0.01",
                   "-o", str(out)) == 4
        assert "below 2J" in capsys.readouterr().err
        assert out.exists()  # data is still written for inspection

    def test_theorem_comma_list(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("reproduce", "--theorem", "--J", "1,3,5", "--t", "0.01",
                   "-o", str(out)) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["1", "3", "5"]

    def test_limit(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("reproduce", "--limit", "--J", "2", "--t", "0.2,0.1,0.05",
                   "-o", str(out)) == 0
        assert "limit_error" in capsys.readouterr().out
        rows = out.read_text().strip().split("\n")[1:]
        errs = [float(r.split(",")[5]) for r in rows]
        assert errs == sorted(errs, reverse=True)

    def test_limit_rejects_multiple_J(self, tmp_path):
        assert run("reproduce", "--limit", "--J", "1..3", "--t", "0.1",
                   "-o", str(tmp_path / "s.csv")) == 2

    @pytest.mark.parametrize("argv, message", [
        (("--theorem", "--J", ",", "--t", "0.01"), "no values"),
        (("--theorem", "--J", "", "--t", "0.01"), "no values"),
        (("--limit", "--J", "3", "--t", ","), "no values"),
        (("--limit", "--J", "5", "--t", "0.1,0.1"), "repeated value in '0.1,0.1'"),
        # options the mode would ignore, leaving empty norm columns or a 2D sweep
        (("--limit", "--J", "3", "--t", "0.1,0.05", "--with-norms"), "--with-norms applies"),
        (("--theorem", "--J", "2", "--t", "0.1", "--d", "5"), "--d applies only to --pyramid"),
    ], ids=["comma", "blank", "limit-t-comma", "limit-t-repeated", "limit-with-norms",
            "theorem-d"])
    def test_empty_J_exits_2(self, tmp_path, capsys, monkeypatch, argv, message):
        # an empty sweep would pass the theorem or limit check without a single
        # row; a repeated t made the limit check fail on two equal errors
        def ring_system(*args):
            raise AssertionError("a row was computed before the sweep was refused")

        monkeypatch.setattr(counterexample, "_ring_system", ring_system)
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as caught:
            run("reproduce", *argv, "-o", str(out))
        assert caught.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_huge_J_range_stops_at_the_underflow_guard(self, tmp_path, capsys, monkeypatch):
        # the range stays lazy and J = 63 is refused before any row is computed
        def ring_system(*args):
            raise AssertionError("a row was computed before the underflow guard refused J=63")

        monkeypatch.setattr(counterexample, "_ring_system", ring_system)
        assert run("reproduce", "--theorem", "--J", "1..1000000000000", "--t", "0.01",
                   "-o", str(tmp_path / "s.csv")) == 2
        assert "J=63, t=0.01" in capsys.readouterr().err

    @pytest.mark.parametrize("J, ts, message", [
        ("2", "0.2,1.5", "t must satisfy 0 < t < 1, got 1.5"),
        ("200", "0.01", "J=200, t=0.01 would produce simplex volumes"),
    ], ids=["t-above-1", "past-underflow-guard"])
    def test_limit_keeps_the_mesh_family_guards(self, tmp_path, capsys, J, ts, message):
        # the closed-form stencil builds no mesh, yet --limit still refuses
        # every (J, t) the mesh family refuses, before any CSV is written
        out = tmp_path / "s.csv"
        assert run("reproduce", "--limit", "--J", J, "--t", ts, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_pyramid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("reproduce", "--pyramid", "--J", "2..5", "--t", "0.01",
                   "--d", "3", "-o", str(out)) == 0
        text = capsys.readouterr().out
        assert "growth slope:" in text
        assert float(text.split("growth slope:")[1].split()[0]) > 2.0

    def test_pyramid_refuses_d_below_3(self, tmp_path, capsys, monkeypatch):
        # d = 2 would sweep the 2D family under the pyramid's name
        def ring_system(*args):
            raise AssertionError("a row was computed before d was checked")

        monkeypatch.setattr(counterexample, "_ring_system", ring_system)
        out = tmp_path / "s.csv"
        assert run("reproduce", "--pyramid", "--J", "2..4", "--t", "0.01",
                   "--d", "2", "-o", str(out)) == 2
        assert "pyramid partitions need d >= 3, got 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("--theorem", "--J", "1..3", "--t", "0.1"),
                                      ("--limit", "--J", "2", "--t", "0.2,0.1")],
                             ids=["theorem", "limit"])
    def test_stencil_residual_gate_failure_exits_3(self, tmp_path, capsys, monkeypatch,
                                                   argv):
        # a ring stencil solve off by 1e-6 on the last row is refused, not written
        solve = np.linalg.solve

        def perturbed(A, b):
            x = solve(A, b)
            x[-1] += 1e-6
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        out = tmp_path / "s.csv"
        assert run("reproduce", *argv, "-o", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ring system solve left normalized residual")
        assert not out.exists()

    def test_pyramid_single_J_exits_4(self, tmp_path):
        assert run("reproduce", "--pyramid", "--J", "2", "--t", "0.01",
                   "-o", str(tmp_path / "s.csv")) == 4

    def test_with_norms_populates_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("reproduce", "--theorem", "--J", "1,2", "--t", "0.1",
                   "--with-norms", "-o", str(out)) == 0
        for row in out.read_text().strip().split("\n")[1:]:
            parts = row.split(",")
            assert float(parts[4]) >= float(parts[3])
            assert parts[6] != ""


# text for the number reader: every float() spelling, and text float() refuses
_DOUBLES = st.floats().map(repr)
_SUBNORMALS = st.floats(min_value=-2.2250738585072014e-308,
                        max_value=2.2250738585072014e-308).map(repr)
_BIG_INTS = st.integers(min_value=2**64, max_value=10**40).map(str)
_MANTISSAS = st.builds(
    lambda sign, digits, point, exponent: (
        sign + digits[:point] + "." + digits[point:] + exponent),
    st.sampled_from(["", "-"]),
    st.text("0123456789", min_size=17, max_size=25),
    st.integers(min_value=1, max_value=17),
    st.sampled_from(["", "e", "E"]).flatmap(
        lambda e: st.just("") if not e else st.integers(-330, 330).map(lambda k: f"{e}{k}")),
)
_SPELLINGS = st.sampled_from([
    "-0", "-0.0", "0", "0.0", "+1", ".5", "1.", "1_0", " 2.5", "2.5\t", "\n3e2 ", "",
    "inf", "-inf", "Infinity", "nan", "NaN", "true", '"1"', "[1]", "1e400", "-1e-400",
    "0x10", "1e", "--1", str(2**64), str(-2**70)])
_NUMBER_TEXT = st.lists(st.one_of(_DOUBLES, _SUBNORMALS, _BIG_INTS, _MANTISSAS, _SPELLINGS),
                        max_size=6).map(",".join)


def _read_by_float(text):
    """What the float() loop alone makes of text: float.hex of each value, or
    the class of the exception it raises (ArgumentTypeError for no values)."""
    try:
        values = [float(p) for p in text.split(",") if p]
    except Exception as exc:
        return type(exc)
    return [v.hex() for v in values] if values else argparse.ArgumentTypeError


class TestNumberReader:
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_NUMBER_TEXT)
    def test_reads_what_float_reads(self, text):
        try:
            got = cli._parse_float_list(text)
        except Exception as exc:
            got = type(exc)
        else:
            assert {*map(type, got)} == {float}
            got = [v.hex() for v in got]
        assert got == _read_by_float(text)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    def test_repr_lists_skip_the_float_loop(self, values):
        # finite doubles as repr writes them (and as the benchmark passes
        # --values) are JSON floats, read by orjson alone
        with mock.patch.object(cli, "_comma_list", side_effect=AssertionError):
            got = cli._parse_float_list(",".join(map(repr, values)))
        assert [v.hex() for v in got] == [v.hex() for v in values]

    def test_negative_zero_keeps_its_sign(self):
        # orjson reads -0 as the int 0; the float() loop keeps the sign
        assert [v.hex() for v in cli._parse_float_list("-0,1")] == ["-0x0.0p+0", "0x1.0000000000000p+0"]
        assert cli._parse_float_list("-0.0")[0].hex() == "-0x0.0p+0"

    def test_project_reports_match_on_both_paths(self, tmp_path):
        # "-0,1" goes through float(), "-0.0,1.0" and "-0e0,1e0" through
        # orjson; the pinned lines are those the float() loop alone wrote
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "uniform", "--n", "1", "-o", str(mesh_file))
        reports = []
        for values in "-0,1", "-0.0,1.0", "-0e0,1e0":
            out = tmp_path / f"{values}.json"
            assert run("project", "--mesh", str(mesh_file), f"--values={values}",
                       "-o", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]
        assert (b'"nodal_values":[0.5,-0.5000000000000001,1.5000000000000002,0.5],\n'
                b'"sup_norm":1.5000000000000002,\n') in reports[0]

    def test_large_reports_match_on_both_paths(self, tmp_path):
        # the same 3,200 doubles read by orjson, and by float() once a leading
        # "+" keeps the list from being JSON
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "uniform", "--n", "40", "-o", str(mesh_file))
        values = np.random.default_rng(5).uniform(-1.0, 1.0, 3200)
        text = ",".join(map(repr, values.tolist()))
        reports = []
        for arg in text, "+" + text:
            out = tmp_path / f"{len(reports)}.json"
            assert run("project", "--mesh", str(mesh_file), f"--values={arg}",
                       "-o", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # argparse keeps no state between parse_args calls, so the one cached
        # parser must give every call the output it gives in a fresh order
        assert cli.build_parser() is cli.build_parser()
        mesh_file = str(tmp_path / "cx.json")
        run("mesh", "counterexample2d", "--J", "1", "--t", "0.3", "-o", mesh_file)
        values = ",".join(["-0.5"] + ["1"] * 11)  # 12 triangles
        out = tmp_path / "out"
        calls = [
            ("reproduce", "--theorem", "--J", "1..3", "--t", "0.1", "--with-norms"),
            ("reproduce", "--theorem", "--J", "1..3", "--t", "0.1"),
            ("project", "--mesh", mesh_file, "--values", values),
            ("project", "--mesh", mesh_file, "--values"),  # argparse: exit 2
            ("project", "--mesh", mesh_file, "--oscillating"),
        ]

        def outcome(argv):
            out.unlink(missing_ok=True)
            capsys.readouterr()
            try:
                code = run(*argv, "-o", str(out))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err, out.read_bytes() if out.exists() else None

        forward = [outcome(argv) for argv in calls]
        backward = [outcome(argv) for argv in reversed(calls)][::-1]
        assert forward == backward
        # exit 4: at t = 0.1 the J = 3 witness falls below 6
        assert [code for code, *_ in forward] == [4, 4, 0, 2, 0]
        assert forward[0][3] != forward[1][3]  # the norm columns are filled only once

    def test_python_dash_m_runs_the_cli(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["projnorm", "--help"])
        with pytest.raises(SystemExit) as caught:
            runpy.run_module("projnorm", run_name="__main__")
        assert caught.value.code == 0
        assert capsys.readouterr().out.startswith("usage: projnorm")
