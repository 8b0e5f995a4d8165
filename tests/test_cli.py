import json
import types

import numpy as np
import pytest

from projnorm import cli, counterexample, load_mesh, mesh_to_dict, projection


def run(*argv):
    return cli.main(list(argv))


# data options of project: two values for the two triangles of uniform n=1
VALUES = ("--values", "1,2")
OSCILLATING = ("--oscillating",)


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
            # labels are read only by --oscillating
            ("labels", {"0": ""}, OSCILLATING),
            ("labels", {"0": "ring x corner 1"}, OSCILLATING),
        ],
        ids=["labels-list", "id-1e30", "id-fractional", "id-bool",
             "dim-fractional", "dim-float", "dim-string", "dim-bool",
             "label-empty", "label-ring-not-a-number"],
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

    def test_interval_skips_2d_coupling_bound(self, tmp_path, capsys):
        mesh_file = tmp_path / "mesh.json"
        run("mesh", "interval", "--breakpoints", "0,1,2,4", "-o", str(mesh_file))
        capsys.readouterr()
        assert run("norm", "--mesh", str(mesh_file)) == 0
        assert "c0:" not in capsys.readouterr().out


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
        expected = {key: reports[0].get(key) for key in cli._REPORT_KEYS}
        loaded = json.loads(text)
        # dumping both compares key order at every level and every float's
        # repr, so bit-equal floats; null fields are kept
        assert set(reports[0]) <= set(cli._REPORT_KEYS)
        assert json.dumps(loaded) == json.dumps(expected)
        assert None in loaded.values()
        assert loaded["mesh"] == mesh_to_dict(load_mesh(mesh_file))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # one top-level key per line
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(expected) + 2


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

    @pytest.mark.parametrize("argv", [
        ("--theorem", "--J", ",", "--t", "0.01"),
        ("--theorem", "--J", "", "--t", "0.01"),
        ("--limit", "--J", "3", "--t", ","),
    ], ids=["comma", "blank", "limit-t-comma"])
    def test_empty_J_exits_2(self, tmp_path, capsys, argv):
        # an empty sweep would pass the theorem or limit check without a single row
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as caught:
            run("reproduce", *argv, "-o", str(out))
        assert caught.value.code == 2
        assert "no values" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_J_range_stops_at_the_underflow_guard(self, tmp_path, capsys, monkeypatch):
        # the range stays lazy and J = 63 is refused before any J is projected
        def assemble_mass(*args):
            raise AssertionError("projected before the underflow guard refused J=63")

        monkeypatch.setattr(counterexample, "assemble_mass", assemble_mass)
        assert run("reproduce", "--theorem", "--J", "1..1000000000000", "--t", "0.01",
                   "-o", str(tmp_path / "s.csv")) == 2
        assert "J=63, t=0.01" in capsys.readouterr().err

    def test_pyramid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("reproduce", "--pyramid", "--J", "2..5", "--t", "0.01",
                   "--d", "3", "-o", str(out)) == 0
        text = capsys.readouterr().out
        assert "growth slope:" in text
        assert float(text.split("growth slope:")[1].split()[0]) > 2.0

    def test_pyramid_refuses_d_below_3(self, tmp_path, capsys, monkeypatch):
        # d = 2 would sweep the 2D family under the pyramid's name
        def assemble_mass(*args):
            raise AssertionError("projected before d was checked")

        monkeypatch.setattr(counterexample, "assemble_mass", assemble_mass)
        out = tmp_path / "s.csv"
        assert run("reproduce", "--pyramid", "--J", "2..4", "--t", "0.01",
                   "--d", "2", "-o", str(out)) == 2
        assert "pyramid partitions need d >= 3, got 2" in capsys.readouterr().err
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
