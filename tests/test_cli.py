import csv
import io
import json

import pytest

import pagerank_select as ps
from pagerank_select import chain, cli
from test_instance import MALFORMED, malformed_dict


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    inst, cons = ps.generate_random(6, 0.3, 4, "card_le:2", seed=5)
    ps.write_instance(path, inst, cons)
    return str(path)


@pytest.fixture()
def empty_z_file(tmp_path):
    path = tmp_path / "noz.json"
    path.write_text(
        json.dumps(
            {"n": 2, "target": 0, "edges": [[0, 1], [1, 0]], "fragile": [], "damping": 0.85}
        )
    )
    return str(path)


class TestValidate:
    def test_valid_file(self, capsys, demo_file):
        code, out, _ = run(capsys, "validate", demo_file)
        assert code == 0
        assert out.startswith("ok:")

    def test_overlap_file(self, capsys, tmp_path):
        path = tmp_path / "overlap.json"
        path.write_text(
            json.dumps({"n": 2, "target": 0, "edges": [[0, 1]], "fragile": [[0, 1]], "damping": 0.85})
        )
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "both fixed and fragile" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "invalid JSON" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 1

    def test_constraint_row_with_wrong_coefficient_count(self, capsys, tmp_path):
        path = tmp_path / "badrow.json"
        path.write_text(
            json.dumps(
                {
                    "n": 3,
                    "target": 0,
                    "edges": [[0, 1], [1, 2]],
                    "fragile": [[2, 0], [1, 0]],
                    "damping": 0.85,
                    "constraints": {"rows": [{"coeffs": [1], "sense": "<=", "rhs": 1}], "cardinality": None},
                }
            )
        )
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert "constraint row" in err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize("fields, named", MALFORMED)
    def test_malformed_field_is_an_input_error(self, capsys, tmp_path, command, fields, named):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(malformed_dict(fields)))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        # validate lists every problem, of the instance fields and of the
        # constraints alike, as "invalid:" lines
        assert err.startswith("invalid: " if command == "validate" else "error: ")
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"edges": [[0, 1], [True, 2]]}, '"edges" endpoints must be integers, got [True, 2]'),
            ({"n": 2**80, "edges": [[2**70, 1]]}, f"node count {2**80} does not fit in intp"),
        ],
    )
    def test_an_invalid_edge_file_is_an_input_error(self, capsys, tmp_path, fields, message):
        path = tmp_path / "edges.json"
        path.write_text(json.dumps(malformed_dict(fields)))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"invalid: {message}")


class TestRowsPastExactArithmetic:
    @pytest.mark.parametrize("command", ["validate", "solve", "brute"])
    def test_every_command_is_an_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "huge.json"
        inst, _ = ps.generate_random(6, 0.3, 3, None, seed=5)
        data = ps.instance.instance_to_json(inst)
        data["constraints"] = {"rows": [{"coeffs": [1, 0, 1], "sense": "<=", "rhs": 2**60}], "cardinality": None}
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("invalid: " if command == "validate" else "error: ")
        assert "2**53" in err


class TestGen:
    def test_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--n", "6", "--density", "0.3", "--fragile", "4", "--seed", "9", "--out", str(a))
        run(capsys, "gen", "--n", "6", "--density", "0.3", "--fragile", "4", "--seed", "9", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_generated_file_validates(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, _, _ = run(
            capsys, "gen", "--n", "7", "--density", "0.25", "--fragile", "5",
            "--constraint", "card_le:2", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        code, _, _ = run(capsys, "validate", str(out))
        assert code == 0

    def test_infeasible_spec(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen", "--n", "3", "--density", "0.0", "--fragile", "7",
            "--seed", "0", "--out", str(tmp_path / "x.json"),
        )
        assert code == 1

    @pytest.mark.parametrize("density", ["nan", "-3", "1.5"])
    def test_density_outside_the_unit_interval_is_an_input_error(self, capsys, tmp_path, density):
        out_file = tmp_path / "x.json"
        code, out, err = run(capsys, "gen", "--n", "6", "--density", density, "--fragile", "2", "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error: fixed edge density must lie in [0, 1]")
        assert not out_file.exists()

    def test_negative_fragile_count_is_an_input_error(self, capsys, tmp_path):
        out_file = tmp_path / "x.json"
        code, out, err = run(
            capsys, "gen", "--n", "6", "--density", "0.3", "--fragile", "-2", "--out", str(out_file)
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: fragile edge count must be nonnegative, got -2")
        assert not out_file.exists()


class TestSolveAndBrute:
    def test_no_fragile_edges_one_iteration(self, capsys, empty_z_file):
        code, out, _ = run(capsys, "solve", empty_z_file)
        assert code == 0
        assert "iterations 1" in out
        assert "optimum 2" in out

    def test_solve_matches_brute(self, capsys, demo_file):
        code, solve_out, _ = run(capsys, "solve", demo_file, "--cuts", "new")
        assert code == 0
        code, brute_out, _ = run(capsys, "brute", demo_file)
        assert code == 0
        solve_val = float(solve_out.split()[1])
        brute_val = float(brute_out.split()[1])
        assert abs(solve_val - brute_val) <= 1e-9

    def test_all_families_agree(self, capsys, demo_file):
        values = []
        for family in ("lshaped", "new", "lifted"):
            code, out, _ = run(capsys, "solve", demo_file, "--cuts", family)
            assert code == 0
            values.append(float(out.split()[1]))
        assert max(values) - min(values) <= 1e-9

    def test_report_file(self, capsys, demo_file, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", demo_file, "--out", str(report_path))
        assert code == 0
        blob = json.loads(report_path.read_text())
        assert blob["status"] == "optimal"

    def test_infeasible_exit_code(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        inst, _ = ps.generate_random(5, 0.3, 3, None, seed=2)
        cons = ps.ConstraintSet(rows=(ps.Row((1, 0, 0), "=", 1), ps.Row((1, 0, 0), "=", 0)))
        ps.write_instance(path, inst, cons)
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        code, _, err = run(capsys, "brute", str(path))
        assert code == 2

    def test_negative_eps_is_an_input_error(self, capsys, demo_file):
        code, _, err = run(capsys, "solve", demo_file, "--eps", "-1")
        assert code == 1
        assert err.startswith("error:") and "gap tolerance" in err
        assert "Traceback" not in err

    def test_infinite_eps_is_an_input_error(self, capsys, demo_file):
        code, out, err = run(capsys, "solve", demo_file, "--eps", "inf")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "gap tolerance must be finite" in err
        assert "Traceback" not in err

    def test_negative_iteration_limit_is_an_input_error(self, capsys, demo_file):
        code, out, err = run(capsys, "solve", demo_file, "--max-iters", "-5")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "iteration limit" in err
        assert "Traceback" not in err

    def test_iteration_limit_exit_code(self, capsys, demo_file):
        code, _, _ = run(capsys, "solve", demo_file, "--max-iters", "0")
        assert code == 3

    def test_enumeration_limit_exit_code(self, capsys, tmp_path):
        pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
        data = {
            "n": 6,
            "target": 0,
            "edges": [[0, 1]],
            "fragile": [list(p) for p in pairs if p != (0, 1)][:21],
            "damping": 0.85,
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "brute", str(path))
        assert code == 3

    def test_master_point_budget_exit_code(self, capsys, tmp_path):
        # the whole cube over 40 fragile edges passes master.POINTS_MAX_BYTES
        pairs = [(i, j) for i in range(8) for j in range(8) if i != j and (i, j) != (0, 1)]
        data = {"n": 8, "target": 0, "edges": [[0, 1]], "fragile": [list(p) for p in pairs[:40]], "damping": 0.85}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("limit: 40 fragile edges") and "MiB" in err
        assert "Traceback" not in err

    def test_dense_size_limit_is_an_input_error(self, capsys, tmp_path):
        # no edges, so the refused n-by-n array is never allocated
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 5000, "target": 0, "edges": [], "fragile": [[1, 2]], "damping": 0.85}))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: n = 5000") and "128 MiB" in err
        assert "Traceback" not in err


class TestCompareCuts:
    def test_csv_shape_and_dominance(self, capsys, demo_file):
        code, out, _ = run(capsys, "compare-cuts", demo_file, "--trials", "4", "--seed", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        for row in rows:
            lifted = float(row["coeff_lifted"])
            new = float(row["coeff_new"])
            lshaped = float(row["coeff_lshaped"])
            assert lifted >= new - 1e-9
            assert new >= lshaped - 1e-9

    def test_deterministic(self, capsys, demo_file):
        _, first, _ = run(capsys, "compare-cuts", demo_file, "--trials", "3", "--seed", "7")
        _, second, _ = run(capsys, "compare-cuts", demo_file, "--trials", "3", "--seed", "7")
        assert first == second

    @pytest.mark.parametrize("ordering", ["index", "gamma"])
    def test_iteration_columns_follow_the_ordering(self, capsys, tmp_path, ordering):
        path = str(tmp_path / "gen.json")
        run(capsys, "gen", "--n", "14", "--density", "0.25", "--fragile", "9", "--constraint", "card_le:3",
            "--seed", "1", "--out", path)
        code, out, _ = run(capsys, "compare-cuts", path, "--trials", "1", "--ordering", ordering)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        for family in ps.FAMILIES:
            code, solved, _ = run(capsys, "solve", path, "--cuts", family, "--ordering", ordering)
            assert code == 0
            assert f"iterations {row[f'family_iterations_{family}']} " in solved

    def test_no_fragile_edges_header_only(self, capsys, empty_z_file):
        code, out, _ = run(capsys, "compare-cuts", empty_z_file)
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("instance_id,")

    def test_negative_trials_is_an_input_error(self, capsys, demo_file):
        code, out, err = run(capsys, "compare-cuts", demo_file, "--trials", "-1")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--trials" in err
        assert "Traceback" not in err

    def test_damping_one_fails_before_any_return_time(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "damp1.json"
        inst, cons = ps.generate_random(8, 0.3, 5, None, seed=3, damping=1.0)
        ps.write_instance(path, inst, cons)
        calls = []
        monkeypatch.setattr(chain, "hitting_times", lambda *args: calls.append(args))
        code, out, err = run(capsys, "compare-cuts", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "damping < 1" in err
        assert calls == []

    def test_infeasible_exit_code(self, capsys, tmp_path):
        path = tmp_path / "infeasible.json"
        inst, _ = ps.generate_random(6, 0.3, 3, None, seed=5)
        cons = ps.ConstraintSet(rows=(ps.Row((1, 0, 0), "=", 1), ps.Row((1, 0, 0), "=", 0)))
        ps.write_instance(path, inst, cons)
        code, out, err = run(capsys, "compare-cuts", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("infeasible: constraint set admits no selection")

    def test_cube_past_the_point_budget_is_a_limit(self, capsys, tmp_path):
        # feasible under the row, but the whole cube over 19 fragile edges is not enumerated
        path = tmp_path / "wide.json"
        inst, _ = ps.generate_random(8, 0.1, 19, None, seed=2)
        ps.write_instance(path, inst, ps.ConstraintSet(cardinality=("<=", 1)))
        code, out, err = run(capsys, "compare-cuts", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith("limit: 19 fragile edges")
