import csv
import io
import json

import pytest

import pagerank_select as ps
from pagerank_select import cli


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
        assert blob["cuts_added"] == blob["iterations"]

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
