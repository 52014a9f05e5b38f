import json
import subprocess
import sys

import pytest

from treebed.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestChecks:
    def test_check_covering_ok(self, capsys):
        code, out, _ = run(capsys, "check-covering", "--n", "1", "--p", "5")
        assert code == 0
        assert "covered: True" in out

    def test_check_covering_invalid_params(self, capsys):
        code, _, err = run(capsys, "check-covering", "--n", "2", "--p", "6")
        assert code == 2
        assert "1/(p-1)" in err

    def test_check_covering_json(self, capsys):
        code, out, _ = run(capsys, "check-covering", "--n", "2", "--p", "7", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["covered"] is True and doc["cells_total"] == 441

    def test_check_covering_budget_limit(self, capsys):
        code, _, err = run(
            capsys, "check-covering", "--n", "1", "--p", "5", "--cell-budget", "1"
        )
        assert code == 3
        assert "budget" in err

    def test_check_separation(self, capsys):
        code, out, _ = run(
            capsys, "check-separation", "--n", "1", "--p", "5",
            "--samples", "500", "--seed", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["disjoint_far"] + doc["nested_deep"] == 500


class TestQueries:
    def test_tree_dist(self, capsys):
        code, out, _ = run(
            capsys, "tree-dist", "--n", "1", "--p", "5", "--u", "0,1,2", "--v", "0,1,3"
        )
        assert code == 0
        assert out.strip() == "3"

    def test_tree_dist_scan_cap_limit(self, capsys):
        code, _, err = run(
            capsys, "tree-dist", "--n", "1", "--p", "5",
            "--u", "0,1,3", "--v", "0,0,0", "--scan-cap", "1",
        )
        assert code == 3

    def test_embed(self, capsys):
        code, out, _ = run(
            capsys, "embed", "--n", "1", "--p", "5", "--point", "0,0.5", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["images"] == [
            {"c": 0, "k": 0, "gamma": [0]},
            {"c": 1, "k": 0, "gamma": [-1]},
        ]

    def test_distance(self, capsys):
        code, out, _ = run(
            capsys, "distance", "--n", "1", "--p", "5", "--z", "0,0", "--w", "1,0"
        )
        assert code == 0
        assert float(out) == pytest.approx(1.0)

    def test_export_subtree_json(self, capsys):
        code, out, _ = run(
            capsys, "export-subtree", "--n", "1", "--p", "5",
            "--id", "0,1,2", "--id", "0,1,3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["nodes"]) == 4 and len(doc["edges"]) == 3

    def test_export_subtree_ids_file(self, capsys, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("0,1,2\n# comment\n0,1,3\n")
        code, out, _ = run(
            capsys, "export-subtree", "--n", "1", "--p", "5",
            "--ids-file", str(ids),
        )
        assert code == 0
        assert out.startswith("graph T0 {")


class TestUsageErrors:
    def test_bad_point(self, capsys):
        code, _, err = run(
            capsys, "embed", "--n", "1", "--p", "5", "--point", "0,oops"
        )
        assert code == 2

    def test_wrong_point_dimension(self, capsys):
        code, _, _ = run(
            capsys, "embed", "--n", "2", "--p", "7", "--point", "0,1"
        )
        assert code == 2

    def test_missing_ids(self, capsys):
        code, _, _ = run(capsys, "export-subtree", "--n", "1", "--p", "5")
        assert code == 2

    def test_mixed_colors(self, capsys):
        code, _, _ = run(
            capsys, "tree-dist", "--n", "1", "--p", "5", "--u", "0,0,0", "--v", "1,0,0"
        )
        assert code == 2

    def test_config_without_path(self, capsys):
        code, _, err = run(capsys, "check-covering", "--n", "1", "--p", "5", "--config")
        assert code == 2

    def test_missing_ids_file(self, capsys):
        code, _, _ = run(
            capsys, "export-subtree", "--n", "1", "--p", "5",
            "--ids-file", "/nonexistent/ids.txt",
        )
        assert code == 2


class TestVerify:
    def test_report_file_and_exit(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run(
            capsys, "verify", "--n", "1", "--p", "5", "--samples", "200",
            "--seed", "42", "--output", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["n_samples"] == 200
        assert doc["violations"] == 0
        assert "fitted l=" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = [
            "verify", "--n", "1", "--p", "5", "--samples", "150",
            "--seed", "9", "--threads", "1",
        ]
        assert run(capsys, *argv, "--output", str(a))[0] == 0
        assert run(capsys, *argv, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--n", "1", "--p", "5", "--samples", "100", "--seed", "3"]
        run(capsys, *argv, "--threads", "1", "--output", str(a))
        run(capsys, *argv, "--threads", "3", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_output(self, capsys, tmp_path):
        csv_file = tmp_path / "pairs.csv"
        code, _, _ = run(
            capsys, "verify", "--n", "1", "--p", "5", "--samples", "50",
            "--seed", "1", "--output", str(tmp_path / "r.json"), "--csv", str(csv_file),
        )
        assert code == 0
        assert len(csv_file.read_text().splitlines()) == 51

    def test_config_file_defaults_and_flag_override(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"n": 1, "p": 5, "samples": 60, "seed": 5}))
        code, out, _ = run(
            capsys, "verify", "--config", str(conf), "--json",
            "--output", str(tmp_path / "r1.json"),
        )
        assert code == 0
        assert json.loads((tmp_path / "r1.json").read_text())["n_samples"] == 60
        code, _, _ = run(
            capsys, "verify", "--config", str(conf), "--samples", "30",
            "--output", str(tmp_path / "r2.json"),
        )
        assert code == 0
        assert json.loads((tmp_path / "r2.json").read_text())["n_samples"] == 30


@pytest.mark.parametrize(
    "argv,code",
    [
        (["check-separation", "--level-min", "2", "--level-max", "2"], 2),
        (["embed", "--point=inf,0"], 2),
        (["embed", "--point=0,inf"], 2),
        (["embed", "--point=nan,0"], 2),
        (["embed", "--point=1e300,0"], 3),
        (["embed", "--point=-1e300,0"], 3),
        (["distance", "--z", "0,1e300", "--w", "0,-1e300"], 3),
    ],
)
def test_out_of_domain_input_exits_promptly(argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "treebed", argv[0], "--n", "1", "--p", "5", *argv[1:]],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "treebed", "tree-dist", "--n", "1", "--p", "5",
         "--u", "0,1,0", "--v", "0,0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
