import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from treebed import (
    CubeId,
    SeparationKind,
    cli,
    separation_verdict,
    validate_params,
)
from treebed.cli import main

from test_cubes import _planted


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
        # No work bound: an axis of 2e10 cells, and 41 colors at n = 40.
        for n, p in [("1", "100000"), ("40", "83")]:
            code, out, _ = run(capsys, "check-covering", "--n", n, "--p", p)
            assert code == 0
            assert out.startswith("covered: True (0/")

    def test_check_covering_past_the_digit_limit(self, capsys):
        # The library answers; the CLI cannot print the 4,887-digit cell count.
        code, out, err = run(capsys, "check-covering", "--n", "800", "--p", "1603")
        assert code == 3 and not out
        assert err.startswith("limit:")
        assert f"({sys.get_int_max_str_digits()} digits)" in err

    def test_check_separation_reports_a_planted_violation(self, capsys, monkeypatch):
        # No accepted (n, p) has a violation: widen the slab by one unit of
        # 1/D, and the check fails with the first violating pair as witness.
        planted = _planted(validate_params(1, 5))
        monkeypatch.setattr(cli, "validate_params", lambda n, p: planted)
        code, out, _ = run(
            capsys, "check-separation", "--n", "1", "--p", "5", "--samples", "200",
            "--level-min", "0", "--level-max", "1", "--gamma-bound", "2", "--json",
        )
        doc = json.loads(out)
        assert code == 1 and doc["violations"] > 0
        w = doc["witness"]
        low = CubeId(w["low"][0], w["low"][1], tuple(w["low"][2]))
        high = CubeId(w["high"][0], w["high"][1], tuple(w["high"][2]))
        verdict = separation_verdict(planted, low, high)
        assert verdict.kind is SeparationKind.VIOLATION
        want = verdict.gap_sq if verdict.margin is None else verdict.margin
        assert w["witness"] == str(want)

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
        # The hop from (0,1,3) skips level 0; no scan limit stops it.
        assert run(
            capsys, "tree-dist", "--n", "1", "--p", "5", "--u", "0,1,3", "--v", "0,0,0"
        ) == (0, "2\n", "")

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

    def test_level_limit_names_a_huge_level_briefly(self, capsys):
        # round(1e308) has 309 digits; the message gives their count.
        code, out, err = run(capsys, "embed", "--n", "1", "--p", "5", "--point=1e308,0")
        assert (code, out) == (3, "")
        assert err.startswith("limit: level") and len(err.splitlines()[0]) < 120
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("given", [["--id", "0,1,3"], ["--id=0,1,3"]])
    def test_explicit_id_wins_over_config(self, capsys, tmp_path, given):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"id": "0,1,2"}))
        code, out, _ = run(
            capsys, "--config", str(conf), "export-subtree", "--n", "1",
            "--p", "5", "--format", "json", *given,
        )
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 1

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

    @pytest.mark.parametrize("v", ["0,0,1", "0,3,1"])
    def test_scan_cap_below_one(self, capsys, v):
        # There is no scan cap option: argparse refuses the flag at any value.
        code, out, err = run(
            capsys, "tree-dist", "--n", "1", "--p", "5", "--u", "0,0,1", "--v", v,
            "--scan-cap", "0",
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --scan-cap 0" in err

    def test_config_without_path(self, capsys):
        code, _, err = run(capsys, "check-covering", "--n", "1", "--p", "5", "--config")
        assert code == 2

    @pytest.mark.parametrize("top", ["[1, 2]", '"x"'])
    def test_config_must_be_an_object(self, tmp_path, top):
        conf = tmp_path / "conf.json"
        conf.write_text(top)
        proc = subprocess.run(
            [sys.executable, "-m", "treebed", "check-covering", "--n", "1",
             "--p", "5", "--config", str(conf)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

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

    def test_fit_finite_where_distances_exceed_1e154(self, capsys):
        # Pairs on a region 100..140 high with |x| up to 1000 have u*(u+2)
        # beyond the double range; their distances, and so l, stay finite.
        code, out, _ = run(
            capsys, "verify", "--n", "1", "--p", "5", "--samples", "200",
            "--region=100,140,1000",
        )
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        assert math.isfinite(doc["fit"]["l"]) and doc["fit"]["l"] >= 1.0

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
            capsys, "verify", "--config", str(conf),
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
        "argv,key,value",
        [
            (["verify", "--n", "1", "--p", "5", "--samples", "20"], "region", "-4,4,625"),
            (["embed", "--n", "1", "--p", "5"], "point", "-2.5,100"),
        ],
    )
    def test_config_value_starting_with_minus(self, capsys, tmp_path, argv, key, value):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({key: value}))
        code, out, _ = run(capsys, "--config", str(conf), *argv)
        assert code == 0
        assert run(capsys, *argv, f"--{key}={value}")[:2] == (0, out)

    def test_config_equals_form(self, capsys, tmp_path):
        conf = tmp_path / "run.json"
        conf.write_text(json.dumps({"samples": 7, "seed": 3}))
        code, _, _ = run(
            capsys, f"--config={conf}", "verify", "--n", "1", "--p", "5",
            "--output", str(tmp_path / "r.json"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert (doc["n_samples"], doc["plan"]["seed"]) == (7, 3)

    # SHA-256 of the per-pair CSV of `verify --samples 500 --seed 1`, d_hyp
    # column left out (it goes through libm): the sampled points, the tree
    # distances and the per-color distances are pinned exactly.
    @pytest.mark.parametrize(
        "n,p,digest",
        [
            (1, 5, "95bfe8f37492300d412de9c97c7ae37f4ebb46a4d59f79173e1cc6c00b0c48fc"),
            (2, 7, "bae614f23026da4c78bb3a308cdbd447aed386f61e158480959a1f0cec4cd2c7"),
            (3, 9, "42ad6c19fa87ba4215119195088001204ae9c5211f3461acdae95c866f649be8"),
        ],
    )
    def test_golden_csv(self, capsys, tmp_path, n, p, digest):
        csv_file = tmp_path / "pairs.csv"
        code, _, _ = run(
            capsys, "verify", "--n", str(n), "--p", str(p), "--samples", "500",
            "--seed", "1", "--output", str(tmp_path / "r.json"), "--csv", str(csv_file),
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(csv_file.read_text())))
        drop = rows[0].index("d_hyp")
        text = "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        (["tree-dist", "--u", "0,100000000,0", "--v", "0,0,0"], 3),
        (["export-subtree", "--id", "0,1000000000,0"], 3),
        (["check-separation", "--level-max", "1000000000"], 3),
        (["export-subtree", "--id=0,-440,1000000000000"], 3),
        (["tree-dist", "--u", "0,0,0", "--v=0,-1000000000,0"], 3),
        (["verify", "--samples", "10", "--threads", "0"], 2),
        (["check-separation", "--samples", "0"], 2),
        (["check-separation", "--samples", "-5"], 2),
        (["check-separation", "--gamma-bound", "-1"], 2),
        (["verify", "--samples", "10", "--strategy", "vertical", "--region", "0.2,0.7,5"], 2),
        # No subcommand has a scan cap option.
        (["tree-dist", "--u", "0,0,1", "--v", "0,3,1", "--scan-cap", "64"], 2),
        (["embed", "--point", "0,0.5", "--scan-cap", "64"], 2),
        (["check-covering", "--scan-cap", "64"], 2),
        (["verify", "--samples", "10", "--scan-cap", "64"], 2),
        (["export-subtree", "--id", "0,1,2", "--scan-cap", "64"], 2),
        # Each hop ends within gamma's base-p digit count plus 2 levels. This
        # 3,984-digit gamma has the remainder p-1 at each of its 5,700 levels,
        # so its first hop scans 5,701 levels, and the answer comes promptly.
        (["tree-dist", "--u", f"0,0,{3 * (5**5700 - 1) // 4}", "--v", "0,0,0"], 0),
        # u is finite though u*(u+2) overflows: the distance, about 240, is too.
        (["distance", "--z", "120,0", "--w", "120,0.5", "--json"], 0),
        # p^-t overflows in the near_pairs offsets, below the level bound.
        (["verify", "--samples", "5", "--strategy", "near_pairs", "--region=-445,-443,1"], 3),
        # No subcommand has a cell budget option; covering has no work bound.
        (["check-covering", "--cell-budget", "0"], 2),
        # The later --n and --p win: m^n is 9e6 cells, counted without a visit.
        (["check-covering", "--n", "4", "--p", "11"], 0),
        (["check-covering", "--n", "1", "--p", "100000"], 0),
        # verify always writes JSON and export-subtree takes --format: no --json.
        (["verify", "--samples", "10", "--json"], 2),
        (["export-subtree", "--id", "0,1,2", "--json"], 2),
        # 999,000 axis cells, read in runs.
        (["check-covering", "--n", "1", "--p", "1000"], 0),
        # A value that starts with "-" and holds a comma, joined or spaced.
        (["embed", "--point=-2.5,100"], 0),
        (["embed", "--point", "-2.5,100"], 0),
        # Answered, but its 4,887-digit cell count is past Python's print limit.
        (["check-covering", "--n", "800", "--p", "1603"], 3),
        # 12 million digits: refused from n log10 m, before m^n is computed.
        (["check-covering", "--n", "1000000", "--p", "2000003"], 3),
        # A region field that is not finite is a usage error naming the field.
        (["verify", "--samples", "5", "--region=-inf,0,1"], 2),
        (["verify", "--samples", "5", "--region=0,inf,1"], 2),
        (["verify", "--samples", "5", "--region=nan,0,1"], 2),
        # Three pairs at tree distance 0 and d_hyp 0.20-0.38: the fit's m
        # covers them, so the check finds no violation.
        (["verify", "--n", "2", "--p", "7", "--samples", "3", "--seed", "7",
          "--region=-23,-22,30"], 0),
        # Equal x: e^(sigma(t+t')) overflows, but it multiplies ||x-x'||^2 = 0.
        (["distance", "--z=220.5,0", "--w=220.5,0"], 0),
        (["verify", "--samples", "5", "--strategy", "vertical", "--region=400,440,1"], 0),
        # A region whose span overflows names the field, not a sampled point.
        (["verify", "--samples", "5", "--region=0,1,1e308"], 2),
        (["verify", "--samples", "5", "--region=-1e308,1e308,1"], 2),
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
    if code == 0 and "--json" in argv:
        json.loads(proc.stdout, parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv,code",
    [
        # --v takes -1,0,0 as its value, and -1 is no color.
        (["tree-dist", "--n", "1", "--p", "5", "--u", "0,0,0", "--v", "-1,0,0"], 2),
        (["tree-dist", "--n", "1"], 2),
        (["no-such-command"], 2),
        (["--help"], 0),
        (["tree-dist", "--help"], 0),
        # A prefix of --config would reach argparse as --config, which
        # _apply_config never sees, so the file would go unread.
        (["--conf", "run.json", "verify", "--n", "1", "--p", "5", "--samples", "5"], 2),
        (["--conf=run.json", "verify", "--n", "1", "--p", "5", "--samples", "5"], 2),
    ],
)
def test_argparse_exits_are_returned(capsys, argv, code):
    assert main(argv) == code
    capsys.readouterr()
    # The parser is reused, and a failed parse leaves it working.
    query = ["tree-dist", "--n", "1", "--p", "5", "--u", "0,1,0", "--v", "0,0,0"]
    assert run(capsys, *query) == (0, "1\n", "")


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "treebed", "tree-dist", "--n", "1", "--p", "5",
         "--u", "0,1,0", "--v", "0,0,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


# Levels near the origin, around the representable bound (441 at p=5) and far
# beyond it; lattice points small and large.
_levels = st.one_of(
    st.integers(-6, 12),
    st.integers(-450, 450),
    st.sampled_from([-10**9, -442, -441, -440, 440, 441, 442, 10**9]),
)
_gammas = st.one_of(st.integers(-60, 60), st.integers(-10**12, 10**12))
# Reals past the float range, at its edges and in it, as command-line text.
_reals = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "5e-324", str(10**400)]),
    st.floats(-30.0, 30.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
# Mostly regions that verify can sample: ordered ones of moderate size, and
# thin ones far down inside one level's rounding interval, where pairs share
# every cube (tree distance 0).
_regions = st.one_of(
    st.lists(_reals, min_size=3, max_size=3).map(",".join),
    st.builds(
        lambda a, b, r: f"{min(a, b)!r},{max(a, b)!r},{r!r}",
        st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
        st.floats(0.0, 1e4, exclude_min=True),
    ),
    st.builds(
        lambda k, w, r: f"{k - w!r},{k + w!r},{r!r}",
        st.integers(-40, 0), st.floats(0.05, 0.45), st.floats(0.0, 100.0, exclude_min=True),
    ),
)


def _cube(n, colors):
    return st.builds(
        lambda c, k, g: ",".join(map(str, [c, k, *g])),
        colors, _levels, st.lists(_gammas, min_size=n, max_size=n),
    )


def _point(n):
    return st.lists(_reals, min_size=n + 1, max_size=n + 1).map(",".join)


@st.composite
def _query_argv(draw):
    """A subcommand with its flags, and the flags moved to a --config file.

    Every flag but --id may move to the config, which passes it on as
    --flag=value; a config key may spell the flag with underscores.
    """
    command = draw(st.sampled_from([
        "tree-dist", "export-subtree", "check-separation", "embed", "distance",
        "verify", "check-covering",
    ]))
    n, p = draw(st.sampled_from([(1, 5), (1, 5), (1, 5), (2, 7), (2, 7), (1, 4)]))
    flags = {"n": n, "p": p}
    # Cubes share one color, or take any color, valid or not.
    colors = st.one_of(st.just(draw(st.integers(0, n))), st.integers(-1, n + 1))
    ids = []
    if command != "verify" and command != "export-subtree":
        flags["json"] = draw(st.booleans())
    if command == "tree-dist":
        flags |= {"u": draw(_cube(n, colors)), "v": draw(_cube(n, colors))}
    elif command == "export-subtree":
        ids = draw(st.lists(_cube(n, colors), min_size=1, max_size=3))
        flags["format"] = draw(st.sampled_from(["dot", "json"]))
    elif command == "check-separation":
        flags |= {
            "level-min": draw(_levels),
            "level-max": draw(_levels),
            "samples": draw(st.integers(-1, 20)),
            "gamma-bound": draw(st.integers(-1, 10**6)),
        }
    elif command == "embed":
        flags["point"] = draw(_point(n))
    elif command == "distance":
        flags |= {"z": draw(_point(n)), "w": draw(_point(n))}
    elif command == "verify":
        flags |= {
            "region": draw(_regions),
            "strategy": draw(st.sampled_from(
                ["uniform", "same_horosphere", "vertical", "near_pairs"]
            )),
            "norm": draw(st.sampled_from(["l1", "l2", "linf"])),
            "samples": draw(st.integers(1, 20)),
            "seed": draw(st.integers(0, 2**32)),
        }
    conf = {}
    argv = [command] + [f"--id={cube}" for cube in ids]
    for name, value in flags.items():
        if draw(st.booleans()):
            conf[name.replace("-", draw(st.sampled_from("-_")))] = value
        elif value is True:
            argv.append(f"--{name}")
        elif value is not False:
            argv.append(f"--{name}={value}")
    return argv, conf


@given(query=_query_argv())
@settings(max_examples=600, deadline=5000)
def test_fuzzed_queries_end_with_an_exit_code(query, tmp_path_factory):
    # In-process, so any exception escaping main fails the test; the
    # deadline bounds the time of every invocation.
    argv, conf = query
    command = argv[0]
    work = tmp_path_factory.getbasetemp()
    if command == "verify":
        argv = argv + ["--output", str(work / "fuzz-report.json")]
    if conf:
        config = work / "fuzz-config.json"
        config.write_text(json.dumps(conf))
        argv = ["--config", str(config)] + argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        # Exit 1 means a check ran and failed, so only the two checks give
        # it, and not with a passing verdict; verify's fit covers every pair
        # it fits.
        passed = ("covered: True", '"covered": true', "violations: 0/", '"violations": 0,')
        assert command.startswith("check-") and not any(v in out for v in passed)
    elif code == 2:
        assert "error: " in err
    elif code == 3:
        assert err.startswith("limit: ")
