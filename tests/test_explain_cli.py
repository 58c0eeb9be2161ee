"""Tests for the explain facility and the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.data.database import Database
from repro.data.generators import uniform_database, worst_case_cycle_database
from repro.data.io import save_database
from repro.data.relation import Relation
from repro.engine import Engine
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.parser import parse_query


def states_of(report: str, label: str) -> int:
    """The state count the report gives for the core labelled ``label``."""
    (count,) = re.findall(rf"^ +{re.escape(label)}: (\d+) states", report, re.M)
    return int(count)


class TestExplain:
    """``Engine.explain``: the logical plan and the bound plan's statistics."""

    def test_acyclic_plan(self):
        db = uniform_database(3, 20, domain_size=3, seed=1)
        report = Engine(db).explain(path_query(3))
        assert "strategy: acyclic-tdp" in report
        assert "join tree:" in report
        assert "- R2(x2, x3) [join on x2]" in report
        assert "- R3(x3, x4) [join on x3]" in report
        assert states_of(report, "t-dp") > 0
        assert "EMPTY" not in report

    def test_star_tree_shape(self):
        db = uniform_database(3, 20, domain_size=3, seed=2)
        report = Engine(db).explain(star_query(3))
        assert report.count("join on x1") == 2

    def test_cycle_plan(self):
        db = worst_case_cycle_database(4, 12, seed=3)
        report = Engine(db).explain(cycle_query(4))
        assert "strategy: simple-cycle-union" in report
        assert "cycle walk: x1 -> x2 -> x3 -> x4" in report
        members = re.findall(r"^  (\S+): \d+ states.*\n    decomposition: (.+)$",
                             report, re.M)
        assert f"union of {len(members)} member trees" in report
        assert members and {layout for _label, layout in members} == {"bag columns"}
        assert all(label.startswith(("heavy@", "light")) for label, _ in members)
        assert all(states_of(report, label) > 0 for label, _ in members)

    def test_generic_plan(self):
        rels = [
            Relation(f"R{i}", 2, [(1, 2), (2, 1)], [0.0, 0.0])
            for i in (1, 2, 3, 4, 5)
        ]
        db = Database(rels)
        q = parse_query("Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c)")
        report = Engine(db).explain(q)
        assert "strategy: generic-decomposition" in report
        assert "union of 1 member trees" in report
        assert "decomposition: bag rows (generic decomposition)" in report

    def test_projection_note(self):
        db = uniform_database(2, 10, domain_size=2, seed=4)
        q = parse_query("Q(x1) :- R1(x1, x2), R2(x2, x3)")
        report = Engine(db).explain(q)
        assert "strategy: all-weight-projection" in report
        assert "projection: all_weight" in report
        inner = report.split("inner full-query plan:\n", 1)[1]
        assert "logical plan: Q(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)" in inner
        assert "strategy: acyclic-tdp" in inner
        assert "- R2(x2, x3) [join on x2]" in inner
        assert states_of(report, "t-dp") > 0

    def test_empty_output_flagged(self):
        db = Database(
            [Relation("R1", 2, [(1, 1)], [0]), Relation("R2", 2, [(2, 2)], [0])]
        )
        report = Engine(db).explain(path_query(2))
        assert "EMPTY" in report


@pytest.fixture
def csv_dir(tmp_path):
    db = uniform_database(2, 30, domain_size=4, seed=5)
    directory = tmp_path / "data"
    save_database(db, str(directory))
    return str(directory)


class TestCLI:
    def test_query_command(self, csv_dir, capsys):
        code = main(
            ["query", csv_dir, "Q(x1,x2,x3) :- R1(x1,x2), R2(x2,x3)", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("weight=") == 3
        assert "#1" in out

    def test_query_all_results(self, csv_dir, capsys):
        code = main(
            ["query", csv_dir, "Q(x1) :- R1(x1, x2)", "--top", "0",
             "--projection", "all_weight"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("weight=") == 30

    def test_query_with_constant(self, csv_dir, capsys):
        code = main(["query", csv_dir, "Q(x1) :- R1(x1, 2)", "--top", "5"])
        assert code == 0

    def test_query_max_plus(self, csv_dir, capsys):
        main(
            ["query", csv_dir, "R1(x1,x2), R2(x2,x3)", "--dioid", "max-plus",
             "--top", "2"]
        )
        out = capsys.readouterr().out
        weights = [
            float(line.split("weight=")[1].split()[0])
            for line in out.strip().splitlines()
        ]
        assert weights == sorted(weights, reverse=True)

    def test_query_witness_flag(self, csv_dir, capsys):
        main(
            ["query", csv_dir, "R1(x1,x2), R2(x2,x3)", "--top", "1",
             "--witness"]
        )
        assert "witness=" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["query", "explain", "trace"])
    def test_the_removed_shards_flag_is_a_usage_error(
        self, csv_dir, capsys, tmp_path, command
    ):
        """Every bind lowers one core, so no flag asks for shards."""
        argv = [command, csv_dir, "R1(x1,x2), R2(x2,x3)", "--shards", "2"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "trace.json")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --shards 2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("top", ["-1", "-10", "ten"])
    @pytest.mark.parametrize("command", ["query", "trace", "profile"])
    def test_negative_top_is_a_usage_error(
        self, csv_dir, capsys, tmp_path, command, top
    ):
        argv = [command, csv_dir, "R1(x1,x2), R2(x2,x3)", "--top", top]
        if command != "query":
            argv += ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert (
            f"argument --top: must be a non-negative int (0 = all), got '{top}'" in err
        )
        assert "Traceback" not in err

    def test_negative_analyze_is_a_usage_error(self, csv_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", csv_dir, "R1(x1,x2), R2(x2,x3)", "--analyze", "-1"])
        assert exit_info.value.code == 2
        assert "argument --analyze: must be a non-negative int" in (
            capsys.readouterr().err
        )

    def test_top_zero_still_means_all(self, csv_dir, capsys):
        assert main(["query", csv_dir, "R1(x1,x2), R2(x2,x3)", "--top", "0"]) == 0
        everything = capsys.readouterr().out.strip().splitlines()
        assert main(["query", csv_dir, "R1(x1,x2), R2(x2,x3)", "--top", "1"]) == 0
        assert len(everything) > len(capsys.readouterr().out.strip().splitlines())

    @pytest.mark.parametrize("hz", ["0", "-97", "nan", "inf", "fast"])
    def test_profile_rate_must_be_positive(self, csv_dir, capsys, tmp_path, hz):
        argv = ["profile", csv_dir, "R1(x1,x2), R2(x2,x3)", "--hz", hz,
                "--out", str(tmp_path / "profile.txt")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --hz: must be a positive number, got '{hz}'" in err
        assert "Traceback" not in err

    def test_explain_command(self, csv_dir, capsys):
        code = main(["explain", csv_dir, "R1(x1,x2), R2(x2,x3)"])
        assert code == 0
        assert "plan:" in capsys.readouterr().out

    def test_generate_and_query_round_trip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "gen")
        code = main(
            ["generate", "uniform", out_dir, "--relations", "2",
             "--tuples", "50", "--seed", "9"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["query", out_dir, "R1(a,b), R2(b,c)", "--top", "2"])
        assert code == 0
        assert "weight=" in capsys.readouterr().out

    def test_generate_graph_kinds(self, tmp_path, capsys):
        for kind in ("bitcoin-like", "twitter-like", "cycle-worst-case"):
            out_dir = str(tmp_path / kind)
            code = main(
                ["generate", kind, out_dir, "--tuples", "120", "--seed", "1"]
            )
            assert code == 0

    def test_empty_result_message(self, tmp_path, capsys):
        db = Database(
            [Relation("R", 2, [(1, 1)], [0]), Relation("S", 2, [(2, 2)], [0])]
        )
        directory = str(tmp_path / "e")
        save_database(db, directory)
        main(["query", directory, "R(a,b), S(b,c)"])
        assert "(no results)" in capsys.readouterr().out
