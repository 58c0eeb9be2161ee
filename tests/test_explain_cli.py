"""Tests for the explain facility and the command-line interface."""

import pytest

from repro.cli import main
from repro.data.database import Database
from repro.data.generators import uniform_database, worst_case_cycle_database
from repro.data.io import save_database
from repro.data.relation import Relation
from repro.enumeration.explain import explain
from repro.query.builders import cycle_query, path_query, star_query
from repro.query.parser import parse_query


class TestExplain:
    def test_acyclic_plan(self):
        db = uniform_database(3, 20, domain_size=3, seed=1)
        report = explain(db, path_query(3))
        assert "acyclic -> join tree -> T-DP" in report
        assert "alive states" in report
        assert "best weight" in report
        assert "n = 20" in report

    def test_star_tree_shape(self):
        db = uniform_database(3, 20, domain_size=3, seed=2)
        report = explain(db, star_query(3))
        assert report.count("join on x1") == 2

    def test_cycle_plan(self):
        db = worst_case_cycle_database(4, 12, seed=3)
        report = explain(db, cycle_query(4))
        assert "heavy/light decomposition" in report
        assert "UT-DP union" in report
        assert "member" in report

    def test_generic_plan(self):
        rels = [
            Relation(f"R{i}", 2, [(1, 2), (2, 1)], [0.0, 0.0])
            for i in (1, 2, 3, 4, 5)
        ]
        db = Database(rels)
        q = parse_query("Q(a,b,c,d) :- R1(a,b), R2(b,c), R3(c,d), R4(d,a), R5(a,c)")
        report = explain(db, q)
        assert "generic hypertree decomposition" in report

    def test_projection_note(self):
        db = uniform_database(2, 10, domain_size=2, seed=4)
        q = parse_query("Q(x1) :- R1(x1, x2), R2(x2, x3)")
        report = explain(db, q)
        assert "projection query" in report

    def test_empty_output_flagged(self):
        db = Database(
            [Relation("R1", 2, [(1, 1)], [0]), Relation("R2", 2, [(2, 2)], [0])]
        )
        report = explain(db, path_query(2))
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

    @pytest.mark.parametrize("mode", ["auto", "fused", "thread"])
    def test_query_shard_parallel_modes(self, csv_dir, capsys, mode):
        text = "Q(x1,x2,x3) :- R1(x1,x2), R2(x2,x3)"
        assert main(["query", csv_dir, text, "--top", "0"]) == 0
        unsharded = capsys.readouterr().out
        code = main(
            ["query", csv_dir, text, "--top", "0", "--shards", "2",
             "--shard-parallel", mode]
        )
        assert code == 0
        sharded = capsys.readouterr().out
        weights = [line.split("weight=")[1].split()[0]
                   for line in unsharded.strip().splitlines()]
        assert weights
        assert [line.split("weight=")[1].split()[0]
                for line in sharded.strip().splitlines()] == weights

    def test_query_refuses_removed_shard_mode(self, csv_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["query", csv_dir, "R1(x1,x2), R2(x2,x3)", "--shards", "2",
                 "--shard-parallel", "process"]
            )
        assert exit_info.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err

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
