import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import minconn.families as families
import minconn.minimality as minimality
import minconn.witnesses as witnesses
from minconn.cli import main
from minconn.connectivity import Connectivity
from minconn.constructions import band_graph, cycle_clique_strong, multipath
from minconn.families import FAMILY_KINDS
from minconn.graphs import Graph, MultiGraph
from minconn.io import from_edge_list, from_graph6, graph_id, to_edge_list, to_graph6, to_json_obj
from minconn.minimality import MinimalityClass, check_class, classify
from minconn.witnesses import (
    crossing_separators_witness,
    default_profound_region,
    edge_min_witness_pair,
    vertex_min_edge_witness_pair,
    witness_report,
)
from oracles import small_multigraphs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

C6 = "EhEG"  # the 6-cycle
P4 = "Ch"  # the 4-path

MULTIPATH_3_5 = "5 4\n0 1 3\n1 2 3\n2 3 3\n3 4 3\n"


def invoke(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse paths (usage errors, --version)
        code = exc.code if isinstance(exc.code, int) else 0
    out, err = capsys.readouterr()
    return code, out, err


class TestCheck:
    def test_text_all_classes(self, capsys):
        code, out, _ = invoke(["check", C6, "--k", "2"], capsys)
        assert code == 0
        for flag in (
            "edge-min-2-conn",
            "vertex-min-2-conn",
            "edge-min-2-edge-conn",
            "vertex-min-2-edge-conn",
        ):
            assert f"{flag}=yes" in out

    def test_csv(self, capsys):
        code, out, _ = invoke(["check", C6, "--k", "2", "--format", "csv"], capsys)
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "graph,n,k,a,b,c,d"
        assert lines[1] == f"{C6},6,2,yes,yes,yes,yes"

    def test_json(self, capsys):
        code, out, _ = invoke(["check", P4, "--k", "1", "--format", "json"], capsys)
        assert code == 0
        (entry,) = json.loads(out)
        assert entry["graph"] == P4
        assert entry["classes"]["edge-min-1-conn"]["holds"] is True
        assert entry["classes"]["vertex-min-1-conn"]["holds"] is False

    def test_single_class(self, capsys):
        code, out, _ = invoke(["check", C6, "--k", "2", "--class", "b"], capsys)
        assert code == 0
        assert out.count("=") == 1 and "vertex-min-2-conn=yes" in out

    def test_stdin_many(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["check", "--k", "2"], capsys, monkeypatch, stdin_text=f"{C6}\n{P4}\n"
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_parse_error(self, capsys):
        code, _, err = invoke(["check", "not graph6", "--k", "2"], capsys)
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("graph6", ["EhEGGGGG", "D\u00e9", "Bx", "C\udcff"])
    def test_malformed_graph6_is_parse_error(self, capsys, graph6):
        # trailing bytes, a non-ASCII byte, nonzero padding bits, and the
        # lone surrogate an undecodable argv byte becomes
        code, out, err = invoke(["check", "--k", "2", graph6], capsys)
        assert code == 2 and out == ""
        assert err.startswith("parse error") and len(err.splitlines()) == 1

    def test_malformed_edge_list_is_parse_error(self, capsys, monkeypatch):
        code, out, err = invoke(
            ["check", "--k", "1", "--input", "edge-list"],
            capsys,
            monkeypatch,
            stdin_text="3 2\n0 x\n1 2\n",
        )
        assert code == 2 and out == ""
        assert err.startswith("parse error") and len(err.splitlines()) == 1

    def test_edge_list_multigraph(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["check", "--k", "3", "--input", "edge-list", "--multi"],
            capsys,
            monkeypatch,
            stdin_text=MULTIPATH_3_5,
        )
        assert code == 0
        # vertex classes are undefined on multigraphs: only c and d appear
        assert "edge-min-3-edge-conn=yes" in out
        assert "vertex-min-3-edge-conn=no" in out
        assert "edge-min-3-conn" not in out

    def test_usage_error_missing_k(self, capsys):
        code, _, err = invoke(["check", C6], capsys)
        assert code == 1


class TestWitness:
    def test_text_satisfied(self, capsys):
        code, out, _ = invoke(
            ["witness", C6, "--k", "2", "--class", "b", "--format", "text"], capsys
        )
        assert code == 0
        assert "satisfied" in out and "bound 2" in out

    def test_json_with_trace(self, capsys):
        code, out, _ = invoke(
            ["witness", C6, "--k", "2", "--class", "b", "--explain"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["satisfied"] is True
        assert obj["trace"]["procedure"] == "crossing-separators"
        assert obj["trace"]["witness"] == 1

    def test_complete_graph_note(self, capsys):
        code, out, _ = invoke(
            ["witness", "C~", "--k", "3", "--class", "b", "--explain"], capsys
        )
        assert code == 0
        assert "counting bound" in json.loads(out)["trace"]["note"]

    def test_cut_splitting_trace(self, capsys):
        code, out, _ = invoke(
            ["witness", C6, "--k", "2", "--class", "c", "--explain"], capsys
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["trace"]["procedure"] == "cut-splitting"
        assert len(obj["trace"]["witnesses"]) == 2

    def test_region_descent_trace(self, capsys):
        code, out, _ = invoke(
            ["witness", C6, "--k", "2", "--class", "d", "--explain"], capsys
        )
        assert json.loads(out)["trace"]["procedure"] == "region-descent"
        assert code == 0

    def test_multigraph_witnesses(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["witness", "--k", "3", "--class", "c", "--input", "edge-list", "--multi"],
            capsys,
            monkeypatch,
            stdin_text=MULTIPATH_3_5,
        )
        assert code == 0
        obj = json.loads(out)
        assert [v for v, _ in obj["witnesses"]] == [0, 4]

    def test_class_mismatch_is_violation(self, capsys):
        code, _, err = invoke(["witness", P4, "--k", "2", "--class", "b"], capsys)
        assert code == 3
        assert "violation" in err

    def test_exactly_one_graph(self, capsys):
        code, _, err = invoke(
            ["witness", C6, C6, "--k", "2", "--class", "b"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("g6", [C6, "not-graph6"])
    def test_explain_needs_json_before_reading_input(self, capsys, g6):
        argv = ["witness", g6, "--k", "2", "--class", "b", "--explain", "--format", "text"]
        assert invoke(argv, capsys) == (1, "", "--explain needs --format json\n")

    @pytest.mark.parametrize("cls", ["b", "c", "d"])
    @pytest.mark.parametrize("g6", [P4, "C~"])  # not 2-connected; 3-connected K4
    def test_explain_fails_on_membership_alone(self, capsys, cls, g6):
        argv = ["witness", g6, "--k", "2", "--class", cls]
        plain = invoke(argv, capsys)
        explained = invoke(argv + ["--explain"], capsys)
        assert explained == plain
        code, out, err = explained
        assert code == 3 and out == ""
        assert err.startswith(f"violation: graph is not in class {cls} for k=2: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cls", ["b", "c", "d"])
    def test_explain_checks_membership_once(self, capsys, monkeypatch, cls):
        # The report and the procedure both check membership, but the
        # procedure reads the verdict the report left on the shared record.
        calls = []
        predicate = minimality._PREDICATES[MinimalityClass(cls)]
        monkeypatch.setitem(minimality._PREDICATES, MinimalityClass(cls),
                            lambda *a: calls.append(a) or predicate(*a))
        code, _, _ = invoke(["witness", C6, "--k", "2", "--class", cls, "--explain"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_trace_same_on_fresh_and_shared_records(self):
        procedures = {
            "b": lambda g, k, conn: crossing_separators_witness(
                g, default_profound_region(g, k, conn), k, conn=conn
            ),
            "c": lambda g, k, conn: edge_min_witness_pair(g, k, conn=conn),
            "d": lambda g, k, conn: vertex_min_edge_witness_pair(g, k, conn=conn),
        }
        members = [
            (from_graph6(C6), "bcd", 2),
            (band_graph(3, 2).graph, "bd", 3),
            (cycle_clique_strong(4, 5), "b", 4),
            (multipath(3, 5), "c", 3),
        ]
        for g, classes, k in members:
            shared = Connectivity(g)
            for cls in classes:
                assert check_class(g, MinimalityClass(cls), k, shared).holds, (cls, k)
            for cls in classes:
                run = procedures[cls]
                assert run(g, k, None).to_json_obj() == run(g, k, shared).to_json_obj(), cls


def _fresh_trace(g, cls: str, k: int):
    """The traced procedure's JSON object, every record of g built fresh."""
    if cls == "b":
        region = default_profound_region(g, k)
        if region is None:
            return {"note": "complete graph: no separator, counting bound only"}
        return crossing_separators_witness(g, region, k).to_json_obj()
    if cls == "c":
        return edge_min_witness_pair(g, k).to_json_obj()
    return vertex_min_edge_witness_pair(g, k).to_json_obj()


def test_shared_record_traces_equal_fresh_records(corpus7, capsys, monkeypatch):
    # `witness --explain` asks one record for the membership check, the
    # default region and the trace; its stdout must be what fresh records
    # give, on every corpus member and on the member-traces relabellings.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    runs = [(g, cls, k, ["witness", "--k", str(k), "--class", cls, "--explain", to_graph6(g)])
            for g in corpus7 for k in (2, 3, 4) for cls in "bcd"
            if check_class(g, MinimalityClass(cls), k).holds]
    for seed in range(3):
        for op in workloads.build("member-traces", seed):
            argv, text = op["argv"], op["argv"][-1]
            g = from_edge_list(text, multigraph=True) if "--multi" in argv else from_graph6(text)
            runs.append((g, op["expect"]["class"], op["expect"]["k"], argv))
    assert len(runs) > 3 * 103
    for g, cls, k, argv in runs:
        code, out, err = invoke(argv, capsys)
        assert (code, err) == (0, ""), argv
        expected = witness_report(g, MinimalityClass(cls), k).to_json_obj()
        expected["graph"] = graph_id(g)
        expected["trace"] = _fresh_trace(g, cls, k)
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n", argv


class TestMultigraphExplain:
    def test_every_small_multigraph_member(self, capsys):
        # Class c traces every member; class d refuses multigraphs with
        # one error line, since parallel edges void its counting step.
        runs = Counter()
        for g in small_multigraphs():
            text = to_edge_list(g)
            for k in (2, 3, 4):
                for cls in classify(g, k).member_classes():
                    argv = ["witness", "--input", "edge-list", "--multi", "--k", str(k),
                            "--class", cls.value, "--explain", text]
                    code, out, err = invoke(argv, capsys)
                    if cls is MinimalityClass.EDGE_MIN_EDGE_CONN:
                        assert code == 0 and err == "", (text, k)
                        assert json.loads(out)["trace"]["procedure"] == "cut-splitting"
                    else:
                        assert (code, out) == (1, ""), (text, k)
                        assert err.count("\n") == 1 and "simple graphs" in err
                    runs[cls.value] += 1
        assert runs["d"] == 579 and runs["c"] > 0

    def test_doubled_triangle(self, capsys):
        argv = ["witness", "--input", "edge-list", "--multi", "--class", "d",
                "3 3\n0 1 2\n1 2 2\n0 2 2\n"]
        # a class-d member at k = 3 with every degree 4
        code, out, _ = invoke(argv + ["--k", "3"], capsys)
        assert code == 3 and json.loads(out)["min_degree"] == 4
        assert invoke(argv + ["--k", "4", "--explain"], capsys)[:2] == (1, "")


@pytest.mark.parametrize("cls, count", [("b", 18), ("c", 74), ("d", 11)])
def test_member_traces_build_one_network_per_op(cls, count, capsys, monkeypatch, network_sizes):
    # Each member-traces op of the class at seed 0 builds one connectivity
    # record and one flow network, shared by the membership check, the
    # default region and the traced procedure, whatever its steps.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    records = []
    init = Connectivity.__init__

    def counting_init(self, g):
        records.append(g.n)
        init(self, g)

    monkeypatch.setattr(Connectivity, "__init__", counting_init)
    ops = [op for op in workloads.build("member-traces", 0) if op["expect"]["class"] == cls]
    assert len(ops) == count
    for op in ops:
        assert invoke(op["argv"], capsys)[0] == 0
    assert len(records) == len(network_sizes) == count


class TestVerify:
    def test_small_sweep(self, capsys):
        code, out, _ = invoke(["verify", "--k", "2", "--nmax", "5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema: minconn-verify-1"
        assert lines[1] == (
            "graph6,n,k,classes,deg_k,deg_small,min_degree,satisfied,witnesses"
        )
        rows = lines[2:]
        assert len(rows) == 5
        assert all(",yes," in row for row in rows)

    def test_deterministic(self, capsys):
        argv = ["verify", "--k", "2", "--nmax", "5", "--count", "20", "--seed", "9"]
        first = invoke(argv, capsys)
        second = invoke(argv, capsys)
        assert first == second

    def test_json(self, capsys):
        code, out, _ = invoke(
            ["verify", "--k", "2", "--nmax", "5", "--format", "json"], capsys
        )
        rows = json.loads(out)
        assert code == 0
        assert len(rows) == 5
        assert all(r["satisfied"] for r in rows)

    def test_class_filter(self, capsys):
        code, out, _ = invoke(
            ["verify", "--k", "2", "--nmax", "5", "--class", "d", "--format", "json"],
            capsys,
        )
        rows = json.loads(out)
        assert code == 0
        assert len(rows) == 4
        assert all(r["classes"] == "d" for r in rows)

    def test_violation_dump(self, capsys, monkeypatch):
        # Every class asks for one more small-degree vertex than it
        # guarantees, so K4 fails classes a and c at k=3 (b and d need 2).
        required = witnesses.required_count
        monkeypatch.setattr(
            witnesses, "required_count", lambda cls, k, g: required(cls, k, g) + 1
        )
        code, out, err = invoke(["verify", "--k", "3", "--nmax", "6"], capsys)
        assert code == 3
        assert err.splitlines() == [
            "degree-theorem violation:",
            "  graph6: C~",
            "  edges: [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]",
            "  degrees: (3, 3, 3, 3)",
            "  class a (edge-min-3-conn): required 5 vertices of degree <= 3, found 4",
            "  class c (edge-min-3-edge-conn): required 5 vertices of degree <= 3, found 4",
        ]
        assert out.splitlines()[2:] == ["C~,4,3,abcd,4,4,3,no,0 1 2 3"]


class TestConstruct:
    def test_band_round_trip(self, capsys):
        code, out, _ = invoke(["construct", "band:k=3,l=2"], capsys)
        assert code == 0
        g = from_graph6(out.strip())
        assert g.n == 10
        assert check_class(g, MinimalityClass.VERTEX_MIN_CONN, 3).holds

    def test_multipath_defaults_to_edge_list(self, capsys):
        code, out, _ = invoke(["construct", "multipath:k=3,m=5"], capsys)
        assert code == 0
        g = from_edge_list(out, multigraph=True)
        assert isinstance(g, MultiGraph)
        assert g.multiplicity(0, 1) == 3

    def test_multigraph_rejects_graph6(self, capsys):
        code, _, err = invoke(
            ["construct", "multipath:k=3,m=5", "--format", "graph6"], capsys
        )
        assert code == 1
        assert "edge-list" in err

    def test_cycle_clique(self, capsys):
        code, out, _ = invoke(["construct", "cycle-clique:k=4,l=5"], capsys)
        g = from_graph6(out.strip())
        assert code == 0
        assert set(g.degrees()) == {5}
        assert check_class(g, MinimalityClass.VERTEX_MIN_CONN, 4).holds

    def test_path_square(self, capsys):
        code, out, _ = invoke(["construct", "path-square:l=12"], capsys)
        g = from_graph6(out.strip())
        assert sum(1 for d in g.degrees() if d == 3) == 6

    def test_family_truncation(self, capsys):
        code, out, _ = invoke(
            ["construct", "clique-tree:r=2,k=4", "--radius", "1"], capsys
        )
        g = from_graph6(out.strip())
        assert code == 0 and g.n == 9

    def test_family_truncation_beyond_one_byte_of_radius(self, capsys):
        code, out, _ = invoke(["construct", "double-ray", "--radius", "300"], capsys)
        g = from_graph6(out.strip())
        assert code == 0 and (g.n, g.m, max(g.degrees())) == (601, 600, 2)
        assert g.is_connected()

    def test_ball_over_budget_is_one_error_line(self, capsys, monkeypatch):
        # ball(9) of this tree has about 1.5e8 vertices; the pass stops at
        # the first vertex over the budget, lowered here to keep it quick.
        monkeypatch.setattr(families, "BALL_BUDGET", 1000)
        code, out, err = invoke(["construct", "clique-tree:r=2,k=4", "--radius", "9"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: ball(9) of clique-tree:r=2,k=4 has more than 1000 vertices\n"

    def test_graph6_order_is_refused_before_the_graph(self, capsys, monkeypatch):
        # ball(3) of this tree has 585 vertices, over a graph6 limit lowered
        # to 100: refused from the ball's size, before its Graph is built
        # or any of its rows is read
        monkeypatch.setattr("minconn.io.MAX_ORDER", 100)
        monkeypatch.setattr(Graph, "from_adjacency",
                            classmethod(lambda cls, rows: pytest.fail("built the ball's Graph")))
        monkeypatch.setattr(families.Ball, "neighbors", lambda *a: pytest.fail("read a row"))
        code, out, err = invoke(["construct", "clique-tree:r=2,k=4", "--radius", "3"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: graph6 supported up to n = 100 here\n"

    def test_graph6_reads_the_rows(self, capsys, monkeypatch):
        # the graph6 writer reads n and the ball's rows: the bytes of the
        # ball's Graph, with no Graph built
        families.ball.cache_clear()  # so no cached ball already holds its Graph
        b = families.ball(families.make_family("clique-tree:r=2,k=4"), 3)
        expected = to_graph6(Graph.from_adjacency(b.rows)) + "\n"
        monkeypatch.setattr(Graph, "from_adjacency",
                            classmethod(lambda cls, rows: pytest.fail("built the ball's Graph")))
        argv = ["construct", "clique-tree:r=2,k=4", "--radius", "3", "--format", "graph6"]
        assert invoke(argv, capsys)[:2] == (0, expected)

    @pytest.mark.parametrize("fmt", ["edge-list", "json"])
    def test_edge_list_and_json_read_the_rows(self, fmt, capsys, monkeypatch):
        # the writers read n and edges() off the ball's sorted rows: the
        # bytes of the ball's Graph, with no Graph built
        families.ball.cache_clear()  # so no cached ball already holds its Graph
        b = families.ball(families.make_family("clique-tree:r=2,k=4"), 3)
        g, labels = Graph.from_adjacency(b.rows), {repr(t): i for i, t in enumerate(b.tags)}
        obj = to_json_obj(g, labels=labels)
        expected = to_edge_list(g) if fmt == "edge-list" else json.dumps(obj, indent=2, sort_keys=True) + "\n"
        monkeypatch.setattr(Graph, "from_adjacency",
                            classmethod(lambda cls, rows: pytest.fail("built the ball's Graph")))
        argv = ["construct", "clique-tree:r=2,k=4", "--radius", "3", "--format", fmt]
        assert invoke(argv, capsys)[:2] == (0, expected)

    def test_family_needs_radius(self, capsys):
        code, _, err = invoke(["construct", "clique-tree:r=2,k=4"], capsys)
        assert code == 1
        assert "--radius" in err

    def test_finite_construction_refuses_radius(self, capsys):
        code, out, err = invoke(["construct", "band:k=3,l=2", "--radius", "3"], capsys)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "--radius" in err

    def test_json_labels(self, capsys):
        code, out, _ = invoke(
            ["construct", "band:k=3,l=2", "--format", "json"], capsys
        )
        obj = json.loads(out)
        assert obj["n"] == 10
        assert obj["labels"]["a"] != obj["labels"]["b"]

    def test_unknown_spec(self, capsys):
        # the finite constructions in table order, then the families sorted
        assert invoke(["construct", "nope:k=1"], capsys) == (1, "", (
            "error: unknown construction 'nope'; known: band, multipath, path-square, "
            "cycle-clique, cartesian-dr, cartesian-tree, clique-tree, double-ray, dr-square, "
            "multipath-inf, ray-bundle, strong-dr, strong-tree\n"))

    @pytest.mark.parametrize("argv", [
        ["band:k=3,l=2,l=3"],
        ["clique-tree:r=1,k=2,r=2", "--radius", "2"],
    ])
    def test_repeated_param(self, capsys, argv):
        code, out, err = invoke(["construct", *argv], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "twice" in err


class TestEndDegree:
    @pytest.mark.parametrize(
        "family,end,mode,expected",
        [
            ("double-ray", "left", "vertex", "1"),
            ("dr-square", "left", "edge", "3"),
            ("cartesian-dr:k=2", "right", "vertex", "2"),
            ("clique-tree:r=2,k=4", "branch-0-0", "edge", "4"),
            ("cartesian-tree:r=3,k=2", "branch-0-0-0", "vertex", "2"),
        ],
    )
    def test_converged_values(self, capsys, family, end, mode, expected):
        code, out, _ = invoke(["end-degree", family, end, mode], capsys)
        assert code == 0
        assert out.strip() == expected

    def test_json(self, capsys):
        code, out, _ = invoke(
            ["end-degree", "double-ray", "left", "vertex", "--format", "json"], capsys
        )
        obj = json.loads(out)
        assert obj["value"] == 1 and obj["converged"] is True
        assert obj["history"][-1][1] == 1

    def test_unconverged(self, capsys):
        code, out, _ = invoke(
            ["end-degree", "double-ray", "left", "vertex", "--rmax", "4"], capsys
        )
        assert code == 0
        assert out.startswith("unconverged upper=1")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dr-square", "left", "vertex", "--rmax", "2"],  # start radius 3
            ["ray-bundle:k=2,l=20", "left", "vertex", "--rmax", "20"],  # start 23
        ],
    )
    def test_no_radius_measured_is_an_error(self, capsys, argv):
        code, out, err = invoke(["end-degree", *argv], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "start radius" in err

    @pytest.mark.parametrize("window", ["1", "0"])
    def test_window_below_two_is_refused(self, capsys, window):
        # a window of one radius once reported the first cut, 9, as converged
        argv = ["end-degree", "ray-bundle:k=4,l=4", "left", "edge", "--window", window]
        assert invoke(argv, capsys) == (1, "", "error: window must be at least 2\n")
        assert invoke(argv[:-1] + ["2"], capsys) == (0, "4\n", "")

    def test_default_rmax_is_the_family_bound(self, capsys):
        # start radius 23; the family's own bound leaves room to converge
        code, out, _ = invoke(["end-degree", "ray-bundle:k=2,l=20", "left", "vertex"], capsys)
        assert (code, out) == (0, "20\n")

    def test_strict_unconverged(self, capsys):
        code, _, err = invoke(
            ["end-degree", "double-ray", "left", "vertex", "--rmax", "4", "--strict"],
            capsys,
        )
        assert code == 3

    def test_unknown_end(self, capsys):
        code, _, err = invoke(["end-degree", "double-ray", "up", "vertex"], capsys)
        assert code == 1

    def test_branch_out_of_range(self, capsys):
        code, _, err = invoke(
            ["end-degree", "strong-tree:r=3,k=2", "branch-9", "vertex"], capsys
        )
        assert code == 1

    def test_repeated_param(self, capsys):
        code, out, err = invoke(
            ["end-degree", "clique-tree:r=1,k=2,k=3", "branch-0-0", "edge"], capsys
        )
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "twice" in err


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = invoke(["enumerate", "--nmax", "4"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 18  # 1 + 2 + 4 + 11

    def test_class_filter(self, capsys):
        code, out, _ = invoke(
            ["enumerate", "--nmax", "5", "--k", "2", "--class", "d"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        for line in lines:
            g = from_graph6(line)
            assert check_class(g, MinimalityClass.VERTEX_MIN_EDGE_CONN, 2).holds

    def test_class_needs_k(self, capsys):
        code, _, err = invoke(["enumerate", "--class", "d"], capsys)
        assert code == 1

    def test_random_suffix_deterministic(self, capsys):
        argv = ["enumerate", "--nmax", "3", "--count", "5", "--seed", "3"]
        first = invoke(argv, capsys)
        second = invoke(argv, capsys)
        assert first == second
        assert len(first[1].splitlines()) == 7 + 5

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--nmax", "2", "--count", "2", "--rand-nmax", "-1"],
            ["enumerate", "--nmax", "2", "--count", "-1"],
            ["enumerate", "--nmax", "8"],
            ["enumerate", "--nmax", "-2"],
            ["verify", "--k", "2", "--nmax", "0"],
        ],
    )
    def test_bad_random_arguments_fail_before_any_output(self, argv, capsys):
        code, out, err = invoke(argv, capsys)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1


# sha256 of the stdout of full n <= 7 sweeps, recorded before the degree
# floor moved into the candidate recursion; any change to the stream, its
# order or a row's fields shows here.
SWEEP_DIGESTS = {
    ("verify", "1", "csv"): "ccf44a904a36fb0a922649bacdc58be663604538b6e8a59d9fd8564b72fc106e",
    ("verify", "2", "csv"): "77e7c2300e276f85fb4613ec409a90ce010a0fd4971284472b048289fb481e44",
    ("verify", "3", "csv"): "259a223ae647cc18eabaf26db0c4a9b245f5156b946adc2b81d3b3ff19971246",
    ("verify", "4", "csv"): "04208047b28fc018af64ffc0040fc28d2ece8d9326c0d40475fd3ace968f6616",
    ("verify", "3", "json"): "bcd4aa814a154992e3fa13a073ca55dc051468ead802eec72abde214f013d623",
    ("enumerate", "2", None): "25aad3d6ab5809ab3ead39724c3631ec70bc4e9e46beb7011d864d196d59c035",
    ("enumerate", "3", None): "170428a368f36ddb76cbaac75dd8d7a147588be5c5633e4675ff752accf1e693",
}


@pytest.mark.parametrize("command, k, fmt", sorted(SWEEP_DIGESTS, key=str))
def test_sweep_stdout_is_byte_identical(command, k, fmt, capsys):
    argv = [command, "--k", k, "--nmax", "7"] + (["--format", fmt] if fmt else [])
    code, out, _ = invoke(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[command, k, fmt]


# sha256 of `construct SPEC | witness --k K --class C --explain` stdout,
# recorded before the witness procedures asked G - x on G's networks
# instead of on a copy; any change to a trace's bytes shows here.
TRACE_DIGESTS = {
    ("band:k=4,l=3", "4", "b"): "16f53edd80bb95754d263a887d11b924a271cd2b587fcf737dbf2b6bd2126e68",
    ("cycle-clique:k=4,l=6", "4", "b"): "ae66f96c81bcc3899906db133f8c8c5020855c403a53d28d8acf5f7a0edadf69",
    ("path-square:l=20", "3", "c"): "c9b64fd8d4716370c5388dbb2bd785138eba9de986c0ce996167b8f2b42d4582",
    ("multipath:k=3,m=5", "3", "c"): "9dd900b751749c5a389e9a22327c82dbe00843c93a74f67e7eccfdf540da789b",
    ("band:k=3,l=4", "3", "d"): "a6c0a7c6dea98825582c97f408e5903274f454fef92b25f5176518c44b88ea36",
    ("band:k=4,l=3", "4", "d"): "dbb5e186b132c4db9e31a6b133c3e2a8a0560fc19d1f1727b6cc632041904a96",
}


@pytest.mark.parametrize("spec, k, cls", sorted(TRACE_DIGESTS))
def test_witness_trace_is_byte_identical(spec, k, cls, capsys, monkeypatch):
    code, graph, _ = invoke(["construct", spec], capsys)
    assert code == 0
    multi = ["--input", "edge-list", "--multi"] if spec.startswith("multipath") else []
    argv = ["witness", *multi, "--k", k, "--class", cls, "--explain"]
    code, out, _ = invoke(argv, capsys, monkeypatch, stdin_text=graph)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_DIGESTS[spec, k, cls]


@pytest.mark.parametrize("command", ["verify", "enumerate"])
def test_bad_k_fails_before_any_output(command, capsys):
    # the same one-line error whether or not the corpus reaches n >= 2
    small, full = [invoke([command, "--k", "0", "--nmax", nmax], capsys) for nmax in ("1", "7")]
    assert small == full == (1, "", "error: k must be at least 1\n")


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = invoke(["--version"], capsys)
        assert code == 0
        assert out.startswith("minconn ")

    def test_unknown_command(self, capsys):
        code, _, err = invoke(["frobnicate"], capsys)
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = invoke([], capsys)
        assert code == 1


# ---------------------------------------------------------------------------
# fuzzing main(): bounded argv, any outcome must be a documented exit code
# ---------------------------------------------------------------------------

SMALL = st.integers(-1, 4)
# short tokens with no leading "-", so they cannot abbreviate a real option
WORDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4).filter(
    lambda t: not t.startswith("-")
)
TOKENS = st.one_of(WORDS, st.sampled_from(["-", "--", "-x", "--bogus", "-h", "--version"]))


@st.composite
def graph6_strings(draw):
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    good = to_graph6(Graph(n, [p for p in pairs if draw(st.booleans())]))
    bad = draw(st.text(st.characters(min_codepoint=32, max_codepoint=130), max_size=6))
    return draw(st.sampled_from([good, bad]))


@st.composite
def edge_lists(draw):
    rows = draw(st.lists(st.lists(SMALL.map(str) | WORDS, max_size=3), max_size=5))
    return "".join(" ".join(r) + "\n" for r in rows)


FINITE_KEYS = {"band": ("k", "l"), "multipath": ("k", "m"), "path-square": ("l",),
               "cycle-clique": ("k", "l")}


@st.composite
def family_specs(draw, finite):
    kinds = {head: keys for head, (_, keys) in FAMILY_KINDS.items()}
    kinds.update(FINITE_KEYS if finite else {})
    head = draw(st.sampled_from(sorted(kinds)))
    params = {key: draw(st.integers(2, 4) | SMALL) for key in kinds[head]}
    if head == "clique-tree" and params["r"] * params["k"] > 4:
        params = {"r": 2, "k": 2}  # r*k branches a vertex: keep ball(6) small
    spec = ":".join([head, ",".join(f"{k}={v}" for k, v in params.items())] if params else [head])
    return draw(st.sampled_from([spec] * 3 + [spec + ",q=1", spec[:-1], spec.partition(",")[0]]))


@st.composite
def end_degree_args(draw):
    spec = draw(family_specs(False) | WORDS)
    tree = "tree" in spec
    ends = ["branch-0", "branch-1-0", "branch-0-1-1"] if tree else ["left", "right"]
    end = draw(st.sampled_from(ends) | st.sampled_from(["left", "branch-0", "branch-9"]))
    mode = draw(st.sampled_from(["vertex", "edge"]))
    return [spec, end, mode, "--rmax", str(draw(st.integers(3, 6) | st.integers(-1, 6)))]


def _opt(name, values):
    return st.tuples(st.just(name), values).map(list)


K = _opt("--k", SMALL.map(str))
CLASS = _opt("--class", st.sampled_from("abcdx"))
GRAPH_INPUT = [graph6_strings().map(lambda g: [g]), edge_lists().map(lambda t: [t]),
               _opt("--input", st.sampled_from(["graph6", "edge-list"])),
               st.just(["--multi"])]
NMAX = _opt("--nmax", SMALL.map(str))  # required: the default sweeps n <= 7
ENUM_OPTS = [_opt("--count", st.integers(0, 3).map(str)),
             _opt("--rand-nmax", st.integers(-1, 6).map(str)),
             _opt("--seed", st.integers(-2, 3).map(str)), CLASS]
# command -> (required parts, optional parts); each part is a token list
COMMANDS = {
    "check": ([K], GRAPH_INPUT + [CLASS, _opt("--format", st.sampled_from(["text", "json", "csv"]))]),
    "witness": ([K, CLASS], GRAPH_INPUT + [st.just(["--explain"]),
                                          _opt("--format", st.sampled_from(["text", "json"]))]),
    "verify": ([K, NMAX], ENUM_OPTS + [_opt("--format", st.sampled_from(["csv", "json"]))]),
    "enumerate": ([NMAX], ENUM_OPTS + [K]),
    "construct": ([(family_specs(True) | WORDS).map(lambda s: [s]),
                   _opt("--radius", st.integers(-1, 3).map(str))],
                  [_opt("--format", st.sampled_from(["auto", "graph6", "edge-list", "json"]))]),
    "end-degree": ([end_degree_args()],
                   [_opt("--window", SMALL.map(str)),
                    st.just(["--strict"]), _opt("--format", st.sampled_from(["text", "json"]))]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    parts = [draw(p) for p in required] + draw(st.lists(st.one_of(optional), max_size=4))
    argv = [command] + [tok for part in parts for tok in part]
    # now and then a stray token anywhere, the command position included
    for tok in draw(st.lists(TOKENS, max_size=1)):
        argv.insert(draw(st.integers(0, len(argv))), tok)
    return argv


class TestFuzzMain:
    @settings(max_examples=300, deadline=timedelta(seconds=20))
    @given(argvs(), edge_lists() | graph6_strings())
    def test_any_argv_exits_with_a_documented_code(self, argv, stdin_text):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin_text)), \
                redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors, --help, --version
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
