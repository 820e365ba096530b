import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import minconn.witnesses as witnesses
from minconn.cli import main
from minconn.constructions import band_graph, cycle_clique_strong, multipath
from minconn.families import FAMILY_KINDS
from minconn.graphs import Graph, MultiGraph
from minconn.io import from_edge_list, from_graph6, to_graph6
from minconn.minimality import MinimalityClass, check_class
from minconn.witnesses import (
    crossing_separators_witness,
    default_profound_region,
    edge_min_witness_pair,
    vertex_min_edge_witness_pair,
)

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

    @pytest.mark.parametrize("graph6", ["EhEGGGGG", "D\u00e9", "Bx"])
    def test_malformed_graph6_is_parse_error(self, capsys, graph6):
        # trailing bytes, a non-ASCII byte, nonzero padding bits
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
        calls = []
        real = witnesses.check_class
        monkeypatch.setattr(
            witnesses, "check_class", lambda *a: calls.append(a) or real(*a)
        )
        code, _, _ = invoke(["witness", C6, "--k", "2", "--class", cls, "--explain"], capsys)
        assert code == 0
        assert len(calls) == 1

    def test_trace_same_with_and_without_verify(self):
        procedures = {
            "b": lambda g, k, verify: crossing_separators_witness(
                g, default_profound_region(g, k), k, verify
            ),
            "c": edge_min_witness_pair,
            "d": vertex_min_edge_witness_pair,
        }
        members = [
            (from_graph6(C6), "bcd", 2),
            (band_graph(3, 2).graph, "bd", 3),
            (cycle_clique_strong(4, 5), "b", 4),
            (multipath(3, 5), "c", 3),
        ]
        for g, classes, k in members:
            for cls in classes:
                assert check_class(g, MinimalityClass(cls), k).holds, (cls, k)
                run = procedures[cls]
                assert run(g, k, True).to_json_obj() == run(g, k, False).to_json_obj(), cls


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
        assert code == 0 and (g.n, g.m, g.max_degree()) == (601, 600, 2)
        assert g.is_connected()

    def test_family_needs_radius(self, capsys):
        code, _, err = invoke(["construct", "clique-tree:r=2,k=4"], capsys)
        assert code == 1
        assert "--radius" in err

    def test_json_labels(self, capsys):
        code, out, _ = invoke(
            ["construct", "band:k=3,l=2", "--format", "json"], capsys
        )
        obj = json.loads(out)
        assert obj["n"] == 10
        assert obj["labels"]["a"] != obj["labels"]["b"]

    def test_unknown_spec(self, capsys):
        code, _, err = invoke(["construct", "hypercube:d=4"], capsys)
        assert code == 1


class TestEndDegree:
    @pytest.mark.parametrize(
        "family,end,mode,expected",
        [
            ("double-ray", "left", "vertex", "1"),
            ("dr-square", "left", "edge", "3"),
            ("cartesian-dr:k=2", "right", "vertex", "2"),
            ("clique-tree:r=2,k=4", "branch-0-0", "edge", "4"),
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
