import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import treeirr
from treeirr import Tree, canonical_code, prufer_decode
from treeirr.cli import main
from treeirr.claims import fig2_text
from treeirr.edgelist import ParseError, parse_edge_list

from _brute import brute_indices, edge_list_text


@pytest.fixture()
def fig2_file(tmp_path):
    target = tmp_path / "fig2.edges"
    target.write_text(fig2_text())
    return str(target)


class TestParsing:
    def test_path(self):
        assert parse_edge_list("0 1\n1 2\n").tree.edges == ((0, 1), (1, 2))

    def test_comments_and_blanks(self):
        assert parse_edge_list("# demo\n\n0 1\n").tree.n == 2

    def test_relabels_gaps(self):
        parsed = parse_edge_list("10 40\n40 70\n")
        assert parsed.tree.edges == ((0, 1), (1, 2))
        assert parsed.labels == (10, 40, 70)

    def test_cycle_line_number(self):
        with pytest.raises(ParseError, match="line 3: edge closes a cycle"):
            parse_edge_list("0 1\n1 2\n2 0\n")

    def test_disconnected(self):
        with pytest.raises(ParseError, match="disconnected"):
            parse_edge_list("0 1\n2 3\n")

    def test_self_loop(self):
        with pytest.raises(ParseError, match="line 1: self-loop"):
            parse_edge_list("5 5\n")

    def test_duplicate(self):
        with pytest.raises(ParseError, match="line 2: duplicate"):
            parse_edge_list("0 1\n1 0\n0 2\n")

    def test_malformed(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n1 2 3\n")
        with pytest.raises(ParseError, match="non-integer"):
            parse_edge_list("a b\n")

    def test_empty(self):
        with pytest.raises(ParseError, match="no edges"):
            parse_edge_list("# nothing\n")

    def test_round_trip_isomorphic(self):
        parsed = parse_edge_list(fig2_text())
        again = parse_edge_list(edge_list_text(parsed.tree.edges, parsed.labels))
        assert again.tree == parsed.tree
        assert canonical_code(again.tree) == canonical_code(parsed.tree)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            # A duplicate also closes a cycle; it is reported as a duplicate.
            ("0 1\n0 1\n", 2, "duplicate edge (0, 1)"),
            # The first offending line wins over a later duplicate.
            ("0 1\n1 2\n2 0\n0 1\n", 3, "edge closes a cycle"),
            # A format error on any line comes before a self-loop on an earlier one.
            ("0 1\n1 1\nx y\n", 3, "non-integer vertex label in 'x y'"),
            # A duplicate on a disconnected graph is still a duplicate.
            ("0 1\n2 3\n3 2\n", 3, "duplicate edge (2, 3)"),
        ],
        ids=["duplicate", "cycle-first", "format-first", "duplicate-not-disconnected"],
    )
    def test_first_error_wins(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"


def _shuffled_document(t: Tree, rng) -> tuple[str, list[int], list[tuple[int, int]]]:
    # Sparse, shuffled and partly negative labels; random line order and
    # orientation, with blank and comment lines mixed in.
    labels = rng.sample(range(-5 * t.n, 5 * t.n), t.n)
    pairs = []
    for u, v in t.edges:
        a, b = labels[u], labels[v]
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(pairs)
    lines = []
    for a, b in pairs:
        filler = rng.random()
        if filler < 0.1:
            lines.append("")
        elif filler < 0.2:
            lines.append(f"# {a} {b}")
        lines.append(f"{a}\t{b}" if filler > 0.9 else f"  {a} {b} ")
    return "\n".join(lines) + "\n", labels, pairs


class TestParserOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_labeled_trees(self, data):
        n = data.draw(st.integers(2, 400))
        rng = data.draw(st.randoms(use_true_random=True))
        code = [rng.randrange(n) for _ in range(n - 2)]
        text, labels, pairs = _shuffled_document(prufer_decode(code, n), rng)
        parsed = parse_edge_list(text)
        t = parsed.tree
        rebuilt = Tree(n, t.edges)
        assert t == rebuilt
        assert t.edges == rebuilt.edges
        assert t.adjacency == rebuilt.adjacency
        assert parsed.labels == tuple(sorted(labels))
        back = sorted(
            tuple(sorted((parsed.labels[u], parsed.labels[v]))) for u, v in t.edges
        )
        assert back == sorted(tuple(sorted(p)) for p in pairs)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_errors_keep_text_and_line(self, data):
        # One bad line spliced into a random tree's document. The expected
        # line and message come from the tree: a format error wins wherever
        # it is, a self-loop offends on its own line, a repeated edge on the
        # later of its two lines, and an edge between two vertices at
        # distance >= 2 on the last line of the cycle it closes.
        n = data.draw(st.integers(3, 60))
        rng = data.draw(st.randoms(use_true_random=True))
        t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
        edges = list(t.edges)
        rng.shuffle(edges)
        at = data.draw(st.integers(0, n - 1))
        line_of = {e: i + 1 + (i >= at) for i, e in enumerate(edges)}
        kind = data.draw(st.sampled_from(["format", "self-loop", "duplicate", "cycle"]))
        if kind == "format":
            bad, line, message = "x 1", at + 1, "non-integer vertex label in 'x 1'"
        elif kind == "self-loop":
            v = rng.randrange(n)
            bad, line, message = f"{v} {v}", at + 1, f"self-loop at vertex {v}"
        elif kind == "duplicate":
            u, v = rng.choice(edges)
            bad, line, message = f"{v} {u}", max(at + 1, line_of[(u, v)]), f"duplicate edge {(u, v)}"
        else:
            a, b = rng.sample(range(n), 2)
            while b in t.adjacency[a]:
                a, b = rng.sample(range(n), 2)
            parent = {a: a}
            queue = [a]
            for x in queue:
                for y in t.adjacency[x]:
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
            cycle_lines = [at + 1]
            x = b
            while x != a:
                cycle_lines.append(line_of[(min(x, parent[x]), max(x, parent[x]))])
                x = parent[x]
            bad, line, message = f"{a} {b}", max(cycle_lines), "edge closes a cycle"
        lines = [f"{u} {v}" for u, v in edges]
        lines.insert(at, bad)
        with pytest.raises(ParseError) as info:
            parse_edge_list("\n".join(lines))
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"

    def test_compute_json_on_shuffled_tree(self, tmp_path, capsys):
        rng = random.Random(400)
        n = 400
        t = prufer_decode([rng.randrange(n) for _ in range(n - 2)], n)
        text, _, _ = _shuffled_document(t, rng)
        target = tmp_path / "big.edges"
        target.write_text(text)
        assert main(["compute", "--tree", str(target), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": n, "m": n - 1, **brute_indices(n, list(t.edges))}


class TestCompute:
    def test_fixture_line(self, fig2_file, capsys):
        assert main(["compute", "--tree", fig2_file]) == 0
        out = capsys.readouterr().out
        assert "irr=20" in out and "sigma=54" in out and "irr_T=58" in out

    def test_json(self, fig2_file, capsys):
        assert main(["compute", "--tree", fig2_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "n": 10, "m": 9, "irr": 20, "irr_T": 58, "sigma": 54, "m1": 48, "m2": 54,
        }

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n1 2\n2 0\n")
        assert main(["compute", "--tree", str(bad)]) == 2
        assert "cycle" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        assert main(["compute", "--tree", "/nonexistent.edges"]) == 2


class TestStreams:
    def test_enumerate(self, capsys):
        assert main(["enumerate", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("count: 3")

    def test_enumerate_guard(self, capsys):
        assert main(["enumerate", "--n", "30"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--n", "5"],
            ["realize", "--seq", "1 1"],
            ["extremal", "--n", "5", "--index", "irr", "--objective", "max"],
        ],
        ids=["enumerate", "realize", "extremal"],
    )
    def test_guard_has_no_override(self, argv, capsys):
        assert main([*argv, "--max-order", "16"]) == 2
        assert "unrecognized arguments: --max-order 16" in capsys.readouterr().err

    def test_extremal_answers_up_to_the_guard(self, capsys):
        assert main(["extremal", "--n", "15", "--index", "irr", "--objective", "max"]) == 0
        assert capsys.readouterr().out.startswith("max irr over n=15: 182\n")
        assert main(["extremal", "--n", "17", "--index", "irr", "--objective", "max"]) == 2
        assert "order 17 outside guard range 1..16" in capsys.readouterr().err

    def test_realize(self, capsys):
        assert main(["realize", "--seq", "3 2 2 1 1 1"]) == 0
        assert "count: 2" in capsys.readouterr().out

    def test_realize_rejects_bad_sequence(self, capsys):
        assert main(["realize", "--seq", "2 2 2"]) == 2
        assert "2(n-1)" in capsys.readouterr().err

    def test_extremal(self, capsys):
        assert main(["extremal", "--n", "5", "--index", "irr", "--objective", "max"]) == 0
        out = capsys.readouterr().out
        assert "12" in out and out.count("witness") == 1

    def test_realize_needs_a_source(self, capsys):
        assert main(["realize"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: treeirr realize")
        assert "one of the arguments --seq --file is required" in err

    def test_realize_takes_one_source(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("3 2 2 1 1 1\n")
        assert main(["realize", "--file", str(seq_file)]) == 0
        assert "count: 2" in capsys.readouterr().out
        assert main(["realize", "--seq", "1 1", "--file", str(seq_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --file: not allowed with argument --seq" in captured.err

    def test_extremal_n_must_match_sequence(self, capsys):
        rest = ["--seq", "3 1 1 1", "--index", "irr", "--objective", "max"]
        assert main(["extremal", "--n", "9", *rest]) == 2
        assert "degree sequence length disagrees with class order" in capsys.readouterr().err
        assert main(["extremal", "--n", "4", *rest]) == 0
        assert "over n=4 seq=(3,1,1,1): 6" in capsys.readouterr().out


class TestFormulaCommand:
    def test_value(self, capsys):
        assert main(["formula", "--id", "sigma_ordered", "--d", "1 2 3 4 5 6"]) == 0
        assert "= 379" in capsys.readouterr().out

    def test_secondary_and_json(self, capsys):
        assert main(["formula", "--id", "hyp_four_bounds", "--d", "18 12 6 4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["value"], payload["secondary"]) == (458, 442)

    def test_domain_error(self, capsys):
        assert main(["formula", "--id", "sigma_five", "--d", "5 4 3 2 1"]) == 2


class TestVerifyAndReport:
    def test_verify_holds_exit_0(self, capsys):
        assert main(["verify", "--claim", "star-albertson"]) == 0
        out = capsys.readouterr().out
        assert "verdict: holds" in out and "checked: 48" in out

    def test_verify_fails_exit_1(self, capsys):
        assert main(["verify", "--claim", "hyp-four"]) == 1
        assert "verdict: fails" in capsys.readouterr().out

    def test_verify_json(self, capsys):
        assert main(["verify", "--claim", "table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "holds-with-notes"

    def test_report_exit_codes(self, capsys, tmp_path):
        assert main(["report", "--claims", "star-albertson,sandwich", "--n-max", "6"]) == 0
        capsys.readouterr()
        assert main(["report", "--claims", "hyp-four"]) == 1
        capsys.readouterr()
        assert main(["report", "--claims", "sandwich,bogus", "--n-max", "5"]) == 2
        assert "unknown claim id" in capsys.readouterr().out

    def test_report_runs_each_claim_once(self, capsys):
        # Repeated ids run once.
        assert main(["report", "--claims", "hyp-four,sigma-five,hyp-four"]) == 1
        out = capsys.readouterr().out
        assert "claims: 2  holds: 0  holds-with-notes: 0  fails: 2  errors: 0" in out
        assert out.count("claim: hyp-four\n") == 1
        assert main(["report", "--claims", "hyp-four,hyp-four"]) == 1
        assert "claims: 1  holds: 0  holds-with-notes: 0  fails: 1  errors: 0" in (
            capsys.readouterr().out
        )

    def test_report_strips_claim_ids(self, capsys):
        assert main(["report", "--claims", " hyp-four, sigma-five ,hyp-four "]) == 1
        out = capsys.readouterr().out
        assert "claims: 2  holds: 0  holds-with-notes: 0  fails: 2  errors: 0" in out
        assert "claim: sigma-five\n" in out and "unknown claim id" not in out

    def test_report_empty_claim_list_is_an_error(self, capsys):
        # An empty --claims names no claim; it does not mean all of them.
        assert main(["report", "--claims", ""]) == 2
        out = capsys.readouterr().out
        assert "claims: 0" in out and "error: unknown claim id" in out

    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(
            ["report", "--claims", "table1", "--deterministic", "--out", str(out)]
        ) == 0
        text = out.read_text()
        assert text.startswith("treeirr claim report")
        assert "claim: table1" in text

    def test_report_json(self, capsys):
        assert main(["report", "--claims", "table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == []

    @pytest.mark.parametrize("verb", [["verify", "--claim", "irr-decrease"], ["report"]])
    def test_negative_witness_cap_rejected(self, verb, capsys):
        assert main(verb + ["--witness-cap", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --witness-cap: must be >= 0, got -3" in captured.err

    @pytest.mark.parametrize("verb", [["verify", "--claim", "irr-decrease"], ["report"]])
    @pytest.mark.parametrize(
        "flags",
        [
            ["--witness-cap", "2", "--all-witnesses"],
            # 25 is the default cap, so a plain group would let it through.
            ["--witness-cap", "25", "--all-witnesses"],
            ["--all-witnesses", "--witness-cap", "25"],
        ],
    )
    def test_witness_cap_and_all_witnesses_exclusive(self, verb, flags, capsys):
        assert main(verb + ["--n-max", "6"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: treeirr {verb[0]}")
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize(
        "verb", [["verify", "--claim", "irr-decrease"], ["report", "--claims", "irr-decrease"]]
    )
    def test_default_witness_cap(self, verb, capsys):
        assert main(verb + ["--n-max", "9"]) == 1
        plain = capsys.readouterr().out
        assert main(verb + ["--n-max", "9", "--witness-cap", "25"]) == 1
        assert capsys.readouterr().out == plain
        assert plain.count("witness: ") == 25

    @pytest.mark.parametrize(
        "verb, value",
        [
            (["verify", "--claim", "star-albertson"], "-1"),
            (["verify", "--claim", "sandwich"], "0"),
            (["report"], "0"),
        ],
    )
    def test_n_max_below_one_rejected(self, verb, value, capsys):
        assert main(verb + ["--n-max", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: treeirr {verb[0]}")
        assert f"argument --n-max: must be >= 1, got {value}" in captured.err

    def test_jobs_option_gone(self, capsys):
        # Reports run in one process; --jobs is an unknown argument.
        assert main(["report", "--claims", "table1", "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err

    def test_degree_sequence_sweep_obeys_the_guard(self, capsys):
        assert main(["verify", "--claim", "resn1", "--n-max", "17"]) == 2
        assert "order 17 outside guard range 1..16" in capsys.readouterr().err

    def test_verify_json_matches_report_record(self, capsys):
        assert main(["verify", "--claim", "star-albertson", "--n-max", "6", "--json"]) == 0
        alone = capsys.readouterr().out
        assert main(["report", "--claims", "star-albertson", "--n-max", "6", "--json"]) == 0
        (record,) = json.loads(capsys.readouterr().out)["results"]
        assert alone == json.dumps(record, sort_keys=True, indent=2) + "\n"

    def test_report_timings(self, capsys):
        # --timings reaches --json too; --deterministic keeps timings out.
        assert main(["report", "--claims", "table1", "--timings"]) == 0
        assert "wall_time_s: " in capsys.readouterr().out
        assert main(["report", "--claims", "table1", "--timings", "--json"]) == 0
        assert "wall_time_s" in json.loads(capsys.readouterr().out)["results"][0]
        assert main(["report", "--claims", "table1", "--deterministic", "--timings"]) == 0
        assert "wall_time" not in capsys.readouterr().out
        assert main(["verify", "--claim", "table1", "--timings", "--json"]) == 0
        assert "wall_time_s" in json.loads(capsys.readouterr().out)


class TestPermsearchCommand:
    def test_counts_and_flags(self, capsys):
        assert main(["permsearch", "--seq", "4 8 10 14 18 20", "--interp", "formula"]) == 0
        out = capsys.readouterr().out
        assert "720 orderings" in out
        assert "max match False" in out

    def test_json_full(self, capsys):
        assert main(
            ["permsearch", "--seq", "2 2 3", "--interp", "caterpillar", "--json", "--full"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["orderings"] == 3
        assert len(payload["evaluations"]) == 3
        assert "skipped" not in payload


class TestTable1Command:
    def test_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 25  # header + 24 rows

    def test_csv(self, capsys):
        assert main(["table1", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("seq,irr_max,irr_min,diff")
        assert lines[1].startswith("18,12,6,4")
        assert len(lines) == 25

    def test_csv_and_json_exclusive(self, capsys):
        assert main(["table1", "--csv", "--json"]) == 2
        err = capsys.readouterr().err
        assert "argument --json: not allowed with argument --csv" in err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_claim_choice(self, capsys):
        assert main(["verify", "--claim", "nope"]) == 2

    @pytest.mark.parametrize("n", [3, 12])
    def test_closed_stdout_exits_141_quietly(self, n):
        # The reader is gone before the command starts. With stdout
        # buffered, order 3 prints less than a buffer, flushed on the way
        # out, and order 12 more.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(treeirr.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "treeirr", "enumerate", "--n", str(n)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""
