import csv
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treeirr
from treeirr import Tree, canonical_code, prufer_decode
from treeirr.cli import build_parser, main
from treeirr.claims import TreeClass, extremal_over_class, fig2_text
from treeirr.degseq import parse_degree_sequence
from treeirr.edgelist import ParseError, parse_edge_list

from _brute import brute_indices, edge_list_text, parse_edge_list_by_lines

# sha256 of the concatenated `extremal --json` outputs of
# test_extremal_digest: irr, sigma and irr_T, min and max, at four classes.
EXTREMAL_SHA256 = "1666c07366dcbff3d16af26982f88c377f29ad8415cfdcee50572d793fd55232"


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


# Line breaks that str.splitlines honours, blanks that only str.split does,
# and tokens int() refuses.
LINE_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
BLANKS = (" ", "\t", "\xa0", "\u3000", "\x1f", " \t ")
JUNK = ("x", "1.0", "0x1", "1__0", "_1", "1_", "#", "#3", "3#")
FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _spellings(v: int) -> list[str]:
    # Ways int() reads v: plain, signed, zero-padded (007), with an
    # underscore (1_0), as -0, and in full-width digits.
    sign, digits = "-" if v < 0 else "", str(abs(v))
    out = [str(v), (sign or "+") + digits, f"{sign}00{digits}", str(v).translate(FULL_WIDTH)]
    if len(digits) > 1:
        out.append(f"{sign}{digits[0]}_{digits[1:]}")
    if v == 0:
        out.append("-0")
    return out


@st.composite
def hostile_documents(draw) -> str:
    # A random labelled tree, maybe with an edge dropped (disconnected) and
    # extra pairs (self-loops, duplicates, cycles), shuffled and spelled in
    # the hostile alphabet, with comment, blank and malformed lines mixed in.
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(-40, 140), min_size=n, max_size=n, unique=True))
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if pairs and draw(st.integers(0, 2)) == 0:
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
    spell = [st.sampled_from(_spellings(v)) for v in labels]
    label = st.sampled_from(spell).flatmap(lambda s: s)
    blank = st.sampled_from(BLANKS)
    lines = []
    for u, v in draw(st.permutations(pairs)):
        if draw(st.booleans()):
            u, v = v, u
        a, b = draw(spell[u]), draw(spell[v])
        lines.append(draw(st.sampled_from(["", " "])) + a + draw(blank) + b + draw(st.sampled_from(["", " ", "\t"])))
    noise = st.one_of(
        st.sampled_from(["", " ", "\t", "#", "# 1 2", "\t#note 1 2 3"]),
        st.one_of(
            label,
            st.tuples(label, blank, label, blank, label).map("".join),
            st.tuples(label, label).map(lambda t: f"{t[0]} #{t[1]}"),
            st.tuples(label, label).map(lambda t: f"{t[0]} {t[1]} # note"),
            st.tuples(label, blank, st.sampled_from(JUNK)).map("".join),
        ),
    )
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(noise))
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)
    return text[:-1] if text and draw(st.booleans()) else text


def _outcome(parse, text: str) -> tuple:
    try:
        parsed = parse(text)
    except ParseError as err:
        return ("error", err.line, str(err))
    return ("tree", parsed.tree.n, parsed.tree.edges, parsed.labels)


class TestParserDifferential:
    @settings(max_examples=500, deadline=None)
    @given(hostile_documents())
    def test_matches_line_by_line_parser(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(parse_edge_list_by_lines, text)


def _long_document() -> list[str]:
    # 2,000 lines: a path through the labels 0, 3, ..., 5997 in shuffled
    # line order and orientation, with one comment line in the middle.
    rng = random.Random(2000)
    lines = [f"{3 * i} {3 * i + 3}" if rng.random() < 0.5 else f"{3 * i + 3} {3 * i}" for i in range(1999)]
    rng.shuffle(lines)
    lines.insert(1000, "# midway")
    return lines


class TestLateErrors:
    # The one bad line is the last; the token walk has read the whole text
    # before the error is located.
    @pytest.mark.parametrize(
        "bad, line, message",
        [
            ("x 3", 2001, "non-integer vertex label in 'x 3'"),
            ("0 3 6", 2001, "expected two integers, got '0 3 6'"),
            ("5997 5997", 2001, "self-loop at vertex 5997"),
            (None, 2001, None),
            ("0 5997", 2001, "edge closes a cycle"),
            ("6000 6003", None, "disconnected input: 2002 vertices but only 2000 edges"),
        ],
        ids=["non-integer", "three-tokens", "self-loop", "duplicate-of-line-1", "cycle", "disconnected"],
    )
    def test_last_line(self, bad, line, message):
        lines = _long_document()
        assert len(lines) == 2000 and parse_edge_list("\n".join(lines)).tree.n == 2000
        if bad is None:
            u, v = map(int, lines[0].split())
            bad, message = f"{v} {u}", f"duplicate edge {(min(u, v), max(u, v))}"
        with pytest.raises(ParseError) as info:
            parse_edge_list("\n".join([*lines, bad]) + "\n")
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"line {line}: {message}")


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

    def test_stdin(self, fig2_file, monkeypatch, capsys):
        assert main(["compute", "--tree", fig2_file]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(fig2_text()))
        assert main(["compute", "--tree", "-"]) == 0
        assert capsys.readouterr().out == from_file

    def test_byte_order_mark(self, fig2_file, tmp_path, monkeypatch, capsys):
        assert main(["compute", "--tree", fig2_file]) == 0
        plain = capsys.readouterr().out
        marked = tmp_path / "bom.edges"
        marked.write_text(fig2_text(), encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["compute", "--tree", str(marked)]) == 0
        assert capsys.readouterr().out == plain
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + fig2_text()))
        assert main(["compute", "--tree", "-"]) == 0
        assert capsys.readouterr().out == plain

    def test_only_one_byte_order_mark_is_dropped(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff\ufeff0 1\n"))
        assert main(["compute", "--tree", "-"]) == 2
        assert "line 1: non-integer vertex label in '\\ufeff0 1'" in capsys.readouterr().err


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

    def test_realize_file_with_byte_order_mark(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("3 2 2 1 1 1\n", encoding="utf-8-sig")
        assert main(["realize", "--file", str(seq_file)]) == 0
        assert "count: 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [[], ["--delta", "3"], ["--caterpillar"], ["--seq", "3 3 2 1 1 1 1"]],
        ids=["order", "delta", "caterpillar", "seq"],
    )
    def test_extremal_json_is_the_library_result(self, flags, capsys):
        argv = ["extremal", "--n", "7", *flags, "--index", "sigma", "--objective", "max"]
        assert main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        seq = parse_degree_sequence(flags[1]) if flags[:1] == ["--seq"] else None
        delta = int(flags[1]) if flags[:1] == ["--delta"] else None
        klass = TreeClass(7, delta, seq, caterpillar_only=flags == ["--caterpillar"])
        result = extremal_over_class(klass, "sigma", "max")
        assert payload == {
            "class": result.class_description,
            "index": "sigma",
            "objective": "max",
            "value": result.value,
            "witnesses": [{"code": c, "edges": e} for c, e in result.witnesses],
        }
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"max sigma over {result.class_description}: {result.value}"
        assert lines[1:] == [f"witness: {e}" for _, e in result.witnesses]

    def test_extremal_digest(self, capsys):
        # Pinned bytes: every value, witness code and witness edge list of
        # 24 queries, in order, including order 16 and a sequence whose
        # Prüfer count the realizer would still accept.
        classes = [
            ["--n", "14"],
            ["--n", "16", "--delta", "5"],
            ["--seq", "3 3 3 3 2 2 1 1 1 1 1 1"],
            ["--n", "13", "--caterpillar"],
        ]
        digest = hashlib.sha256()
        for flags in classes:
            for index in ("irr", "sigma", "irr_T"):
                for objective in ("min", "max"):
                    argv = ["extremal", *flags, "--index", index, "--objective", objective]
                    assert main([*argv, "--json"]) == 0
                    digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == EXTREMAL_SHA256

    def test_extremal_needs_an_order(self, capsys):
        assert main(["extremal", "--index", "irr", "--objective", "max"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: need --n or --seq\n")

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

    def test_text_secondary_and_note(self, capsys):
        assert main(["formula", "--id", "hyp_four_bounds", "--d", "18 12 6 4"]) == 0
        assert capsys.readouterr().out == "hyp_four_bounds(18,12,6,4) = 458 (secondary 442)\n"
        assert main(["formula", "--id", "cor3_part1", "--d", "4 3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "cor3_part1(4,3) = True"
        assert len(lines) > 1 and all(line.startswith("note: ") for line in lines[1:])

    def test_non_integer_degrees_exit_2(self, capsys):
        assert main(["formula", "--id", "sigma_ordered", "--d", "1 x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: expected whitespace-separated integers, got '1 x'\n"


class TestVerifyAndReport:
    def test_verify_holds_exit_0(self, capsys):
        assert main(["verify", "--claim", "star-albertson"]) == 0
        out = capsys.readouterr().out
        assert "verdict: holds" in out and "checked: 48" in out

    def test_verify_fails_exit_1(self, capsys):
        assert main(["verify", "--claim", "hyp-four"]) == 1
        assert "verdict: fails" in capsys.readouterr().out

    def test_verify_n_max_not_an_integer(self, capsys):
        assert main(["verify", "--claim", "sandwich", "--n-max", "x"]) == 2
        assert "argument --n-max: expected an integer, got 'x'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("claim_id", ["star-albertson", "star-iso-sum"])
    def test_star_leaf_count_obeys_its_guard(self, claim_id, capsys):
        assert main(["verify", "--claim", claim_id, "--n-max", "100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "leaf count 100000000 above guard 1000" in captured.err

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

    def test_text_full(self, capsys):
        assert main(["permsearch", "--seq", "2 2 3", "--interp", "caterpillar", "--full"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "caterpillar: 3 orderings"
        assert lines[-3:] == ["2,2,3: 10", "2,3,2: 8", "3,2,2: 10"]


class TestTable1Command:
    def test_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 25  # header + 24 rows

    def test_csv(self, capsys):
        assert main(["table1", "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("seq,irr_max,irr_min,diff")
        assert lines[1].startswith('"18,12,6,4",454,438,16,')
        assert len(lines) == 25

    def test_json_rows_are_the_csv_rows(self, capsys):
        # A CSV reader sees the header's fields in every row, with the
        # --json values as text.
        assert main(["table1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert main(["table1", "--csv"]) == 0
        reader = csv.DictReader(io.StringIO(capsys.readouterr().out), restkey="extra")
        records = list(reader)
        assert len(rows) == len(records) == 24
        for row, record in zip(rows, records):
            assert list(record) == reader.fieldnames
            assert sorted(record) == sorted(row)
            assert record == {k: str(v) for k, v in row.items()}

    def test_csv_and_json_exclusive(self, capsys):
        assert main(["table1", "--csv", "--json"]) == 2
        err = capsys.readouterr().err
        assert "argument --json: not allowed with argument --csv" in err


def _readme_cli_lines() -> list[str]:
    # The treeirr lines of the README's CLI block.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("treeirr ")]


class TestUsage:
    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_readme_examples_parse(self, line):
        argv = shlex.split(line, comments=True)
        assert argv[0] == "treeirr"
        args = build_parser().parse_args(argv[1:])
        assert args.command == argv[1]

    def test_readme_lists_every_command(self):
        commands = {line.split()[1] for line in _readme_cli_lines()}
        assert commands == {
            "compute", "enumerate", "realize", "extremal", "formula",
            "verify", "report", "permsearch", "table1",
        }


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
