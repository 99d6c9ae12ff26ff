"""Command-line front end: one verb per library capability."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .claims import (
    CLAIM_IDS,
    DEFAULT_WITNESS_CAP,
    ReportConfig,
    exit_status,
    extremal_over_class,
    load_table1,
    perm_search,
    report_to_json,
    report_to_text,
    result_to_dict,
    result_to_text,
    run_report,
    TreeClass,
    verify,
)
from .degseq import parse_degree_sequence
from .edgelist import parse_edge_list
from .enumeration import all_trees, trees_with_degree_sequence
from .formulas import FORMULA_IDS, evaluate_formula, floor_bound_value, hyp_four_bounds_values
from .indices import compute_indices
from .tree import Tree, canonical_code, degrees


def _read_text(path: str) -> str:
    # One leading byte-order mark (U+FEFF) is an encoding mark, not text.
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return text.removeprefix("\ufeff")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"expected whitespace-separated integers, got {text!r}") from None


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_non_negative = _int_at_least(0)
_positive = _int_at_least(1)


def _bundle_pairs(t: Tree) -> list[tuple[str, int]]:
    b = compute_indices(t)
    return [
        ("n", t.n),
        ("m", t.n - 1),
        ("irr", b.irr),
        ("irr_T", b.irr_t),
        ("sigma", b.sigma),
        ("m1", b.m1),
        ("m2", b.m2),
    ]


def _cmd_compute(args) -> int:
    parsed = parse_edge_list(_read_text(args.tree))
    pairs = _bundle_pairs(parsed.tree)
    if args.json:
        print(json.dumps(dict(pairs), sort_keys=True))
    else:
        print(" ".join(f"{k}={v}" for k, v in pairs))
    return 0


def _edges_str(t: Tree) -> str:
    return " ".join(f"{u}-{v}" for u, v in t.edges)


def _tree_records(stream) -> list[dict]:
    records = []
    for t in stream:
        records.append(
            {
                "code": canonical_code(t).decode("ascii"),
                "edges": _edges_str(t),
                "degrees": " ".join(str(d) for d in sorted(degrees(t), reverse=True)),
            }
        )
    return records


def _print_tree_records(records: list[dict], as_json: bool) -> None:
    if as_json:
        print(json.dumps(records, sort_keys=True, indent=2))
        return
    for r in records:
        print(f"{r['edges']}  degrees: {r['degrees']}")
    print(f"count: {len(records)}")


def _cmd_enumerate(args) -> int:
    records = _tree_records(all_trees(args.n))
    _print_tree_records(records, args.json)
    return 0


def _cmd_realize(args) -> int:
    text = args.seq if args.file is None else _read_text(args.file)
    seq = parse_degree_sequence(text)
    records = _tree_records(trees_with_degree_sequence(seq))
    _print_tree_records(records, args.json)
    return 0


def _cmd_extremal(args) -> int:
    seq = parse_degree_sequence(args.seq) if args.seq else None
    n = seq.n if args.n is None and seq is not None else args.n
    if n is None:
        raise ValueError("need --n or --seq")
    tree_class = TreeClass(
        n=n, delta=args.delta, degree_sequence=seq, caterpillar_only=args.caterpillar
    )
    result = extremal_over_class(tree_class, args.index, args.objective)
    if args.json:
        print(
            json.dumps(
                {
                    "class": result.class_description,
                    "index": result.index,
                    "objective": result.objective,
                    "value": result.value,
                    "witnesses": [{"code": c, "edges": e} for c, e in result.witnesses],
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print(f"{result.objective} {result.index} over {result.class_description}: {result.value}")
        for code, edge_text in result.witnesses:
            print(f"witness: {edge_text}")
    return 0


def _cmd_formula(args) -> int:
    result = evaluate_formula(args.id, _parse_ints(args.d))
    if args.json:
        print(
            json.dumps(
                {
                    "formula": result.formula_id,
                    "inputs": list(result.inputs),
                    "value": result.value,
                    "secondary": result.secondary,
                    "notes": list(result.notes),
                },
                sort_keys=True,
            )
        )
    else:
        inputs = ",".join(str(x) for x in result.inputs)
        line = f"{result.formula_id}({inputs}) = {result.value}"
        if result.secondary is not None:
            line += f" (secondary {result.secondary})"
        print(line)
        for note in result.notes:
            print(f"note: {note}")
    return 0


def _witness_cap(args) -> int | None:
    return None if args.all_witnesses else args.witness_cap


def _add_witness_options(p: argparse.ArgumentParser) -> None:
    # argparse lets an option given at its default value through a mutually
    # exclusive group, unless the default is a string it parses itself.
    cap = p.add_mutually_exclusive_group()
    cap.add_argument("--witness-cap", type=_non_negative, default=str(DEFAULT_WITNESS_CAP))
    cap.add_argument("--all-witnesses", action="store_true")


def _cmd_verify(args) -> int:
    params = {}
    if args.n_max is not None:
        params["n_max"] = args.n_max
    result = verify(args.claim, params or None, witness_cap=_witness_cap(args))
    if args.json:
        print(json.dumps(result_to_dict(result, args.timings), sort_keys=True, indent=2))
    else:
        print(result_to_text(result, args.timings))
    return 1 if result.verdict == "fails" else 0


def _cmd_report(args) -> int:
    claim_ids = None if args.claims is None else tuple(args.claims.split(","))
    config = ReportConfig(
        claim_ids=claim_ids,
        n_max=args.n_max,
        witness_cap=_witness_cap(args),
        deterministic=args.deterministic or not args.timings,
    )
    report = run_report(config)
    text = report_to_json(report) if args.json else report_to_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return exit_status(report)


def _cmd_permsearch(args) -> int:
    result = perm_search(_parse_ints(args.seq), args.interp)
    payload = {
        "base": list(result.base),
        "interpretation": result.interpretation,
        "orderings": len(result.evaluations),
        "max": result.max_value,
        "min": result.min_value,
        "argmax": [list(p) for p in result.argmax],
        "argmin": [list(p) for p in result.argmin],
        "reference": list(result.reference) if result.reference else None,
        "matches_reference_max": result.matches_reference_max,
        "matches_reference_min": result.matches_reference_min,
    }
    if args.full:
        payload["evaluations"] = [
            {"ordering": list(p), "value": v} for p, v in result.evaluations
        ]
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"{result.interpretation}: {len(result.evaluations)} orderings")
        print(f"max: {result.max_value} at {len(result.argmax)} orderings")
        print(f"min: {result.min_value} at {len(result.argmin)} orderings")
        if result.reference is not None:
            print(
                f"documented reference {result.reference[0]}/{result.reference[1]}: "
                f"max match {result.matches_reference_max}, "
                f"min match {result.matches_reference_min}"
            )
        if args.full:
            for p, v in result.evaluations:
                print(f"{','.join(str(x) for x in p)}: {v}")
    return 0


def _cmd_table1(args) -> int:
    rows = []
    for row in load_table1():
        fmx, fmn = hyp_four_bounds_values(row.seq)
        rows.append(
            {
                "seq": ",".join(str(x) for x in row.seq),
                "irr_max": row.irr_max,
                "irr_min": row.irr_min,
                "diff": row.diff,
                "formula_max": fmx,
                "formula_min": fmn,
                "offset_max": fmx - row.irr_max,
                "offset_min": fmn - row.irr_min,
                "floor_bound": floor_bound_value(row.seq),
            }
        )
    header = list(rows[0])
    if args.json:
        print(json.dumps(rows, sort_keys=True, indent=2))
    elif args.csv:
        # Imported here: every CLI start pays for a top-level import, and
        # only this verb writes CSV.
        import csv

        writer = csv.DictWriter(sys.stdout, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        widths = {k: max(len(k), *(len(str(r[k])) for r in rows)) for k in header}
        print("  ".join(k.ljust(widths[k]) for k in header))
        for r in rows:
            print("  ".join(str(r[k]).ljust(widths[k]) for k in header))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeirr",
        description="Exact irregularity indices on trees, enumeration, and claim checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="indices of a tree given as an edge list")
    p.add_argument("--tree", required=True, help="edge-list file, or - for stdin")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("enumerate", help="all unlabeled trees of an order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("realize", help="all trees with a degree sequence")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--seq", help="whitespace-separated degrees")
    source.add_argument("--file", help="file holding one line of degrees")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("extremal", help="exact extremal index over a tree class")
    p.add_argument("--n", type=int)
    p.add_argument("--seq", help="restrict to this degree sequence")
    p.add_argument("--delta", type=int, help="restrict to this maximum degree")
    p.add_argument("--caterpillar", action="store_true")
    p.add_argument("--index", choices=["irr", "sigma", "irr_T"], required=True)
    p.add_argument("--objective", choices=["min", "max"], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("formula", help="evaluate one closed-form expression")
    p.add_argument("--id", choices=list(FORMULA_IDS), required=True)
    p.add_argument("--d", required=True, help="degree tuple, e.g. '18 12 6 4'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("verify", help="run one cataloged claim")
    p.add_argument("--claim", choices=list(CLAIM_IDS), required=True)
    p.add_argument("--n-max", type=_positive, default=None)
    _add_witness_options(p)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="run many claims into one report")
    p.add_argument("--claims", help="comma-separated claim ids (default: all)")
    p.add_argument("--n-max", type=_positive, default=None)
    _add_witness_options(p)
    p.add_argument("--deterministic", action="store_true", help="no timings")
    p.add_argument("--timings", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("permsearch", help="sigma extremes over orderings of a tuple")
    p.add_argument("--seq", required=True)
    p.add_argument("--interp", choices=["formula", "caterpillar"], required=True)
    p.add_argument("--full", action="store_true", help="print every ordering")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_permsearch)

    p = sub.add_parser("table1", help="bundled reference table with recomputed columns")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--csv", action="store_true")
    form.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout. Point it at devnull so the flush at
        # shutdown raises nothing, and exit as a shell does on SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
