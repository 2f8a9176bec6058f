"""Command-line interface.

Subcommands: ``analyze``, ``halfiso``, ``identity check|builtins``,
``generate``, ``papercheck``.  Loop arguments accept either a file path or a
builtin name (``example21_star``, ``c12``, ``c2xc3``, ...).  Exit codes:
0 success / all holds, 1 findings (counterexample or violation), 2 usage or
I/O errors.
"""
from __future__ import annotations

import os
import sys
import warnings

from . import catalog as cat
from . import papercheck
from .halfiso import audit_theorem41, classify, enumerate_half_isos
from .identities import (
    InverseUnavailable,
    builtin_library,
    builtin_macros,
    evaluate,
    macro_to_text,
    parse_identity_file,
    statement_to_text,
)
from .perms import automorphism_group, inn_group, is_automorphic, mlt_group
from .report import AnalysisReport, one_based
from .structure import co1_violation, co2_violation, theorem31_violation
from .table import (
    LoopError,
    LoopTable,
    aaip_violation,
    associativity_violation,
    commutativity_violation,
    flexibility_violation,
    is_uniquely_2_divisible,
    power_associativity_violation,
)


def load_loop(ref: str) -> LoopTable:
    """Resolve a loop argument: an existing file path wins over a builtin name."""
    if os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            return cat.parse_loop_file(fh.read())
    return cat.builtin_loop(ref)


def analyze_loop(L: LoopTable) -> AnalysisReport:
    report = AnalysisReport()
    name = L.name or "loop"
    report.add(
        "loop",
        loops=(name,),
        order=L.order,
        identity=L.identity + 1,
    )
    predicates = {
        "commutative": commutativity_violation(L),
        "associative": associativity_violation(L),
        "flexible": flexibility_violation(L),
        "aaip": aaip_violation(L),
        "power-associative": power_associativity_violation(L),
    }
    for pname, witness in predicates.items():
        report.add(
            "predicate",
            loops=(name,),
            witness=one_based(witness),
            anchor=pname,
            value=witness is None,
        )
    report.add("predicate", loops=(name,), anchor="uniquely-2-divisible",
               value=is_uniquely_2_divisible(L))
    report.add("predicate", loops=(name,), anchor="automorphic",
               value=is_automorphic(L))
    mlt = mlt_group(L)
    inn = inn_group(L)
    aut = automorphism_group(L)
    report.add("group-size", loops=(name,), anchor="mlt", size=mlt.order)
    report.add("group-size", loops=(name,), anchor="inn", size=inn.order)
    report.add("group-size", loops=(name,), anchor="aut", size=aut.order)
    for anchor, violation in (
        ("co1", co1_violation(L)),
        ("co2", co2_violation(L)),
        ("theorem31", theorem31_violation(L)),
    ):
        witness = None
        if violation is not None:
            witness = (violation[0] + 1, violation[1] + 1, violation[2])
        report.add("condition", loops=(name,), witness=witness, anchor=anchor,
                   value=violation is None)
    return report


def _cmd_analyze(args) -> tuple[AnalysisReport, int]:
    L = load_loop(args.loop)
    return analyze_loop(L), 0


def _cmd_halfiso(args) -> tuple[AnalysisReport, int]:
    Q = load_loop(args.source)
    R = load_loop(args.target)
    maps = enumerate_half_isos(Q, R)
    if args.audit:
        report = audit_theorem41(Q, R, maps)
        return report, 1 if report.has_findings else 0
    names = (Q.name or args.source, R.name or args.target)
    report = AnalysisReport()
    both_automorphic = is_automorphic(Q) and is_automorphic(R)
    count = 0
    for f in maps:
        count += 1
        if args.enumerate:
            report.add("halfiso-map", loops=names, witness=one_based(f.mapping))
            continue
        cls = classify(f)
        level = "info"
        if not cls.is_special and both_automorphic:
            level = "finding"
        report.add(
            "halfiso-classification",
            level=level,
            loops=names,
            witness=one_based(f.mapping),
            anchor="conjecture51" if level == "finding" else "",
            isomorphism=cls.is_isomorphism,
            anti_isomorphism=cls.is_anti_isomorphism,
            trivial=cls.trivial,
            special=cls.is_special,
            gg_triples=one_based(cls.gg_triples),
        )
    report.add("halfiso-count", loops=names, count=count)
    return report, 1 if report.has_findings else 0


def _cmd_identity(args) -> tuple[AnalysisReport, int]:
    report = AnalysisReport()
    if args.identity_command == "builtins":
        if args.format == "text":
            # raw corpus format, reusable as an identities file
            for macro in builtin_macros().values():
                print(macro_to_text(macro))
            for stmt in builtin_library():
                print(f"{stmt.name}: {statement_to_text(stmt)}")
            return report, 0
        for macro in builtin_macros().values():
            report.add("identity-macro", text=macro_to_text(macro))
        for stmt in builtin_library():
            report.add("identity-statement", anchor=stmt.name or "",
                       text=statement_to_text(stmt))
        return report, 0
    with open(args.ids, encoding="utf-8") as fh:
        statements = parse_identity_file(fh.read())
    L = load_loop(args.loop)
    name = L.name or args.loop
    failed = False
    for stmt in statements:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cx = evaluate(L, stmt)
        except InverseUnavailable as err:
            failed = True
            report.add(
                "evaluation-error",
                level="finding",
                loops=(name,),
                anchor=stmt.label(),
                error=str(err),
                text=statement_to_text(stmt),
            )
            continue
        if cx is None:
            report.add("identity-holds", loops=(name,), anchor=stmt.label(),
                       text=statement_to_text(stmt))
        else:
            failed = True
            report.add(
                "identity-counterexample",
                level="finding",
                loops=(name,),
                witness=tuple((v, x + 1) for v, x in cx.items()),
                anchor=stmt.label(),
                text=statement_to_text(stmt),
            )
    return report, 1 if failed else 0


def _cmd_generate(args) -> tuple[AnalysisReport, int]:
    report = AnalysisReport()
    entries = cat.generate_loops(args.order, tuple(args.filter))
    flags = [f.replace("-", "_") for f in cat.KNOWN_FILTERS]
    for entry in entries:
        report.add("loop-generated", loops=(entry.name,), order=entry.loop.order,
                   **{f: getattr(entry, f) for f in flags})
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for entry in entries:
            path = os.path.join(args.out, f"{entry.name}.loop")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(cat.write_loop_file(entry.loop))
        report.add("loops-written", directory=args.out, count=len(entries))
    report.add("generation-summary", order=args.order,
               filters=list(args.filter), count=len(entries))
    return report, 0


def _cmd_papercheck(args) -> tuple[AnalysisReport, int]:
    ctx = papercheck.build_context(max_order=args.max_order, seed=args.seed)
    report = AnalysisReport()
    all_passed = True
    for result in papercheck.run_all(ctx):
        all_passed &= result.passed
        for rec in result.report.records:
            if rec.level != "info":
                report.records.append(rec)
        report.add(
            "criterion",
            level="info" if result.passed else "finding",
            anchor=f"criterion-{result.number}",
            number=result.number,
            title=result.title,
            passed=result.passed,
        )
    return report, 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    # Imported here: `analyze_loop` and the other entry points that library
    # code calls never parse a command line, so importing this module
    # should not pay for argparse.
    import argparse

    parser = argparse.ArgumentParser(
        prog="loopcheck",
        description="Finite loop engine: analysis, identity checking, and "
        "half-isomorphism classification on small Cayley tables.",
    )
    parser.add_argument("--format", choices=("text", "json-lines"),
                        default="text", help="report rendering")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of papercheck's sampled relabelings (criterion 9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report for one loop")
    p.add_argument("loop", help="loop file or builtin name")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("halfiso", help="enumerate/classify/audit half-isomorphisms")
    p.add_argument("source")
    p.add_argument("target")
    task = p.add_mutually_exclusive_group()
    task.add_argument("--enumerate", action="store_true")
    task.add_argument("--audit", action="store_true")
    p.set_defaults(fn=_cmd_halfiso)

    p = sub.add_parser("identity", help="identity DSL commands")
    ids = p.add_subparsers(dest="identity_command", required=True)
    chk = ids.add_parser("check", help="evaluate an identities file on a loop")
    chk.add_argument("ids")
    chk.add_argument("loop")
    ids.add_parser("builtins", help="print the builtin statement corpus")
    p.set_defaults(fn=_cmd_identity)

    p = sub.add_parser("generate", help="generate small loops up to isomorphism")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--filter", action="append", default=[],
                   choices=cat.KNOWN_FILTERS)
    p.add_argument("--out", help="write loop files into this directory")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("papercheck", help="run the full acceptance suite")
    p.add_argument("--max-order", type=int, default=6)
    p.set_defaults(fn=_cmd_papercheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.fn(args)
        rendered = report.render(args.format)
        if rendered:
            print(rendered)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does.  Point stdout at
        # the null device, so that the flush at exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except (LoopError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
