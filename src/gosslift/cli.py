"""Command-line interface.

Verbs: splitting, table, zeta, compare, gassmann, demo.  Exit codes:
0 success (comparison verdicts are data, not errors), 2 usage error,
3 data or validation error, a request that ran out of memory, or output
that could not be written, 4 failed demo assertion.

main(argv) runs one request in process and returns its exit code.  run()
is the program's entry point (`gosslift` and `python -m gosslift.cli`): it
calls main, flushes, and ends the process without interpreter teardown.
"""

from __future__ import annotations

import argparse
import os
import sys

from .demos import DEMOS, run_demo
from .errors import GossliftError, ZetaError
from .extension import parse_extension_file, splitting_type
from .gassmann import (cayley_komatsu, gassmann_by_cycle_type,
                       gassmann_check, klein4_pair, parse_group_file,
                       psl27_pair, psl211_pair)
from .textforms import format_tpoly, parse_monic
from .witt import (FieldOps, LaurentOps, check_args, check_lifted_args,
                   lifted_goss_eval, witt_text)
from .zeta import (check_same_field, compare_zeta, dirichlet_table,
                   dump_blocks, goss_eval, weil_series)


def _cmd_splitting(args):
    ext = parse_extension_file(args.ext)
    prime = parse_monic(ext.field, args.prime)
    st = splitting_type(ext, prime)
    print(f"{format_tpoly(ext.field, prime)} in {ext.name}: {st}")
    return 0


def _cmd_table(args):
    ext = parse_extension_file(args.ext)
    table = dirichlet_table(ext, args.max_degree)
    if args.dump:
        try:
            with open(args.dump, "w", encoding="utf-8") as fh:
                fh.writelines(dump_blocks(table))
        except OSError as e:
            raise ZetaError(f"cannot write table to {args.dump}: {e}") from None
        print(f"wrote {len(table.counts)} entries to {args.dump}")
    else:
        sys.stdout.writelines(dump_blocks(table))
    return 0


def _cmd_zeta(args):
    if args.kind != "weil" and args.prec < 0:
        raise ZetaError(f"--prec {args.prec} must be nonnegative")
    ext = parse_extension_file(args.ext)
    # fail before building the table; a negative bound is the table's own
    # error
    if args.kind == "lifted" and args.max_degree >= 0:
        check_lifted_args(args.max_degree, args.s, args.prec, args.witt_len)
    elif args.kind == "goss" and args.max_degree >= 0:
        check_args(args.max_degree, args.s, args.prec, ZetaError)
    table = dirichlet_table(ext, args.max_degree)
    if args.kind == "weil":
        print(weil_series(table))
    elif args.kind == "goss":
        print(goss_eval(table, args.s, args.prec))
    else:
        value = lifted_goss_eval(table, args.s, args.prec, args.witt_len)
        ops = (FieldOps(table.field) if args.s == 0
               else LaurentOps(table.field, args.prec))
        print(witt_text(ops, value))
    return 0


def _cmd_compare(args):
    ext_a = parse_extension_file(args.cfg_a)
    ext_b = parse_extension_file(args.cfg_b)
    check_same_field(ext_a.field, ext_b.field)
    table_a = dirichlet_table(ext_a, args.max_degree)
    table_b = dirichlet_table(ext_b, args.max_degree)
    verdict = compare_zeta(table_a, table_b, args.kind)
    print(verdict.text())
    return 0


_PAIRS = {"psl27": psl27_pair, "psl211": psl211_pair, "klein4": klein4_pair}


def _komatsu_text():
    ab, heis = cayley_komatsu(3)
    ok, stats_ab, _ = gassmann_by_cycle_type(ab, heis)
    lines = [
        f"group {ab.name} and {heis.name} as regular subgroups of Sym(27)",
        f"cycle types: identity x1, 3^9 x{stats_ab[(3,) * 9]} in both",
        f"GASSMANN: {'yes' if ok else 'no'}",
        f"CONJUGATE: {'no' if ab.is_abelian() != heis.is_abelian() else '?'}",
    ]
    return "\n".join(lines)


def _cmd_gassmann(args):
    if args.builtin == "komatsu3":
        print(_komatsu_text())
        return 0
    if args.builtin:
        print(gassmann_check(*_PAIRS[args.builtin]()).text())
        return 0
    if not (args.group and args.h1 and args.h2):
        raise GossliftError(
            "gassmann needs --builtin NAME, or --group, --h1 and --h2 files")
    G = parse_group_file(args.group)
    h1 = parse_group_file(args.h1, n=G.n)
    h2 = parse_group_file(args.h2, n=G.n)
    print(gassmann_check(G, h1, h2).text())
    return 0


def _cmd_demo(args):
    report = run_demo(args.name)
    print(report.text())
    return 0 if report.ok else 4


VERBS = ("splitting", "table", "zeta", "compare", "gassmann", "demo")


def _build_parser(argv):
    """The parser for argv: only its verb's subparser when argv starts with
    a verb, all six otherwise (no verb, an unknown one, or -h)."""
    parser = argparse.ArgumentParser(
        prog="gosslift",
        description="splitting types, ideal-count tables, and zeta "
                    "functions for extensions of F_q(T)")
    if argv and argv[0] in VERBS:
        verbs = argv[:1]
        # the top-level usage line, which errors such as "unrecognized
        # arguments" print, then still lists every verb
        metavar = "{" + ",".join(VERBS) + "}"
    else:
        verbs, metavar = VERBS, None
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)

    if "splitting" in verbs:
        p = sub.add_parser("splitting", help="splitting type of one prime")
        p.add_argument("--ext", required=True, metavar="FILE")
        p.add_argument("--prime", required=True, metavar="P")
        p.set_defaults(func=_cmd_splitting)

    if "table" in verbs:
        p = sub.add_parser("table", help="ideal-count table B(n)")
        p.add_argument("--ext", required=True, metavar="FILE")
        p.add_argument("--max-degree", type=int, default=6, metavar="D")
        p.add_argument("--dump", metavar="PATH")
        p.set_defaults(func=_cmd_table)

    if "zeta" in verbs:
        p = sub.add_parser("zeta", help="weil, goss, or lifted zeta values")
        p.add_argument("--kind", required=True,
                       choices=("weil", "goss", "lifted"))
        p.add_argument("--ext", required=True, metavar="FILE")
        p.add_argument("--max-degree", type=int, default=6, metavar="D")
        p.add_argument("--s", type=int, default=1, metavar="J")
        p.add_argument("--prec", type=int, default=12, metavar="M")
        p.add_argument("--witt-len", type=int, default=2, metavar="N")
        p.set_defaults(func=_cmd_zeta)

    if "compare" in verbs:
        p = sub.add_parser("compare", help="compare two extensions' zeta data")
        p.add_argument("--kind", required=True,
                       choices=("weil", "goss", "lifted"))
        p.add_argument("cfg_a", metavar="A.cfg")
        p.add_argument("cfg_b", metavar="B.cfg")
        p.add_argument("--max-degree", type=int, default=6, metavar="D")
        p.set_defaults(func=_cmd_compare)

    if "gassmann" in verbs:
        p = sub.add_parser("gassmann", help="Gassmann equivalence reports")
        p.add_argument("--builtin",
                       choices=("psl27", "psl211", "klein4", "komatsu3"))
        p.add_argument("--group", metavar="FILE")
        p.add_argument("--h1", metavar="FILE")
        p.add_argument("--h2", metavar="FILE")
        p.set_defaults(func=_cmd_gassmann)

    if "demo" in verbs:
        stories = [f"  {name:<12} " + (fn.__doc__ or "").partition("\n")[0]
                   for name, fn in sorted(DEMOS.items())]
        p = sub.add_parser(
            "demo", help="run a scripted scenario",
            formatter_class=argparse.RawDescriptionHelpFormatter,
            description="Run a scripted scenario. It prints one PASS or FAIL "
                        "line per check\nand exits 4 if any check fails.\n\n"
                        + "\n".join(stories))
        p.add_argument("name", choices=sorted(DEMOS))
        p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None):
    """Run one request and return its exit code.  Never exits, except that
    usage errors and --help raise argparse's SystemExit."""
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the process has no fd 1
            sys.stdout.flush()
        return code
    except GossliftError as exc:
        return _error(f"error[{exc.tag}]: {exc}")
    except MemoryError:
        # the request's own objects are gone by now, so printing works
        return _error(f"error[memory]: {args.verb} ran out of memory")
    except OSError as exc:
        # the verbs turn every OSError of a file they read, or of the
        # --dump file, into a GossliftError: this one is a write to stdout,
        # mid-stream or in the flush above
        return _error(f"error[io]: {args.verb} cannot write its output: "
                      f"{exc.strerror or exc}")


def _error(line):
    """Print one error line to stderr and return exit code 3.  A stderr
    that cannot be written loses the line, not the code."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass
    return 3


def run():
    """Entry point: main() on sys.argv, then os._exit with its code.

    os._exit skips interpreter finalization (10-16 ms a request with
    Python 3.11 on 2 vCPUs), which would only flush the standard streams
    and free memory: in this package
    nothing registers an atexit handler, nothing starts a thread or makes a
    temporary file, and every file is opened in a with block that closes
    it before main returns (the --dump file included).  So the streams are
    flushed here.  main has flushed stdout and reported a failed write with
    one error[io] line; a flush that fails here meets only the unwritten
    rest of that output.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                code = code or 3
    os._exit(code)


if __name__ == "__main__":
    run()
