"""Command-line interface.

Verbs: splitting, table, zeta, compare, gassmann, demo.  Exit codes:
0 success (comparison verdicts are data, not errors), 2 usage error,
3 data or validation error, a request that ran out of memory, or output
that could not be written, 4 failed demo assertion.

Each verb is one row of VERBS, which _parse reads argv against: `--opt
value` or `--opt=value` in any order among the positionals, negative
integers as values, the last of a repeated option, and no abbreviations.
-h/--help prints the verb's usage and raises SystemExit(0); a usage error
prints a usage line and an error line to stderr and raises SystemExit(2).
A handler imports only what it calls, and returns its exit code (None
for 0).

main(argv) runs one request in process and returns its exit code.  run()
is the program's entry point (`gosslift` and `python -m gosslift.cli`): it
calls main, flushes, and ends the process without interpreter teardown.
"""

import os
import sys

from .errors import GossliftError, ZetaError


def _cmd_splitting(ext, prime):
    from .extension import parse_extension_file, splitting_type
    from .textforms import format_tpoly, parse_monic
    spec = parse_extension_file(ext)
    p = parse_monic(spec.field, prime)
    st = splitting_type(spec, p)
    print(f"{format_tpoly(spec.field, p)} in {spec.name}: {st}")


def _cmd_table(ext, max_degree, dump):
    from .extension import parse_extension_file
    from .zeta import dirichlet_table, dump_blocks
    table = dirichlet_table(parse_extension_file(ext), max_degree)
    if dump:
        try:
            with open(dump, "w", encoding="utf-8") as fh:
                fh.writelines(dump_blocks(table))
        except OSError as e:
            raise ZetaError(f"cannot write table to {dump}: {e}") from None
        print(f"wrote {len(table.counts)} entries to {dump}")
    else:
        sys.stdout.writelines(dump_blocks(table))


def _cmd_zeta(kind, ext, max_degree, s, prec, witt_len):
    from . import witt, zeta
    from .extension import parse_extension_file
    if kind != "weil" and prec < 0:
        raise ZetaError(f"--prec {prec} must be nonnegative")
    spec = parse_extension_file(ext)
    # fail before building the table; a negative bound is the table's own
    # error
    if kind == "lifted" and max_degree >= 0:
        witt.check_lifted_args(max_degree, s, prec, witt_len)
    elif kind == "goss" and max_degree >= 0:
        witt.check_args(max_degree, s, prec, ZetaError)
    table = zeta.dirichlet_table(spec, max_degree)
    if kind == "weil":
        print(zeta.weil_series(table))
    elif kind == "goss":
        print(zeta.goss_eval(table, s, prec))
    else:
        value = witt.lifted_goss_eval(table, s, prec, witt_len)
        ops = (witt.FieldOps(table.field) if s == 0
               else witt.LaurentOps(table.field, prec))
        print(witt.witt_text(ops, value))


def _cmd_compare(kind, cfg_a, cfg_b, max_degree):
    from .extension import parse_extension_file
    from .zeta import check_same_field, compare_zeta, dirichlet_table
    ext_a = parse_extension_file(cfg_a)
    ext_b = parse_extension_file(cfg_b)
    check_same_field(ext_a.field, ext_b.field)
    table_a = dirichlet_table(ext_a, max_degree)
    table_b = dirichlet_table(ext_b, max_degree)
    verdict = compare_zeta(table_a, table_b, kind)
    print(verdict.text())


def _cmd_gassmann(builtin, group, h1, h2):
    from . import gassmann as gm
    if builtin == "komatsu3":
        ab, heis = gm.cayley_komatsu(3)
        ok, stats_ab, _ = gm.gassmann_by_cycle_type(ab, heis)
        lines = [
            f"group {ab.name} and {heis.name} as regular subgroups of Sym(27)",
            f"cycle types: identity x1, 3^9 x{stats_ab[(3,) * 9]} in both",
            f"GASSMANN: {'yes' if ok else 'no'}",
            f"CONJUGATE: {'no' if ab.is_abelian() != heis.is_abelian() else '?'}",
        ]
        print("\n".join(lines))
    elif builtin:
        pair = {"psl27": gm.psl27_pair, "psl211": gm.psl211_pair,
                "klein4": gm.klein4_pair}[builtin]
        print(gm.gassmann_check(*pair()).text())
    elif group and h1 and h2:
        G = gm.parse_group_file(group)
        H1 = gm.parse_group_file(h1, n=G.n)
        H2 = gm.parse_group_file(h2, n=G.n)
        print(gm.gassmann_check(G, H1, H2).text())
    else:
        raise GossliftError(
            "gassmann needs --builtin NAME, or --group, --h1 and --h2 files")


def _cmd_demo(name):
    from .demos import run_demo
    report = run_demo(name)
    print(report.text())
    return 0 if report.ok else 4


def _demos():
    from .demos import DEMOS
    return DEMOS


# verb: (help line, handler, arguments).  An argument is (name, kind,
# metavar, default, required), an option if its name starts with --.  A
# kind is int, str, a tuple of choices, or a function that returns them as
# a dict of functions, whose first doc lines help lists.  The handler takes
# each name as a keyword: --max-degree as max_degree.
KIND = ("--kind", ("weil", "goss", "lifted"), None, None, True)
EXT = ("--ext", str, "FILE", None, True)
MAX_DEGREE = ("--max-degree", int, "D", 6, False)
VERBS = {
    "splitting": ("splitting type of one prime", _cmd_splitting,
                  (EXT, ("--prime", str, "P", None, True))),
    "table": ("ideal-count table B(n)", _cmd_table,
              (EXT, MAX_DEGREE, ("--dump", str, "PATH", None, False))),
    "zeta": ("weil, goss, or lifted zeta values", _cmd_zeta,
             (KIND, EXT, MAX_DEGREE, ("--s", int, "J", 1, False),
              ("--prec", int, "M", 12, False),
              ("--witt-len", int, "N", 2, False))),
    "compare": ("compare two extensions' zeta data", _cmd_compare,
                (KIND, ("cfg_a", str, "A.cfg", None, True),
                 ("cfg_b", str, "B.cfg", None, True), MAX_DEGREE)),
    "gassmann": ("Gassmann equivalence reports", _cmd_gassmann,
                 (("--builtin", ("psl27", "psl211", "klein4", "komatsu3"),
                   None, None, False), ("--group", str, "FILE", None, False),
                  ("--h1", str, "FILE", None, False),
                  ("--h2", str, "FILE", None, False))),
    "demo": ("run a scripted scenario: one PASS or FAIL line per check, "
             "exit 4 if any check fails", _cmd_demo,
             (("name", _demos, "NAME", None, True),)),
}


def _name(arg):
    """arg as usage and errors name it: --s, or a positional's metavar."""
    return arg[0] if arg[0][:2] == "--" else arg[2]


def _usage(verb):
    """The usage line: every argument of verb, as --s J, A.cfg or
    --kind {weil,goss,lifted}, optional ones in brackets."""
    if verb is None:
        return "usage: gosslift {" + ",".join(VERBS) + "} ..."
    words = ["usage: gosslift", verb, "[-h]"]
    for arg in VERBS[verb][2]:
        metavar = arg[2] or "{" + ",".join(arg[1]) + "}"
        shown = f"{arg[0]} {metavar}" if arg[0][:2] == "--" else metavar
        words.append(shown if arg[4] else f"[{shown}]")
    return " ".join(words)


def _help(verb):
    """The usage line and what the verb does, with the choices a function
    gives; the top level lists the verbs."""
    if verb is None:
        return "\n".join([_usage(None), "", "verbs (`gosslift VERB -h` "
                          "for one):"] + [f"  {name:<11} {row[0]}"
                                          for name, row in VERBS.items()])
    text, _, args = VERBS[verb]
    lines = [_usage(verb), "", text]
    for arg in args:
        if not isinstance(arg[1], (tuple, type)):
            lines += [f"  {name:<12} " + (fn.__doc__ or "").partition("\n")[0]
                      for name, fn in sorted(arg[1]().items())]
    return "\n".join(lines)


def _usage_error(verb, message):
    """Print the usage line and one error line to stderr, then exit 2."""
    prog = "gosslift" if verb is None else f"gosslift {verb}"
    raise SystemExit(_say(sys.stderr, f"{_usage(verb)}\n{prog}: error: "
                                      f"{message}", 2))


def _is_flag(word):
    """An option name, not a value: -2 and - are values."""
    return word[:1] == "-" and len(word) > 1 and not word[1:].isdecimal()


def _value(verb, arg, text):
    """text read as arg's kind, else a usage error."""
    kind, name = arg[1], _name(arg)
    if kind is str:
        return text
    if kind is int:
        try:
            return int(text)
        except ValueError:
            _usage_error(verb, f"argument {name}: invalid int value: {text!r}")
    choices = kind if isinstance(kind, tuple) else sorted(kind())
    if text not in choices:
        _usage_error(verb, f"argument {name}: invalid choice: {text!r} "
                           f"(choose from {', '.join(map(repr, choices))})")
    return text


def _parse(argv):
    """(verb, handler, keyword arguments) of argv, read against its verb's
    row of VERBS."""
    if argv[:1] in (["-h"], ["--help"]):
        raise SystemExit(_say(sys.stdout, _help(None), 0))
    if not argv:
        _usage_error(None, "the following arguments are required: verb")
    verb = _value(None, ("verb", tuple(VERBS), "verb", None, True), argv[0])
    words = iter(argv[1:])
    _, handler, args = VERBS[verb]
    options = {arg[0]: arg for arg in args if arg[0][:2] == "--"}
    positionals = [arg for arg in args if arg[0] not in options]
    values = {arg[0]: arg[3] for arg in args}
    for word in words:
        if word in ("-h", "--help"):
            raise SystemExit(_say(sys.stdout, _help(verb), 0))
        flag, eq, text = word.partition("=")
        if not _is_flag(word) and positionals:
            arg, text = positionals.pop(0), word
        elif flag in options:
            arg = options[flag]
            if not eq:
                text = next(words, None)
                if text is None or _is_flag(text):
                    _usage_error(verb, f"argument {flag}: expected one "
                                       "argument")
        else:
            _usage_error(verb, f"unrecognized argument: {word}")
        values[arg[0]] = _value(verb, arg, text)
    missing = [_name(arg) for arg in args
               if arg[4] and values[arg[0]] is None]
    if missing:
        _usage_error(verb, "the following arguments are required: "
                           + ", ".join(missing))
    return verb, handler, {name.lstrip("-").replace("-", "_"): value
                           for name, value in values.items()}


def main(argv=None):
    """Run one request and return its exit code.  Never exits, except that
    usage errors and --help raise SystemExit (codes 2 and 0)."""
    if argv is None:
        argv = sys.argv[1:]
    verb, handler, values = _parse(argv)
    try:
        code = handler(**values) or 0
        if sys.stdout is not None:  # None when the process has no fd 1
            sys.stdout.flush()
        return code
    except GossliftError as exc:
        return _say(sys.stderr, f"error[{exc.tag}]: {exc}", 3)
    except MemoryError:
        # the request's own objects are gone by now, so printing works
        return _say(sys.stderr, f"error[memory]: {verb} ran out of memory", 3)
    except OSError as exc:
        # the verbs turn every OSError of a file they read, or of the
        # --dump file, into a GossliftError: this one is a write to stdout,
        # mid-stream or in the flush above
        return _say(sys.stderr, f"error[io]: {verb} cannot write its output: "
                                f"{exc.strerror or exc}", 3)


def _say(stream, text, code):
    """Print text to stream and return the exit code.  A stream that is
    None or cannot be written loses the text, not the code."""
    if stream is not None:
        try:
            print(text, file=stream)
        except OSError:
            pass
    return code


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
