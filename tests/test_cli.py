"""End-to-end tests for the command line interface.

Each test drives gosslift.cli.main and checks the printed text and exit
code exactly: in process, or in a fresh interpreter where a test needs
one (a timeout, or a clean sys.modules).
"""

import argparse
import errno
import hashlib
import io
import os
import subprocess
import sys

import pytest

import gosslift.cli as cli
import gosslift.demos as demos
from gosslift.cli import main
from gosslift.demos import DemoReport
from gosslift.extension import parse_extension_file
from gosslift.zeta import dirichlet_table, dump_table
from poly_helpers import dump_oracle

CFG_K = """
[field]
p=3
[extension]
name=K
poly=X^2 - T
[override]
prime=T
type=(2,1)
"""

CFG_L = """
[field]
p=3
[extension]
name=L
poly=X^2 - T - 1
[override]
prime=T + 1
type=(2,1)
"""

CFG_F = """
[field]
p=3
[extension]
name=F
poly=X - T
"""


CFG_F4 = """
[field]
p=2
m=2
[extension]
name=F4
poly=X - T
"""

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
CONFIGS = os.path.join(os.path.dirname(SRC), "configs")

# runs main in a fresh interpreter, then reports which of sympy (a test-only
# oracle), dataclasses and inspect (slow imports) got loaded
CHILD = ("import sys; from gosslift.cli import main; rc = main(sys.argv[1:]); "
         "[print(m, 'loaded:', m in sys.modules) "
         "for m in ('sympy', 'dataclasses', 'inspect')]; sys.exit(rc)")
NOTHING_LOADED = ["sympy loaded: False", "dataclasses loaded: False",
                  "inspect loaded: False"]


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_child(args, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_splitting_ramified(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    assert main(["splitting", "--ext", k, "--prime", "T"]) == 0
    assert capsys.readouterr().out == "T in K: (2,1)\n"


def test_splitting_inert(tmp_path, capsys):
    # T is not a square mod T+1, so T+1 stays inert in F_3(sqrt T)
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    assert main(["splitting", "--ext", k, "--prime", "T + 1"]) == 0
    assert capsys.readouterr().out == "T + 1 in K: (1,2)\n"


def test_table_stdout(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    assert main(["table", "--ext", k, "--max-degree", "1"]) == 0
    assert capsys.readouterr().out == (
        "# ext=K p=3 m=1 D=1\n"
        "1 1\n"
        "T 1\n"
        "T + 1 0\n"
        "T + 2 2\n"
    )


def test_table_dump_file(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    out = tmp_path / "k.tbl"
    assert main(["table", "--ext", k, "--max-degree", "1",
                 "--dump", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 4 entries to {out}\n"
    table = dirichlet_table(parse_extension_file(k), 1)
    assert out.read_bytes() == dump_oracle(table).encode("utf-8")
    assert main(["table", "--ext", k, "--max-degree", "1"]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")


def test_table_dump_to_an_unwritable_path_exits_3(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    bad = tmp_path / "no" / "such" / "dir.txt"
    assert main(["table", "--ext", k, "--max-degree", "1",
                 "--dump", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error[zeta]: cannot write table to {bad}:")
    assert "Traceback" not in captured.err


def test_zeta_weil(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    assert main(["zeta", "--kind", "weil", "--ext", k,
                 "--max-degree", "2"]) == 0
    assert capsys.readouterr().out == "1 + 3*u^1 + 9*u^2 + O(u^3)\n"


def test_zeta_goss(tmp_path, capsys):
    f = write_cfg(tmp_path, "F.cfg", CFG_F)
    assert main(["zeta", "--kind", "goss", "--ext", f, "--s", "1",
                 "--prec", "4", "--max-degree", "4"]) == 0
    assert capsys.readouterr().out == "1 + 2*T^-3 [prec 4]\n"


def test_zeta_goss_default_bound_too_small(tmp_path, capsys):
    # default --prec 12 needs table degrees past the default --max-degree 6
    f = write_cfg(tmp_path, "F.cfg", CFG_F)
    assert main(["zeta", "--kind", "goss", "--ext", f]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[zeta]:")
    assert "need 12" in err


def test_zeta_lifted_s0(tmp_path, capsys):
    f = write_cfg(tmp_path, "F.cfg", CFG_F)
    assert main(["zeta", "--kind", "lifted", "--ext", f, "--s", "0",
                 "--max-degree", "4"]) == 0
    assert capsys.readouterr().out == "(1; 1)\n"


def test_zeta_lifted_s1(tmp_path, capsys):
    f = write_cfg(tmp_path, "F.cfg", CFG_F)
    assert main(["zeta", "--kind", "lifted", "--ext", f, "--s", "1",
                 "--prec", "3", "--max-degree", "3"]) == 0
    assert capsys.readouterr().out == \
        "(1 + 2*T^-3 [prec 3]; 2*T^-3 [prec 3])\n"


def test_compare_weil_equal(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    l = write_cfg(tmp_path, "L.cfg", CFG_L)
    assert main(["compare", k, l, "--kind", "weil"]) == 0
    assert capsys.readouterr().out == "EQUAL bound=6\n"


def test_compare_goss_differs(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    l = write_cfg(tmp_path, "L.cfg", CFG_L)
    assert main(["compare", k, l, "--kind", "goss"]) == 0
    assert capsys.readouterr().out == "DIFFER n=T left=1 right=2\n"


def test_compare_lifted_differs(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    l = write_cfg(tmp_path, "L.cfg", CFG_L)
    assert main(["compare", k, l, "--kind", "lifted"]) == 0
    assert capsys.readouterr().out == "DIFFER n=T left=1 right=2\n"


def test_compare_refuses_different_fields_before_any_table(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("compare built a table")

    # the CLI calls the name it imported, so both are patched
    monkeypatch.setattr("gosslift.zeta.dirichlet_table", refuse)
    monkeypatch.setattr(cli, "dirichlet_table", refuse)
    assert main(["compare", "--kind", "goss", os.path.join(CONFIGS, "K_sqrt.cfg"),
                 os.path.join(CONFIGS, "as_f4.cfg"), "--max-degree", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[zeta]: cannot compare tables over different base fields\n"


def test_gassmann_klein4(capsys):
    assert main(["gassmann", "--builtin", "klein4"]) == 0
    out = capsys.readouterr().out
    assert "group V4 on 4 points, order 4" in out
    assert "GASSMANN: no" in out
    assert "CONJUGATE: no" in out


def test_gassmann_komatsu3(capsys):
    assert main(["gassmann", "--builtin", "komatsu3"]) == 0
    assert capsys.readouterr().out == (
        "group elem-abelian-27 and heisenberg-27 as regular subgroups"
        " of Sym(27)\n"
        "cycle types: identity x1, 3^9 x26 in both\n"
        "GASSMANN: yes\n"
        "CONJUGATE: no\n"
    )


def test_gassmann_psl27(capsys):
    assert main(["gassmann", "--builtin", "psl27"]) == 0
    out = capsys.readouterr().out
    assert "GASSMANN: yes" in out
    assert "CONJUGATE: no" in out


def test_gassmann_psl211(capsys):
    assert main(["gassmann", "--builtin", "psl211"]) == 0
    out = capsys.readouterr().out
    assert "group PSL(2,11) on 12 points, order 660; subgroups of order 60" in out
    assert "GASSMANN: yes" in out
    assert "CONJUGATE: no" in out


def test_gassmann_from_files(tmp_path, capsys):
    g = tmp_path / "s3.grp"
    g.write_text("n=3\nname=s3\ngen=(1 2)\ngen=(1 2 3)\n")
    h1 = tmp_path / "h1.grp"
    h1.write_text("gen=(1 2)\n")
    h2 = tmp_path / "h2.grp"
    h2.write_text("gen=(1 3)\n")
    assert main(["gassmann", "--group", str(g), "--h1", str(h1),
                 "--h2", str(h2)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("group s3 on 3 points, order 6")
    assert "GASSMANN: yes" in out
    assert "CONJUGATE: yes" in out


def test_gassmann_needs_arguments(capsys):
    assert main(["gassmann"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[gosslift]:")
    assert "--builtin" in err


def test_gassmann_files_need_all_three(tmp_path, capsys):
    g = tmp_path / "s3.grp"
    g.write_text("n=3\ngen=(1 2 3)\n")
    assert main(["gassmann", "--group", str(g)]) == 3
    assert capsys.readouterr().err.startswith("error[gosslift]:")


def test_demo_runs_and_is_deterministic(capsys):
    assert main(["demo", "reconstruct"]) == 0
    first = capsys.readouterr().out
    assert "PASS: K_sqrt: round trip at all 55 primes of degree <= 3" in first
    assert "FAIL" not in first
    assert main(["demo", "reconstruct"]) == 0
    assert capsys.readouterr().out == first


def test_demo_failure_exits_4(monkeypatch, capsys):
    def broken():
        r = DemoReport("forced failure")
        r.check("forced", False)
        return r

    monkeypatch.setitem(demos.DEMOS, "reconstruct", broken)
    assert main(["demo", "reconstruct"]) == 4
    assert "FAIL: forced" in capsys.readouterr().out


def test_missing_extension_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["splitting", "--ext", missing, "--prime", "T"]) == 3
    assert capsys.readouterr().err.startswith("error[extension]:")


def test_broken_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[field]\np = 3\n[extension]\nname=K\npoly=X - T\n")
    assert main(["splitting", "--ext", str(bad), "--prime", "T"]) == 3
    assert capsys.readouterr().err.startswith("error[extension]:")


def test_reducible_polynomial_exits_3(tmp_path, capsys):
    red = write_cfg(tmp_path, "R.cfg",
                    "[field]\np=3\n[extension]\nname=R\npoly=X^2 + X\n")
    assert main(["table", "--ext", red, "--max-degree", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[extension]:")
    assert "could not decide" in captured.err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--kind", "bogus", "--ext", "x.cfg"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["demo", "no_such_demo"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_zeta_negative_precision_exits_3(tmp_path, capsys):
    f = write_cfg(tmp_path, "F.cfg", CFG_F)
    for kind in ("goss", "lifted"):
        assert main(["zeta", "--kind", kind, "--ext", f, "--prec", "-3",
                     "--max-degree", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[zeta]:")


def test_group_file_with_non_integer_n_exits_3(tmp_path, capsys):
    g = tmp_path / "g.grp"
    g.write_text("n = x\ngen=(1 2 3)\n")
    h = tmp_path / "h.grp"
    h.write_text("gen=(1 2 3)\n")
    assert main(["gassmann", "--group", str(g), "--h1", str(h),
                 "--h2", str(h)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[group]:")
    assert "Traceback" not in err


def test_group_file_with_huge_n_exits_3(tmp_path):
    # a billion points must be refused before any permutation is built
    g = tmp_path / "g.grp"
    g.write_text("n = 1000000000\ngen=(1 2 3)\n")
    h = tmp_path / "h.grp"
    h.write_text("gen=(1 2 3)\n")
    res = run_child(["gassmann", "--group", str(g), "--h1", str(h),
                     "--h2", str(h)], timeout=10)
    assert res.returncode == 3
    assert res.stderr.startswith("error[group]:")
    assert "exceeds bound 1000" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("cfg,N", [(CFG_F, 3), (CFG_F4, 4)],
                         ids=["F3-N3", "F4-N4"])
def test_lifted_zeta_does_not_load_sympy(tmp_path, cfg, N):
    f = write_cfg(tmp_path, "F.cfg", cfg)
    res = run_child(["zeta", "--kind", "lifted", "--ext", f, "--s", "1",
                     "--prec", "3", "--max-degree", "3",
                     "--witt-len", str(N)])
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("(") and lines[0].count(";") == N - 1
    assert lines[1:] == NOTHING_LOADED


def test_gassmann_loads_no_dataclasses():
    res = run_child(["gassmann", "--builtin", "psl27"])
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "GASSMANN: yes" in lines
    assert lines[-3:] == NOTHING_LOADED


@pytest.mark.parametrize("field, ext, needle", [
    ("p=3", "builtin=artin_schreier:m=1,name=foo",
     "unknown artin_schreier parameters ['name']"),
    ("p=3", "builtin=artin_schreier:m=1,base=foo",
     "unknown artin_schreier parameters ['base']"),
    ("p=3", "builtin=artin_schreier:m=1,kind=foo",
     "unknown artin_schreier parameters ['kind']"),
    ("p=3", "builtin=artin_schreier:m=1,m=2", "builtin parameter 'm' given twice"),
    ("p=3", "builtin=artin_schreier:m=99999999",
     "artin_schreier needs 1 <= m <= 1000"),
    ("p=3 M=2", "poly=X - T", "unknown key 'M' in the [field] section"),
    ("p=3 p=5", "poly=X - T", "key 'p' given twice in the [field] section"),
    ("p=3", "poly=X - T poly=X + T", "key 'poly' given twice in the [extension] section"),
], ids=["name", "base", "kind", "repeated-m", "huge-m", "unknown-key",
        "repeated-p", "repeated-poly"])
def test_bad_config_keys_exit_3(tmp_path, field, ext, needle):
    """Each exits 3 with one error[extension] line: no traceback, and no
    table of another field or cover than the one written."""
    cfg = write_cfg(tmp_path, "bad.cfg",
                    f"[field]\n{field}\n[extension]\nname=K\n{ext}\n")
    res = run_child(["table", "--ext", cfg, "--max-degree", "1"], timeout=20)
    assert res.returncode == 3
    assert res.stdout.splitlines() == NOTHING_LOADED
    assert res.stderr == f"error[extension]: {needle}\n"


@pytest.mark.parametrize("field, c", [("p=5", "4"), ("p=5", "1"), ("p=7", "2"),
                                      ("p=3 m=2", "2"), ("p=3 m=2", "g")],
                         ids=["F5-4", "F5-1", "F7-2", "F9-2", "F9-g"])
def test_constant_square_radicand_exits_3(tmp_path, field, c):
    """X^2 - c with c a square in F_q is reducible: one error[extension]
    line and exit 3, not the table of two copies of the base."""
    cfg = write_cfg(tmp_path, "ks.cfg", f"[field]\n{field}\n[extension]\n"
                    f"name=KS\nbuiltin=kummer_sqrt:c={c}\n")
    res = run_child(["zeta", "--kind", "weil", "--ext", cfg, "--max-degree", "3"],
                    timeout=20)
    assert res.returncode == 3
    assert res.stdout.splitlines() == NOTHING_LOADED
    assert res.stderr == ("error[extension]: kummer_sqrt needs c that is not "
                          "a square in F_q\n")


def test_constant_nonsquare_radicand_is_the_constant_field_extension(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "ks.cfg",
                    "[field]\np=7\n[extension]\nname=KS\nbuiltin=kummer_sqrt:c=3\n")
    assert main(["zeta", "--kind", "weil", "--ext", cfg, "--max-degree", "2"]) == 0
    assert capsys.readouterr().out == "1 + 0*u^1 + 49*u^2 + O(u^3)\n"


@pytest.mark.parametrize("args", [["splitting", "--prime", "T + 1"],
                                  ["zeta", "--kind", "weil", "--max-degree", "4"]],
                         ids=["splitting", "weil"])
def test_override_off_the_discriminant_exits_3(tmp_path, args):
    """T + 1 does not divide the discriminant of X^2 - T, so its type is
    read off f mod T + 1: an override there is refused with one
    error[extension] line, not used in every table of the cover."""
    cfg = write_cfg(tmp_path, "bad3.cfg",
                    "[field]\np=3\nm=1\n[extension]\nname=bad3\n"
                    "builtin=kummer_sqrt:c=T\n"
                    "[override]\nprime=T + 1\ntype=(1,1),(1,1)\n")
    res = run_child([args[0], "--ext", cfg, *args[1:]], timeout=20)
    assert res.returncode == 3
    assert res.stdout.splitlines() == NOTHING_LOADED
    assert res.stderr == ("error[extension]: override at T + 1, which does not "
                          "divide the discriminant of bad3\n")


@pytest.mark.parametrize("text", ["x(2,1)(0", "(2,1)(1,1x)junk",
                                  "(1" + "1" * 5000 + ",1)"],
                         ids=["prefix", "suffix", "huge-entry"])
def test_malformed_splitting_type_exits_3(tmp_path, text):
    """A type with anything but (e,f) pairs in it exits 3 with one
    error[extension] line naming the text, not a type read from part of it."""
    cfg = write_cfg(tmp_path, "bad.cfg", CFG_K.replace("type=(2,1)", f"type={text}"))
    res = run_child(["table", "--ext", cfg, "--max-degree", "1"], timeout=20)
    assert res.returncode == 3
    assert res.stdout.splitlines() == NOTHING_LOADED
    assert res.stderr == f"error[extension]: cannot parse splitting type {text!r}\n"


def test_huge_characteristic_fails_fast(tmp_path):
    # p is prime, so it is the size bound that must reject it, before
    # any primality test by trial division
    cfg = write_cfg(tmp_path, "big.cfg",
                    "[field]\np=1000000000000000003\n"
                    "[extension]\nname=K\npoly=X - T\n")
    res = run_child(["table", "--ext", cfg], timeout=20)
    assert res.returncode == 3
    assert res.stderr.startswith("error[field]:")
    assert "exceeds bound 256" in res.stderr


@pytest.mark.parametrize("extra,needle", [
    (["--witt-len", "65"], "out of the supported range 1..64"),
    (["--witt-len", "1000000000"], "out of the supported range 1..64"),
    (["--witt-len", "0"], "out of the supported range 1..64"),
    (["--s", "-1"], "defined for s >= 0 only"),
    (["--s", "1", "--prec", "13"], "(need 13)"),
], ids=["length", "huge-length", "zero-length", "negative-s", "bound"])
def test_lifted_bad_arguments_fail_before_the_table(tmp_path, extra, needle):
    # a degree-12 table over F_3 takes tens of seconds to build, so these
    # must be rejected before it is
    f = write_cfg(tmp_path, "F.cfg", CFG_F)
    res = run_child(["zeta", "--kind", "lifted", "--ext", f,
                     "--max-degree", "12", *extra], timeout=10)
    assert res.returncode == 3
    assert res.stderr.startswith("error[witt]:")
    assert needle in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("kind,tag", [("goss", "zeta"), ("lifted", "witt")])
def test_huge_precision_at_large_s_exits_3(tmp_path, kind, tag):
    # s = prec = 10^9 needs only a degree-1 table, so the precision bound
    # is all that stops series of 10^9 coefficients
    f = write_cfg(tmp_path, "K.cfg", CFG_K)
    res = run_child(["zeta", "--kind", kind, "--ext", f, "--max-degree", "1",
                     "--s", "1000000000", "--prec", "1000000000"], timeout=10)
    assert res.returncode == 3
    assert res.stderr.startswith(f"error[{tag}]:")
    assert "precision 1000000000 is above 262144" in res.stderr
    assert "Traceback" not in res.stderr


def test_high_degree_prime_exits_3():
    # refused before Rabin's test, which alone would run for minutes
    res = run_child(["splitting", "--ext", os.path.join(CONFIGS, "K_sqrt.cfg"),
                     "--prime", "T^1000 + T + 2"], timeout=10)
    assert res.returncode == 3
    assert res.stderr.startswith("error[extension]:")
    assert "prime degree 1000 exceeds bound 200" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ["splitting", "--ext", "K.cfg", "--prime", "T^10000000000"],
    ["table", "--ext", "huge.cfg", "--max-degree", "1"],
], ids=["prime", "config"])
def test_huge_exponent_in_polynomial_text_exits_3(tmp_path, args):
    # refused by the parser before a list of that length is allocated
    write_cfg(tmp_path, "K.cfg", CFG_K)
    write_cfg(tmp_path, "huge.cfg", "[field]\np=3\n[extension]\nname=H\n"
                                    "poly=X^2 - T^5000000000\n")
    args = [str(tmp_path / a) if a.endswith(".cfg") else a for a in args]
    res = run_child(args, timeout=10)
    assert res.returncode == 3
    assert res.stderr.startswith("error[poly]:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("bound", ["40", "1000000000"])
def test_huge_table_bound_exits_3(tmp_path, bound):
    # refused before a list of (3^(D+1) - 1)/2 counts, or 3^(D+1) itself,
    # is made
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    res = run_child(["zeta", "--kind", "weil", "--ext", k,
                     "--max-degree", bound], timeout=10)
    assert res.returncode == 3
    assert res.stderr.startswith("error[zeta]:")
    assert "the largest with at most" in res.stderr


def test_goss_bound_fails_before_the_table(tmp_path):
    # a degree-12 table over F_3 takes tens of seconds to build
    f = write_cfg(tmp_path, "F.cfg", CFG_F)
    res = run_child(["zeta", "--kind", "goss", "--ext", f,
                     "--max-degree", "12", "--prec", "100"], timeout=10)
    assert res.returncode == 3
    assert res.stderr.startswith("error[zeta]:")
    assert "(need 100)" in res.stderr


@pytest.mark.parametrize("verb", [
    ["table", "--max-degree", "1"],
    ["zeta", "--kind", "weil", "--max-degree", "1"],
])
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, verb):
    def exhausted(ext, bound):
        raise MemoryError
    monkeypatch.setattr(cli, "dirichlet_table", exhausted)
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    assert main(verb[:1] + ["--ext", k] + verb[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[memory]: {verb[0]} ran out of memory\n"


def test_table_stdout_is_the_dump_text(tmp_path, capsys):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    assert main(["table", "--ext", k, "--max-degree", "5"]) == 0
    table = dirichlet_table(parse_extension_file(k), 5)
    assert capsys.readouterr().out == dump_table(table)


# one bad option per verb, with every required argument present, so that
# the top-level parser reports it under its own usage line
BAD_OPTIONS = [
    ["splitting", "--ext", "K.cfg", "--prime", "T", "--bogus"],
    ["table", "--ext", "K.cfg", "--bogus"],
    ["zeta", "--kind", "weil", "--ext", "K.cfg", "--bogus"],
    ["compare", "--kind", "weil", "A.cfg", "B.cfg", "--bogus"],
    ["gassmann", "--bogus"],
    ["demo", "genus", "--bogus"],
]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nosuch"],
    *([verb, "-h"] for verb in cli.VERBS),
    *BAD_OPTIONS,
], ids=lambda argv: " ".join(argv) or "no-verb")
def test_one_verb_parser_prints_what_the_full_parser_prints(argv, capsys):
    def outcome(parser):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    parser = cli._build_parser(argv)
    verbs, = (a.choices for a in parser._actions
              if isinstance(a, argparse._SubParsersAction))
    assert list(verbs) == (argv[:1] if argv and argv[0] in cli.VERBS
                           else list(cli.VERBS))
    assert outcome(parser) == outcome(cli._build_parser([]))


def test_one_verb_parser_parses_what_the_full_parser_parses():
    for argv in (["table", "--ext", "K.cfg", "--max-degree", "3"],
                 ["compare", "--kind", "goss", "A.cfg", "B.cfg"],
                 ["demo", "genus"]):
        assert (vars(cli._build_parser(argv).parse_args(argv))
                == vars(cli._build_parser([]).parse_args(argv)))


class FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_failed_write_returns_3_in_process(tmp_path, capsys, monkeypatch):
    k = write_cfg(tmp_path, "K.cfg", CFG_K)
    monkeypatch.setattr(sys, "stdout", FullStream())
    assert main(["zeta", "--kind", "weil", "--ext", k]) == 3
    assert capsys.readouterr().err == (
        "error[io]: zeta cannot write its output: No space left on device\n")


AS_CUBIC = os.path.join(CONFIGS, "as_cubic.cfg")
AS_CUBIC_D8 = ["table", "--ext", AS_CUBIC, "--max-degree", "8"]
AS_CUBIC_D8_SHA256 = ("687ffc4d0c573da1121ed9d579a396a89d0298690"
                      "8d54f1d70b628bdf2ba1493")


def run_module(args, stdout=subprocess.PIPE, code=None,
               stderr=subprocess.PIPE):
    """gosslift as `python -m gosslift.cli ARGS` (or `python -c CODE ARGS`):
    exit code, stdout bytes, stderr text ("" when stderr is not piped)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    head = ["-c", code] if code else ["-m", "gosslift.cli"]
    res = subprocess.run([sys.executable, *head, *args], env=env,
                         stdout=stdout, stderr=stderr, timeout=60)
    return res.returncode, res.stdout, (res.stderr or b"").decode()


def test_run_exits_0_with_every_byte_of_the_pinned_table():
    rc, out, err = run_module(AS_CUBIC_D8)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out).hexdigest() == AS_CUBIC_D8_SHA256


def test_run_writes_the_whole_dump_file(tmp_path):
    path = str(tmp_path / "as_cubic.txt")
    rc, out, err = run_module(AS_CUBIC_D8 + ["--dump", path])
    assert (rc, out, err) == (0, f"wrote 9841 entries to {path}\n".encode(), "")
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == AS_CUBIC_D8_SHA256


def test_run_exit_codes_2_3_and_4(tmp_path):
    rc, out, err = run_module(["zeta", "--kind", "bogus", "--ext", "K.cfg"])
    assert (rc, out) == (2, b"")
    assert err.startswith("usage: gosslift zeta")
    rc, out, err = run_module(["table", "--ext", str(tmp_path / "nope.cfg")])
    assert (rc, out) == (3, b"")
    assert err.startswith("error[extension]: cannot read extension config")
    assert err.count("\n") == 1
    # the demo is replaced by one that fails, then run() takes over
    broken = ("import sys, gosslift.cli as cli, gosslift.demos as demos; "
              "r = demos.DemoReport('forced failure'); r.check('forced', False); "
              "demos.DEMOS['reconstruct'] = lambda: r; "
              "sys.argv[1:] = ['demo', 'reconstruct']; cli.run()")
    rc, out, err = run_module([], code=broken)
    assert (rc, err) == (4, "")
    assert b"FAIL: forced" in out


# the table fails mid-stream, the short zeta line at the final flush
WRITERS = pytest.mark.parametrize("args,verb", [
    (AS_CUBIC_D8, "table"),
    (["zeta", "--kind", "weil", "--ext",
      os.path.join(CONFIGS, "K_sqrt.cfg")], "zeta"),
], ids=["table", "zeta"])


@WRITERS
def test_run_into_a_closed_pipe_exits_3_with_one_line(args, verb):
    r, w = os.pipe()
    os.close(r)
    try:
        rc, _, err = run_module(args, stdout=w)
    finally:
        os.close(w)
    assert rc == 3
    assert err == f"error[io]: {verb} cannot write its output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@WRITERS
def test_run_onto_a_full_disk_exits_3_with_one_line(args, verb):
    with open("/dev/full", "wb") as full:
        rc, _, err = run_module(args, stdout=full)
    assert rc == 3
    assert err == (f"error[io]: {verb} cannot write its output: "
                   "No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args,full_stdout", [
    (["table", "--ext", os.path.join(CONFIGS, "nosuch.cfg"),
      "--max-degree", "2"], False),
    # stdout fails at the final flush, then so does the error[io] line
    (["zeta", "--kind", "weil", "--ext",
      os.path.join(CONFIGS, "K_sqrt.cfg")], True),
], ids=["error", "io"])
def test_run_exits_3_when_the_error_line_cannot_be_written(args, full_stdout):
    with open("/dev/full", "wb") as full:
        stdout = full if full_stdout else subprocess.PIPE
        rc, out, _ = run_module(args, stdout=stdout, stderr=full)
    assert rc == 3
    assert out in (None, b"")
