"""Seeded inputs and the fixed request list of each benchmark workload.

A request is one fresh child process.  Most are `gosslift` CLI calls; the
PSL(2,11) probes have no CLI verb and run through `pipeline.py probe`.  The
program under test sees nothing but the generated config and group files.

The seed changes the inputs but not the work.  Each extension is a fixed
Artin-Schreier cover X^p - X - T^m (m coprime to p) or Kummer cover
X^2 - c (c squarefree of fixed degree) pulled back along a seeded change
of variable T -> b*T + a over F_p, which permutes the monic polynomials of
each degree: every table holds the same counts at renamed moduli, so the
splitting, expansion and zeta work per pass is the same for every seed
while every output differs.  (Drawing m or c at random instead changes
how many table entries vanish mod p^N, and with it the lifted and mod-p
evaluation cost.)  Groups get a seeded relabeling of their points.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

DEFAULT_SEED = 1

# Why each workload exists; BENCHMARK.json and README.md say the same.
WHY = {
    "tables-deep": "F_3 tables at D=8 (D=9 probe traced): residue-field splitting of high-degree primes dominates",
    "tables-wide": "many low-degree primes over F_4, F_16, F_5, F_7: per-prime fixed cost and field arithmetic dominate",
    "lifted": "Witt-lifted zeta values: sympy import, Witt structure derivation and Witt/Laurent evaluation dominate",
    "gassmann": "Gassmann verdicts and PSL(2,11) subgroup searches (order-60 probe traced): no field or table work",
}


@dataclass
class Request:
    """One child process: a CLI argv, or a verb only pipeline.py has (`probe`)."""

    rid: str
    argv: list
    checks: tuple = ()          # oracle tags, see oracles.py
    no_cli: bool = False        # no CLI verb: run `pipeline.py` even untraced
    timed: bool = True          # False: a slow probe run only by --trace 1
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    files: dict                 # file name -> text, written to the work dir
    warmup: Request
    requests: list              # timed requests first, then the probes

    @property
    def timed(self):
        return [r for r in self.requests if r.timed]


# --- small exact helpers, independent of the package under test ---


def _poly_text(coeffs):
    """Polynomial in T over F_p in the package's grammar, from coefficients
    constant first; zero coefficients are left out."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("T" if k == 1 else f"T^{k}")
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{c}*{mono}")
    return " + ".join(terms)


def affine(rng, p):
    """A seeded change of variable T -> b*T + a with b != 0 in F_p."""
    return rng.randrange(1, p), rng.randrange(p)


def substitute(coeffs, b, a, p):
    """c(b*T + a) mod p, coefficients constant first."""
    out = [0] * len(coeffs)
    power = [1]                                   # (b*T + a)^i
    for c in coeffs:
        for k, v in enumerate(power):
            out[k] = (out[k] + c * v) % p
        power = [(a * hi + b * lo) % p for hi, lo in zip(power + [0], [0] + power)]
    return out


def _config(name, p, m, ext_line):
    return (f"[field]\np={p}\nm={m}\n[extension]\nname={name}\n"
            f"{ext_line}\n")


def config_field(text):
    """(p, m) of the base field F_{p^m} of a config written by _config."""
    return tuple(int(re.search(rf"^{key}=(\d+)$", text, re.M).group(1))
                 for key in ("p", "m"))


def as_config(name, p, m, exponent, ba):
    """X^p - X - (b*T + a)^exponent over F_{p^m}."""
    f = substitute([0] * exponent + [1], *ba, p)
    x_part = "X^2 + X" if p == 2 else f"X^{p} + {p - 1}*X"
    return _config(name, p, m, f"poly={x_part} + "
                   + _poly_text([(-c) % p for c in f]))


def kummer_config(name, p, c, ba):
    """X^2 - c(b*T + a) over F_p, through the kummer_sqrt builtin, which
    supplies the ramified types at the factors of the radicand."""
    return _config(name, p, 1, "builtin=kummer_sqrt:c="
                   + _poly_text(substitute(c, *ba, p)))


# --- permutation groups and relabelings ---


def psl2_generators(ell):
    """x -> x + 1 and x -> -1/x on the projective line over F_ell.

    Points 0..ell-1 are the field elements and ell is infinity.
    """
    shift = [(i + 1) % ell for i in range(ell)] + [ell]
    flip = [0] * (ell + 1)
    flip[0], flip[ell] = ell, 0
    for x in range(1, ell):
        flip[x] = (-pow(x, ell - 2, ell)) % ell
    return [shift, flip]


def parse_cycles(text, n):
    """1-based cycle text as a 0-based image list."""
    img = list(range(n))
    for body in reversed(text.strip("()").split(")(")):
        pts = [int(t) - 1 for t in body.split()]
        step = list(range(n))
        for i, x in enumerate(pts):
            step[x] = pts[(i + 1) % len(pts)]
        img = [step[img[i]] for i in range(n)]
    return img


def cycles_text(img):
    seen = [False] * len(img)
    parts = []
    for i in range(len(img)):
        if seen[i] or img[i] == i:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j + 1))
            j = img[j]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "()"


def relabel(img, sigma):
    """sigma g sigma^-1: the same permutation with point i renamed sigma[i]."""
    out = [0] * len(img)
    for i, j in enumerate(img):
        out[sigma[i]] = sigma[j]
    return out


def group_text(name, n, gens, sigma, with_n=True):
    lines = [f"n = {n}"] if with_n else []
    lines.append(f"name = {name}")
    lines += [f"gen = {cycles_text(relabel(g, sigma))}" for g in gens]
    return "\n".join(lines) + "\n"


# The two classes of order-24 subgroups (octahedral groups) of PSL(2,7) on
# the projective line, 1-based, point 8 = infinity.
PSL27_S4_GENS = (
    ("(3 7 8)(4 6 5)", "(1 4 8 5)(2 7 6 3)"),
    ("(3 7 8)(4 6 5)", "(1 3)(2 6)(4 8)(5 7)"),
)


# --- workloads ---


def _rng(name, seed):
    return random.Random(f"gosslift-bench:{name}:{seed}")


def tables_deep(seed):
    ba = affine(_rng("tables-deep", seed), 3)
    files = {
        "as_a.cfg": as_config("AS_a", 3, 1, 5, ba),
        "as_b.cfg": as_config("AS_b", 3, 1, 7, ba),
        "ks.cfg": kummer_config("KS", 3, [1, 2, 0, 1], ba),
    }
    reqs = [
        Request("table-as-D8", ["table", "--ext", "as_a.cfg", "--max-degree", "8"],
                ("table_count", "exit0"), params={"q": 3, "D": 8}),
        Request("table-ks-D8", ["table", "--ext", "ks.cfg", "--max-degree", "8"],
                ("table_count", "exit0"), params={"q": 3, "D": 8}),
        Request("weil-as-D8", ["zeta", "--kind", "weil", "--ext", "as_a.cfg",
                               "--max-degree", "8"],
                ("weil_blocks", "exit0"), params={"table": "table-as-D8"}),
        Request("compare-goss-D7", ["compare", "--kind", "goss", "as_a.cfg",
                                    "as_b.cfg", "--max-degree", "7"],
                ("verdict", "exit0")),
        # probes: the 29,524-entry table and a demo with two D=8 tables
        Request("table-as-D9", ["table", "--ext", "as_a.cfg", "--max-degree", "9"],
                ("table_count", "exit0"), params={"q": 3, "D": 9}, timed=False),
        Request("demo-genus", ["demo", "genus"], ("demo",), timed=False),
    ]
    warm = Request("warmup", ["zeta", "--kind", "weil", "--ext", "as_a.cfg",
                              "--max-degree", "5"], ("exit0",))
    return Workload("tables-deep", seed, files, warm, reqs)


def tables_wide(seed):
    rng = _rng("tables-wide", seed)
    files = {
        "as_f4.cfg": as_config("AS_F4", 2, 2, 3, affine(rng, 2)),
        "as_f16.cfg": as_config("AS_F16", 2, 4, 3, affine(rng, 2)),
        "ks_f5.cfg": kummer_config("KS_F5", 5, [1, 1, 0, 1], affine(rng, 5)),
        "ks_f7.cfg": kummer_config("KS_F7", 7, [1, 1, 0, 1], affine(rng, 7)),
    }
    reqs = []
    for cfg, q, D in (("as_f4.cfg", 4, 6), ("as_f16.cfg", 16, 3),
                      ("ks_f5.cfg", 5, 5), ("ks_f7.cfg", 7, 4)):
        stem = cfg[:-4].replace("_", "-")
        reqs.append(Request(f"table-{stem}-D{D}",
                            ["table", "--ext", cfg, "--max-degree", str(D)],
                            ("table_count", "exit0"), params={"q": q, "D": D}))
    reqs.append(Request("goss-ks-f7-D4",
                        ["zeta", "--kind", "goss", "--ext", "ks_f7.cfg",
                         "--max-degree", "4", "--s", "1", "--prec", "4"],
                        ("exit0",)))
    for demo in ("malakie", "pgalois", "reconstruct", "gossrem"):
        reqs.append(Request(f"demo-{demo}", ["demo", demo], ("demo",)))
    warm = Request("warmup", ["demo", "reconstruct"], ("demo",))
    return Workload("tables-wide", seed, files, warm, reqs)


def lifted(seed):
    rng = _rng("lifted", seed)
    ba3 = affine(rng, 3)
    files = {
        # genus 0: the s=0 sum stabilizes mod 3^N by degree 4 for N <= 3
        "ks_f3.cfg": kummer_config("KS_F3", 3, [0, 1], ba3),
        "as_f3.cfg": as_config("AS_F3", 3, 1, 5, ba3),
        "as_f3b.cfg": as_config("AS_F3b", 3, 1, 2, ba3),
        "ks_f5.cfg": kummer_config("KS_F5", 5, [1, 1, 0, 1], affine(rng, 5)),
        "as_f4.cfg": as_config("AS_F4", 2, 2, 3, affine(rng, 2)),
    }

    def lifted_req(rid, cfg, D, s, prec, N, checks=("exit0",)):
        return Request(rid, ["zeta", "--kind", "lifted", "--ext", cfg,
                             "--max-degree", str(D), "--s", str(s),
                             "--prec", str(prec), "--witt-len", str(N)],
                       checks)

    reqs = [
        lifted_req("lifted-f3-s0-N3", "ks_f3.cfg", 6, 0, 6, 3),
        lifted_req("lifted-f3-s1-N2", "as_f3.cfg", 6, 1, 6, 2),
        lifted_req("lifted-f3-s1-N3", "as_f3.cfg", 6, 1, 6, 3),
        lifted_req("lifted-f3-s2-N3", "as_f3.cfg", 6, 2, 12, 3),
    ]
    reqs.append(lifted_req("lifted-f5-s1-N3", "ks_f5.cfg", 3, 1, 3, 3))
    reqs.append(lifted_req("lifted-f4-s1-N4", "as_f4.cfg", 5, 1, 5, 4))
    # the length-1 lift must read "(" + the mod-p value + ")"
    reqs.append(Request("goss-f3b-s1", ["zeta", "--kind", "goss", "--ext",
                                        "as_f3b.cfg", "--max-degree", "4",
                                        "--s", "1", "--prec", "4"], ("exit0",)))
    reqs.append(lifted_req("lifted-f3b-s1-N1", "as_f3b.cfg", 4, 1, 4, 1,
                           ("exit0", "witt_len1")))
    reqs[-1].params["goss"] = "goss-f3b-s1"
    warm = lifted_req("warmup", "ks_f3.cfg", 4, 0, 4, 2)
    return Workload("lifted", seed, files, warm, reqs)


def gassmann(seed):
    rng = _rng("gassmann", seed)
    s8 = rng.sample(range(8), 8)
    s12 = rng.sample(range(12), 12)
    psl27 = psl2_generators(7)
    files = {
        "psl27.grp": group_text("psl27-relabeled", 8, psl27, s8),
        "h1.grp": group_text("H1", 8, [parse_cycles(t, 8) for t in PSL27_S4_GENS[0]],
                             s8, with_n=False),
        "h2.grp": group_text("H2", 8, [parse_cycles(t, 8) for t in PSL27_S4_GENS[1]],
                             s8, with_n=False),
        "psl211.grp": group_text("psl211-relabeled", 12, psl2_generators(11), s12),
    }
    def probe(order, subgroups, classes, checks=(), timed=True):
        return Request(f"probe-psl211-{order}",
                       ["probe", "--group", "psl211.grp", "--order", str(order)],
                       ("exit0", "subgroup_count") + checks, no_cli=True,
                       params={"subgroups": subgroups, "classes": classes},
                       timed=timed)

    reqs = [
        Request("gassmann-psl27", ["gassmann", "--builtin", "psl27"],
                ("exit0", "gassmann_pair")),
        Request("gassmann-files", ["gassmann", "--group", "psl27.grp",
                                   "--h1", "h1.grp", "--h2", "h2.grp"],
                ("exit0", "gassmann_pair")),
        Request("demo-psl27", ["demo", "psl27"], ("demo",)),
        # PSL(2,11) has 55 cyclic subgroups of order 6 and two classes of
        # 55 copies of S3 (two in each of the 55 D12), 55 A4 and 55 D12 of
        # order 12, and two classes of 11 icosahedral subgroups of order 60
        probe(6, 165, 3),
        probe(12, 110, 2),
        # probes: the two Sym(27) requests are mostly interpreter start-up,
        # which setup_s measures; the order-60 search takes 15-25 s
        Request("gassmann-komatsu3", ["gassmann", "--builtin", "komatsu3"],
                ("exit0", "gassmann_pair"), timed=False),
        Request("demo-komatsu", ["demo", "komatsu"], ("demo",), timed=False),
        probe(60, 22, 2, ("gassmann_pair",), timed=False),
    ]
    warm = Request("warmup", ["demo", "komatsu"], ("demo",))
    return Workload("gassmann", seed, files, warm, reqs)


WORKLOADS = {
    "tables-deep": tables_deep,
    "tables-wide": tables_wide,
    "lifted": lifted,
    "gassmann": gassmann,
}


def build(name, seed):
    return WORKLOADS[name](seed)
