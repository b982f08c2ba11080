"""Run one benchmark request in this process, calling the library layer by layer.

    python bench/pipeline.py [--trace-out FILE --request-id ID] VERB ARGS...

VERB is a `gosslift` CLI verb used by the benchmark (table, zeta,
compare, gassmann, demo) with the same arguments, or `probe`, the
subgroup search that has no CLI verb:

    probe --group FILE --order K

It calls the package's public functions in pipeline order and
prints exactly what the CLI prints for the same request.  With
--trace-out it records a span around every call (name, start, end,
parent, request id) plus work counts, keeps them in memory and writes
them as JSON lines when the request ends.  Without it, spans cost one
no-op context manager per call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

from workloads import config_field


class Tracer:
    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []
        self.stack = []
        self.counters = Counter()

    @contextmanager
    def span(self, name, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self.stack[-1] if self.stack else None,
               "name": name, "req": self.request_id, "start": time.perf_counter()}
        if attrs:
            rec["attrs"] = attrs
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield
        finally:
            self.stack.pop()
            rec["end"] = time.perf_counter()

    def count(self, name, k=1):
        self.counters[name] += k

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


class NullTracer(Tracer):
    @contextmanager
    def span(self, name, **attrs):
        yield

    def count(self, name, k=1):
        pass


def type_name(st):
    """Splitting type as a metric-safe name, e.g. e1f1x3 for three split primes."""
    return "_".join(f"e{e}f{f}x{c}" for (e, f), c in sorted(Counter(st.pairs).items()))


class Pipeline:
    def __init__(self, tr):
        self.tr = tr
        with tr.span("pipeline.import"):
            from gosslift import (demos, errors, extension, field, gassmann,
                                  poly, witt, zeta)
        self.GossliftError = errors.GossliftError
        self.demos, self.extension, self.field = demos, extension, field
        self.gassmann, self.poly, self.witt, self.zeta = gassmann, poly, witt, zeta

    # --- tables ---

    def table(self, path, D):
        tr = self.tr
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with tr.span("field.gf_create"):
            K = self.field.gf_create(*config_field(text))
        with tr.span("extension.parse_extension"):
            ext = self.extension.parse_extension(text)
        primes = []
        for d in range(1, D + 1):
            with tr.span("poly.enumerate_monic_irreducibles", degree=d):
                primes.append(self.poly.enumerate_monic_irreducibles(K, d))
            tr.count("poly.primes", len(primes[-1]))
        for d, ps in enumerate(primes, 1):
            top = d == D
            for prime in ps:
                with tr.span("extension.splitting_type", top=top):
                    st = self.extension.splitting_type(ext, prime)
                tr.count("extension.splitting_type.calls")
                if prime in ext.overrides:
                    tr.count("extension.overrides_hit")
                if top:
                    tr.count("extension.types_top." + type_name(st))
        with tr.span("zeta.dirichlet_table"):
            table = self.zeta.dirichlet_table(ext, D)
        tr.count("zeta.entries", len(table.entries))
        tr.count("zeta.entries_zero_mod_p",
                 sum(1 for b in table.entries.values() if b % K.p == 0))
        return table

    def cmd_table(self, a):
        table = self.table(a.ext, a.max_degree)
        with self.tr.span("zeta.dump_table"):
            text = self.zeta.dump_table(table)
        self.tr.count("zeta.dump_table.bytes", len(text.encode("utf-8")))
        print(text, end="")

    def cmd_zeta(self, a):
        tr, zeta, witt = self.tr, self.zeta, self.witt
        table = self.table(a.ext, a.max_degree)
        if a.kind == "weil":
            with tr.span("zeta.weil_series"):
                out = str(zeta.weil_series(table))
        elif a.kind == "goss":
            with tr.span("zeta.goss_eval"):
                out = str(zeta.goss_eval(table, a.s, a.prec))
        else:
            K = table.field
            with tr.span("witt.witt_structure_polys"):
                polys = witt.witt_structure_polys(K.p, a.witt_len)
            tr.count("witt.structure_terms",
                     sum(len(t) for t in polys.add + polys.mul))
            with tr.span("witt.lifted_goss_eval"):
                value = witt.lifted_goss_eval(table, a.s, a.prec, a.witt_len)
            tr.count("witt.additions", witt_additions(table, a.s, a.prec, a.witt_len))
            ops = (witt.FieldOps(K) if a.s == 0
                   else witt.LaurentOps(K, a.prec))
            with tr.span("witt.witt_text"):
                out = witt.witt_text(ops, value)
        print(out)

    def cmd_compare(self, a):
        ta = self.table(a.cfg_a, a.max_degree)
        tb = self.table(a.cfg_b, a.max_degree)
        with self.tr.span("zeta.compare_zeta"):
            verdict = self.zeta.compare_zeta(ta, tb, a.kind)
        print(verdict.text())

    # --- groups ---

    def subgroup_classes(self, G, k):
        """All 2-generated subgroups of order k, and their conjugacy classes."""
        tr, gm = self.tr, self.gassmann
        with tr.span("gassmann.all_subgroups_of_order", order=k):
            subs = gm.all_subgroups_of_order(G, k)
        tr.count("gassmann.subgroups_found", len(subs))
        cands = sum(1 for x in G.elements
                    if k % gm.perm_order(x) == 0 and gm.perm_order(x) > 1)
        tr.count("gassmann.candidate_pairs", cands * (cands - 1) // 2)
        with tr.span("gassmann.conjugacy_classes_of"):
            buckets = gm.conjugacy_classes_of(G, subs)
        return subs, buckets

    def check(self, G, h1, h2):
        tr, gm = self.tr, self.gassmann
        with tr.span("gassmann.conjugacy_classes"):
            G.conjugacy_classes()
        with tr.span("gassmann.gassmann_check"):
            return gm.gassmann_check(G, h1, h2)

    def load_group(self, path, n=None):
        with self.tr.span("gassmann.PermGroup"):
            return self.gassmann.parse_group_file(path, n=n)

    def cmd_gassmann(self, a):
        tr, gm = self.tr, self.gassmann
        if a.builtin == "komatsu3":
            with tr.span("gassmann.PermGroup"):
                ab, heis = gm.cayley_komatsu(3)
            with tr.span("gassmann.gassmann_by_cycle_type"):
                ok, stats_ab, _ = gm.gassmann_by_cycle_type(ab, heis)
            print("\n".join([
                f"group {ab.name} and {heis.name} as regular subgroups of Sym(27)",
                f"cycle types: identity x1, 3^9 x{stats_ab[(3,) * 9]} in both",
                f"GASSMANN: {'yes' if ok else 'no'}",
                f"CONJUGATE: {'no' if ab.is_abelian() != heis.is_abelian() else '?'}",
            ]))
            return
        if a.builtin == "psl27":
            with tr.span("gassmann.PermGroup"):
                G = gm.builtin_group("psl27")
            _, buckets = self.subgroup_classes(G, 24)
            if len(buckets) != 2:
                raise self.GossliftError(
                    f"expected 2 classes of order-24 subgroups, found {len(buckets)}")
            print(self.check(G, buckets[0][0], buckets[1][0]).text())
            return
        G = self.load_group(a.group)
        h1 = self.load_group(a.h1, n=G.n)
        h2 = self.load_group(a.h2, n=G.n)
        print(self.check(G, h1, h2).text())

    def cmd_probe(self, a):
        G = self.load_group(a.group)
        subs, buckets = self.subgroup_classes(G, a.order)
        if len(buckets) < 2:
            raise self.GossliftError(
                f"order {a.order}: fewer than two subgroup classes")
        report = self.check(G, buckets[0][0], buckets[1][0])
        print(f"order {a.order}: {len(subs)} subgroups in {len(buckets)} classes")
        print(report.text())

    def cmd_demo(self, a):
        with self.tr.span("demos.run_demo", demo=a.name):
            report = self.demos.run_demo(a.name)
        print(report.text())
        return 0 if report.ok else 4


def witt_additions(table, s, M, N):
    """witt_add calls made by lifted_goss_eval, counted from the table alone.

    Each integer k lifted to W_N costs one addition per bit (doubling) and
    one per set bit; at s >= 1 each contributing entry adds one more.
    """
    pN = table.field.p ** N

    def lift_cost(k):
        k %= pN
        return k.bit_length() + bin(k).count("1")

    if s == 0:
        return lift_cost(sum(table.block_sums()))
    keys = set()
    total = 0
    for n, b in table.entries.items():
        if n.degree * s > M or b % pN == 0:
            continue
        keys.add(b % pN)
        total += 1
    return total + sum(lift_cost(k) for k in keys)


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="pipeline.py")
    ap.add_argument("--trace-out", metavar="FILE")
    ap.add_argument("--request-id", default="request")
    sub = ap.add_subparsers(dest="verb", required=True)
    p = sub.add_parser("table")
    p.add_argument("--ext", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p = sub.add_parser("zeta")
    p.add_argument("--kind", required=True, choices=("weil", "goss", "lifted"))
    p.add_argument("--ext", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--prec", type=int, default=12)
    p.add_argument("--witt-len", type=int, default=2)
    p = sub.add_parser("compare")
    p.add_argument("--kind", required=True, choices=("weil", "goss", "lifted"))
    p.add_argument("cfg_a")
    p.add_argument("cfg_b")
    p.add_argument("--max-degree", type=int, required=True)
    p = sub.add_parser("gassmann")
    p.add_argument("--builtin", choices=("psl27", "komatsu3"))
    p.add_argument("--group")
    p.add_argument("--h1")
    p.add_argument("--h2")
    p = sub.add_parser("demo")
    p.add_argument("name")
    p = sub.add_parser("probe")
    p.add_argument("--group", required=True)
    p.add_argument("--order", type=int, required=True)
    return ap.parse_args(argv)


def main(argv=None):
    a = parse_args(argv)
    tr = Tracer(a.request_id) if a.trace_out else NullTracer(a.request_id)
    rc = 0
    with tr.span("pipeline.request"):
        pipe = Pipeline(tr)
        try:
            rc = getattr(pipe, "cmd_" + a.verb)(a) or 0
        except pipe.GossliftError as exc:
            print(f"error[{exc.tag}]: {exc}", file=sys.stderr)
            rc = 3
        sys.stdout.flush()
    tr.count("witt.sympy_loaded", int("sympy" in sys.modules))
    if a.trace_out:
        tr.write(a.trace_out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
