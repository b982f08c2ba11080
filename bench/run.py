"""The gosslift benchmark: one workload, one seed, every output checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    python3 bench/run.py --compare OLD.json NEW.json

Each request is a fresh child process: `python -m gosslift.cli ...` with
PYTHONPATH=src, or `bench/pipeline.py probe ...` for the one request kind
that has no CLI verb.  One client, closed loop: a child starts when the
previous one has exited.  A run measures `setup_s` (children that only
import gosslift.cli), sends one untimed warm-up request, then times whole
passes over the workload's timed requests while another pass fits in
--seconds (at least one pass).

--trace 1 runs one CLI pass over every request, the slow probes included,
and then the same requests once more through bench/pipeline.py, which records
spans around each library call; it reports the per-layer metrics and
checks that the traced stdout is byte-identical to the CLI's.  The last stdout line is one JSON object; everything above it
is for people.  The run's record, with its generated inputs, per-request
checksums and (traced) spans, goes to .bench_work/ and, with --out, is
appended to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import oracles
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PIPELINE = os.path.join(BENCH, "pipeline.py")
EXPECTED = os.path.join(BENCH, "expected_sha256.json")

SETUP_FIRST = 5          # setup_s samples before the warm-up request
REQUEST_TIMEOUT = 150.0   # seconds; a request past this is killed and fails
RUN_DEADLINE = 170.0      # no new pass starts after this many seconds

# Span names whose summed self time is reported as <name>.busy_s.
LAYERS = (
    "poly.enumerate_monic_irreducibles", "extension.splitting_type",
    "extension.parse_extension", "field.gf_create", "zeta.dirichlet_table",
    "zeta.dump_table", "zeta.compare_zeta", "zeta.goss_eval",
    "zeta.weil_series", "witt.witt_structure_polys", "witt.lifted_goss_eval",
    "gassmann.all_subgroups_of_order", "gassmann.PermGroup",
    "gassmann.conjugacy_classes", "gassmann.conjugacy_classes_of",
    "gassmann.gassmann_check", "demos.run_demo", "pipeline.import",
)
COUNTS = (
    "poly.primes", "extension.splitting_type.calls", "extension.overrides_hit",
    "zeta.entries", "zeta.entries_zero_mod_p", "zeta.dump_table.bytes",
    "witt.structure_terms", "witt.additions", "gassmann.candidate_pairs",
    "gassmann.subgroups_found",
)
TYPES_TOP = ("e1f1x3", "e1f3x1", "e1f1x2", "e1f2x1")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# --- child processes ---


def child_env():
    """The caller's environment with src/ importable and bytecode caching on,
    as an installed CLI has it, whatever the caller's shell sets."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, cwd, timeout):
    """Run one child to completion; wall time, exit code, output, peak RSS."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return {"rc": proc.returncode, "stdout": stdout, "stderr": stderr,
            "wall": wall, "maxrss_kb": usage.ru_maxrss}


class Runner:
    def __init__(self, wl, workdir, t_start):
        self.wl = wl
        self.workdir = workdir
        self.t_start = t_start
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.maxrss_kb = 0
        self.sha = {}           # request id -> sha256 of stdout
        self.walls = {}         # request id -> wall time of each run, s
        self.setup = []         # wall times of `import gosslift.cli` children
        self.expected = None    # request id -> sha256, for the default seed
        if wl.seed == workloads.DEFAULT_SEED:
            with open(EXPECTED, "r", encoding="utf-8") as fh:
                self.expected = json.load(fh).get(wl.name, {})

    def timeout(self):
        return max(1.0, min(REQUEST_TIMEOUT,
                            RUN_DEADLINE - (time.perf_counter() - self.t_start)))

    def command(self, req, trace_out=None):
        if trace_out is None and not req.no_cli:
            return [sys.executable, "-m", "gosslift.cli"] + req.argv
        head = [sys.executable, PIPELINE]
        if trace_out is not None:
            head += ["--trace-out", trace_out, "--request-id", req.rid]
        return head + req.argv

    def run(self, req, trace_out=None):
        res = run_child(self.command(req, trace_out), self.workdir, self.timeout())
        self.maxrss_kb = max(self.maxrss_kb, res["maxrss_kb"])
        return res

    def judge(self, reqs, results, label):
        """Check one pass; every failed request counts once."""
        others = {r.rid: res for r, res in zip(reqs, results)}
        for req, res in zip(reqs, results):
            self.attempted += 1
            self.walls.setdefault(req.rid, []).append(res["wall"])
            errs = oracles.check(req, res, others)
            digest = sha256(res["stdout"])
            if self.sha.setdefault(req.rid, digest) != digest:
                errs.append("stdout differs from the first pass")
            if self.expected is not None and self.expected.get(req.rid) != digest:
                errs.append("sha256 differs from expected_sha256.json")
            if errs:
                self.failed += 1
                self.errors.append(f"{label} {req.rid}: " + "; ".join(errs))

    def cli_pass(self, reqs, label, sample_setup=False):
        """One pass; its time is the sum of the request wall times.

        With sample_setup, a setup_s sample follows every request, so the
        samples spread over the pass instead of bunching at the run's start.
        """
        results = []
        for req in reqs:
            results.append(self.run(req))
            if sample_setup:
                self.sample_setup()
        self.judge(reqs, results, label)
        return sum(r["wall"] for r in results), results

    def sample_setup(self):
        res = run_child([sys.executable, "-c", "import gosslift.cli"],
                        self.workdir, REQUEST_TIMEOUT)
        if res["rc"] != 0:
            raise SystemExit("bench: `import gosslift.cli` failed:\n"
                             + res["stderr"].decode("utf-8", "replace"))
        self.setup.append(res["wall"])


# --- traced pass ---


def add_self_times(spans):
    """Set each span's "self": its duration minus its children's."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["req"], s["parent"])
            child[key] = child.get(key, 0.0) + s["end"] - s["start"]
    for s in spans:
        s["self"] = s["end"] - s["start"] - child.get((s["req"], s["id"]), 0.0)


def traced_pass(runner):
    wl = runner.wl
    spans, counters = [], {}
    results = []
    for req in wl.requests:
        path = os.path.join(runner.workdir, f"spans-{req.rid}.jsonl")
        res = runner.run(req, trace_out=path)
        results.append(res)
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if "counters" in rec:
                    for k, v in rec["counters"].items():
                        counters[k] = counters.get(k, 0) + v
                else:
                    spans.append(rec)
        os.remove(path)
    add_self_times(spans)
    for req, res in zip(wl.requests, results):
        busy = {}
        for sp in spans:
            if sp["req"] == req.rid:
                busy[sp["name"]] = busy.get(sp["name"], 0.0) + sp["self"]
        top = sorted(busy.items(), key=lambda kv: -kv[1])[:3]
        print(f"  traced {req.rid}: {res['wall']:.3f} s; largest self times: "
              + ", ".join(f"{k} {v:.3f} s" for k, v in top))
    # judge() also holds each traced stdout to the CLI pass's checksum
    runner.judge(wl.requests, results, "traced")
    # independent count of primes: Gauss's formula at every table degree
    want_primes = want_top = 0
    for req in wl.requests:
        for q, D in table_shapes(req, wl.files):
            want_primes += sum(oracles.necklace(q, d) for d in range(1, D + 1))
            want_top += oracles.necklace(q, D)
    got_top = sum(v for k, v in counters.items()
                  if k.startswith("extension.types_top."))
    if (counters.get("poly.primes", 0), got_top) != (want_primes, want_top):
        runner.failed += 1
        runner.errors.append(
            f"traced: primes {counters.get('poly.primes', 0)} (want {want_primes}), "
            f"top-degree types {got_top} (want {want_top})")
    return sum(r["wall"] for r in results), spans, counters


def table_shapes(req, files):
    """(q, D) of every table a request builds, from its argv and config."""
    verb = req.argv[0]
    if verb not in ("table", "zeta", "compare"):
        return []
    D = int(req.argv[req.argv.index("--max-degree") + 1])
    cfgs = ([req.argv[req.argv.index("--ext") + 1]] if verb != "compare"
            else [a for a in req.argv if a.endswith(".cfg")])
    return [(p ** m, D) for p, m in (workloads.config_field(files[c]) for c in cfgs)]


def layer_metrics(spans, counters, trace_wall, cli_wall):
    busy = {}
    top_time = top_calls = 0
    for s in spans:
        busy[s["name"]] = busy.get(s["name"], 0.0) + s["self"]
        if s["name"] == "extension.splitting_type" and s.get("attrs", {}).get("top"):
            top_time += s["end"] - s["start"]
            top_calls += 1
    m = {}
    for name in LAYERS:
        m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for name in COUNTS:
        m[name] = (counters.get(name, 0), "bytes" if name.endswith("bytes") else "count")
    m["extension.splitting_type.top_us_per_call"] = (
        1e6 * top_time / top_calls if top_calls else 0.0, "us")
    prefix = "extension.types_top."
    for t in TYPES_TOP:
        m[prefix + t] = (counters.get(prefix + t, 0), "count")
    m[prefix + "other"] = (sum(v for k, v in counters.items()
                               if k.startswith(prefix) and k[len(prefix):] not in TYPES_TOP),
                           "count")
    m["witt.sympy_loaded"] = (min(1, counters.get("witt.sympy_loaded", 0)), "flag")
    m["trace.pass_s"] = (trace_wall, "s")
    m["trace.cli_pass_s"] = (cli_wall, "s")
    return m


# --- one run ---


def prepare(wl):
    workdir = os.path.join(ROOT, ".bench_work", f"{wl.name}-seed{wl.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for name, text in wl.files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return workdir


def run(args):
    t_start = time.perf_counter()
    wl = workloads.build(args.workload, args.seed)
    workdir = prepare(wl)
    print(f"workload {wl.name} seed {wl.seed}: {workloads.WHY[wl.name]}")
    for name, text in wl.files.items():
        print(f"  input {name}: " + " | ".join(text.strip().splitlines()))
    print("load: closed loop, one client, one fresh child process per request")

    runner = Runner(wl, workdir, t_start)
    runner.sample_setup()       # the first import writes bytecode: not kept
    runner.setup.clear()
    for _ in range(SETUP_FIRST):
        runner.sample_setup()
    warm = runner.run(wl.warmup)
    runner.judge([wl.warmup], [warm], "warm-up")

    record = {"workload": wl.name, "seed": wl.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs": wl.files}
    if args.trace:
        cli_wall, _ = runner.cli_pass(wl.requests, "pass 1")
        trace_wall, spans, counters = traced_pass(runner)
        metrics = layer_metrics(spans, counters, trace_wall, cli_wall)
        record["spans"] = spans
        print("the program is single-threaded with no queues: "
              "no layer has a waiting time, busy time is all there is")
    else:
        passes = []
        while True:
            wall, _ = runner.cli_pass(wl.timed, f"pass {len(passes) + 1}",
                                      sample_setup=not passes)
            passes.append(wall)
            nxt = statistics.median(passes)
            if (sum(passes) + nxt > args.seconds
                    or time.perf_counter() - t_start + nxt > RUN_DEADLINE):
                break
        record["pass_samples_s"] = passes
        record["setup_samples_s"] = runner.setup
        metrics = {
            "pass_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (runner.maxrss_kb / 1024.0, "MB"),
            "setup_s": (statistics.median(runner.setup), "s"),
        }
        print(f"pass_s {metrics['pass_s'][0]:.4f} s: median of {len(passes)} "
              f"pass(es) of {len(wl.timed)} requests")
        print(f"setup_s {metrics['setup_s'][0]:.4f} s: median of {len(runner.setup)} "
              f"fresh `import gosslift.cli`")
        print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.2f} MB: largest child "
              f"of {runner.attempted} requests")

    fail_ratio = runner.failed / runner.attempted
    print(f"fail_ratio {fail_ratio:g} ({runner.failed} failed of "
          f"{runner.attempted} attempted)")
    for err in runner.errors:
        print("  FAILED " + err)
    record.update({
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed, "fail_ratio": fail_ratio,
        "errors": runner.errors, "sha256": runner.sha,
        "request_walls_s": runner.walls,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    if args.trace:
        for k, (v, u) in metrics.items():
            print(f"  {k} = {v:.6g} {u}")
    save(record, os.path.join(workdir, "result.json"), append=False)
    if args.out:
        save({k: v for k, v in record.items() if k != "spans"}, args.out, append=True)
    print(json.dumps({"correct": record["correct"], "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0


def save(record, path, append):
    runs = []
    if append and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    runs.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1)
        fh.write("\n")


# --- compare mode ---


def compare(old_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = {}
    for tag, path in (("old", old_path), ("new", new_path)):
        with open(path, "r", encoding="utf-8") as fh:
            runs[tag] = json.load(fh)["runs"]

    def medians(rs):
        by = {}
        for r in rs:
            for k, m in r["metrics"].items():
                by.setdefault((r["workload"], k), []).append(m["value"])
        return {key: statistics.median(v) for key, v in by.items()}

    old, new = medians(runs["old"]), medians(runs["new"])
    bad = 0
    print(f"{'workload':<12} {'metric':<48} {'old':>12} {'new':>12} {'ratio':>8}  verdict")
    for (wl, k) in sorted(new):
        if (wl, k) not in old:
            continue
        o, n = old[(wl, k)], new[(wl, k)]
        ratio = n / o if o else float("inf") if n else 1.0
        spec_m = bounds.get(k)
        if spec_m is None:
            verdict = "per-layer, no bound"
        else:
            worse = ratio - 1 if spec_m["better"] == "lower" else 1 - ratio
            if worse > spec_m["bound"]:
                verdict = f"WORSE beyond bound {spec_m['bound']}"
                bad += 1
            elif worse < -spec_m["bound"]:
                verdict = "better beyond bound"
            else:
                verdict = f"within bound {spec_m['bound']}"
        print(f"{wl:<12} {k:<48} {o:>12.6g} {n:>12.6g} {ratio:>8.3f}  {verdict}")
    sums = {}
    for tag in ("old", "new"):
        for r in runs[tag]:
            for rid, digest in r["sha256"].items():
                sums.setdefault((r["workload"], r["seed"], rid), {})[tag] = digest
    differ = [key for key, d in sorted(sums.items())
              if len(d) == 2 and d["old"] != d["new"]]
    checked = sum(1 for d in sums.values() if len(d) == 2)
    for wl, seed, rid in differ:
        print(f"CHECKSUM DIFFERS: {wl} seed {seed} request {rid}")
    print(f"{checked} request checksums compared, {len(differ)} differ; "
          f"{bad} end-to-end metrics worse beyond their bound")
    return 1 if differ or bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", metavar="FILE", help="append this run's record to FILE")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    if not os.path.isfile(os.path.join(SRC, "gosslift", "cli.py")):
        print(f"bench: no gosslift sources under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
