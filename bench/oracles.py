"""Output checks that do not rely on the package's own code.

Each check takes the finished request, the outputs of the other requests
of the same pass (by request id) and returns an error string, or None
when the output is right.
"""

from __future__ import annotations


def _text(res):
    return res["stdout"].decode("utf-8", "replace")


def exit0(req, res, others):
    if res["rc"] != 0:
        return f"exit code {res['rc']}"
    if res["stderr"]:
        return "wrote to stderr: " + res["stderr"][-200:].decode("utf-8", "replace")
    if not res["stdout"]:
        return "empty output"
    return None


def _dump_rows(text):
    """(degree, count) per table line; the degree is read off the leading term."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        body, count = line.rsplit(" ", 1)
        lead = body.split(" ", 1)[0]
        deg = 0 if lead == "1" else (1 if lead == "T" else int(lead[2:]))
        rows.append((deg, int(count)))
    return rows


def table_count(req, res, others):
    """A table to bound D holds every monic n: (q^(D+1) - 1) / (q - 1) lines."""
    q, D = req.params["q"], req.params["D"]
    want = (q ** (D + 1) - 1) // (q - 1)
    got = len(_dump_rows(_text(res)))
    return None if got == want else f"{got} table entries, expected {want}"


def weil_blocks(req, res, others):
    """The Weil coefficients are the degree-block sums of the dumped table."""
    table = others.get(req.params["table"])
    if table is None or table["rc"] != 0:
        return "no table output to check against"
    rows = _dump_rows(_text(table))
    blocks = [0] * (max(d for d, _ in rows) + 1)
    for d, b in rows:
        blocks[d] += b
    want = " + ".join(f"{a}*u^{d}" if d else str(a) for d, a in enumerate(blocks))
    want += f" + O(u^{len(blocks)})"
    got = _text(res).strip()
    return None if got == want else f"weil {got[:80]!r} != block sums {want[:80]!r}"


def witt_len1(req, res, others):
    """A length-1 Witt lift is the mod-p value itself."""
    goss = others.get(req.params["goss"])
    if goss is None or goss["rc"] != 0:
        return "no goss output to check against"
    want = "(" + _text(goss).strip() + ")"
    got = _text(res).strip()
    return None if got == want else f"{got[:80]!r} != {want[:80]!r}"


def verdict(req, res, others):
    """Two Artin-Schreier covers of F_3(T) unramified at every finite prime
    have B(prime^k) = [3 | k] mod 3 at every prime (split or inert), so
    their mod-3 tables agree everywhere."""
    got = _text(res).strip()
    bound = req.argv[req.argv.index("--max-degree") + 1]
    return None if got == f"EQUAL bound={bound}" else f"verdict {got!r}"


def demo(req, res, others):
    err = exit0(req, res, others)
    if err:
        return err
    lines = _text(res).splitlines()[1:]
    checks = [ln for ln in lines if ln.startswith(("PASS:", "FAIL:"))]
    if not checks or any(ln.startswith("FAIL:") for ln in checks):
        return "demo reported a failed or no check"
    return None


def gassmann_pair(req, res, others):
    lines = _text(res).splitlines()
    if "GASSMANN: yes" not in lines or "CONJUGATE: no" not in lines:
        return "expected GASSMANN: yes and CONJUGATE: no"
    return None


def subgroup_count(req, res, others):
    order = req.argv[req.argv.index("--order") + 1]
    want = (f"order {order}: {req.params['subgroups']} subgroups in "
            f"{req.params['classes']} classes")
    first = _text(res).split("\n", 1)[0]
    return None if first == want else f"{first!r} != {want!r}"


CHECKS = {f.__name__: f for f in (exit0, table_count, weil_blocks, witt_len1,
                                  verdict, demo, gassmann_pair, subgroup_count)}


def check(req, res, others):
    """All errors of one request, as a list of strings."""
    errors = []
    if b"Traceback (most recent call last)" in res["stderr"]:
        errors.append("traceback")
    for tag in req.checks:
        try:
            err = CHECKS[tag](req, res, others)
        except (ValueError, IndexError) as exc:
            err = f"unparseable output ({exc})"
        if err:
            errors.append(f"{tag}: {err}")
    return errors


def necklace(q, d):
    """Number of monic irreducibles of degree d over F_q (Gauss)."""
    def mobius(n):
        out, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                out = -out
            k += 1
        return -out if n > 1 else out
    return sum(mobius(d // e) * q ** e for e in range(1, d + 1) if d % e == 0) // d
