"""One benchmark pass in a fresh interpreter.

Reads a job (JSON) on stdin, imports octaq, builds the inputs, runs the
items one at a time, re-checks every answer and prints one JSON result
line.  A job with mode "setup" stops once the inputs are built; the
parent uses it to sample set-up time.

Exit codes: 0 done, 1 a wrong answer or an unexpected error, 2 octaq
is not importable from the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction


class WrongAnswer(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


_REF_TABLE = [[(i * j) % 81 for j in range(81)] for i in range(81)]


def reference_s() -> float:
    """Seconds a fixed mix of big-integer, Fraction and table-lookup work
    takes now (about 1.5 ms on the baseline host).  Timed between items,
    it tells how fast the host runs at that moment; the parent scales
    latencies by it."""
    start = time.perf_counter()
    x = 0x9E3779B97F4A7C15
    for i in range(1500):
        x = (x * 6364136223846793005 + i) % (1 << 127)
    q = Fraction(1, 3)
    for i in range(1, 150):
        q = (q * Fraction(i, i + 2) + 1) / 2
    acc, seen = 1, set()
    for i in range(1000):
        acc = _REF_TABLE[acc % 81][i % 81] + 1
        seen.add((acc, i & 7))
    return time.perf_counter() - start


def sha256_of(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_holds(target, coeffs, modulus) -> bool:
    """target(m Y^3 + n Y^2 + p Y + q) = 0 mod modulus(Y), for coefficient
    lists over Q, using only UniPoly arithmetic."""
    from octaq.polynomials import QQ, UniPoly
    m, n, p, q = coeffs
    u = UniPoly(QQ, [q, p, n, m])
    mod = UniPoly(QQ, modulus)
    acc = UniPoly(QQ, [])
    for c in reversed(target):
        acc = (acc * u + UniPoly(QQ, [c])) % mod
    return acc.is_zero()


# -- workloads -----------------------------------------------------------------
#
# Each workload builds its inputs in __init__ (part of set-up time), names
# an item in key(), runs one in run() and returns (status, output), re-checks an output in
# check() and condenses outputs in digest().  Status is "ok", or "skipped"
# when an optional re-check stopped at a ComputationalLimit.  The octaq
# functions are looked up on their modules at call time, so a traced pass
# reaches the tracer's wrappers.


class Corpus:
    """verify_table_row over the bundled rows in the given order."""

    def __init__(self, inputs):
        from octaq import tables
        rows = tables.load_bundled_corpus()
        order = inputs["order"]
        if sorted(order) != list(range(len(rows))):
            raise ValueError("corpus order is not a permutation of the rows")
        self.items = [rows[i] for i in order]

    def key(self, row):
        return f"line {row.line}"

    def run(self, row):
        from octaq import tables
        return "ok", tables.verify_table_row(row)

    def check(self, row, status, result):
        where = f"corpus row at line {row.line}"
        _require(result["passed"] and all(result["checks"].values()),
                 f"{where}: {result['failures']}")
        _require(result["certificate"] is not None
                 and result["principal_form"] is not None,
                 f"{where}: missing certificate or principal form")
        cert = [Fraction(x) for x in result["certificate"]]
        source = [Fraction(c) for c in row.source_coeffs]
        principal = [Fraction(row.principal_c), Fraction(row.principal_b),
                     0, 0, 1]
        _require(certificate_holds(principal, cert, source),
                 f"{where}: certificate does not map the source to the"
                 " principal polynomial")

    def digest(self, pairs):
        canon = sorted(
            (row.line, r["d_class"], r["table"], r["embedding"],
             r["algebras"], r["certificate"], r["principal_form"])
            for row, r in pairs)
        return {"corpus": sha256_of(canon)}


class Family:
    """Members of the one-parameter family of principal models, each
    certified to define the seed's field and re-checked by the Witt
    criterion."""

    def __init__(self, inputs):
        from octaq.quartic import PrincipalQuartic
        seeds = {}
        self.items = []
        for b, c, s in inputs["candidates"]:
            if (b, c) not in seeds:
                seeds[b, c] = PrincipalQuartic(Fraction(b), Fraction(c))
            self.items.append((f"{b},{c},{s}", seeds[b, c], Fraction(s)))

    def key(self, item):
        return item[0]

    def run(self, item):
        from octaq import qcurve, quartic
        from octaq.errors import ComputationalLimit, ValidationFailure
        _, g, s = item
        try:
            member, j = qcurve.family(g, s)
        except ValidationFailure as exc:
            return "ok", {"rejected": type(exc).__name__}
        cert = quartic.same_field(g.poly(), member.poly())
        try:
            witt = quartic.is_principal(member.reduced())
        except ComputationalLimit:
            return "skipped", {"member": member, "j": j, "cert": cert}
        return "ok", {"member": member, "j": j, "cert": cert, "witt": witt}

    def check(self, item, status, out):
        key, g, _ = item
        if "rejected" in out:
            return
        member, cert = out["member"], out["cert"]
        _require(cert is not None,
                 f"family {key}: no certificate that the member defines the"
                 " seed's field")
        _require(certificate_holds([member.c, member.b, 0, 0, 1],
                                   [cert.m, cert.n, cert.p, cert.q],
                                   [g.c, g.b, 0, 0, 1]),
                 f"family {key}: certificate does not hold")
        _require(status == "skipped" or out["witt"] is True,
                 f"family {key}: Witt re-check says the member is not"
                 " principal")

    @staticmethod
    def canonical(out):
        if "rejected" in out:
            return out
        member, j, cert = out["member"], out["j"], out["cert"]
        return {"member": [str(member.b), str(member.c)],
                "j": [str(j.u), str(j.v), str(j.field.t)],
                "certificate": [str(cert.m), str(cert.n), str(cert.p),
                                str(cert.q)]}

    def digest(self, pairs):
        return {f"family {item[0]}": sha256_of(self.canonical(out))
                for item, out in pairs}


TWIST_PLAN = {"G1": ["f1"], "G2": ["f1", "f2"], "G3": ["phi"],
              "G4": ["phi", "f1"], "G5": ["phi", "f1", "f2"]}
GROUP_ORDERS = {"G1": 48, "G2": 96, "G3": 48, "G4": 96, "G5": 192}
SUITE_ENTRIES = 8
S4_SUBGROUPS = 30  # |PGL2(F9)| / |S4|, one conjugacy class, self-normalizing


class Proofs:
    """The finite identity and group proofs; a fixed input set."""

    def __init__(self, inputs):
        self.items = (["symbolic_suite", "subgroup_classification",
                       "five_groups"]
                      + [f"outer_involutions {g}" for g in TWIST_PLAN]
                      + ["s4_conjugacy_scan"])
        self.groups = None

    def key(self, item):
        return item

    def run(self, item):
        from octaq import gl2f9, qcurve
        if item == "symbolic_suite":
            return "ok", [(e.name, e.passed) for e in
                          qcurve.symbolic_suite(samples=20)]
        if item == "subgroup_classification":
            return "ok", gl2f9.verify_subgroup_classification().entries
        if item == "five_groups":
            self.groups = gl2f9.five_groups()
            return "ok", {k: g.order for k, g in self.groups.items()}
        if item == "s4_conjugacy_scan":
            return "ok", gl2f9.s4_conjugacy_scan()
        name = item.split()[1]
        return "ok", gl2f9.verify_outer_involutions(self.groups[name])

    def check(self, item, status, out):
        if item == "symbolic_suite":
            _require(len(out) == SUITE_ENTRIES and all(ok for _, ok in out),
                     f"symbolic suite: {out}")
        elif item == "subgroup_classification":
            _require(bool(out) and all(e["passed"] for e in out),
                     f"subgroup classification: {out}")
        elif item == "five_groups":
            _require(out == GROUP_ORDERS, f"group orders: {out}")
        elif item == "s4_conjugacy_scan":
            _require(out == {"subgroup_count": S4_SUBGROUPS,
                             "single_conjugacy_class": True},
                     f"S4 conjugacy scan: {out}")
        else:
            name = item.split()[1]
            for twist in TWIST_PLAN[name]:
                _require(out[twist].get("automorphism")
                         and out[twist].get("square_inner"),
                         f"{item}: twist {twist} gave {out[twist]}")

    def digest(self, pairs):
        return {"proofs": sha256_of(sorted(
            [item, out] for item, out in pairs))}


WORKLOADS = {"corpus": Corpus, "family": Family, "proofs": Proofs}


def import_octaq(src: str) -> None:
    """Import octaq and make sure it is the copy under ``src``."""
    import octaq
    src = os.path.realpath(src)
    if not os.path.realpath(octaq.__file__).startswith(src + os.sep):
        raise ImportError(f"octaq imported from {octaq.__file__},"
                          f" not from {src}")


def run_job(job: dict) -> dict:
    import mpmath
    from octaq.errors import ComputationalLimit
    from tracer import Tracer

    tracer = Tracer().install() if job["trace"] else None
    work = WORKLOADS[job["workload"]](job["inputs"])
    # the median of five references also normalizes the set-up time
    result = {"ready": time.monotonic(),
              "refs": [statistics.median(reference_s() for _ in range(5))],
              "env": {"python": sys.version.split()[0],
                      "mpmath": mpmath.__version__}}
    if job["mode"] == "setup":
        return result

    done, refs = [], result["refs"]   # done: (item, status, output, ms)
    for index, item in enumerate(work.items):
        if tracer:
            tracer.item = index
        start = time.perf_counter()
        try:
            status, out = work.run(item)
        except ComputationalLimit:
            status, out = "failed", None
        done.append((item, status, out, (time.perf_counter() - start) * 1e3))
        refs.append(reference_s())
    end = time.monotonic()

    kept = [(item, status, out) for item, status, out, _ in done
            if status != "failed"]
    for item, status, out in kept:
        work.check(item, status, out)
    result.update(
        end=end,
        items=[[work.key(item), ms, status] for item, status, _, ms in done],
        rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        digests=work.digest([(item, out) for item, _, out in kept]))
    if tracer:
        result["layers"] = tracer.metrics()
        if job.get("trace_path"):
            tracer.write(job["trace_path"])
    return result


def main() -> int:
    job = json.load(sys.stdin)
    try:
        import_octaq(job["src"])
    except ImportError as exc:
        print(f"perfbench worker: cannot import octaq: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_job(job)
    except WrongAnswer as exc:
        print(f"perfbench worker: WRONG ANSWER: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
