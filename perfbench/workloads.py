"""The four benchmark workloads: seeded inputs, CLI steps and output checks.

Each workload is a function ``(seed, workdir) -> list[Step]``. It may write
input files into ``workdir``; that work is untimed and counts as set-up.
The steps are ``groupapprox.cli.main`` argument lists run in order, each
with the exit code it must return and a check of its output. Checks test
semantics (verdicts, exact defect and separation, dimensions, profile
values), never golden bytes, so that a change of provenance or layout is
not counted as a failure.

Expected values come from closed forms computed here, independently of the
program. Where none is at hand (|B(20)| of the Heisenberg group, the rf
growth of Z^2, the number of points the audit compares) they are values
the program produced when the benchmark was written.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

# Kinds of step, for the per-kind end-to-end times.
KINDS = ("construct", "verify", "analysis")


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Step:
    name: str
    argv: list
    # (stdout, workdir) -> None, raises CheckFailed; None: exit code only
    check: Callable = None
    expect_rc: int = 0
    artifacts: tuple = ()   # files the step writes, relative to workdir
    # A probe feeds malformed input. Its failure counts in ``failed`` (the
    # error rate) but not against ``correct``: the program mishandling bad
    # input is a defect to count, not a wrong result of a valid pipeline.
    probe: bool = False
    kind: str = field(init=False)

    def __post_init__(self):
        command = self.argv[2] if self.argv[0] == "--seed" else self.argv[0]
        self.kind = command if command in KINDS[:2] else "analysis"


def _load(workdir, name):
    with open(os.path.join(workdir, name)) as f:
        return json.load(f)


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _report_check(path, *, defect, separation, pairs=None, sep_pairs=None,
                  exact=True):
    """Check a passing verify report: defect, separation and pair counts."""
    def check(stdout, workdir):
        rep = _load(workdir, path)
        expect(rep["pass"] is True, f"{path}: pass={rep['pass']}")
        same = (lambda a, b: a == b) if exact else _close
        expect(same(rep["multiplicativity_defect"], defect),
               f"{path}: defect {rep['multiplicativity_defect']} != {defect}")
        expect(same(rep["separation"], separation),
               f"{path}: separation {rep['separation']} != {separation}")
        if pairs is not None:
            expect(rep["pairs_checked"] == pairs,
                   f"{path}: pairs_checked {rep['pairs_checked']} != {pairs}")
        if sep_pairs is not None:
            expect(rep["separation_pairs"] == sep_pairs,
                   f"{path}: separation_pairs {rep['separation_pairs']} "
                   f"!= {sep_pairs}")
        return rep
    return check


def _cert_check(path, *, family, n, dimension, size):
    def check(stdout, workdir):
        summary = json.loads(stdout)
        expect(summary["dimension"] == dimension,
               f"summary dimension {summary['dimension']} != {dimension}")
        cert = _load(workdir, path)
        expect(cert["family"] == family, f"{path}: family {cert['family']}")
        expect(cert["n"] == n, f"{path}: n {cert['n']}")
        expect(cert["dimension"] == dimension,
               f"{path}: dimension {cert['dimension']} != {dimension}")
        expect(len(cert["assignments"]) == size,
               f"{path}: {len(cert['assignments'])} assignments != {size}")
    return check


def _ball_size_Zd(d, n):
    """|B(n)| in Z^d with the standard generators (L1 ball)."""
    return sum(2 ** i * math.comb(d, i) * math.comb(n, i)
               for i in range(min(d, n) + 1))


def _product_pairs_Zd(d, n):
    """#{(g, h) in B(n)^2 : g + h in B(n)} for the L1 ball of Z^d."""
    if d == 1:
        return (2 * n + 1) ** 2 - n * (n + 1)
    pts = [()]
    for _ in range(d):
        pts = [p + (x,) for p in pts for x in range(-n, n + 1)]
    ball = [p for p in pts if sum(map(abs, p)) <= n]
    count = 0
    for g in ball:
        for h in ball:
            if sum(abs(a + b) for a, b in zip(g, h)) <= n:
                count += 1
    return count


def _primes(lo, hi):
    return [p for p in range(lo, hi) if p > 1
            and all(p % q for q in range(2, int(p ** 0.5) + 1))]


# ---------------------------------------------------------------------------

def hyp_amplify(seed, workdir):
    """README hyperlinear pipeline: quotient of Z, verify, amplify, verify."""
    rng = random.Random(seed)
    m = rng.randrange(641, 649)  # Z/m must be at least |B(320)| = 641
    n, n_amp = 320, 8
    size = 2 * n + 1
    delta = math.sqrt(2) / (20 * n_amp) - 1 / (200 * n_amp * n_amp)
    ell = math.ceil(math.log(1 / delta) / math.log(5 / 4))
    # distinct translations have trace 0, so (u + I) has normalized trace
    # 1/2 against (v + I) and the l-th tensor power 2^-l
    amp_sep = math.sqrt(2.0 - 2.0 * 0.5 ** ell)
    return [
        Step("construct-hyp",
             ["construct", "--method", "from-quotient", "--group", "Z",
              "--modulus", str(m), "--n", str(n), "--family", "hyp",
              "--out", "hyp.json"],
             _cert_check("hyp.json", family="hyp", n=n, dimension=m,
                         size=size),
             artifacts=("hyp.json",)),
        Step("verify-hyp", ["verify", "--cert", "hyp.json", "--out", "v1.json"],
             _report_check("v1.json", defect=0.0, separation=math.sqrt(2),
                           pairs=_product_pairs_Zd(1, n),
                           sep_pairs=size * (size - 1) // 2, exact=False),
             artifacts=("v1.json",)),
        Step("construct-amplify",
             ["construct", "--method", "amplify", "--input", "hyp.json",
              "--n", str(n_amp), "--out", "amp.json"],
             _cert_check("amp.json", family="hyp-projective", n=n_amp,
                         dimension={"base": 2 * m, "power": ell},
                         size=2 * n_amp + 1),
             artifacts=("amp.json",)),
        Step("verify-amplify",
             ["verify", "--cert", "amp.json", "--out", "v2.json"],
             _report_check("v2.json", defect=0.0, separation=amp_sep,
                           pairs=_product_pairs_Zd(1, n_amp),
                           sep_pairs=(2 * n_amp + 1) * n_amp, exact=False),
             artifacts=("v2.json",)),
    ]


def lin_exact(seed, workdir):
    """Exact rank-metric certificates over Q and over a seeded prime field."""
    rng = random.Random(seed)
    p = rng.choice(_primes(3, 100))
    n = 6
    k = 2 * n + 1
    # rank(P_a - P_b) = k - cycles(b^-1 a); a nonzero shift of Z/13 is one
    # k-cycle, so every separation is (k - 1)/k
    rep = dict(defect=0.0, separation=(k - 1) / k,
               pairs=_product_pairs_Zd(1, n), sep_pairs=k * (k - 1) // 2)

    def lin_check(path, field):
        base = _cert_check(path, family="lin", n=n, dimension=k, size=k)

        def check(stdout, workdir):
            base(stdout, workdir)
            got = [a["target"]["field"] for a in _load(workdir, path)["assignments"]]
            expect(all(f == field for f in got), f"{path}: fields != {field}")
        return check

    return [
        Step("construct-cyclic",
             ["construct", "--method", "cyclic-z", "--n", str(n),
              "--out", "c.json"],
             _cert_check("c.json", family="sofic", n=n, dimension=k, size=k),
             artifacts=("c.json",)),
        Step("construct-lin-Q",
             ["construct", "--method", "perm-to-lin", "--input", "c.json",
              "--field", "Q", "--out", "lq.json"],
             lin_check("lq.json", "Q"), artifacts=("lq.json",)),
        Step("verify-lin-Q", ["verify", "--cert", "lq.json", "--out", "vq.json"],
             _report_check("vq.json", **rep), artifacts=("vq.json",)),
        Step("construct-lin-Fp",
             ["construct", "--method", "perm-to-lin", "--input", "c.json",
              "--field", f"F{p}", "--out", "lp.json"],
             lin_check("lp.json", {"Fp": p}), artifacts=("lp.json",)),
        Step("verify-lin-Fp", ["verify", "--cert", "lp.json", "--out", "vp.json"],
             _report_check("vp.json", **rep), artifacts=("vp.json",)),
    ]


# rf growth of Z^2: least index of a sublattice avoiding B(n) \ {e}
_RF_Z2 = {1: 2, 2: 5, 3: 8, 4: 13, 5: 18, 6: 25}
# |B(20)| in the Heisenberg group with generators x, y
_HEIS_BALL_20 = 68079
_AUDIT_POINTS = 56


def _csv_rows(text):
    lines = text.strip().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def profile_audit(seed, workdir):
    """Ball enumeration, profiles, rf growth and the inequality audit.

    The inputs are the same for every seed.
    """
    def ball_check(stdout, workdir):
        art = _load(workdir, "ball.json")
        expect(art["size"] == _HEIS_BALL_20, f"ball size {art['size']}")
        expect(len(set(art["elements"])) == _HEIS_BALL_20,
               "ball elements not distinct")

    def sofic_check(stdout, workdir):
        pts = _load(workdir, "p_sofic.json")["points"]
        got = {(p["n"], p["provenance"]): p["value"] for p in pts}
        for n in range(1, 11):
            size = _ball_size_Zd(2, n)
            lower = next(k for k in range(1, size + 1)
                         if math.factorial(k) >= size)
            expect(got.get((n, "lower")) == lower, f"sofic lower at {n}")
            expect(got.get((n, "upper")) == (2 * n + 1) ** 2,
                   f"sofic upper at {n}")

    def fin_check(stdout, workdir):
        with open(os.path.join(workdir, "p_fin.csv")) as f:
            rows = _csv_rows(f.read())
        expect([int(r["n"]) for r in rows] == list(range(1, 51)), "fin ns")
        for r in rows:
            v = str(2 * int(r["n"]) + 1)
            expect((r["lower"], r["exact"], r["upper"], r["provenance"])
                   == (v, v, v, "exact"), f"fin row {r}")

    def audit_check(stdout, workdir):
        rep = _load(workdir, "audit.json")
        expect(rep["pass"] is True, "audit failed")
        expect(rep["points_compared"] == _AUDIT_POINTS,
               f"audit compared {rep['points_compared']}")

    def rf_heis_check(stdout, workdir):
        with open(os.path.join(workdir, "rf_heis.csv")) as f:
            rows = _csv_rows(f.read())
        expect([(int(r["n"]), r["upper"]) for r in rows]
               == [(n, str((n + 1) ** 3)) for n in range(1, 9)],
               "Heisenberg rf upper bounds")

    def rf_z2_check(stdout, workdir):
        with open(os.path.join(workdir, "rf_z2.csv")) as f:
            rows = _csv_rows(f.read())
        expect([(int(r["n"]), r["exact"]) for r in rows]
               == [(n, str(v)) for n, v in _RF_Z2.items()], "Z^2 rf growth")

    return [
        Step("ball-heisenberg", ["ball", "--group", "Heisenberg(1)", "--n",
                                 "20", "--out", "ball.json"],
             ball_check, artifacts=("ball.json",)),
        Step("profile-Z2-sofic",
             ["profile", "--group", "Z^2", "--family", "sofic", "--n", "1..10",
              "--format", "json", "--out", "p_sofic.json"],
             sofic_check, artifacts=("p_sofic.json",)),
        Step("profile-Z-fin", ["profile", "--group", "Z", "--family", "fin",
                               "--n", "1..50", "--out", "p_fin.csv"],
             fin_check, artifacts=("p_fin.csv",)),
        Step("audit", ["audit", "--groups", "Z;Z^2;Heisenberg(1)",
                       "--n-max", "4", "--out", "audit.json"],
             audit_check, artifacts=("audit.json",)),
        Step("rfgrowth-heisenberg",
             ["rfgrowth", "--group", "Heisenberg(1)", "--n", "1..8",
              "--quotients", "congruence-least", "--out", "rf_heis.csv"],
             rf_heis_check, artifacts=("rf_heis.csv",)),
        Step("rfgrowth-Z2", ["rfgrowth", "--group", "Z^2", "--n", "1..6",
                             "--out", "rf_z2.csv"],
             rf_z2_check, artifacts=("rf_z2.csv",)),
    ]


def verify_received(seed, workdir):
    """Certificates received from elsewhere, each verified once.

    Set-up builds them with the library and writes them as the CLI would.
    """
    from groupapprox import certify, construct, groups

    rng = random.Random(seed)
    Z2 = groups.FreeAbelian(2)
    H = groups.Heisenberg(1)

    def lattice(m):
        return groups.LatticeHNF(Z2, [(m, 0), (0, m)])

    def write(name, obj):
        with open(os.path.join(workdir, name), "w") as f:
            f.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")

    big = construct.from_quotient(Z2, lattice(25), 12, "sofic")
    small = construct.from_quotient(Z2, lattice(17), 8, "sofic")
    fin = construct.from_quotient(H, groups.CongruenceMod(H, 7), 3, "fin")
    hom = certify.HomCertificate(
        Z2, {lab: small.target(p) for lab, p in Z2.generators()}, "sofic",
        relators=certify.default_relators(Z2))
    base = small.to_json()
    write("big.json", big.to_json())
    write("small.json", base)
    write("fin.json", fin.to_json())
    write("hom.json", hom.to_json())

    count = len(base["assignments"])
    i, j = rng.sample(range(count), 2)
    tampered = json.loads(json.dumps(base))
    tampered["assignments"][i]["target"] = base["assignments"][j]["target"]
    write("tampered.json", tampered)

    mutations = {
        "empty-assignments": lambda o: o.update(assignments=[]),
        "missing-target": lambda o: o["assignments"][i].pop("target"),
        "unknown-group-kind": lambda o: o["group"].update(kind="NoSuchGroup"),
        "duplicate-element":
            lambda o: o["assignments"].append(dict(o["assignments"][j])),
    }
    for name, mutate in mutations.items():
        obj = json.loads(json.dumps(base))
        mutate(obj)
        write(f"{name}.json", obj)

    suite_seed = str(rng.randrange(10 ** 6))
    ok = dict(defect=0.0, separation=1.0)

    def suite_check(path):
        report = _report_check(path, **ok)

        def check(stdout, workdir):
            rep = report(stdout, workdir)
            suite = rep["lemma_suite"]
            expect(suite["pass"] is True, f"{path}: lemma suite failed")
            expect(suite["tuples_checked"] == 200,
                   f"{path}: {suite['tuples_checked']} tuples")
        return check

    words = 1 + 4 * (3 ** 8 - 1) // 2  # reduced words of length <= 8 in F_2
    size_big = _ball_size_Zd(2, 12)
    steps = [
        Step("verify-Z2-sofic", ["verify", "--cert", "big.json",
                                 "--out", "v_big.json"],
             _report_check("v_big.json", **ok, pairs=_product_pairs_Zd(2, 12),
                           sep_pairs=size_big * (size_big - 1) // 2),
             artifacts=("v_big.json",)),
        Step("verify-Z2-lemma-suite",
             ["--seed", suite_seed, "verify", "--cert", "small.json",
              "--lemma-suite", "--out", "v_small.json"],
             suite_check("v_small.json"), artifacts=("v_small.json",)),
        Step("verify-heisenberg-fin", ["verify", "--cert", "fin.json",
                                       "--out", "v_fin.json"],
             _report_check("v_fin.json", **ok), artifacts=("v_fin.json",)),
        Step("verify-heisenberg-fin-lemma-suite",
             ["--seed", suite_seed, "verify", "--cert", "fin.json",
              "--lemma-suite", "--out", "v_fin_suite.json"],
             suite_check("v_fin_suite.json"), artifacts=("v_fin_suite.json",)),
        Step("verify-words", ["verify", "--cert", "hom.json", "--at-n", "8",
                              "--out", "v_words.json"],
             _report_check("v_words.json", **ok, pairs=words, sep_pairs=words),
             artifacts=("v_words.json",)),
        Step("verify-relators", ["verify", "--cert", "hom.json", "--at-n", "8",
                                 "--relators-only", "--out", "v_rel.json"],
             _report_check("v_rel.json", **ok, pairs=words, sep_pairs=words),
             artifacts=("v_rel.json",)),
        Step("verify-tampered", ["verify", "--cert", "tampered.json",
                                 "--out", "v_tampered.json"],
             _tampered_check("v_tampered.json"),
             expect_rc=2, artifacts=("v_tampered.json",)),
    ]
    steps += [Step(f"probe-{name}", ["verify", "--cert", f"{name}.json"],
                   expect_rc=1, probe=True)
              for name in mutations]
    return steps


def _tampered_check(path):
    def check(stdout, workdir):
        rep = _load(workdir, path)
        expect(rep["pass"] is False, f"{path}: tampered certificate passed")
        expect(rep["separation"] == 0.0,
               f"{path}: separation {rep['separation']} != 0")
    return check


# Workloads that spend most of their time in numpy rather than in the
# interpreter (hyp_amplify: the permutation sweep of the verifier). Their
# slowdown reference adds a numpy gather to the pure-Python loop, which
# tracks the machine's drift for them better than the loop alone.
NUMPY_HEAVY = {"hyp_amplify"}

WORKLOADS = {
    "hyp_amplify": hyp_amplify,
    "lin_exact": lin_exact,
    "profile_audit": profile_audit,
    "verify_received": verify_received,
}

# The layer functions whose summed self time should lead each workload's
# traced run (see layer_map.json).
STRESSORS = {
    "hyp_amplify": ("certify.verify_D",),
    "lin_exact": ("targets.RankMatrix.mul", "targets.rank_distance"),
    "profile_audit": ("groups.ball",),
    # word-level verification (verify_W and its relators-only mode), the
    # lemma suite, and decoding
    "verify_received": ("certify.verify_W", "certify.verify_R",
                        "certify.lemma_consistency_suite", "certify.from_json",
                        "targets.target_from_json", "cli.load_certificate"),
}
