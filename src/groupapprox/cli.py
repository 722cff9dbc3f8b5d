"""Command-line frontend: deterministic, file-based workflows over the
library. Identical invocations produce byte-identical artifacts."""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import groups as G_
from . import targets as T_
from . import certify as C_
from . import construct as X_
from . import profiles as P_

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_CAP = 3


class UsageError(Exception):
    pass


class VerifyFailure(Exception):
    pass


class ResourceCap(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through our exit-code policy
    def error(self, message):
        raise UsageError(message)


def _json_default(o):
    from fractions import Fraction
    if isinstance(o, Fraction):
        return str(o)
    raise TypeError(f"not JSON serializable: {o!r}")


def _write_json(obj, path):
    """Write obj as canonical JSON (sorted keys, indent 1, final newline) to
    path, or to stdout for None or "-", streamed without building the text."""
    if path in (None, "-"):
        _dump_json(obj, sys.stdout)
    else:
        with open(path, "w") as f:
            _dump_json(obj, f)


def _dump_json(obj, f):
    json.dump(obj, f, sort_keys=True, indent=1, default=_json_default)
    f.write("\n")


def _emit(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _parse_range(text):
    """'3' or '1..10' to an inclusive integer range."""
    t = text.strip()
    try:
        if ".." in t:
            lo, hi = (int(x) for x in t.split("..", 1))
        else:
            lo = hi = int(t)
    except ValueError:
        raise UsageError(f"bad range {text!r}")
    if lo < 0 or hi < lo:
        raise UsageError(f"bad range {text!r}")
    return list(range(lo, hi + 1))


def read_config(path):
    """Flat key=value lines; '#' comments; keys use flag spelling."""
    out = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {raw.strip()!r}")
            k, v = line.split("=", 1)
            out[k.strip().replace("-", "_")] = v.strip()
    return out


def _apply_config(parser, config):
    """Install config values as typed defaults; explicit flags still win.
    Returns the set of keys this parser consumed."""
    used = set()
    for action in parser._actions:
        if action.dest in config:
            raw = config[action.dest]
            if isinstance(action, (argparse._StoreTrueAction,
                                   argparse._StoreFalseAction)):
                val = raw.lower() in ("1", "true", "yes", "on")
            elif action.type is not None:
                try:
                    val = action.type(raw)
                except (TypeError, ValueError):
                    # same key name, different type on another subcommand
                    continue
            else:
                val = raw
            parser.set_defaults(**{action.dest: val})
            action.required = False
            used.add(action.dest)
    return used


def _field_from_label(label):
    t = label.strip()
    if t in ("Q", "q"):
        return T_.FieldQ()
    if t.startswith("F") and t[1:].isdigit():
        try:
            return T_.FieldFp(int(t[1:]))
        except ValueError as e:
            raise UsageError(str(e))
    raise UsageError(f"unknown field {label!r} (use Q or Fp)")


def _group(text):
    if text is None:
        raise UsageError("this command needs --group")
    try:
        return G_.parse_group(text)
    except ValueError as e:
        raise UsageError(str(e))


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise UsageError(f"{path} is not valid JSON: {e}")


def load_certificate(path):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise UsageError(f"{path} is not a recognized certificate")
    if "assignments" in obj:
        return C_.ApproxCertificate.from_json(obj)
    if "images" in obj:
        return C_.HomCertificate.from_json(obj)
    raise UsageError(f"{path} is not a recognized certificate")


# ---------------------------------------------------------------------------
# subcommands

def cmd_ball(args):
    G = _group(args.group)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    try:
        B = G_.ball(G, args.n, cap=args.cap)
    except G_.BallCapExceeded:
        raise ResourceCap(f"ball cap {args.cap} exceeded")
    artifact = {"group": G.descriptor(), "n": args.n, "size": len(B),
                "elements": [G.fmt(p) for p in B.elements]}
    _write_json(artifact, args.out)
    return EXIT_OK


def _parse_lattice(text):
    rows = []
    for part in text.split(";"):
        rows.append(tuple(int(x) for x in part.split(",")))
    return rows


_NEEDS_N = ("cyclic-z", "from-quotient", "exact-finite", "perm-to-hyp",
            "amplify")


def _quotient(G, args):
    """The finite quotient of G named by --modulus or --lattice."""
    try:
        if isinstance(G, G_.Heisenberg):
            if args.modulus is None:
                raise UsageError("from-quotient on Heisenberg needs --modulus")
            return G_.CongruenceMod(G, args.modulus)
        if not isinstance(G, G_.FreeAbelian):
            raise UsageError("from-quotient supports Z^d and Heisenberg")
        if args.lattice:
            return G_.LatticeHNF(G, _parse_lattice(args.lattice))
        if args.modulus is not None:
            return G_.LatticeHNF(G, [tuple(args.modulus if i == j else 0
                                           for j in range(G.d))
                                     for i in range(G.d)])
        raise UsageError("from-quotient needs --lattice or --modulus")
    except ValueError as e:
        raise UsageError(f"bad quotient: {e}")


def _build(args):
    m = args.method
    if m in _NEEDS_N and args.n is None:
        raise UsageError(f"method {m} needs --n")
    if m == "cyclic-z":
        return X_.cyclic_Z(args.n)
    if m == "from-quotient":
        G = _group(args.group)
        return X_.from_quotient(G, _quotient(G, args), args.n, args.family,
                                field=_field_from_label(args.field))
    if m == "exact-finite":
        return X_.exact_finite(_group(args.group), args.n, args.family)
    if m == "direct-product":
        if not (args.input and args.input2):
            raise UsageError("direct-product needs --input and --input2")
        return X_.direct_product(load_certificate(args.input),
                                 load_certificate(args.input2))
    if m == "perm-to-hyp":
        if not args.input:
            raise UsageError("perm-to-hyp needs --input")
        return X_.perm_to_hyp(load_certificate(args.input), args.n)
    if m == "perm-to-lin":
        if not args.input:
            raise UsageError("perm-to-lin needs --input")
        return X_.perm_to_lin(load_certificate(args.input),
                              field=_field_from_label(args.field))
    if m == "amplify":
        if not args.input:
            raise UsageError("amplify needs --input")
        return X_.amplify_projective(load_certificate(args.input), args.n)
    if m == "folner-to-sofic":
        if not args.witness:
            raise UsageError("folner-to-sofic needs --witness")
        w = X_.witness_from_json(_load_json(args.witness))
        return X_.folner_to_sofic(w, args.n)
    raise UsageError(f"unknown method {m!r}")


def cmd_construct(args):
    try:
        cert = _build(args)
    except X_.BuildError as e:
        raise UsageError(str(e))
    except C_.UpstreamVerificationError as e:
        raise VerifyFailure(str(e))
    except G_.BallCapExceeded as e:
        raise ResourceCap(str(e))
    _write_json(cert.to_json(), args.out)
    if args.out not in (None, "-"):
        summary = {"family": cert.family, "n": cert.n,
                   "dimension": cert.dimension_json(), "written": args.out}
        _write_json(summary, None)
    return EXIT_OK


def cmd_verify(args):
    try:
        cert = load_certificate(args.cert)
        if isinstance(cert, C_.HomCertificate):
            if args.at_n is None:
                raise UsageError("word-level verification needs --at-n")
            rep = (C_.verify_R if args.relators_only else C_.verify_W)(
                cert, args.at_n, margin=args.margin)
        else:
            rep = C_.verify_D(cert, margin=args.margin, at_n=args.at_n)
    except C_.WordCapExceeded as e:
        raise ResourceCap(str(e))
    except G_.BallCapExceeded as e:
        raise ResourceCap(str(e))
    report = rep.to_json()
    if args.lemma_suite and isinstance(cert, C_.ApproxCertificate):
        report["lemma_suite"] = C_.lemma_consistency_suite(
            cert, seed=args.seed)
    _write_json(report, args.out)
    if not rep.passed:
        raise VerifyFailure(rep.failure_summary())
    if args.lemma_suite and not report.get("lemma_suite", {}).get("pass",
                                                                  True):
        raise VerifyFailure("lemma consistency suite failed")
    return EXIT_OK


_PROFILE_FAMILIES = ("growth", "fin", "sofic", "hyp", "lin", "folner", "rf")


def _profile_curve(G, desc, family, ns):
    n_max = max(ns)
    if family == "growth":
        return P_.growth_curve(G, ns)
    if isinstance(G, G_.FreeAbelian) and G.d == 1:
        bundle = P_.standard_curves_Z(n_max=n_max)
    elif isinstance(G, G_.FreeAbelian) and G.d == 2:
        bundle = P_.standard_curves_Z2(n_max=n_max)
    elif isinstance(G, G_.Heisenberg) and G.l == 1:
        bundle = P_.standard_curves_heisenberg(n_max=n_max)
    else:
        raise UsageError(f"no profile curves for {desc}")
    key = {"fin": "dfin", "sofic": "dsof", "hyp": "dhyp", "lin": "dlin",
           "folner": "folner", "rf": "phi"}[family]
    if key not in bundle:
        raise UsageError(f"family {family!r} not available for {desc}")
    curve = bundle[key]
    trimmed = P_.ProfileCurve(curve.group_desc, curve.family)
    for p in curve.points:
        if p.n in ns:
            trimmed.add(p)
    return trimmed


def _fmt_value(v):
    if v is None:
        return ""
    if v == P_.INF:
        return "inf"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def curve_to_csv(group_label, family, curve):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["group", "family", "n", "lower", "exact", "upper",
                "provenance"])
    for row in curve.rows():
        w.writerow([group_label, family, row["n"], _fmt_value(row["lower"]),
                    _fmt_value(row["exact"]), _fmt_value(row["upper"]),
                    row["provenance"]])
    return buf.getvalue()


def cmd_profile(args):
    G = _group(args.group)
    ns = _parse_range(args.n)
    if ns and ns[0] == 0:
        raise UsageError("profiles start at n=1")
    if args.family not in _PROFILE_FAMILIES:
        raise UsageError(f"family must be one of {_PROFILE_FAMILIES}")
    curve = _profile_curve(G, args.group, args.family, ns)
    if args.format == "json":
        out = curve.to_json()
        if args.slope_window:
            try:
                lo, hi = (int(x) for x in args.slope_window.split(",", 1))
            except ValueError:
                raise UsageError(
                    f"bad slope window {args.slope_window!r} (use LO,HI)")
            out["fit"] = curve.fit_slope((lo, hi))
        _write_json(out, args.out)
    else:
        _emit(curve_to_csv(args.group, args.family, curve), args.out)
    return EXIT_OK


def cmd_folner(args):
    G = _group(args.group)
    try:
        outcome = P_.folner_search(G, args.n, strategy=args.strategy,
                                   r_max=args.r_max, size_max=args.size_max)
    except ValueError as e:
        raise UsageError(str(e))
    if outcome.witness is None:
        sys.stderr.write(f"no witness: {outcome.note}\n")
        raise ResourceCap(outcome.note)
    w = outcome.witness
    if args.controlled:
        radius = max(len(w.members), args.n)
        while not all(a in G_.ball(G, radius) for a in w.members):
            radius += 1
        w = X_.FolnerWitness(G, args.n, w.members, radius_bound=radius)
    artifact = w.to_json()
    artifact["strategy"] = args.strategy
    artifact["exact_minimum"] = outcome.exact
    artifact["note"] = outcome.note
    _write_json(artifact, args.out)
    return EXIT_OK


def cmd_rfgrowth(args):
    G = _group(args.group)
    ns = _parse_range(args.n)
    curve = P_.ProfileCurve(args.group, "rf")
    for n in ns:
        if n == 0:
            raise UsageError("rf growth starts at n=1")
        try:
            curve.add(P_.full_rf_growth(G, n, quotient_family=args.quotients))
        except NotImplementedError as e:
            raise UsageError(str(e))
    if args.format == "json":
        _write_json(curve.to_json(), args.out)
    else:
        _emit(curve_to_csv(args.group, "rf", curve), args.out)
    return EXIT_OK


_AUDIT_BUILDERS = {
    "Z": lambda n: P_.standard_curves_Z(n_max=n or 10),
    "Z^2": lambda n: P_.standard_curves_Z2(n_max=n or 5),
    "Heisenberg(1)": lambda n: P_.standard_curves_heisenberg(n_max=n or 4),
}


def cmd_audit(args):
    if args.n_max is not None and args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    wanted = [g.strip() for g in args.groups.split(";")]
    curves = {}
    for label in wanted:
        if label not in _AUDIT_BUILDERS:
            raise UsageError(
                f"audit supports {sorted(_AUDIT_BUILDERS)}, not {label!r}")
        curves[label] = _AUDIT_BUILDERS[label](args.n_max)
    report = P_.inequality_audit(curves)
    _write_json(report, args.out)
    if not report["pass"]:
        raise VerifyFailure(f"{len(report['violations'])} violations")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser():
    p = _Parser(prog="groupapprox",
                description="metric approximations of finitely generated "
                            "groups: construct, verify, profile")
    p.add_argument("--config", help="flat key=value config file; flags win")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized checks (default 0)")
    sub = p.add_subparsers(dest="command", metavar="command")
    p.sub_parsers = {}

    def add(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=fn)
        sp.add_argument("--out", default=None,
                        help="artifact path (default stdout)")
        p.sub_parsers[name] = sp
        return sp

    sp = add("ball", cmd_ball, "enumerate a word-metric ball")
    sp.add_argument("--group", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cap", type=int, default=G_.DEFAULT_BALL_CAP)

    sp = add("construct", cmd_construct, "build a certificate")
    sp.add_argument("--method", required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--group", default=None)
    sp.add_argument("--family", default="sofic")
    sp.add_argument("--modulus", type=int, default=None)
    sp.add_argument("--lattice", default=None,
                    help="HNF rows, e.g. '1,2;0,5'")
    sp.add_argument("--field", default="Q")
    sp.add_argument("--input", default=None, help="input certificate path")
    sp.add_argument("--input2", default=None)
    sp.add_argument("--witness", default=None, help="Folner witness path")

    sp = add("verify", cmd_verify, "verify a certificate, exit 2 on failure")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--at-n", type=int, default=None)
    sp.add_argument("--margin", type=float, default=C_.DEFAULT_FLOAT_MARGIN)
    sp.add_argument("--relators-only", action="store_true")
    sp.add_argument("--lemma-suite", action="store_true",
                    help="also run the bounded-defect lemma suite")

    sp = add("profile", cmd_profile, "emit a profile curve")
    sp.add_argument("--group", required=True)
    sp.add_argument("--family", required=True,
                    help="|".join(_PROFILE_FAMILIES))
    sp.add_argument("--n", required=True, help="N or LO..HI")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--slope-window", default=None, help="LO,HI (json only)")

    sp = add("folner", cmd_folner, "search for a Folner witness")
    sp.add_argument("--group", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--strategy", choices=("exhaustive", "balls", "boxes"),
                    default="balls")
    sp.add_argument("--r-max", type=int, default=None)
    sp.add_argument("--size-max", type=int, default=None)
    sp.add_argument("--controlled", action="store_true",
                    help="record the smallest covering radius bound")

    sp = add("rfgrowth", cmd_rfgrowth, "full residual finiteness growth")
    sp.add_argument("--group", required=True)
    sp.add_argument("--n", required=True, help="N or LO..HI")
    sp.add_argument("--quotients", default="auto",
                    help="auto|congruence|congruence-least")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("audit", cmd_audit, "audit the profile inequality web")
    sp.add_argument("--groups", default="Z;Z^2;Heisenberg(1)",
                    help="semicolon-separated group labels")
    sp.add_argument("--n-max", type=int, default=None)

    return p


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if "--config" in argv:
            i = argv.index("--config")
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            try:
                config = read_config(argv[i + 1])
            except OSError as e:
                raise UsageError(f"cannot read config: {e}")
            used = _apply_config(parser, config)
            for sp in parser.sub_parsers.values():
                used |= _apply_config(sp, config)
            unknown = set(config) - used
            if unknown:
                raise UsageError(f"unknown config keys {sorted(unknown)}")
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except (UsageError, C_.CertificateError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except VerifyFailure as e:
        sys.stderr.write(f"verification failure: {e}\n")
        return EXIT_VERIFY
    except ResourceCap as e:
        sys.stderr.write(f"resource cap: {e}\n")
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
