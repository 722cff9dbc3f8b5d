"""Command-line frontend: deterministic, file-based workflows over the
library. Identical invocations produce byte-identical artifacts."""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys

from . import canonical as J_
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


def _write_json(obj, path):
    """Write obj as canonical JSON (sorted keys, indent 1, final newline;
    see canonical.dump) to path, or to stdout for None or "-", streamed
    without building the text."""
    if path in (None, "-"):
        _dump_json(obj, sys.stdout)
    else:
        with open(path, "w") as f:
            _dump_json(obj, f)


def _dump_json(obj, f):
    J_.dump(obj, f)
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


# the spellings a config file may give a flag that takes no value
_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _config_values(parser, config):
    """The typed values that ``config`` gives the options of ``parser``,
    by dest; a value that does not convert is for another subcommand's
    option of the same name."""
    values = {}
    for action, _, _ in parser.declared:
        if action.dest in config:
            raw = config[action.dest]
            if isinstance(action, (argparse._StoreTrueAction,
                                   argparse._StoreFalseAction)):
                val = _CONFIG_BOOLS.get(raw.lower())
                if val is None:
                    raise UsageError(
                        f"config value {raw!r} of {action.dest} is not one "
                        f"of {', '.join(_CONFIG_BOOLS)}")
            elif action.type is not None:
                try:
                    val = action.type(raw)
                except (TypeError, ValueError):
                    continue
            else:
                val = raw
            values[action.dest] = val
    return values


def _fill_defaults(parser, args, values):
    """Give each option of ``parser`` that args lacks, having not been on
    the command line, its config value from ``values``, else its declared
    default; UsageError naming the required options that have neither."""
    missing = []
    for action, default, required in parser.declared:
        if hasattr(args, action.dest):
            continue
        if action.dest in values:
            setattr(args, action.dest, values[action.dest])
        elif required:
            missing.append("/".join(action.option_strings))
        else:
            setattr(args, action.dest, default)
    if missing:
        raise UsageError(f"the following arguments are required: "
                         f"{', '.join(missing)}")


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


def _ball_certificate(path, method):
    """The element-level certificate at path; UsageError naming
    ``method``, which reads a certificate's ball, for a word-level one."""
    cert = load_certificate(path)
    if isinstance(cert, C_.HomCertificate):
        raise UsageError(f"method {method} needs an element-level "
                         f"certificate, and {path} is word-level")
    return cert


# ---------------------------------------------------------------------------
# subcommands

def cmd_ball(args):
    G = _group(args.group)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    B = G_.ball(G, args.n, cap=args.cap)
    artifact = {"group": G.descriptor(), "n": args.n, "size": len(B),
                "elements": J_.Chunks(B.label_text())}
    _write_json(artifact, args.out)
    return EXIT_OK


def _parse_lattice(text):
    rows = []
    for part in text.split(";"):
        rows.append(tuple(int(x) for x in part.split(",")))
    return rows


# the flags each construct method reads, and those of them it needs; a
# method refuses any other flag given on the command line
_METHOD_FLAGS = {
    "cyclic-z": (("n",), ("n",)),
    "from-quotient": (("n", "group", "family", "modulus", "lattice",
                       "field"), ("n", "group")),
    "exact-finite": (("n", "group", "family"), ("n", "group")),
    "direct-product": (("input", "input2"), ("input", "input2")),
    "perm-to-hyp": (("n", "input"), ("n", "input")),
    "perm-to-lin": (("input", "field"), ("input",)),
    "amplify": (("n", "input"), ("n", "input")),
    "folner-to-sofic": (("n", "witness"), ("witness",)),
}


def _refuse_unread(args, reads, who):
    """UsageError naming the flags given on the command line, beyond
    --out and ``reads``, that ``who`` never reads."""
    unread = ", ".join("--" + f.replace("_", "-")
                       for f in sorted(args.given - {"out", *reads}))
    if unread:
        raise UsageError(f"{who} does not read {unread}")


def _quotient(G, args):
    """The finite quotient of G named by --modulus or --lattice."""
    if args.modulus is not None and args.modulus < 1:
        raise UsageError("bad quotient: modulus must be >= 1")
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
    if m not in _METHOD_FLAGS:
        raise UsageError(f"unknown method {m!r}")
    reads, needs = _METHOD_FLAGS[m]
    _refuse_unread(args, ("method", *reads), f"method {m}")
    missing = " and ".join("--" + f for f in needs if getattr(args, f) is None)
    if missing:
        raise UsageError(f"method {m} needs {missing}")
    if args.n is not None and args.n < 1:
        raise UsageError("--n must be at least 1")
    if m == "cyclic-z":
        return X_.cyclic_Z(args.n)
    if m == "from-quotient":
        G = _group(args.group)
        # what the quotient and the family read of the method's flags
        for flag, unread_because in (
                ("lattice", isinstance(G, G_.Heisenberg)
                 and f"on {args.group}"),
                ("modulus", isinstance(G, G_.FreeAbelian) and args.lattice
                 and "with --lattice"),
                ("field", args.family != "lin"
                 and f"with --family {args.family}")):
            if unread_because and flag in args.given:
                raise UsageError(f"method from-quotient {unread_because} "
                                 f"does not read --{flag}")
        return X_.from_quotient(G, _quotient(G, args), args.n, args.family,
                                field=_field_from_label(args.field))
    if m == "exact-finite":
        return X_.exact_finite(_group(args.group), args.n, args.family)
    if m == "direct-product":
        return X_.direct_product(_ball_certificate(args.input, m),
                                 _ball_certificate(args.input2, m))
    if m == "perm-to-hyp":
        return X_.perm_to_hyp(_ball_certificate(args.input, m), args.n)
    if m == "perm-to-lin":
        return X_.perm_to_lin(_ball_certificate(args.input, m),
                              field=_field_from_label(args.field))
    if m == "amplify":
        return X_.amplify_projective(_ball_certificate(args.input, m),
                                     args.n)
    # folner-to-sofic
    w = X_.witness_from_json(_load_json(args.witness))
    return X_.folner_to_sofic(w, args.n)


def cmd_construct(args):
    try:
        cert = _build(args)
    except X_.BuildError as e:
        raise UsageError(str(e))
    except C_.UpstreamVerificationError as e:
        raise VerifyFailure(str(e))
    _write_json(cert.to_json(), args.out)
    if args.out not in (None, "-"):
        summary = {"family": cert.family, "n": cert.n,
                   "dimension": cert.dimension, "written": args.out}
        _write_json(summary, None)
    return EXIT_OK


def cmd_verify(args):
    try:
        cert = load_certificate(args.cert)
        # a --margin from a config file is a default, not a request
        if "margin" in args.given and C_.family_record(cert.family).exact:
            raise UsageError(f"verify decides a {cert.family} certificate "
                             f"exactly and does not read --margin")
        if isinstance(cert, C_.HomCertificate):
            if args.at_n is None:
                raise UsageError("word-level verification needs --at-n")
            if args.lemma_suite:
                raise UsageError(
                    "--lemma-suite applies only to element-level certificates")
            rep = (C_.verify_R if args.relators_only else C_.verify_W)(
                cert, args.at_n, margin=args.margin)
        else:
            if args.relators_only:
                raise UsageError(
                    "--relators-only applies only to word-level certificates")
            rep = C_.verify_D(cert, margin=args.margin, at_n=args.at_n)
    except C_.WordCapExceeded as e:
        raise ResourceCap(str(e))
    report = rep.to_json()
    if args.lemma_suite:
        report["lemma_suite"] = C_.lemma_consistency_suite(
            cert, seed=args.seed)
    _write_json(report, args.out)
    if not rep.passed:
        raise VerifyFailure(rep.failure_summary())
    if args.lemma_suite and not report["lemma_suite"]["pass"]:
        raise VerifyFailure("lemma consistency suite failed")
    return EXIT_OK


_PROFILE_FAMILIES = ("growth", "fin", "sofic", "hyp", "lin", "folner", "rf")


def _profile_curve(G, desc, family, ns):
    if family == "growth":
        return P_.growth_curve(G, ns)
    label = next((k for k, e in P_.CATALOG.items() if e.group == G), None)
    if label is None:
        raise UsageError(f"no profile curves for {desc}")
    if family not in P_.CATALOG[label].rules:
        raise UsageError(f"family {family!r} not available for {desc}")
    return P_.standard_curves(label, families=[family], radii=ns)[family]


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
    _refuse_unread(args, ("group", "family", "n", "format")
                   + (("slope_window",) if args.format == "json" else ()),
                   f"profile --format {args.format}")
    curve = _profile_curve(G, args.group, args.family, ns)
    if args.format == "json":
        out = curve.to_json()
        if args.slope_window:
            try:
                lo, hi = (int(x) for x in args.slope_window.split(",", 1))
            except ValueError:
                raise UsageError(
                    f"bad slope window {args.slope_window!r} (use LO,HI)")
            if lo > hi:
                raise UsageError(f"bad slope window {args.slope_window!r}: "
                                 f"LO above HI")
            try:
                out["fit"] = curve.fit_slope((lo, hi))
            except ValueError as e:
                raise UsageError(str(e))
        _write_json(out, args.out)
    else:
        _emit(curve_to_csv(args.group, args.family, curve), args.out)
    return EXIT_OK


# the flags each folner strategy reads beyond the common ones
_STRATEGY_FLAGS = {"exhaustive": ("r_max", "size_max"), "balls": ("r_max",),
                   "boxes": ()}


def cmd_folner(args):
    G = _group(args.group)
    _refuse_unread(args, ("group", "n", "strategy",
                          *_STRATEGY_FLAGS[args.strategy]),
                   f"folner --strategy {args.strategy}")
    try:
        outcome = P_.folner_search(G, args.n, strategy=args.strategy,
                                   r_max=args.r_max, size_max=args.size_max)
    except ValueError as e:
        raise UsageError(str(e))
    if outcome.witness is None:
        sys.stderr.write(f"no witness: {outcome.note}\n")
        raise ResourceCap(outcome.note)
    artifact = outcome.witness.to_json()
    artifact["strategy"] = args.strategy
    artifact["exact_minimum"] = outcome.exact
    artifact["note"] = outcome.note
    _write_json(artifact, args.out)
    return EXIT_OK


_QUOTIENT_FAMILIES = ("auto", "congruence", "congruence-least")


def cmd_rfgrowth(args):
    G = _group(args.group)
    _refuse_unread(args, ("group", "n", "format")
                   + (("quotients",) if isinstance(G, G_.Heisenberg) else ()),
                   f"rfgrowth on {args.group}")
    ns = _parse_range(args.n)
    # not argparse choices: a --config value is a default, which argparse
    # never checks against them
    if args.quotients not in _QUOTIENT_FAMILIES:
        raise UsageError(f"--quotients must be one of {_QUOTIENT_FAMILIES}, "
                         f"not {args.quotients!r}")
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


def cmd_audit(args):
    if args.n_max is not None and args.n_max < 1:
        raise UsageError("--n-max must be at least 1")
    wanted = [g.strip() for g in args.groups.split(";")]
    curves = {}
    for label in wanted:
        if label not in P_.CATALOG:
            raise UsageError(
                f"audit supports {sorted(P_.CATALOG)}, not {label!r}")
        curves[label] = P_.standard_curves(label, args.n_max)
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
                   help="seed of verify --lemma-suite, the one command "
                        "that reads it, an int >= 0 (default 0)")
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

    sp = add("rfgrowth", cmd_rfgrowth, "full residual finiteness growth")
    sp.add_argument("--group", required=True)
    sp.add_argument("--n", required=True, help="N or LO..HI")
    sp.add_argument("--quotients", default="auto",
                    help="|".join(_QUOTIENT_FAMILIES))
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("audit", cmd_audit, "audit the profile inequality web")
    sp.add_argument("--groups", default="Z;Z^2;Heisenberg(1)",
                    help="semicolon-separated group labels")
    sp.add_argument("--n-max", type=int, default=None)

    return p


@functools.lru_cache(maxsize=None)
def _parser():
    """build_parser() once per process. The options of the top-level
    parser and of each subcommand keep their declared default and
    requirement in the parser's ``declared`` list and themselves default
    to nothing and are required nowhere, so a parse holds exactly the
    options on the command line and _fill_defaults adds the rest. No call
    of main changes the parser afterwards."""
    parser = build_parser()
    for p in (parser, *parser.sub_parsers.values()):
        p.declared = [(a, a.default, a.required) for a in p._actions
                      if a.option_strings and a.dest != "help"]
        for a, _, _ in p.declared:
            a.default, a.required = argparse.SUPPRESS, False
    return parser


def _check_seed(args, given):
    """UsageError for a negative seed, from the command line or a config
    file, and for a --seed on the command line of anything but verify
    --lemma-suite, the one command that reads it."""
    if args.seed < 0:
        raise UsageError(f"--seed must be an int >= 0, not {args.seed}")
    if given and not getattr(args, "lemma_suite", False):
        raise UsageError("--seed is read only by verify --lemma-suite")


def _joined_slope_windows(argv):
    """argv with each ``--slope-window LO,HI`` whose LO is negative written
    as ``--slope-window=LO,HI``: argparse takes a separate value that starts
    with '-' and is not a number for an option, and fails."""
    out = []
    for arg in argv:
        if out and out[-1] == "--slope-window" \
                and re.fullmatch(r"-\d+,-?\d+", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    argv = _joined_slope_windows(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        config = {}
        if "--config" in argv:
            i = argv.index("--config")
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            try:
                config = read_config(argv[i + 1])
            except OSError as e:
                raise UsageError(f"cannot read config: {e}")
        values = {name: _config_values(p, config) for name, p in
                  [(None, parser), *parser.sub_parsers.items()]}
        unknown = set(config).difference(*values.values())
        if unknown:
            raise UsageError(f"unknown config keys {sorted(unknown)}")
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        sp = parser.sub_parsers[args.command]
        args.given = {a.dest for a, _, _ in sp.declared
                      if hasattr(args, a.dest)}
        seed_given = hasattr(args, "seed")
        _fill_defaults(parser, args, values[None])
        _fill_defaults(sp, args, values[args.command])
        _check_seed(args, seed_given)
        return args.func(args)
    except (UsageError, C_.CertificateError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except VerifyFailure as e:
        sys.stderr.write(f"verification failure: {e}\n")
        return EXIT_VERIFY
    except (ResourceCap, G_.BallCapExceeded) as e:
        sys.stderr.write(f"resource cap: {e}\n")
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
