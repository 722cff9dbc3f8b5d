"""Run-time tracing of the groupapprox layers, from outside the package.

``Tracer.install()`` replaces the public functions of each package module
(the layers) with wrappers, so nothing under ``src/`` changes:

* module-level functions record a span each (name, start, end, parent span,
  repetition), kept in memory and written out when the repetition ends;
* per-element methods -- target ``mul``/``dist``, the targets module's
  functions and ``Group.mul`` -- keep aggregated counts and time only, since
  they run millions of times.

Self time is a call's duration minus the time its traced children cover, so
the self times of all names add up to the traced ``cli.main`` time. Work the
tracer does for itself (certificate digests, ball keys) is charged to
``trace.internal`` and paused so it is never counted as program work.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("cli", "groups", "targets", "certify", "construct", "profiles")
TARGET_CLASSES = ("Permutation", "PermUnitary", "RankMatrix",
                  "FiniteGroupElement", "ImplicitTensorUnitary")
# Entry points of cli: everything else there (argparse, canonical_json,
# emit) is cli.main's own work.
CLI_FUNCTIONS = ("main", "load_certificate")
SPAN_CAP = 200_000


class Tracer:
    def __init__(self, rep):
        self.rep = rep
        self.frames = [[0.0, None]]  # [child seconds, span id] per open call
        self.stats = {}              # name -> [calls, inclusive s, self s]
        self.active = Counter()      # name -> open calls (for inclusive s)
        self.open_layers = Counter()
        self.counts = Counter()
        self.ball_keys = set()
        self.cert_digests = set()
        self.spans = []
        self.next_id = 0
        self.paused = False

    # -- wrappers ---------------------------------------------------------

    def _internal(self, fn, *args):
        """Run tracer bookkeeping off the books of the enclosing call."""
        self.paused = True
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            d = time.perf_counter() - t0
            self.paused = False
            self.frames[-1][0] += d
            self._stat("trace.internal")[2] += d

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        return st

    def timed(self, name, fn, span=True, before=None, after=None):
        tracer = self
        frames, active, layers = self.frames, self.active, self.open_layers
        layer = name.split(".", 1)[0]
        st = self._stat(name)

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                tracer._internal(before, args, kwargs)
            sid = tracer.next_id
            tracer.next_id += 1
            parent = frames[-1][1]
            frame = [0.0, sid]
            frames.append(frame)
            active[name] += 1
            layers[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                frames.pop()
                active[name] -= 1
                layers[layer] -= 1
                d = t1 - t0
                frames[-1][0] += d
                st[0] += 1
                st[2] += d - frame[0]
                if not active[name]:
                    st[1] += d
                if span:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((sid, name, t0, t1, parent))
                    else:
                        tracer.counts["trace.spans_dropped"] += 1
            if after is not None:
                tracer._internal(after, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args):
            if not tracer.paused:
                counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _after_ball(self, result, args, kwargs):
        G = args[0] if args else kwargs["G"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.counts["groups.ball.elements"] += len(result)
        self.ball_keys.add((json.dumps(G.descriptor(), sort_keys=True), n))

    def _before_verify_D(self, args, kwargs):
        cert = args[0] if args else kwargs["cert"]
        try:
            text = cert.dumps()
        except Exception:
            # a certificate that cannot be serialized is still one call; the
            # program reports its own error once verify_D runs
            text = f"undumpable:{len(self.cert_digests)}"
        self.cert_digests.add(hashlib.sha256(text.encode()).hexdigest())
        if self.open_layers["construct"]:
            self.counts["construct.checks"] += 1

    def _after_verify_D(self, report, args, kwargs):
        self.counts["certify.verify_D.pairs"] += (
            report.pairs_checked + report.separation_pairs)

    def _after_verify_W(self, report, args, kwargs):
        self.counts["certify.verify_W.words"] += report.pairs_checked

    # -- installation -----------------------------------------------------

    def install(self):
        from groupapprox import certify, groups, targets

        hooks = {
            "groups.ball": dict(after=self._after_ball),
            "certify.verify_D": dict(before=self._before_verify_D,
                                     after=self._after_verify_D),
            "certify.verify_W": dict(after=self._after_verify_W),
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"groupapprox.{layer}")
            for attr, fn in list(vars(mod).items()):
                # a generator's time is spent after it returns, so its
                # callers keep it
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or inspect.isgeneratorfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer == "cli" and attr not in CLI_FUNCTIONS)):
                    continue
                name = f"{layer}.{attr}"
                setattr(mod, attr, self.timed(
                    name, fn, span=layer != "targets", **hooks.get(name, {})))

        for cls_name in TARGET_CLASSES:
            cls = getattr(targets, cls_name)
            for meth in ("mul", "dist"):
                setattr(cls, meth, self.timed(
                    f"targets.{cls_name}.{meth}", vars(cls)[meth], span=False))

        for obj in vars(groups).values():
            if (inspect.isclass(obj) and issubclass(obj, groups.Group)
                    and "mul" in vars(obj)):
                obj.mul = self.counted("groups.mul.calls", vars(obj)["mul"])

        for cls in (certify.ApproxCertificate, certify.HomCertificate):
            raw = vars(cls)["from_json"].__func__
            cls.from_json = classmethod(
                self.timed("certify.from_json", raw))
        certify.ApproxCertificate.dumps = self.timed(
            "certify.dumps", vars(certify.ApproxCertificate)["dumps"])

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, name, t0, t1, parent in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0,
                                    "end": t1, "parent": parent,
                                    "rep": self.rep}) + "\n")

    def summary(self):
        """Flat metrics: ``<name>.{calls,s,self_s}``, layer self times and
        the exact work counters."""
        out = {}
        layer_self = Counter()
        for name, (calls, incl, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
            layer_self[name.split(".", 1)[0]] += self_s
        for layer in LAYERS + ("trace",):
            out[f"layer.{layer}.self_s"] = layer_self[layer]
        out.update(self.counts)
        calls = self.stats.get("certify.verify_D", [0])[0]
        out["groups.ball.distinct"] = len(self.ball_keys)
        out["certify.verify_D.distinct"] = len(self.cert_digests)
        out["certify.verify_D.reverify"] = calls - len(self.cert_digests)
        return out
