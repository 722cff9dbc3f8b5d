"""Certificate formats and verifiers.

An approximation certificate maps the radius-n ball of a catalog group into
one metric target group. Verification checks, with strict inequalities,

    (1)  d(pi(g) pi(h), pi(gh)) < 1/n     for g, h, gh in B(n),
    (2)  d(pi(g), pi(h)) > eps - 1/n      for distinct g, h in B(n),

using the projective metric for condition (2) in the projective families.
Exact metrics are compared exactly; floating (Hilbert-Schmidt) comparisons
fail closed at a configurable margin which is carried in the report.
"""
from __future__ import annotations

import collections
import functools
import io
import json
import math
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from . import canonical as J_
from . import groups as G_
from . import targets as T_


class CertificateError(ValueError):
    pass


def _json_dimension(obj):
    """A certificate's dimension: an exact JSON int, or for tensor images
    {"base": k, "power": l} of them (targets.ImplicitTensorUnitary)."""
    dim = obj["dimension"]
    if isinstance(dim, dict):
        return {key: T_.json_int(dim, key) for key in dim}
    return T_.json_int(obj, "dimension")


def decoded(decode, obj, what):
    """Run the decoder of a ``what`` (a certificate, a witness), turning
    any decoding failure of malformed input into CertificateError that
    names it."""
    try:
        return decode(obj)
    except CertificateError:
        raise
    except KeyError as e:
        raise CertificateError(f"{what} lacks field {e}") from e
    except (TypeError, ValueError, ArithmeticError, AttributeError,
            IndexError) as e:
        raise CertificateError(f"malformed {what}: {e}") from e


class UpstreamVerificationError(RuntimeError):
    """A builder precondition (input certificate verification) failed."""


class WordCapExceeded(Exception):
    """Word enumeration exceeded the configured cap."""


DEFAULT_FLOAT_MARGIN = 1e-9
DEFAULT_WORD_CAP = 10 ** 6

# the report notes of the kernels: the translation closed form, the
# commutant kernel, and the homomorphism kernel (ball or word level)
TRANSLATION_NOTE = "translation-certificate fast path (exact)"
COMMUTANT_NOTE = "commutant kernel (exact moved-point counts)"
HOMOMORPHISM_NOTE = "homomorphism kernel (exact)"

# A family of approximations: its default separation, the target kinds
# its certificates admit (a kind outside them would be measured in the
# wrong metric), whether it is decided exactly (all but the unitary ones,
# measured in floats) and whether condition (2) reads the projective
# metric. Every verification path reads these here and nowhere else.
Family = collections.namedtuple(
    "Family", ("epsilon", "kinds", "exact", "projective"))

FAMILIES = MappingProxyType({
    "sofic": Family(Fraction(1), (T_.Permutation, T_.CyclicPerm), True,
                    False),
    "hyp": Family(math.sqrt(2.0), (T_.UnitaryMatrix, T_.PermUnitary,
                                   T_.AugmentedUnitary,
                                   T_.ImplicitTensorUnitary), False, False),
    "hyp-projective": Family(math.sqrt(2.0), (
        T_.UnitaryMatrix, T_.PermUnitary, T_.AugmentedUnitary,
        T_.ImplicitTensorUnitary), False, True),
    "lin": Family(Fraction(1, 4), (T_.RankMatrix,), True, False),
    "lin-projective": Family(Fraction(1, 8), (T_.RankMatrix,), True, True),
    "fin": Family(Fraction(1), (T_.FiniteGroupElement,), True, False),
})


def family_record(name):
    """The FAMILIES record of ``name``, named exactly: the name selects
    the metric the verifier uses, so no variant spelling passes;
    CertificateError for any other name."""
    if not isinstance(name, str) or name not in FAMILIES:
        raise CertificateError(f"unknown family {name!r}")
    return FAMILIES[name]


def _require_family_kinds(family, targets):
    """Raise CertificateError unless the family is known and every target
    is of one of its kinds."""
    kinds = family_record(family).kinds
    for el in targets:
        if not isinstance(el, kinds):
            raise CertificateError(
                f"a {type(el).__name__} target cannot be in a {family} "
                f"certificate")


def _group_of(el):
    """The target group that ``el`` lies in: its table group, or a name
    for the group that el's kind and sizes fix."""
    if isinstance(el, T_.FiniteGroupElement):
        return el.group
    if isinstance(el, (T_.Permutation, T_.CyclicPerm)):
        return f"Sym({el.k})"
    if isinstance(el, T_.RankMatrix):
        return f"GL({el.k}, {el.field.label})"
    if isinstance(el, T_.ImplicitTensorUnitary):
        return f"U({el.base.k}) to the tensor power {el.power}"
    # a dense, permutation or augmented unitary
    return f"U({el.k})"


def _target_group(targets):
    """The one target group that ``targets`` lie in (_group_of), None
    when there are none; CertificateError when they lie in two or more,
    where products or distances would mix groups."""
    found = set(map(_group_of, targets))
    if len(found) > 1:
        names = sorted(g for g in found if isinstance(g, str))
        raise CertificateError(
            f"images lie in {len(found)} distinct "
            + (f"target groups: {', '.join(names)}" if names
               else "table groups"))
    return found.pop() if found else None


def target_identity_like(el):
    """Identity element of the target group el lives in."""
    if isinstance(el, T_.Permutation):
        return T_.Permutation.identity(el.k)
    if isinstance(el, T_.CyclicPerm):
        return T_.CyclicPerm(el.m, 0)
    if isinstance(el, T_.PermUnitary):
        return T_.PermUnitary(T_.Permutation.identity(el.k))
    if isinstance(el, T_.AugmentedUnitary):
        return T_.AugmentedUnitary(target_identity_like(el.inner), el.pad)
    if isinstance(el, T_.ImplicitTensorUnitary):
        return T_.ImplicitTensorUnitary(target_identity_like(el.base), el.power)
    if isinstance(el, T_.UnitaryMatrix):
        return T_.UnitaryMatrix.identity(el.k)
    if isinstance(el, T_.RankMatrix):
        return T_.RankMatrix.identity(el.k, el.field)
    if isinstance(el, T_.FiniteGroupElement):
        return el.group.identity_element()
    raise TypeError(f"unknown target element {el!r}")


class _Certificate:
    """What both certificate kinds share: ``group``; ``family``, a name of
    FAMILIES whose kinds every image is of; ``epsilon``, the family's
    default unless given; ``fin_group``, the table group the images lie in
    or None; ``dimension``, the images' own unless given; ``provenance``;
    the JSON fields of both and the one from_json. ``family``,
    ``epsilon``, ``dimension`` and ``fin_group`` are read-only."""

    def __init__(self, group, family, targets, epsilon, dimension,
                 provenance):
        """``targets``: a nonempty list holding the images, each kind and
        size among them at least once."""
        self.group = group
        self._family = family
        _require_family_kinds(family, targets)
        self._epsilon = family_record(family).epsilon if epsilon is None \
            else epsilon
        found = _target_group(targets)
        self._fin_group = found if isinstance(found, T_.TableMetricGroup) \
            else None
        self.provenance = provenance or {}
        self._dimension = targets[0].dim if dimension is None else dimension
        if targets[0].dim != self._dimension:
            raise CertificateError("images disagree on dimension")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # each kind holds the one from_json in its own namespace, where
        # perfbench/layertrace.py times the decoding of each kind
        cls.from_json = vars(_Certificate)["from_json"]

    @property
    def family(self):
        return self._family

    @property
    def epsilon(self):
        return self._epsilon

    @property
    def dimension(self):
        return self._dimension

    @property
    def fin_group(self):
        return self._fin_group

    def _header(self):
        """The JSON fields of both kinds; each adds its images."""
        obj = {"group": self.group.descriptor(), "family": self.family,
               "epsilon": float(self.epsilon), "dimension": self.dimension}
        if self.fin_group is not None:
            obj["target_group"] = self.fin_group.to_json()
        if self.provenance:
            obj["provenance"] = self.provenance
        return obj

    @classmethod
    def from_json(cls, obj):
        """Decode a certificate; malformed input raises CertificateError."""
        return decoded(cls._decode, obj, "certificate")

    @classmethod
    def _decode(cls, obj):
        """The prologue both kinds decode alike, then the kind's images
        (_decode_images). Only a family of table elements carries a
        target_group, the table its images lie in, as the writer writes
        it. epsilon must be a finite number > 0; it is the family's exact
        default only when it is that default's float, and otherwise its
        own value."""
        group = G_.group_from_descriptor(obj["group"])
        record = family_record(obj["family"])
        fin_group = None
        if "target_group" in obj:
            if T_.FiniteGroupElement not in record.kinds:
                raise CertificateError(
                    f"a {obj['family']!r} certificate carries no "
                    f"target_group")
            fin_group = T_.TableMetricGroup.from_json(obj["target_group"])
        eps = obj["epsilon"]
        if isinstance(eps, bool) or not isinstance(eps, (int, float)) \
                or not 0 < eps < math.inf:
            raise CertificateError(
                f"epsilon must be a finite number above 0, not {eps!r}")
        if eps == float(record.epsilon):
            eps = record.epsilon
        return cls._decode_images(
            obj, group, fin_group, family=obj["family"], epsilon=eps,
            dimension=_json_dimension(obj),
            provenance=obj.get("provenance"))


class ApproxCertificate(_Certificate):
    """A finite map from B(n) into one target group, the unit of exchange.

    The images are read-only targets.batch rows, one per element of B(n)
    (``ball``) in ball order: one int32 image array for permutations,
    permutation unitaries and permutation matrices, one int64 index array
    for elements of a table group, the target objects otherwise. ``rows``
    gives the rows, ``target(p)`` builds the object of one image when
    asked and ``assignments`` is a read-only mapping view. The image and
    index arrays, the tuple of target objects, a dense unitary's entries
    and a table group's fields are read-only, so the images of a
    permutation, unitary or table certificate cannot be written in place
    once built. The images lie in one target group (one degree, field or
    size; one table group), or CertificateError."""

    def __init__(self, group, n, family, assignments, epsilon=None,
                 dimension=None, provenance=None):
        """``assignments`` maps each element of B(n) to its target, or is
        the rows of those targets in ball order (targets.batch or
        targets.rows_from_array). An element of B(n) without a target, or
        one outside B(n), raises CertificateError."""
        self.n = int(n)
        self._ball = B = G_.ball(group, self.n)
        if isinstance(assignments, Mapping):
            assignments = T_.batch(_in_ball_order(B, assignments))
        if len(assignments) != len(B):
            raise CertificateError(
                f"{len(assignments)} rows for the {len(B)} elements of "
                f"B({self.n})")
        self._rows = assignments
        super().__init__(group, family, assignments.representatives(),
                         epsilon, dimension, provenance)

    @property
    def ball(self):
        """B(n), a read-only groups.Ball."""
        return self._ball

    @property
    def rows(self):
        """The images as read-only rows, in the order of B(n)."""
        return self._rows

    @property
    def assignments(self):
        """A read-only mapping from the elements of B(n) to their targets,
        each built when read."""
        return _Assignments(self)

    def target(self, payload):
        if payload not in self.ball:
            raise CertificateError(
                f"missing assignment for {self.group.fmt(payload)}")
        return self._rows.target(self.ball.index(payload))

    def to_json(self):
        """The certificate as a JSON object."""
        obj = self._header()
        obj["n"] = self.n
        rows = self._rows
        obj["assignments"] = [
            {"element": label, "target": rows.to_json(i)}
            for i, label in enumerate(self.ball.labels())]
        return obj

    def dumps(self):
        """The canonical JSON text, without a final newline."""
        buf = io.StringIO()
        J_.dump(self.to_json(), buf)
        return buf.getvalue()

    @classmethod
    def _decode_images(cls, obj, group, fin_group, **header):
        """Each ``element`` is the label of an element of B(n), exactly as
        ``Ball.labels()`` writes it; any other spelling is refused."""
        B = G_.ball(group, T_.json_int(obj, "n"))
        if not obj["assignments"]:
            raise CertificateError("certificate has no assignments")
        labels = B.labels()
        in_ball = set(labels)
        targets = {}
        for item in obj["assignments"]:
            label = item["element"]
            if label not in in_ball:
                raise CertificateError(
                    f"element {label!r} is not the label of an element of "
                    f"B({obj['n']})")
            if label in targets:
                raise CertificateError(f"duplicate element {label}")
            targets[label] = item["target"]
        missing = next((x for x in labels if x not in targets), None)
        if missing is not None:
            raise CertificateError(f"missing assignment for {missing}")
        rows = T_.rows_from_json([targets[x] for x in labels],
                                 fin_group=fin_group)
        return cls(group, obj["n"], assignments=rows, **header)

    @classmethod
    def loads(cls, text):
        return cls.from_json(json.loads(text))


def _in_ball_order(B, assignments):
    """The values of a mapping over the elements of the ball B, in ball
    order; CertificateError naming the first element of B it lacks, or an
    element outside B."""
    fmt = B.group.fmt
    missing = next((p for p in B if p not in assignments), None)
    if missing is not None:
        raise CertificateError(f"missing assignment for {fmt(missing)}")
    if len(assignments) > len(B):
        extra = next(p for p in assignments if p not in B)
        raise CertificateError(
            f"element {fmt(extra)} lies outside B({B.radius})")
    return [assignments[p] for p in B]


class _Assignments(Mapping):
    """The read-only mapping view of a certificate's images."""

    def __init__(self, cert):
        self._cert = cert

    def __getitem__(self, payload):
        if payload not in self._cert.ball:
            raise KeyError(payload)
        return self._cert.target(payload)

    def __contains__(self, payload):
        return payload in self._cert.ball

    def __iter__(self):
        return iter(self._cert.ball)

    def __len__(self):
        return len(self._cert.ball)


class HomCertificate(_Certificate):
    """Homomorphism F_X -> target, given on the generators of a catalog
    group, its images in one target group as in ApproxCertificate. Its
    ``relators`` are the group's presentation (Group.presentation), None
    when none is written down: a certificate brings no relators of its
    own, so none can leave a relation of the group unchecked."""

    def __init__(self, group, images, family, relators=None, epsilon=None,
                 dimension=None, provenance=None):
        """``relators``, when given, must be the group's presentation;
        CertificateError otherwise."""
        self.images = dict(images)  # generator label -> target element
        super().__init__(group, family, list(self.images.values()),
                         epsilon, dimension, provenance)
        if relators is not None \
                and [tuple(r) for r in relators] != group.presentation():
            raise CertificateError(_not_the_presentation(group))
        # close under formal inverses: a label without an image takes the
        # inverse of the image of a given label whose payload is its inverse
        given, gens = dict(self.images), group.generators()
        for lab, p in gens:
            if lab not in given:
                src = [m for m, q in gens if m in given and q == group.inv(p)]
                if not src:
                    raise CertificateError(
                        f"no image for generator {lab!r} nor for its inverse")
                self.images[lab] = given[src[0]].inv()
        # read-only once closed, like an ApproxCertificate's images
        self.images = MappingProxyType(self.images)

    @property
    def relators(self):
        """The group's presentation, a list of label tuples, or None."""
        return self.group.presentation()

    def image_of_word(self, labels):
        out = None
        for lab in labels:
            t = self.images[lab]
            out = t if out is None else out.mul(t)
        if out is None:
            first = next(iter(self.images.values()))
            return target_identity_like(first)
        return out

    def to_json(self):
        obj = self._header()
        obj["images"] = [{"generator": lab, "target": el.to_json()}
                         for lab, el in sorted(self.images.items())]
        obj["relators"] = _presentation_json(self.group)
        return obj

    @classmethod
    def _decode_images(cls, obj, group, fin_group, **header):
        labels = {lab for lab, _ in group.generators()}
        if not obj["images"]:
            raise CertificateError("certificate has no images")
        images = {}
        for item in obj["images"]:
            lab = item["generator"]
            if lab not in labels:
                raise CertificateError(f"group has no generator {lab!r}")
            if lab in images:
                raise CertificateError(f"duplicate generator {lab!r}")
            images[lab] = T_.target_from_json(item["target"], fin_group=fin_group)
        # exactly what to_json writes
        if obj["relators"] != _presentation_json(group):
            raise CertificateError(_not_the_presentation(group))
        return cls(group, images, **header)


def _presentation_json(group):
    """The group's presentation as a certificate writes it: a list of
    label lists, or None (null) when none is written down."""
    presentation = group.presentation()
    return None if presentation is None else [list(r) for r in presentation]


def _not_the_presentation(group):
    return (f"relators must be the presentation of {group!r}, "
            f"{json.dumps(_presentation_json(group))}")


def _inverse_label_map(group):
    """Each generator label's formal inverse: ``a^-1`` for ``a`` and ``a``
    for ``a^-1`` when that label names the inverse payload, so that on
    Z/2, where x and x^-1 share a payload, each is the other's inverse;
    otherwise the first label of the inverse payload (a self-inverse
    generator listed once is its own inverse)."""
    gens = group.generators()
    payload = dict(gens)
    by_payload = {}
    for lab, p in gens:
        by_payload.setdefault(p, []).append(lab)
    out = {}
    for lab, p in gens:
        q = group.inv(p)
        formal = lab[:-3] if lab.endswith("^-1") else lab + "^-1"
        out[lab] = formal if payload.get(formal, object()) == q \
            else by_payload[q][0]
    return out


class VerificationReport:
    """Outcome of one verification; ``failed`` names the conditions that
    do not hold ("defect" for (1), "separation" for (2))."""

    def __init__(self, failed, n, epsilon, defect, defect_witness,
                 separation, separation_witness, pairs_checked,
                 separation_pairs, margin, notes=None):
        self.failed = tuple(failed)
        self.n = n
        self.epsilon = epsilon
        self.defect = defect
        self.defect_witness = defect_witness
        self.separation = separation
        self.separation_witness = separation_witness
        self.pairs_checked = pairs_checked
        self.separation_pairs = separation_pairs
        self.margin = margin
        self.notes = notes or []

    @property
    def passed(self):
        return not self.failed

    def failure_summary(self):
        """One line per failed condition: value, threshold and witness."""
        lines = []
        if "defect" in self.failed:
            lines.append(f"condition (1) fails: defect {self.defect} is not "
                         f"below 1/{self.n}, witness {self.defect_witness}")
        if "separation" in self.failed:
            lines.append(f"condition (2) fails: separation {self.separation} "
                         f"is not above eps - 1/{self.n} = "
                         f"{float(self.epsilon) - 1.0 / self.n:.6g}, "
                         f"witness {self.separation_witness}")
        return "; ".join(lines)

    def to_json(self):
        def num(x):
            return float(x) if isinstance(x, Fraction) else x
        return {
            "pass": bool(self.passed),
            "n": self.n,
            "epsilon": float(self.epsilon),
            "multiplicativity_defect": num(self.defect),
            "defect_witness": self.defect_witness,
            "separation": num(self.separation),
            "separation_witness": self.separation_witness,
            "pairs_checked": self.pairs_checked,
            "separation_pairs": self.separation_pairs,
            "margin": self.margin,
            "defect_threshold": 1.0 / self.n,
            "separation_threshold": float(self.epsilon) - 1.0 / self.n,
            "notes": self.notes,
        }

    def __repr__(self):
        s = "pass" if self.passed else "FAIL"
        return (f"VerificationReport({s}, defect={float(self.defect):.6g}, "
                f"separation={float(self.separation):.6g})")


def _require_margin(margin):
    if not 0 <= margin < math.inf:
        raise CertificateError(
            f"margin must be a finite number at least 0, not {margin!r}")


# what a verification kernel measured: the defect and the separation (None
# with no pair to separate), the witness of each (ball slots or a word key,
# None when there is none), the pairs each was taken over, and its notes
_Measure = collections.namedtuple("_Measure", (
    "defect", "defect_witness", "pairs", "separation", "separation_witness",
    "separation_pairs", "notes"))


def _report(m, n, epsilon, exact, margin, fmt):
    """The one verdict on what a kernel measured: both strict conditions,
    an exact family's exactly against 1/n and Fraction(epsilon) - 1/n, a
    floating one's failing closed by margin, and the witnesses formatted
    by ``fmt``. With no pair to separate, the separation reads as epsilon."""
    separation = m.separation
    if separation is None:
        separation = epsilon if exact else float(epsilon)
    thr1 = Fraction(1, n)
    if exact:
        ok = m.defect < thr1, separation > Fraction(epsilon) - thr1
    else:
        ok = (float(m.defect) < float(thr1) - margin,
              float(separation) > float(epsilon) - 1.0 / n + margin)
    failed = [name for name, good in zip(("defect", "separation"), ok)
              if not good]
    def_wit, sep_wit = (None if w is None else fmt(w)
                        for w in (m.defect_witness, m.separation_witness))
    return VerificationReport(
        failed, n, epsilon, m.defect, def_wit, separation, sep_wit, m.pairs,
        m.separation_pairs, 0.0 if exact else margin, notes=m.notes)


def _defect(cert, B, zero):
    """Condition (1) on B, a ball of radius at most cert.n and so a prefix
    of cert's ball: (rows, max, slots, pairs, notes). ``rows`` are cert's
    rows of B with the commutant kernel derived from the generators'
    images, so that regular actions get it. The max is that of d(pi(g)
    pi(h), pi(gh)) over g, h, gh in B, ``slots`` the (g, h, gh) of the first
    pair attaining it or None when it is ``zero``, and ``pairs`` the number
    of pairs (_product_pairs). When the homomorphism kernel holds
    (_homomorphism_on) the max is exactly ``zero`` and ``notes`` are
    [HOMOMORPHISM_NOTE]; otherwise rows with a transitive commutant take
    the one-point kernel, others the row sweep, and ``notes`` are []."""
    rows = cert.rows
    if len(B) < len(rows):
        rows = rows.take(np.arange(len(B)))
    gens = [B.index(s) for _, s in B.group.generators() if s in B]
    if _homomorphism_on(B, rows):
        return (rows.with_kernel(gens, generated=True), zero, None,
                _product_pairs(B), [HOMOMORPHISM_NOTE])
    rows, table = rows.with_kernel(gens), B.products()
    worst, wit = rows.max_defect_all(table, zero) \
        if rows.transitive_commutant else _defect_rows(table, rows, zero)
    return rows, worst, wit, _product_pairs(B), []


def _product_pairs(B):
    """The number of pairs (g, h) of B with gh in B: on Z, the (a, b) of
    [-n, n] with a + b in [-n, n], (2n + 1)^2 - n(n + 1); on any other
    group, read from the ball's product table."""
    if isinstance(B.group, G_.FreeAbelian) and B.group.d == 1:
        n = B.radius
        return (2 * n + 1) ** 2 - n * (n + 1)
    return int(np.count_nonzero(B.products() >= 0))


def _homomorphism_on(B, rows):
    """Whether ``rows``, the rows of the elements of B in ball order, are
    exactly phi on B for a homomorphism phi of the group: the ball-level
    homomorphism kernel. False, for the sweep to measure, unless the group
    has mul_array and a written presentation (Group.presentation), the
    rows compare exactly (``equal``: permutation rows of any metric,
    tensor powers through their bases, and table rows), and, all checked
    exactly, the identity's row x_e is the identity (x_e x_e = x_e), each
    x_s^-1 x_s is the identity (_presents), every relator maps to the
    identity, and each row is its parent's row times its letter's row
    along the ball's spanning tree (Ball.tree), in blocks of about
    G_.BLOCK entries. By von Dyck's theorem the generators' images then
    define phi, and by induction along the tree each row is phi of its
    element, so d(x_g x_h, x_gh) = 0 for every pair of the sweep."""
    grp = B.group
    if grp.presentation() is None or not hasattr(grp, "mul_array") \
            or not hasattr(rows, "equal") or B.radius < 1:
        return False
    letters = _letters(grp)
    at = B.slots(np.array([grp.coords(p) for _, p, _ in letters],
                          dtype=np.int64))
    e = rows.take([0])
    if not e.mul(e).equal(e).all() \
            or not _presents(grp, letters, rows.take(np.append(0, at))):
        return False
    parent, letter = B.tree()
    step = max(1, G_.BLOCK // rows.width)
    for i in range(1, len(B), step):
        block = np.arange(i, min(i + step, len(B)))
        if not rows.take(parent[block]).mul(rows.take(at[letter[block]])) \
                .equal(rows.take(block)).all():
            return False
    return True


def _presents(grp, letters, R):
    """Whether the rows R, row 0 the identity and row x + 1 the image of
    letter x, send each formal inverse x^-1 to the inverse of x's image
    and every relator of the group's presentation to the identity, all
    checked exactly (rows with ``equal``): by von Dyck's theorem, whether
    the images define a homomorphism of the group."""
    ident = R.take([0])
    inverse = np.array([i for _, _, i in letters])
    if not R.take(inverse + 1).mul(R.take(range(1, len(letters) + 1))) \
            .equal(ident).all():
        return False
    row = {lab: x + 1 for x, (lab, _, _) in enumerate(letters)}
    return all(_product([R.take([row[lab]]) for lab in r] or [ident])
               .equal(ident).all() for r in grp.presentation())


def _defect_rows(table, rows, zero):
    """The row sweep of _defect_sweep: (max, first slots attaining it)."""
    worst, wit = zero, None
    for i in range(len(table)):
        js = np.flatnonzero(table[i] >= 0)
        ts = table[i, js]
        d, r = rows.take([i]).mul(rows.take(js)).extreme(rows.take(ts), max)
        if d > worst:
            worst, wit = d, (i, int(js[r]), int(ts[r]))
    return worst, wit


def _separation_rows(rows, projective):
    """Min distance (projective if asked) over the distinct pairs of rows
    by the row sweep: (min or None when there is one row, slots of the
    first pair attaining it)."""
    best, wit = None, None
    size = len(rows)
    for i in range(size - 1):
        d, r = rows.take([i]).extreme(rows.take(range(i + 1, size)), min,
                                      projective)
        if best is None or d < best:
            best, wit = d, (i, i + 1 + r)
    return best, wit


def verify_D(cert, margin=DEFAULT_FLOAT_MARGIN, at_n=None):
    """Check Def-style conditions (1) and (2) on the ball; strict, fail closed.

    Four kernels measure the defect and the separation, and _report
    decides both; each but the row sweep names itself in the notes.
    Translation certificates on Z take a closed form. The homomorphism
    kernel (_homomorphism_on) decides condition (1) for rows that are
    exactly a homomorphism phi on B(n), as every certificate through a
    finite quotient of Z^d or Heisenberg(1) is (from_quotient, and
    perm_to_hyp, perm_to_lin or amplify_projective of those): the defect
    is then exactly 0 by von Dyck's theorem, with no pair measured.
    Permutation and permutation-unitary certificates whose images commute
    with a transitive group R, derived from the generators' images and
    checked exactly, take the commutant kernel, each pair decided at one
    point (targets._PermRows): every left-regular sofic or hyp certificate
    (from_quotient, exact_finite, and direct_product or perm_to_hyp of
    those) does. R is checked against every image, or once the
    homomorphism kernel holds against the generators' images alone:
    every image is then a product of them, and what commutes with each
    factor commutes with the product. Every other certificate takes the
    row sweep: row g of the targets.batch rows is multiplied by the rows h
    and measured against the rows gh (then against the later rows, for
    (2)) with the rows' own mul and extreme, whatever the kind of target;
    permutation matrices as rank rows, by cycle counts. A kernel whose
    check fails leaves the pairs to the next, so none gives a verdict of
    its own.
    """
    _require_margin(margin)
    n = cert.n if at_n is None else at_n
    if n < 1:
        raise CertificateError(f"cannot verify at radius {n}, below 1")
    if at_n is not None and at_n > cert.n:
        raise CertificateError("cannot verify above the certificate's n")
    B = cert.ball if n == cert.n else G_.ball(cert.group, n)
    family = family_record(cert.family)
    m = _translation_kernel(cert, B) or _sweeps(cert, B, family)
    return _report(m, n, cert.epsilon, family.exact, margin,
                   lambda slots: [cert.group.fmt(B.elements[s])
                                  for s in slots])


def _sweeps(cert, B, family):
    """The homomorphism kernel for condition (1), then the commutant
    kernel, or the row sweep where they do not apply, condition (2) in the
    metric of the FAMILIES record ``family``."""
    rows, worst_def, def_slots, pairs, defect_notes = _defect(
        cert, B, Fraction(0) if family.exact else 0.0)
    worst_sep, sep_slots = rows.min_dist_all() if rows.transitive_commutant \
        else _separation_rows(rows, family.projective)
    notes = ["exact arithmetic" if family.exact
             else "floating metric, margin applied"]
    if rows.transitive_commutant:
        notes.append(COMMUTANT_NOTE)
    return _Measure(worst_def, def_slots, pairs, worst_sep, sep_slots,
                    len(B) * (len(B) - 1) // 2, notes + defect_notes)


def _translation_kernel(cert, B):
    """The closed form on Z when every target is a CyclicPerm, of one m,
    with shift g mod m (None from the first target that is not): an exact
    homomorphism, two elements at distance 1 unless their shifts are
    equal, the witness that of the commutant kernel (first_nearest_pair)."""
    if not isinstance(cert.group, G_.FreeAbelian) or cert.group.d != 1:
        return None
    first = cert.rows.target(0)
    m = first.m if isinstance(first, T_.CyclicPerm) else None
    if m is None or not all(
            isinstance(t, T_.CyclicPerm) and (t.m, t.shift) == (m, a % m)
            for t, (a,) in zip(map(cert.rows.target, range(len(B))), B)):
        return None
    v = B.coords()[:, 0] % m
    i, j = T_.first_nearest_pair(v)
    return _Measure(Fraction(0), None, _product_pairs(B),
                    Fraction(int(v[i] != v[j])),
                    (i, j), len(B) * (len(B) - 1) // 2,
                    [TRANSLATION_NOTE])


# ---------------------------------------------------------------------------
# word-level verification

def _letters(group):
    """Generator letters, in generator order, each with the position of
    its formal inverse."""
    gens = group.generators()
    inv_lab = _inverse_label_map(group)
    index = {lab: i for i, (lab, _) in enumerate(gens)}
    return [(lab, p, index[inv_lab[lab]]) for lab, p in gens]


def verify_W(h, n, cap=DEFAULT_WORD_CAP, margin=DEFAULT_FLOAT_MARGIN):
    """Enumerate reduced words of length <= n in the free group on the
    generators; words trivial in G must land < 1/n from the identity,
    nontrivial words must stay > eps - 1/n away, in the projective metric
    for a projective family."""
    return _verify_words(h, n, cap, margin, relator_mode=False)


def verify_R(h, n, margin=DEFAULT_FLOAT_MARGIN):
    """The relators of the group's presentation of length <= n must land
    < 1/n from the identity; words nontrivial in G must stay > eps - 1/n
    away. CertificateError for a group with no written presentation."""
    return _verify_words(h, n, DEFAULT_WORD_CAP, margin, relator_mode=True)


def _word_walk(h, n, letters, count, relator_mode):
    """The reference of word-level verification: each word's image, the
    rows of its letters' images multiplied along the walk (_word_blocks),
    measured against the identity; trivial words (unless in relator mode)
    for the greatest distance, nontrivial ones for the least, and then in
    relator mode each relator of the presentation of length <= n."""
    ident, R = _letter_rows(h, letters)
    family = family_record(h.family)
    best = _word_extremes(family.exact)
    # each kind of word with its extreme and whether it is measured
    # projectively: as in verify_D, condition (2) of a projective family
    separate = (False, min, family.projective)
    kinds = (separate,) if relator_mode else ((True, max, False), separate)
    # a block holds about G_.BLOCK entries of R's rows
    for W, _, is_e, T in _word_blocks(h.group, letters, n,
                                      max(1, G_.BLOCK // R.width), (ident, R)):
        for kind, pick, projective in kinds:
            rows = np.flatnonzero(is_e == kind)
            if len(rows):
                d, r = T.take(rows).extreme(ident, pick, projective)
                _keep(best, kind, pick, d, W[rows[r]])
    if relator_mode:
        row = {lab: x + 1 for x, (lab, _, _) in enumerate(letters)}
        for r in h.group.presentation():
            if len(r) > n:
                continue
            img = _product([R.take([row[lab]]) for lab in r] or [ident])
            d, _ = img.extreme(ident, max)
            if d > best[True][0]:
                best[True] = [d, tuple(1 - row[lab] for lab in r)]
    return _word_measure(best, count, relator_mode)


def _homomorphism_kernel(h, n, letters, count, relator_mode):
    """The walk's _Measure read from B(n), for images that define a
    homomorphism phi of the group; None, for the walk to measure, unless
    the group has mul_array and a written presentation (never the
    certificate's relators: Group.presentation), the images are rows that
    compare exactly (targets.batch rows with ``equal``: permutation rows of
    any metric, tensor powers through their bases, and table rows), each
    x^-1 image is the inverse of the x image and every relator maps to the
    identity, all checked exactly (_presents). By von Dyck's theorem phi
    then exists and a word w's image is phi(pi(w)): a trivial word is
    exactly at 0 from the identity, each relator too, and a nontrivial one
    at the distance of phi(g), g = pi(w) in B(n). phi is built on B(n)
    level by level along the ball's spanning tree (Ball.tree), each
    element's image its parent's times its letter's image, in blocks of
    about G_.BLOCK entries like the walk's (depth first over runs of
    parents, so memory stays that of a few blocks), and each
    element's distance to the identity is read once; the words are walked
    on the group side only (_word_blocks without rows), each reading its
    element's distance at its slot in B(n), so values, witnesses and
    counts are the walk's."""
    grp = h.group
    presentation = grp.presentation()
    if presentation is None or not hasattr(grp, "mul_array"):
        return None
    ident, R = _letter_rows(h, letters)
    if not hasattr(R, "equal") or not _presents(grp, letters, R):
        return None
    family = family_record(h.family)
    # every element of B(n) is the value of a reduced word of length <= n,
    # so the ball is no larger than the word count
    B = G_.ball(grp, n, cap=count)
    parent, letter = B.tree()
    # the levels of B(n), each ordered by its parents' places in the level
    # before: each element's slot with its parent's place and its letter,
    # so the children of a run of parents are a run of the next level
    levels = [(np.zeros(1, dtype=np.intp), None, None)]
    place = np.zeros(len(B), dtype=np.intp)
    start = 1
    for size in B.sizes[1:]:
        par = place[parent[start:start + size]]
        order = np.argsort(par, kind="stable")
        slots = start + order
        place[slots] = np.arange(size)
        levels.append((slots, par[order], letter[slots]))
        start += size
    # depth first over those runs, in blocks as the walk's, so that no
    # level's images are held whole
    step = max(1, G_.BLOCK // R.width)
    scores = None
    stack = [(0, 0, 1, ident)]
    while stack:
        # the run [a, b) of level r and its images
        r, a, b, images = stack.pop()
        part, value = images.distances(ident, family.projective)
        if scores is None:
            scores = np.empty(len(B), dtype=part.dtype)
        scores[levels[r][0][a:b]] = part
        if r + 1 < len(levels):
            _, par, let = levels[r + 1]
            lo, hi = np.searchsorted(par, (a, b))
            for i in range(lo, hi, step):
                j = min(i + step, hi)
                stack.append((r + 1, i, j, images.take(par[i:j] - a)
                              .mul(R.take(let[i:j] + 1))))
    best = _word_extremes(family.exact)
    for W, gs, is_e, _ in _word_blocks(
            grp, letters, n, max(1, G_.BLOCK // B.coords().shape[1])):
        rows = np.flatnonzero(~is_e)
        if len(rows):
            at = B.slots(gs[rows])
            if (at < 0).any():
                raise AssertionError(f"a reduced word leaves B({n})")
            s = scores[at]
            r = int(np.argmin(s))
            _keep(best, False, min, value(s.item(r)), W[rows[r]])
    return _word_measure(best, count, relator_mode, HOMOMORPHISM_NOTE)


def _verify_words(h, n, cap, margin, relator_mode):
    """What the homomorphism kernel, else the walk, measured on the reduced
    words of length 1..n, decided by _report. The word count is known
    before any word is built, so WordCapExceeded comes first."""
    _require_margin(margin)
    if n < 1:
        raise CertificateError(f"cannot verify at word length {n}, below 1")
    grp = h.group
    if relator_mode and grp.presentation() is None:
        raise CertificateError(
            f"no presentation of {grp!r} is written down, so there are no "
            f"relators to constrain")
    letters = _letters(grp)
    # the root has nl children and every other word nl - 1
    count, level = 1, len(letters)
    for _ in range(n):
        if count > cap or not level:
            break
        count, level = count + level, level * (len(letters) - 1)
    if count > cap:
        raise WordCapExceeded(f"more than {cap} words at length {n}")
    m = _homomorphism_kernel(h, n, letters, count, relator_mode) \
        or _word_walk(h, n, letters, count, relator_mode)
    return _report(m, n, h.epsilon, family_record(h.family).exact, margin,
                   lambda key: " ".join(letters[-x][0] for x in key))


def _letter_rows(h, letters):
    """(ident, R): the targets.batch rows R whose row 0 is the identity
    and row x + 1 the image of letter x, and R's row 0 alone."""
    first = next(iter(h.images.values()))
    # the identity shares the letters' kind, so a mixed list stays scalar
    R = T_.batch([target_identity_like(first)]
                 + [h.images[lab] for lab, _, _ in letters])
    return R.take([0]), R


def _word_extremes(exact):
    """The extremes of the walk, before any word: trivial (True) and
    nontrivial (False) words, each [extreme, key of its word]."""
    return {True: [Fraction(0) if exact else 0.0, None], False: [None, None]}


def _keep(best, kind, pick, d, word):
    """Take d, the distance of ``word`` (its letters), as the extreme of
    its kind when pick prefers it, or when it ties and ``word`` comes first
    in depth-first pre-order: its key tuple(-letter) is the least."""
    key = tuple((-word).tolist())
    value, old = best[kind]
    if value is None or (d != value and pick(d, value) == d) \
            or (d == value and old is not None and key < old):
        best[kind] = [d, key]


def _word_measure(best, count, relator_mode, *notes):
    """The _Measure of a walk's extremes over ``count`` words."""
    (worst_triv, triv_wit), (worst_sep, sep_wit) = best[True], best[False]
    mode = ["relator mode: only relators constrained near identity"] \
        if relator_mode else []
    return _Measure(worst_triv, triv_wit, count, worst_sep, sep_wit, count,
                    mode + [f"words checked: {count}", *notes])


def _word_blocks(group, letters, n, step, rows=None):
    """The reduced words of length 1..n, depth first in blocks of at most
    ``step`` words of one length: (W, gs, is_e, T) per block, W the words'
    letters, gs their group elements (_word_elements), is_e which of them
    are the identity, and T the rows of their images when ``rows`` = (ident,
    R) gives the identity's row and R, row x + 1 the image of letter x (a
    child block is its parent block's rows times R's letter rows), None
    otherwise. A block expands into its children parent-major, letters
    descending: the pop order of a scalar depth-first stack. So the first
    word in depth-first pre-order that attains an extreme is the first in
    its block, and across blocks the one of least key tuple(-letter)."""
    root, children, trivial = _word_elements(group, letters)
    ident, R = rows or (None, None)
    inverse = np.array([i for _, _, i in letters])
    down = np.arange(len(letters))[::-1]
    stack = [(np.zeros((1, 0), dtype=np.intp), root, ident)]
    while stack:
        W, gs, T = stack.pop()
        if W.shape[1]:
            yield W, gs, trivial(gs), T
        if W.shape[1] < n:
            par = np.repeat(np.arange(len(W)), len(letters))
            let = np.tile(down, len(W))
            if W.shape[1]:
                keep = let != inverse[W[par, -1]]
                par, let = par[keep], let[keep]
            W = np.column_stack((W[par], let))
            gs = children(gs, par, let)
            if T is not None:
                T = T.take(par).mul(R.take(let + 1))
            for i in reversed(range(0, len(W), step)):
                block = range(i, min(i + step, len(W)))
                stack.append((W[i:i + step], gs[i:i + step],
                              None if T is None else T.take(block)))


def _word_elements(group, letters):
    """The group side of the word walk: (root, children, trivial). root
    holds the identity; children(gs, par, let) holds gs[par[i]] times
    letter let[i] for each i; trivial(gs) is the bool array of the elements
    of gs equal to the identity. A group with mul_array holds its elements
    as int64 coordinate rows, a child block one mul_array with the letters'
    rows; any other group holds a list of payloads multiplied one by one."""
    if not hasattr(group, "mul_array"):
        e = group.identity()
        return ([e],
                lambda gs, par, let: [group.mul(gs[p], letters[x][1]) for p, x
                                      in zip(par.tolist(), let.tolist())],
                lambda gs: np.array([g == e for g in gs]))
    gen = np.array([group.coords(p) for _, p, _ in letters], dtype=np.int64)
    e = np.array([group.coords(group.identity())], dtype=np.int64)
    return (e, lambda gs, par, let: group.mul_array(gs[par], gen[let]),
            lambda gs: (gs == e).all(axis=1))


def _product(factors):
    """The row-by-row product of a nonempty list of rows, left to right."""
    return functools.reduce(lambda a, b: a.mul(b), factors)


def geodesic_words(group, m):
    """Lexicographically least geodesic word (as label tuple) per ball element.

    BFS expanding words in lex order guarantees the first word reaching an
    element is the lex-least geodesic.
    """
    letters = [(lab, p) for lab, p in group.generators()]
    e = group.identity()
    words = {e: ()}
    frontier = [(e, ())]
    for _ in range(m):
        nxt = []
        for g, w in frontier:
            for lab, p in letters:
                hgt = group.mul(g, p)
                if hgt not in words:
                    words[hgt] = w + (lab,)
                    nxt.append((hgt, w + (lab,)))
                    if len(words) > G_.DEFAULT_BALL_CAP:
                        raise G_.BallCapExceeded(group, m, G_.DEFAULT_BALL_CAP)
        frontier = nxt
    return words


def _invert_word(group, word):
    inv_lab = _inverse_label_map(group)
    return tuple(inv_lab[lab] for lab in reversed(word))


def D_from_W(h, m):
    """Ball certificate at m from a homomorphism verified at 3m.

    Geodesic representatives are chosen lex-least and inverse-paired
    (w_{g^-1} = w_g^-1), processing ball elements in canonical order.
    """
    pre = verify_W(h, 3 * m)
    if not pre.passed:
        raise UpstreamVerificationError(
            f"verify_W failed at {3 * m}: {pre!r}")
    grp = h.group
    B = G_.ball(grp, m)
    words = geodesic_words(grp, m)
    chosen = {}
    for g in B:
        if g in chosen:
            continue
        w = words[g]
        chosen[g] = w
        gi = grp.inv(g)
        if gi != g and gi not in chosen:
            chosen[gi] = _invert_word(grp, w)
    assignments = {g: h.image_of_word(chosen[g]) for g in B}
    cert = ApproxCertificate(
        grp, m, h.family, assignments, epsilon=h.epsilon,
        provenance={"builder": "D_from_W", "upstream_n": 3 * m})
    rep = verify_D(cert)
    if not rep.passed:
        raise UpstreamVerificationError(f"constructed certificate fails: {rep!r}")
    return cert


def W_from_D(c, m):
    """Homomorphism certificate at m from a ball certificate at 3m^2."""
    need = 3 * m * m
    if c.n < need:
        raise UpstreamVerificationError(
            f"input certificate has n={c.n} < 3m^2={need}")
    pre = verify_D(c)
    if not pre.passed:
        raise UpstreamVerificationError(f"verify_D failed: {pre!r}")
    grp = c.group
    images = {}
    for lab, p in grp.generators():
        images[lab] = c.target(p)
    hc = HomCertificate(
        grp, images, c.family, relators=default_relators(grp),
        epsilon=c.epsilon,
        provenance={"builder": "W_from_D", "upstream_n": c.n})
    rep = verify_W(hc, m)
    if not rep.passed:
        raise UpstreamVerificationError(f"induced homomorphism fails: {rep!r}")
    return hc


def default_relators(group):
    """The relator words (generator-label tuples) of the group's
    presentation, or None when none is written down
    (Group.presentation)."""
    return group.presentation()


# ---------------------------------------------------------------------------
# approximate-homomorphism consistency suite

def lemma_consistency_suite(cert, max_len=4, samples=200, seed=0):
    """Empirical check of the five approximate-homomorphism bounds.

    The multiplicativity defect eps0 is measured on pairs with product in the
    ball, as verify_D measures condition (1) (_defect: the homomorphism
    kernel, else the sweep); tuples of ball slots are sampled so that all
    signed prefix products stay in the ball. The draws are numpy's legacy
    RandomState over MT19937(seed), seed any int >= 0, whose stream numpy
    keeps fixed across versions (NEP 19); every randint is int64. Attempts run in batches of
    b = max(1, min(samples, groups.BLOCK >> max_len)), no more than the
    attempts left before samples * 50: per batch js = randint(2, max_len + 1,
    size=b), then randint(0, |B|, size=js.sum()) for the slots of each
    attempt in turn. The attempts whose tuple stays in the ball are kept, in
    attempt order, until samples are kept; then randint(0, 2) for each factor
    of each kept tuple gives its sign, 0 for +1. Group products are read
    from the ball's product table and images composed as rows
    (targets.batch), all tuples of one sign pattern at once. Conditions
    3-5 report the worst ratio of a distance to its bound, with the least
    bound among the sign patterns that reach it. Exact certificates get a
    hair above zero so the strict bounds are meaningful.
    """
    # an attempt has at most max_len slots and _in_ball keeps at most
    # 2^max_len of its signed prefix products, so a batch of G_.BLOCK >>
    # max_len attempts holds at most G_.BLOCK of either while 2^max_len <=
    # G_.BLOCK = 2^16
    if not 2 <= max_len <= 16:
        raise ValueError(f"max_len must be from 2 to 16, not {max_len!r}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, not {samples!r}")
    # numpy.random is read only here, so a verification without the suite
    # does not load it; a negative seed raises ValueError
    rng = np.random.RandomState(np.random.MT19937(seed))
    B = cert.ball
    exact = family_record(cert.family).exact
    X, eps0, _, _, _ = _defect(cert, B, Fraction(0) if exact else 0.0)
    if exact:
        eps0 = eps0 + Fraction(1, 10 ** 12)
    else:
        eps0 = float(eps0) + 1e-12
    table = B.products()
    # the slot of g^-1 is the one h with gh = e, the slot 0
    is_e = table == 0
    if not is_e.any(axis=1).all():
        raise CertificateError("the ball is not closed under inverses")
    inv = is_e.argmax(axis=1)
    X_inv = X.inv()

    results = {}

    # B lists the identity first
    first = X.target(0)
    unit = T_.batch([first, target_identity_like(first)])
    d1, _ = unit.take([0]).extreme(unit.take([1]), max)
    results["identity"] = {"value": d1, "bound": eps0, "pass": d1 < eps0}

    worst2, _ = X.take(inv).extreme(X_inv, max)
    results["inverses"] = {"value": worst2, "bound": 2 * eps0,
                           "pass": worst2 < 2 * eps0}

    tuples, attempts = [], 0
    step = max(1, min(samples, G_.BLOCK >> max_len))
    while len(tuples) < samples and attempts < samples * 50:
        size = min(step, samples * 50 - attempts)
        js = rng.randint(2, max_len + 1, size=size, dtype=np.int64)
        flat = rng.randint(0, len(B), size=js.sum(), dtype=np.int64)
        starts = np.cumsum(js) - js
        hits = np.flatnonzero(_in_ball(table, inv, flat, js))
        tuples += [flat[starts[h]:starts[h] + js[h]]
                   for h in hits[:samples - len(tuples)].tolist()]
        attempts += size
    flips = iter(rng.randint(0, 2, size=sum(map(len, tuples)),
                             dtype=np.int64).tolist())
    signs = [tuple(1 - 2 * next(flips) for _ in tup) for tup in tuples]

    # the distances of (3) the plain product, (4) the signed factors and
    # (5) the signed product, one sign pattern (so one j) at a time: the
    # worst ratio and its bound per condition and pattern
    names = ("products", "signed_factors", "signed_products")
    measured = {name: [] for name in names}
    for pattern in dict.fromkeys(signs):
        S = np.array([t for t, s in zip(tuples, signs) if s == pattern]).T
        signed = np.where(np.array(pattern)[:, None] > 0, S, inv[S])
        plain = _product([X.take(c) for c in S])
        lhs = _product([X.take(c) for c in signed])
        rhs = _product([(X if s > 0 else X_inv).take(c)
                        for s, c in zip(pattern, S)])
        g = functools.reduce(lambda a, b: table[a, b], S)
        sg = functools.reduce(lambda a, b: table[a, b], signed)
        j = len(pattern)
        for name, pair, bound in zip(
                names, ((X.take(g), plain), (lhs, rhs), (X.take(sg), rhs)),
                ((j - 1) * eps0, 2 * j * eps0, (3 * j - 1) * eps0)):
            d, _ = pair[0].extreme(pair[1], max)
            measured[name].append((_ratio(d, bound), bound))
    for name in names:
        ratio = bound = None
        if measured[name]:
            ratio = max(r for r, _ in measured[name])
            bound = min(b for r, b in measured[name] if r == ratio)
        results[name] = {"worst_ratio": ratio, "bound": bound,
                         "pass": ratio is None or ratio < 1}
    results["epsilon0"] = eps0
    results["tuples_checked"] = len(tuples)
    results["pass"] = all(v["pass"] for k, v in results.items()
                          if isinstance(v, dict))
    return results


def _in_ball(table, inv, slots, js):
    """Whether every signed prefix product of each tuple of slots, flat
    with js (each at least 2) their lengths, lies in the ball of the
    product table ``table`` (inv the slots' inverses), level by level while
    a tuple's products stay in the ball. The first level, x and x^-1, does:
    the ball is closed under inverses."""
    ok = np.ones(len(js), dtype=bool)
    alive = np.arange(len(js))
    offsets = np.cumsum(js) - js
    x = slots[offsets]
    level = np.stack((x, inv[x]), axis=1)
    t = 1
    while len(alive):
        x = slots[offsets[alive] + t]
        level = table[level[:, :, None], np.stack((x, inv[x]), axis=1)[
            :, None, :]].reshape(len(alive), -1)
        out = (level < 0).any(axis=1)
        ok[alive[out]] = False
        t += 1
        more = ~out & (js[alive] > t)
        alive, level = alive[more], level[more]
    return ok


def _ratio(value, bound):
    if bound == 0:
        return float("inf") if value > 0 else 0.0
    return float(value) / float(bound)
