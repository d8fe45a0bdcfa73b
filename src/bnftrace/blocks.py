"""Classified Floquet exponents and the one block normalization.

A :class:`SpectrumBlocks` holds the exponents mu_j of the linearized
return map, tagged elliptic / real hyperbolic / complex hyperbolic, with
the count identity n_e + n_rh + 2 n_ch = n.  Exponents are stored through
their half-exponentials E_j = exp(mu_j/2); that representation is exact on
the rational backend for the hyperbolic fixtures mu = 2 log(p/q), and mu
itself is recovered as 2 Log E_j (principal branch, safe under the
normalization below).

The normalization is decided here alone, on q = e^mu = E^2, within the
tolerance each caller passes (the blocks check it at 1e-9):
:func:`oriented` keeps, of q and 1/q, the one with |q| > 1, or Im q >= 0
on the unit circle; :func:`classify` types it (elliptic on the unit
circle, real hyperbolic on the positive real axis, complex hyperbolic
elsewhere); of a complex hyperbolic pair the :func:`principal` member,
Im q > 0, comes first, then its conjugate; E is the principal square root,
Re E > 0; and :func:`canonical_blocks` orders complex hyperbolic pairs,
then real hyperbolic, then elliptic blocks, each group sorted, as in the
eigenvalue list of the classification equation.  So rh blocks have
mu > 0, elliptic ones mu = i theta with theta in (0, pi), and ch pairs
Re mu > 0 and Im mu in (0, pi).
"""

import cmath
import math

from .errors import (MathError, RankDeficiencyError, ResonanceError,
                     SchemaError)

ELLIPTIC = "elliptic"
REAL_HYPERBOLIC = "real_hyperbolic"
COMPLEX_HYPERBOLIC = "complex_hyperbolic"

_TAGS = (ELLIPTIC, REAL_HYPERBOLIC, COMPLEX_HYPERBOLIC)
# tolerance of the normalization check on every construction
_INPUT_TOL = 1e-9


class SpectrumBlocks:
    """Tagged exponents at z = 0."""

    __slots__ = ("field", "tags", "exp_half")

    def __init__(self, field, tags, exp_half):
        if len(tags) != len(exp_half):
            raise SchemaError("tags and exponents must have equal length")
        self.field = field
        self.tags = tuple(tags)
        self.exp_half = tuple(exp_half)
        try:
            self._validate()
        except OverflowError:  # the checks read each E as a complex double
            raise SchemaError(f"an exponent in {self.exp_half} is beyond the "
                              "double range") from None

    @property
    def n(self):
        return len(self.tags)

    def mu(self):
        """Exponents as complex numbers (principal branch of 2 Log E)."""
        return [2 * cmath.log(self.field.to_complex(E)) for E in self.exp_half]

    def _validate(self):
        """The normalization at 1e-9: each E is the principal square root
        of a principal q = E^2 of its tag's type, and a complex hyperbolic
        member is followed by its conjugate."""
        i = 0
        while i < self.n:
            tag, ec = self.tags[i], self.field.to_complex(self.exp_half[i])
            if tag not in _TAGS:
                raise SchemaError(f"unknown block tag {tag!r}")
            q = ec * ec
            try:
                found = classify(q, _INPUT_TOL)
            except MathError as exc:
                raise SchemaError(f"{tag} exponent E = {ec}: {exc}") from None
            if found != tag or not (ec.real > 0 and principal(q, _INPUT_TOL)):
                raise SchemaError(
                    f"{tag} exponent E = {ec} needs Re E > 0 and a principal "
                    f"{tag} e^mu = E^2, got a {found} one, {q}")
            if tag == COMPLEX_HYPERBOLIC:
                if self.tags[i + 1:i + 2] != (COMPLEX_HYPERBOLIC,):
                    raise SchemaError(
                        "complex hyperbolic exponents must come in pairs")
                e2c = self.field.to_complex(self.exp_half[i + 1])
                if abs(e2c - ec.conjugate()) > _INPUT_TOL * max(1.0, abs(ec)):
                    raise SchemaError(
                        "complex hyperbolic pair members must be conjugate")
                i += 1
            i += 1

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_exp_half(cls, field, tagged):
        return cls(field, [t for t, _ in tagged], [e for _, e in tagged])

    @classmethod
    def from_mu(cls, field, tagged):
        """Build from complex mu values (floating backends)."""
        return cls.from_exp_half(field, [(t, exp_half_of(field, m))
                                         for t, m in tagged])

    # -- ordering -----------------------------------------------------------

    def canonical_order(self):
        """Permutation ``perm`` such that blocks[perm] is canonically sorted."""
        # a complex hyperbolic pair moves as one, led by its first member
        lead = [i for i, t in enumerate(self.tags) if t != COMPLEX_HYPERBOLIC
                or self.tags[:i].count(COMPLEX_HYPERBOLIC) % 2 == 0]
        order = _canonical_order(self.field, [(self.tags[i], self.exp_half[i])
                                              for i in lead])
        return [j for u in order for j in range(lead[u], lead[u] + 1 + (
            self.tags[lead[u]] == COMPLEX_HYPERBOLIC))]

    def __repr__(self):
        parts = [f"{t[:2]}:{self.field.to_complex(E):.6g}"
                 for t, E in zip(self.tags, self.exp_half)]
        return "<SpectrumBlocks " + " ".join(parts) + ">"


def exp_half_of(field, mu):
    """E = exp(mu/2) in ``field`` for a complex exponent ``mu``."""
    return field.exp(field.from_int(0) + complex(mu) * 0.5)


def oriented(q, tol):
    """Whether q = e^mu, a complex number, has the orientation the blocks
    keep, within ``tol``: |q| > 1, or Im q >= 0 on the unit circle.  Off
    the circle exactly one of q and 1/q has it."""
    if abs(abs(q) - 1.0) <= tol:
        return q.imag >= 0
    return abs(q) > 1.0


def classify(q, tol):
    """Block type of e^mu = q, a complex number, each decision within
    ``tol``: on the unit circle elliptic, with theta = arg q in
    (tol, pi - tol); on the positive real axis real hyperbolic; elsewhere
    complex hyperbolic.  A q that is not :func:`oriented` and a negative
    real q are refused."""
    if not oriented(q, tol):
        raise MathError(
            f"e^mu = {q:.6g} is not oriented: the blocks keep |e^mu| > 1, "
            "or Im e^mu >= 0 on the unit circle, which is its inverse"
        )
    mod = abs(q)
    if abs(mod - 1.0) <= tol:
        th = cmath.phase(q)
        if not (tol < th < math.pi - tol):
            raise MathError(
                f"elliptic exponent with theta = {th:.6g} outside (0, pi): "
                "normalization violated or eigenvalue at +-1"
            )
        return ELLIPTIC
    if abs(q.imag) <= tol * mod:
        if q.real < 0:
            raise MathError("negative real eigenvalue: outside the classification")
        return REAL_HYPERBOLIC
    return COMPLEX_HYPERBOLIC


def principal(q, tol):
    """Whether q = e^mu is the member of {q, 1/q, conj q, 1/conj q} that
    the blocks store: :func:`oriented`, and of a complex hyperbolic pair the
    member with Im q > 0.  Refuses what :func:`classify` refuses."""
    return oriented(q, tol) and (
        q.imag > 0 or classify(q, tol) != COMPLEX_HYPERBOLIC)


def _canonical_order(field, units):
    """The indices of ``units``, (tag, E), in canonical order: complex
    hyperbolic, real hyperbolic, elliptic, each by |E| and then arg E, the
    elliptic ones by arg E alone."""
    rank = {COMPLEX_HYPERBOLIC: 0, REAL_HYPERBOLIC: 1, ELLIPTIC: 2}

    def key(u):
        tag, E = units[u]
        ec = field.to_complex(E)
        return rank[tag], 0.0 if tag == ELLIPTIC else abs(ec), cmath.phase(ec)

    return sorted(range(len(units)), key=key)


def canonical_blocks(field, units):
    """The blocks of ``units`` in canonical order, and that order.

    ``units`` lists (tag, E) once per elliptic or real hyperbolic block and
    once per complex hyperbolic pair, by its principal member E; the
    pair's other member, conj E, is added here.  Returns (blocks, perm):
    the blocks are units[perm[0]], units[perm[1]], ... .
    """
    perm = _canonical_order(field, units)
    tagged = []
    for tag, E in (units[u] for u in perm):
        tagged.append((tag, E))
        if tag == COMPLEX_HYPERBOLIC:
            tagged.append((tag, field.conj(E)))
    return SpectrumBlocks.from_exp_half(field, tagged), perm


def pair_conjugates(field, tagged, tol):
    """The units of :func:`canonical_blocks` from ``tagged``, (tag, E) per
    exponent with both members of each complex hyperbolic pair: the
    principal members (at ``tol``).  The other members must be as many,
    each within relative ``tol`` of the conjugate of a principal one, or
    the pairs are a RankDeficiencyError."""
    units, lower = [], []
    for tag, E in tagged:
        ec = field.to_complex(E)
        if tag == COMPLEX_HYPERBOLIC and not principal(ec * ec, tol):
            lower.append(ec.conjugate())
        else:
            units.append((tag, E))
    upper = [field.to_complex(E) for t, E in units if t == COMPLEX_HYPERBOLIC]
    if len(upper) != len(lower) or not all(
            any(abs(u - e) <= tol * max(1.0, abs(u)) for u in upper)
            for e in lower):
        raise RankDeficiencyError(
            "complex hyperbolic exponent without conjugate partner")
    return units


def nonresonance_witness(mu, max_order, tol=1e-8):
    """Search integer vectors k, 0 < sum|k_j| <= max_order, with
    sum k_j mu_j in 2 pi i Z (within tol).  Returns None or (k, m).

    The search walks the 1-norm levels 1..max_order, and on each level
    the vectors whose first nonzero entry is positive, in descending
    lexicographic order; -k resonates exactly when k does.  That order
    fixes the witness returned: the first hit of an ascending scan by
    (1-norm, k) over all vectors, turned to a positive first entry."""
    if not mu:
        return None
    two_pi = 2 * math.pi
    for level in range(1, max_order + 1):
        for kvec, w in _level(mu, level, True, 0):
            if abs(w.real) > tol:
                continue
            m = round(w.imag / two_pi)
            if abs(w.imag - two_pi * m) <= tol:
                return kvec, m
    return None


def _level(mu, level, lead, w):
    """(k, w + sum k_j mu_j), summed left to right, for the integer
    vectors k of 1-norm ``level`` in descending lexicographic order; with
    ``lead``, only those whose first nonzero entry is positive."""
    head, rest = mu[0], mu[1:]
    if not rest:
        return [((k,), w + k * head)
                for k in ((level,) if lead or not level else (level, -level))]
    return [((first,) + k, v)
            for first in range(level, -1 if lead else -level - 1, -1)
            for k, v in _level(rest, level - abs(first), lead and first == 0,
                               w + first * head)]


def require_nonresonant(blocks, max_order, tol=1e-8):
    witness = nonresonance_witness(blocks.mu(), max_order, tol)
    if witness is not None:
        kvec, m = witness
        raise ResonanceError(
            f"resonant exponents: sum k_j mu_j = 2 pi i m for k={list(kvec)}, m={m}",
            witness=witness,
        )
