"""Classified Floquet exponents.

A :class:`SpectrumBlocks` holds the exponents mu_j of the linearized
return map, tagged elliptic / real hyperbolic / complex hyperbolic, with
the count identity n_e + n_rh + 2 n_ch = n.  Exponents are stored through
their half-exponentials E_j = exp(mu_j/2); that representation is exact on
the rational backend for the hyperbolic fixtures mu = 2 log(p/q), and mu
itself is recovered as 2 Log E_j (principal branch, safe under the
normalizations below).

Normalizations:

* real hyperbolic: mu_j > 0, i.e. E_j real > 1;
* elliptic: mu_j = i theta_j with theta_j in (0, pi), i.e. E_j on the unit
  circle in the open first quadrant;
* complex hyperbolic: conjugate pairs (mu, conj mu) with Re mu > 0 and
  Im mu in (0, pi), stored as consecutive entries, principal member first.

Canonical ordering is complex hyperbolic pairs, then real hyperbolic, then
elliptic (each group sorted), matching the eigenvalue list of the
classification equation.
"""

import cmath
import itertools
import math

from .errors import MathError, ResonanceError, SchemaError

ELLIPTIC = "elliptic"
REAL_HYPERBOLIC = "real_hyperbolic"
COMPLEX_HYPERBOLIC = "complex_hyperbolic"

_TAGS = (ELLIPTIC, REAL_HYPERBOLIC, COMPLEX_HYPERBOLIC)


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

    @property
    def n_e(self):
        return sum(1 for t in self.tags if t == ELLIPTIC)

    @property
    def n_rh(self):
        return sum(1 for t in self.tags if t == REAL_HYPERBOLIC)

    @property
    def n_ch(self):
        return sum(1 for t in self.tags if t == COMPLEX_HYPERBOLIC) // 2

    def mu(self):
        """Exponents as complex numbers (principal branch of 2 Log E)."""
        return [2 * cmath.log(self.field.to_complex(E)) for E in self.exp_half]

    def _validate(self):
        f = self.field
        tol = 1e-9  # slack of the normalization checks on E_j
        i = 0
        while i < self.n:
            tag, E = self.tags[i], self.exp_half[i]
            ec = f.to_complex(E)
            if tag == REAL_HYPERBOLIC:
                if abs(ec.imag) > tol or ec.real <= 1 + tol:
                    raise SchemaError(
                        f"real hyperbolic exponent needs E real > 1, got {ec}"
                    )
                i += 1
            elif tag == ELLIPTIC:
                if abs(abs(ec) - 1) > tol:
                    raise SchemaError(f"elliptic exponent needs |E| = 1, got {ec}")
                th = 2 * cmath.phase(ec)
                if not (tol < th < math.pi - tol):
                    raise SchemaError(
                        f"elliptic theta must lie in (0, pi), got {th}"
                    )
                i += 1
            elif tag == COMPLEX_HYPERBOLIC:
                if i + 1 >= self.n or self.tags[i + 1] != COMPLEX_HYPERBOLIC:
                    raise SchemaError(
                        "complex hyperbolic exponents must come in pairs"
                    )
                E2 = self.exp_half[i + 1]
                e2c = f.to_complex(E2)
                if abs(ec) <= 1 + tol:
                    raise SchemaError(
                        f"complex hyperbolic exponent needs Re mu > 0, got E={ec}"
                    )
                if not (tol < cmath.phase(ec) < math.pi / 2):
                    raise SchemaError(
                        f"complex hyperbolic principal member needs Im mu in (0, pi), E={ec}"
                    )
                if abs(e2c - ec.conjugate()) > tol * max(1.0, abs(ec)):
                    raise SchemaError(
                        "complex hyperbolic pair members must be conjugate"
                    )
                i += 2
            else:
                raise SchemaError(f"unknown block tag {tag!r}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_exp_half(cls, field, tagged):
        tags = [t for t, _ in tagged]
        ehm = [e for _, e in tagged]
        return cls(field, tags, ehm)

    @classmethod
    def from_mu(cls, field, tagged):
        """Build from complex mu values (floating backends)."""
        tags, ehm = [], []
        for t, m in tagged:
            tags.append(t)
            ehm.append(field.exp(field.from_int(0) + complex(m) * 0.5))
        return cls(field, tags, ehm)

    # -- ordering -----------------------------------------------------------

    def canonical_order(self):
        """Permutation ``perm`` such that blocks[perm] is canonically sorted."""
        f = self.field
        units = []
        i = 0
        while i < self.n:
            if self.tags[i] == COMPLEX_HYPERBOLIC:
                units.append((i, 2))
                i += 2
            else:
                units.append((i, 1))
                i += 1

        def sort_key(unit):
            idx, width = unit
            ec = f.to_complex(self.exp_half[idx])
            if self.tags[idx] == COMPLEX_HYPERBOLIC:
                return (0, abs(ec), cmath.phase(ec))
            if self.tags[idx] == REAL_HYPERBOLIC:
                return (1, ec.real, 0.0)
            return (2, cmath.phase(ec), 0.0)

        perm = []
        for idx, width in sorted(units, key=sort_key):
            perm.extend(range(idx, idx + width))
        return perm

    def reordered(self, perm):
        return SpectrumBlocks(
            self.field,
            [self.tags[p] for p in perm],
            [self.exp_half[p] for p in perm],
        )

    def __repr__(self):
        parts = [
            f"{t[:2]}:{self.field.to_complex(E):.6g}"
            for t, E in zip(self.tags, self.exp_half)
        ]
        return "<SpectrumBlocks " + " ".join(parts) + ">"


def classify(q, tol):
    """Block type of e^mu = q, a complex number oriented to the
    normalizations above (|q| > 1, or arg q in (0, pi) on the unit
    circle), each decision within ``tol``: on the unit circle elliptic,
    with theta = arg q in (tol, pi - tol); on the positive real axis real
    hyperbolic; elsewhere complex hyperbolic.  A negative real q is
    refused."""
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


def nonresonance_witness(mu, max_order, tol=1e-8):
    """Search integer vectors k, 0 < sum|k_j| <= max_order, with
    sum k_j mu_j in 2 pi i Z (within tol).  Returns None or (k, m)."""
    n = len(mu)
    two_pi = 2 * math.pi
    candidates = [
        kvec
        for kvec in itertools.product(range(-max_order, max_order + 1),
                                      repeat=n)
        if 0 < sum(abs(x) for x in kvec) <= max_order
    ]
    candidates.sort(key=lambda kv: (sum(abs(x) for x in kv), kv))
    for kvec in candidates:
        w = sum(kj * mj for kj, mj in zip(kvec, mu))
        if abs(w.real) > tol:
            continue
        m = round(w.imag / two_pi)
        if abs(w.imag - two_pi * m) <= tol:
            first = next(x for x in kvec if x != 0)
            if first < 0:
                kvec = tuple(-x for x in kvec)
                m = -m
            return tuple(kvec), m
    return None


def require_nonresonant(blocks, max_order, tol=1e-8):
    witness = nonresonance_witness(blocks.mu(), max_order, tol)
    if witness is not None:
        kvec, m = witness
        raise ResonanceError(
            f"resonant exponents: sum k_j mu_j = 2 pi i m for k={list(kvec)}, m={m}",
            witness=witness,
        )
