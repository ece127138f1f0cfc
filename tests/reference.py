"""Exact mass-function algebra on a finite frame of classes: the test
reference for the log-commonality fusion in ``evidfuse.evidential``.

Two representations are provided.  ``SimpleMass`` stores one mass per
singleton class plus one ignorance mass on the whole frame; this family
is closed under Dempster's rule, so combination costs O(M).  A
``PowerSetMass`` carries mass on arbitrary non-empty subsets (bitmask
keyed) and exists as the brute-force reference for combination; it is
exponential in M and capped accordingly.

All values are immutable after construction and every operation is a
pure function.  The constrained quantities of an ``EnnParams`` (gamma,
beta, membership) are computed here from its raw parameters, directly
from their definitions.
"""

from dataclasses import dataclass, field

import numpy as np

from evidfuse.errors import DataError, NumericalError
from evidfuse.evidential import EnnParams
from evidfuse.model import Frame

# Inputs whose total mass drifts from 1 by more than REJECT_TOL are
# treated as logic bugs and rejected; drifts above RENORM_TOL are
# silently renormalized (accumulated float error).
REJECT_TOL = 1e-6
RENORM_TOL = 1e-9
# 1 - conflict at or below this is total contradiction.
CONFLICT_EPS = 1e-12


def frame_of_size(m: int) -> Frame:
    """The frame of ``m`` classes named class_0 .. class_{m-1}."""
    return Frame(tuple(f"class_{c}" for c in range(m)))


class TotalConflictError(NumericalError):
    """Dempster combination of fully contradictory evidence (1 - conflict ~ 0)."""


def gamma(params: EnnParams) -> np.ndarray:
    """Per-prototype precision scale_raw**2."""
    return params.scale_raw ** 2


def beta(params: EnnParams) -> np.ndarray:
    """Per-prototype support ceiling sigmoid(support_raw)."""
    return 1.0 / (1.0 + np.exp(-params.support_raw))


def membership(params: EnnParams) -> np.ndarray:
    """Per-prototype class membership, the row softmax of membership_raw."""
    shifted = params.membership_raw - params.membership_raw.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _normalize_total(values: np.ndarray, what: str) -> np.ndarray:
    """Enforce the unit-total invariant with the shared drift policy."""
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what}: non-finite mass values")
    if np.any(values < -RENORM_TOL):
        raise DataError(f"{what}: negative mass values")
    values = np.maximum(values, 0.0)
    total = float(values.sum())
    drift = abs(total - 1.0)
    if drift > REJECT_TOL:
        raise DataError(f"{what}: total mass {total!r} is off by more than {REJECT_TOL}")
    if drift > RENORM_TOL:
        values = values / total
    return values


@dataclass(frozen=True, eq=False)
class SimpleMass:
    """Mass on each singleton class plus one ignorance mass on the frame."""

    frame: Frame
    singletons: np.ndarray
    ignorance: float

    def __post_init__(self):
        s = np.asarray(self.singletons, dtype=np.float64)
        if s.shape != (self.frame.m,):
            raise DataError(
                f"singleton vector has shape {s.shape}, frame has {self.frame.m} classes"
            )
        full = _normalize_total(np.append(s, float(self.ignorance)), "SimpleMass")
        s = full[:-1]
        s.flags.writeable = False
        object.__setattr__(self, "singletons", s)
        object.__setattr__(self, "ignorance", float(full[-1]))


@dataclass(frozen=True, eq=False)
class PowerSetMass:
    """General mass function keyed by non-empty subset bitmasks."""

    frame: Frame
    masses: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.frame.m
        if m > 16:
            raise DataError(f"power-set representation capped at 16 classes, got {m}")
        full = (1 << m) - 1
        cleaned = {}
        for subset, value in self.masses.items():
            subset = int(subset)
            if subset <= 0 or subset > full:
                raise DataError(f"invalid subset bitmask {subset} for {m} classes")
            cleaned[subset] = cleaned.get(subset, 0.0) + float(value)
        keys = sorted(cleaned)
        values = _normalize_total(np.array([cleaned[k] for k in keys]), "PowerSetMass")
        object.__setattr__(self, "masses", dict(zip(keys, values.tolist())))

    def mass_of(self, subset: int) -> float:
        return self.masses.get(int(subset), 0.0)


def vacuous(frame: Frame) -> SimpleMass:
    """Total ignorance: the identity element of Dempster combination."""
    return SimpleMass(frame, np.zeros(frame.m), 1.0)


def _require_same_frame(a, b):
    if a.frame != b.frame:
        raise DataError(f"frames differ: {a.frame.labels} vs {b.frame.labels}")


def degree_of_conflict(a: SimpleMass, b: SimpleMass) -> float:
    """Total product mass falling on contradictory singleton pairs."""
    _require_same_frame(a, b)
    # sum_{c != c'} a_c * b_c' = (sum a_c)(sum b_c) - sum_c a_c b_c
    return float(a.singletons.sum() * b.singletons.sum() - a.singletons @ b.singletons)


def combine_simple(a: SimpleMass, b: SimpleMass) -> SimpleMass:
    """Dempster's rule within the singleton+ignorance family (closed form)."""
    _require_same_frame(a, b)
    unnorm = a.singletons * b.singletons + a.singletons * b.ignorance + a.ignorance * b.singletons
    unnorm_ign = a.ignorance * b.ignorance
    remaining = float(unnorm.sum() + unnorm_ign)  # equals 1 - conflict
    if remaining <= CONFLICT_EPS:
        raise TotalConflictError(
            f"total conflict: 1 - kappa = {remaining!r} <= {CONFLICT_EPS}"
        )
    return SimpleMass(a.frame, unnorm / remaining, unnorm_ign / remaining)


def combine_many(masses) -> SimpleMass:
    """Left fold of ``combine_simple``; order is observationally irrelevant."""
    masses = list(masses)
    if not masses:
        raise DataError("combine_many needs at least one mass")
    out = masses[0]
    for m in masses[1:]:
        out = combine_simple(out, m)
    return out


def pignistic(m: SimpleMass) -> np.ndarray:
    """Probability vector splitting the ignorance mass equally across classes."""
    return m.singletons + m.ignorance / m.frame.m


def embed_simple(m: SimpleMass) -> PowerSetMass:
    """View a SimpleMass as a general power-set mass function."""
    masses = {1 << c: float(m.singletons[c]) for c in range(m.frame.m) if m.singletons[c] > 0.0}
    if m.ignorance > 0.0:
        masses[(1 << m.frame.m) - 1] = m.ignorance
    return PowerSetMass(m.frame, masses)


def project_simple(p: PowerSetMass, tol: float = 1e-12) -> SimpleMass:
    """Inverse of ``embed_simple``; rejects mass on compound non-frame subsets."""
    m = p.frame.m
    full = (1 << m) - 1
    singletons = np.zeros(m)
    ignorance = 0.0
    for subset, value in p.masses.items():
        if subset == full:
            ignorance = value
        elif subset.bit_count() == 1:
            singletons[subset.bit_length() - 1] = value
        elif value > tol:
            raise DataError(
                f"mass {value!r} on compound subset {subset:b} cannot be projected"
            )
    return SimpleMass(p.frame, singletons, ignorance)


def combine_powerset(a: PowerSetMass, b: PowerSetMass) -> PowerSetMass:
    """Dempster's rule by direct enumeration of all focal-set pairs."""
    _require_same_frame(a, b)
    accumulated = {}
    conflict = 0.0
    for sa, va in a.masses.items():
        for sb, vb in b.masses.items():
            inter = sa & sb
            product = va * vb
            if inter == 0:
                conflict += product
            else:
                accumulated[inter] = accumulated.get(inter, 0.0) + product
    remaining = 1.0 - conflict
    if remaining <= CONFLICT_EPS:
        raise TotalConflictError(
            f"total conflict: 1 - kappa = {remaining!r} <= {CONFLICT_EPS}"
        )
    return PowerSetMass(a.frame, {s: v / remaining for s, v in accumulated.items()})
