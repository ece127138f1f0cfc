"""Prototype-based evidential layer and the Dempster fusion of sources.

Each of H learned prototypes is one piece of evidence.  Its activation
s = beta * exp(-gamma * d^2) decays with squared Euclidean distance from
the input, scaled by a per-prototype precision and a support ceiling;
the activation is split across classes by a per-prototype membership
simplex u, with the rest assigned to ignorance (Denoeux 2000).

For these singleton-plus-ignorance masses Dempster's rule is a product
of commonalities, so fusing every prototype of every source k is one
sum in the log domain:

    log Q({c})  = sum_k sum_h log(1 - s_kh * (1 - u_khc))
    log Q(Omega) = sum_k sum_h log(1 - s_kh)

``evidence_batch`` computes the log-commonalities of a group of sources
at once: every operand has a leading source axis G (a lone source is a
group of one, as ``x[None]`` views), and it does each source's
operations, in the same order, on (G, N, H) arrays and one (G, M, N, H)
term array, so each source's slice has the bits of a one-source pass.
``source_groups`` says which sources a training step's pass shares:
consecutive ones of equal (H, D, M), while their stacked term array
stays within ``GROUP_TERM_BYTES``.  Beyond that the term array leaves
the cache and a stacked pass is slower than one per source; below it,
the per-call overhead a stack saves dominates (small training
batches).
``fuse_evidence`` takes the K sources' log-commonalities stacked, (K, N,
M) and (K, N, 1), and sums them with one reduction over the source axis,
which adds them in source order as a left fold would; it normalizes
after a max-shift (so nothing underflows however many prototypes there
are) and applies the pignistic transform.  A training step
differentiates them with hand-derived VJPs: ``fusion_vjp`` takes the
gradient of the fused probabilities to that of the fused
log-commonalities, which every source shares, and ``_source_vjp`` takes
that to the gradients of a group's five inputs.

Constrained quantities live in raw (unconstrained) form so plain
gradient steps preserve the constraints:

* precision  gamma = scale_raw**2            (> 0)
* support    beta  = sigmoid(support_raw)    (in (0, 1))
* membership u     = row softmax(membership_raw)

In exact arithmetic beta < 1 keeps every prototype's ignorance mass
positive, which rules out total conflict during fusion.  In float64 it
does not hold over the whole range: beta rounds to 1.0 once
``support_raw`` >= 37, and a row on such a prototype then gets
``log1p(-1) = -inf`` (ROADMAP item 7 has the cancellation-free form).

This batched path is the only one in the package.  The tests check it
against an exact per-sample reference that builds each prototype's mass
and fuses them pairwise with the exact mass algebra kept in the tests.

Allocation contract: of (G, N, H) size the forward writes exactly three
arrays (squared distances, closeness, activation) and does every other
step in place in them or in a (G, M, N, H) term array, which it reduces.
The VJP computes in the same kind of term array, uses a class slice of
it as scratch once it is reduced, and allocates one (G, N, H) gradient.
Those four arrays are an ``EvidenceBuffers``: a training step passes
the ones its workspace keeps for the group (the term array shared by
every group's forward and VJP), and the ``SourceEvidence`` (G, N, H)
fields are then those buffers, which the next step overwrites; without
one, ``evidence_batch`` and ``_source_vjp`` allocate their own.  Both
compute with the same IEEE operations, order and memory layouts as code
that makes one array per step for one source, so every slice of every
output has its bits; the tests keep that code as the byte reference.
"""

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DataError

# beta initialization used by init_enn: sigmoid(log 9) = 0.9
INIT_SUPPORT_RAW = float(np.log(9.0))
KMEANS_ITERS = 25
# the largest (G, M, N, H) term array that one evidential pass over a
# group of sources uses (``source_groups``).  Against one pass per source,
# a stacked forward, fusion and VJP took 17-53 % less time with up to
# 250 KiB of term array (2 or 5 sources, 32 or 128 rows) and up to 8 %
# more at 1.6-2 MiB (numpy 2.4, one OpenBLAS thread, 2-core VM)
GROUP_TERM_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class EnnParams:
    """Trainable parameters of one evidential mapping layer."""

    prototypes: np.ndarray      # (H, D)
    scale_raw: np.ndarray       # (H,)
    support_raw: np.ndarray     # (H,)
    membership_raw: np.ndarray  # (H, M)

    def __post_init__(self):
        p = np.asarray(self.prototypes, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise DataError(f"prototypes must be a (H>=1, D>=1) matrix, got {p.shape}")
        h = p.shape[0]
        sc = np.asarray(self.scale_raw, dtype=np.float64)
        su = np.asarray(self.support_raw, dtype=np.float64)
        mr = np.asarray(self.membership_raw, dtype=np.float64)
        if sc.shape != (h,) or su.shape != (h,):
            raise DataError("scale_raw and support_raw must have one entry per prototype")
        if mr.ndim != 2 or mr.shape[0] != h or mr.shape[1] < 2:
            raise DataError(f"membership_raw must be (H, M>=2), got {mr.shape}")
        for name, arr in (("prototypes", p), ("scale_raw", sc),
                          ("support_raw", su), ("membership_raw", mr)):
            if not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite values in {name}")
        object.__setattr__(self, "prototypes", p)
        object.__setattr__(self, "scale_raw", sc)
        object.__setattr__(self, "support_raw", su)
        object.__setattr__(self, "membership_raw", mr)

    @property
    def m(self) -> int:
        return self.membership_raw.shape[1]

    def as_param_dict(self) -> dict:
        """The parameters under their names, in ``ENN_KEYS`` order."""
        return {key: getattr(self, key) for key in ENN_KEYS}

    @staticmethod
    def from_param_dict(d: dict) -> "EnnParams":
        return EnnParams(*(d[key] for key in ENN_KEYS))


# the evidential parameters' one order: the fields', which is the order of
# evidence_batch's operands, of checkpoints' arrays and of the flat layout
ENN_KEYS = tuple(f.name for f in fields(EnnParams))


class EvidenceBuffers(NamedTuple):
    """Where a group of G sources' evidential layers compute on N rows:
    the forward's three (G, N, H) arrays and the (G, M, N, H) term array
    that its forward and VJP reduce."""

    sq_dist: np.ndarray
    closeness: np.ndarray
    activation: np.ndarray
    terms: np.ndarray


@dataclass(frozen=True, eq=False)
class SourceEvidence:
    """A group of G sources' evidence for a batch, in log-commonality
    form; every field has the group's source axis first.

    ``log_q`` (G, N, M) and ``log_q_omega`` (G, N, 1) are the logs of the
    commonalities Q({c}) and Q(Omega) of each source's fused prototype
    masses.  ``inputs`` holds the five operands as given; the other
    fields are forward values the VJP reuses and only reads.
    ``sq_dist``, ``closeness`` and ``activation`` are the only (G, N, H)
    arrays the forward keeps, the buffers it computed in; its transients
    live in the term array.
    """

    inputs: tuple               # (z, prototypes, scale_raw, support_raw, membership_raw)
    log_q: np.ndarray           # (G, N, M)
    log_q_omega: np.ndarray     # (G, N, 1)
    sq_dist: np.ndarray         # (G, N, H) squared distances, clamped at 0
    closeness: np.ndarray       # (G, N, H) exp(-gamma * sq_dist)
    activation: np.ndarray      # (G, N, H) beta * closeness
    beta: np.ndarray            # (G, H)
    membership: np.ndarray      # (G, H, M)


@dataclass(frozen=True, eq=False)
class FusedEvidence:
    """All sources fused by Dempster's rule, plus pignistic probabilities.

    ``source_log_q`` (K, N, M) and ``source_log_q_omega`` (K, N, 1) are
    the K sources' log-commonalities that ``log_q`` and ``log_q_omega``
    sum.  ``q``, ``q_omega`` and ``total`` are the max-shifted fused
    commonalities and their mass total (``_shifted_commonalities``),
    which the masses and ``fusion_vjp`` reuse.
    """

    probs: np.ndarray               # (N, M)
    log_q: np.ndarray               # (N, M)
    log_q_omega: np.ndarray         # (N, 1)
    source_log_q: np.ndarray        # (K, N, M)
    source_log_q_omega: np.ndarray  # (K, N, 1)
    q: np.ndarray                   # (N, M)
    q_omega: np.ndarray             # (N, 1)
    total: np.ndarray               # (N, 1)

    def masses(self):
        """Normalized fused (singletons (N, M), ignorance (N, 1))."""
        return (self.q - self.q_omega) / self.total, self.q_omega / self.total

    def source_masses(self):
        """Each source's normalized (singletons (K, N, M), ignorance (K, N, 1))."""
        return masses_from_log_commonality(self.source_log_q, self.source_log_q_omega)


def _shifted_commonalities(log_q, log_q_omega):
    """Commonalities scaled by exp(-max_c log Q({c})) and their mass total,
    over the last axis.

    Q({c}) >= Q(Omega), so the largest scaled Q({c}) is 1 and the total
    sum_c (Q({c}) - Q(Omega)) + Q(Omega) lies in [1, M]: neither
    underflows, whatever the number of prototypes and sources.
    """
    shift = np.maximum.reduce(log_q, axis=-1, keepdims=True)
    q = np.exp(log_q - shift)
    q_omega = np.exp(log_q_omega - shift)
    total = np.add.reduce(q - q_omega, axis=-1, keepdims=True) + q_omega
    return q, q_omega, total


def masses_from_log_commonality(log_q, log_q_omega):
    """Normalized singleton and ignorance masses of singleton-plus-
    ignorance mass functions given by their log-commonalities (classes
    on the last axis)."""
    q, q_omega, total = _shifted_commonalities(log_q, log_q_omega)
    return (q - q_omega) / total, q_omega / total


def source_groups(shapes, n):
    """(lo, hi) bounds of the runs of consecutive sources that one
    evidential pass computes on n rows: ``shapes`` holds each source's
    (H, D, M); a run's sources have equal ones, and it ends before its
    (G, M, n, H) float64 term array would exceed ``GROUP_TERM_BYTES``.
    A source whose own term array exceeds it is a run of one."""
    bounds, lo = [], 0
    for k in range(1, len(shapes) + 1):
        h, _, m = shapes[lo]
        if (k == len(shapes) or shapes[k] != shapes[lo]
                or 8 * (k + 1 - lo) * m * n * h > GROUP_TERM_BYTES):
            bounds.append((lo, k))
            lo = k
    return bounds


def evidence_batch(z, prototypes, scale_raw, support_raw, membership_raw,
                   out: EvidenceBuffers | None = None) -> SourceEvidence:
    """A group of G sources' evidential layers on a batch of encoder
    outputs: ``z`` (G, N, D), ``prototypes`` (G, H, D), ``scale_raw``
    and ``support_raw`` (G, H), ``membership_raw`` (G, H, M).

    Takes float64 arrays (checked rows' encodings and a model's
    parameters) and computes in ``out``, or in fresh arrays when it is
    None.  Every (G, N, H) intermediate is computed in place in
    ``sq_dist``, ``closeness``, ``activation`` or the term array.
    """
    inputs = (z, prototypes, scale_raw, support_raw, membership_raw)
    p, a, b, r = prototypes, scale_raw, support_raw, membership_raw
    (g, n, _), h = z.shape, p.shape[1]
    d2, e, s, terms = out or (np.empty((g, n, h)), np.empty((g, n, h)), np.empty((g, n, h)),
                              np.empty((g, r.shape[2], n, h)))
    beta = 1.0 / (1.0 + np.exp(-b))
    mexp = np.exp(r - np.maximum.reduce(r, axis=2, keepdims=True))
    u = mexp / np.add.reduce(mexp, axis=2, keepdims=True)
    # |z|^2 - 2 z.p + |p|^2, clamped: the expanded form can round below 0,
    # which would push s above beta
    np.matmul(z, p.transpose(0, 2, 1), out=d2)
    np.multiply(d2, 2.0, out=d2)
    np.subtract(np.add.reduce(z * z, axis=2, keepdims=True), d2, out=d2)
    np.add(d2, np.add.reduce(p * p, axis=2)[:, None, :], out=d2)
    np.maximum(d2, 0.0, out=d2)
    np.multiply(-(a * a)[:, None, :], d2, out=e)
    np.exp(e, out=e)
    np.multiply(beta[:, None, :], e, out=s)
    # class-major (G, M, N, H) so reductions run along contiguous rows.
    # The copy makes -(1 - u)^T C-contiguous, which fixes the layout of
    # terms and so the order of the sums; negating 1 - u rather than
    # computing u - 1 keeps the sign of a zero, as -(w * s) would
    w = (1.0 - u).transpose(0, 2, 1).copy()
    np.negative(w, out=w)
    np.multiply(w[:, :, None, :], s[:, None], out=terms)
    np.log1p(terms, out=terms)
    log_q = np.add.reduce(terms, axis=3).transpose(0, 2, 1)
    omega = terms[:, 0]
    np.negative(s, out=omega)
    np.log1p(omega, out=omega)
    log_q_omega = np.add.reduce(omega, axis=2, keepdims=True)
    return SourceEvidence(inputs, log_q, log_q_omega, d2, e, s, beta, u)


def _source_vjp(ev: SourceEvidence, d_log_q, d_log_q_omega, terms=None):
    """Gradients of the five inputs of a group of sources, each with the
    group's source axis first, from the gradients (N, M) and (N, 1) of
    their log-commonalities, which every source shares.

    It computes in the (G, M, N, H) array ``terms`` (fresh when None) and
    allocates the (G, N, H) ``g_s``; once ``terms`` is reduced, its
    class-0 slice serves as scratch.  The forward values in ``ev`` and
    its inputs are only read.
    """
    zv, p, a = ev.inputs[:3]
    s, u, d2 = ev.activation, ev.membership, ev.sq_dist
    w = (1.0 - u).transpose(0, 2, 1).copy()                          # (G, M, H)
    # log Q_c = sum_h log(1 - s_h w_ch),  log Q_Omega = sum_h log(1 - s_h)
    t = np.multiply(w[:, :, None, :], s[:, None], out=terms)         # (G, M, N, H)
    np.subtract(1.0, t, out=t)
    np.divide(d_log_q.T[:, :, None], t, out=t)
    g_s = np.einsum("kcnh,kch->knh", t, w)
    g_u = np.einsum("kcnh,knh->khc", t, s)
    scratch = t[:, 0]
    # g_s = -sum_c t_c w_c - d_log_q_omega / (1 - s)
    np.negative(g_s, out=g_s)
    np.subtract(1.0, s, out=scratch)
    np.divide(d_log_q_omega, scratch, out=scratch)
    np.subtract(g_s, scratch, out=g_s)
    g_r = u * (g_u - np.add.reduce(g_u * u, axis=2, keepdims=True))
    np.multiply(g_s, ev.closeness, out=scratch)
    g_b = np.add.reduce(scratch, axis=1) * ev.beta * (1.0 - ev.beta)
    # from here on g_s's array holds -g_s * s = d/d(gamma * d2), then g_d2
    g_exponent = np.negative(g_s, out=g_s)
    np.multiply(g_exponent, s, out=g_exponent)
    np.multiply(g_exponent, d2, out=scratch)
    g_a = 2.0 * a * np.add.reduce(scratch, axis=1)
    g_d2 = np.multiply(g_exponent, (a * a)[:, None, :], out=g_exponent)
    np.copyto(g_d2, 0.0, where=np.logical_not(d2 > 0.0))
    g_z = 2.0 * (zv * np.add.reduce(g_d2, axis=2, keepdims=True) - g_d2 @ p)
    g_p = 2.0 * (p * np.add.reduce(g_d2, axis=1)[:, :, None] - g_d2.transpose(0, 2, 1) @ zv)
    return g_z, g_p, g_a, g_b, g_r


def fuse_evidence(log_q, log_q_omega) -> FusedEvidence:
    """Dempster's rule over K sources, then the pignistic transform.

    Takes the sources' log-commonalities stacked, (K, N, M) and (K, N, 1);
    the fused ones are their sums over the source axis, one reduction
    that adds the sources in order, as a left fold does.
    """
    fused_q = np.add.reduce(log_q, axis=0)
    fused_q_omega = np.add.reduce(log_q_omega, axis=0)
    q, q_omega, total = _shifted_commonalities(fused_q, fused_q_omega)
    m = q.shape[1]
    probs = (q - q_omega) / total + (q_omega / total) / m
    return FusedEvidence(probs, fused_q, fused_q_omega, log_q, log_q_omega, q, q_omega, total)


def fusion_vjp(fused: FusedEvidence, g):
    """Gradients of the fused log-commonalities, (N, M) and (N, 1), from
    the gradient ``g`` of ``fused.probs``; every source's log-commonalities
    get these same gradients."""
    # probs_c = (q_c - (1 - 1/M) q_Omega) / total; the max-shift cancels
    q, q_omega, total = fused.q, fused.q_omega, fused.total
    m = q.shape[1]
    g_dot_p = np.add.reduce(g * fused.probs, axis=1, keepdims=True)
    d_log_q = (g - g_dot_p) / total * q
    d_log_q_omega = ((m - 1) * g_dot_p
                     - (1.0 - 1.0 / m) * np.add.reduce(g, axis=1, keepdims=True)
                     ) / total * q_omega
    return d_log_q, d_log_q_omega


def lloyd_kmeans(points: np.ndarray, k: int, rng: np.random.Generator):
    """Plain Lloyd iteration with seeded sampling of initial centers.

    Returns the centers and each point's cluster.

    Reseeding: after each assignment, the empty clusters, in index order,
    each take the point currently farthest from its own center, which
    then counts as that cluster's member at distance 0.  A reseed can
    empty a later cluster, which then reseeds in turn; an earlier one is
    not visited again.  Every cluster ends non-empty as long as there are
    at least k distinct points.

    Each center has the bits of ``mean(axis=0)`` over a boolean-mask copy
    of its rows: a sum over axis 0, then a division by the count.  For
    D >= 2 numpy reduces that C-contiguous (cnt, D) copy by adding its
    rows one at a time in index order, starting from +0.0, the identity
    of ``add`` (so a coordinate that is -0.0 on every member also sums to
    +0.0).  A weighted ``bincount`` per coordinate does exactly that: it
    starts each cluster's sum at +0.0 and adds the weights in index
    order.  Negated coordinates and sums would turn every exact zero sum
    into -0.0.  For D = 1 numpy sums the (cnt, 1) copy pairwise, which
    neither ``bincount`` nor ``np.add.reduceat`` reproduces, so there
    each center is the sum of that copy.

    Its only (n, .) scratch arrays are the (n, k) distances ``d2`` and
    an (n, D) buffer, allocated once per call.  The buffer first holds
    the squares that ``|p|^2`` sums, then the coordinates laid out
    (D, n), so each ``bincount`` reads one contiguous row.  The cross term is
    ``p . (2 c)`` rather than ``(2 p) . c``: scaling by 2 is exact, so
    both have the same bits, and doubling the (k, D) centers costs less
    than an (n, D) copy or a pass over ``d2``.
    """
    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    d2 = np.empty((n, k))
    coords = np.empty((dim, n))
    p2 = np.sum(np.square(points, out=coords.reshape(n, dim)), axis=1, keepdims=True)
    np.copyto(coords, points.T)
    assign = None
    for _ in range(KMEANS_ITERS):
        np.matmul(points, (2.0 * centers).T, out=d2)
        np.subtract(p2, d2, out=d2)
        d2 += np.sum(centers ** 2, axis=1)
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if not counts.all():
            own_d2 = d2[np.arange(n), new_assign]
            for c in range(k):
                if counts[c] == 0:
                    far = int(np.argmax(own_d2))
                    centers[c] = points[far]
                    counts[new_assign[far]] -= 1
                    counts[c] += 1
                    new_assign[far] = c
                    own_d2[far] = 0.0
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        if dim == 1:
            for c in range(k):
                centers[c] = np.add.reduce(points[assign == c], axis=0) / counts[c]
        else:
            for j, coord in enumerate(coords):
                centers[:, j] = np.bincount(assign, weights=coord, minlength=k)
            centers /= counts[:, None]
    return centers, assign


def init_enn(features: np.ndarray, labels: np.ndarray, h: int, seed: int,
             m: int) -> EnnParams:
    """Data-driven initialization: k-means prototypes, per-cluster label
    frequencies for memberships, per-cluster spread for precisions."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise DataError(f"features must be (N, D), got {features.shape}")
    if labels.shape != features.shape[:1]:
        raise DataError(f"labels of shape {labels.shape} for {features.shape[0]} rows")
    if labels.size and not (labels.min() >= 0 and labels.max() < m):
        raise DataError(f"labels must lie in [0, {m}), got [{labels.min()}, {labels.max()}]")
    # k-means needs h distinct points; stop counting once there are h
    distinct = set()
    for row in features:
        distinct.add((row + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0
        if len(distinct) == h:
            break
    if len(distinct) < h:
        raise DataError(f"cannot place {h} prototypes on {len(distinct)} distinct rows")
    rng = np.random.default_rng(seed)
    centers, assign = lloyd_kmeans(features, h, rng)

    membership_raw = np.log(np.bincount(assign * m + labels, minlength=h * m)
                            .reshape(h, m) + 1.0)
    # each row's squared distance to its centre; a cluster's mask copy
    # holds its rows' distances in index order (no cluster is empty)
    own = centers[assign]
    np.subtract(features, own, out=own)
    own = np.sum(np.square(own, out=own), axis=1)
    msd = np.array([np.mean(own[assign == c]) for c in range(h)])
    # singleton or zero-spread clusters borrow the average spread
    positive = msd[msd > 0.0]
    fallback = float(positive.mean()) if positive.size else 1.0
    msd = np.where(msd > 0.0, msd, fallback)
    gamma = 1.0 / (2.0 * msd)

    return EnnParams(
        prototypes=centers,
        scale_raw=np.sqrt(gamma),
        support_raw=np.full(h, INIT_SUPPORT_RAW),
        membership_raw=membership_raw,
    )
