"""Tests for the prototype-based evidential layer."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidfuse.errors import DataError
from evidfuse.evidential import (EnnParams, EvidenceBuffers, _source_vjp, evidence_batch,
                                 fuse_evidence, fusion_vjp, init_enn, lloyd_kmeans)
import tape_ops as ad
from helpers import (
    check_gradients,
    enn_forward,
    finite_difference_gradients,
    product_evidence_batch,
    prototype_activations,
    prototype_mass,
    reference_evidence_batch,
    reference_init_enn,
    reference_lloyd_kmeans,
    reference_source_vjp,
    taped_fuse_evidence,
)
from reference import (SimpleMass, beta, combine_many, combine_simple, frame_of_size, gamma,
                       membership, pignistic)


def logit(p):
    return math.log(p / (1.0 - p))


def random_params(rng, h=4, d=3, m=2):
    return EnnParams(
        prototypes=rng.normal(size=(h, d)),
        scale_raw=rng.uniform(0.3, 1.2, size=h),
        support_raw=rng.normal(size=h),
        membership_raw=rng.normal(size=(h, m)),
    )


class TestActivations:
    def test_zero_distance_hits_support_ceiling(self):
        params = EnnParams(
            prototypes=np.array([[1.0, -2.0]]),
            scale_raw=np.array([3.0]),
            support_raw=np.array([40.0]),  # sigmoid saturates to 1.0 in float64
            membership_raw=np.zeros((1, 2)),
        )
        s = prototype_activations(np.array([1.0, -2.0]), params)
        assert s[0] == 1.0

    def test_vanishes_far_away(self):
        params = EnnParams(
            prototypes=np.zeros((1, 1)),
            scale_raw=np.array([1.0]),   # gamma = 1
            support_raw=np.array([0.0]),
            membership_raw=np.zeros((1, 2)),
        )
        # gamma * d^2 >= 20 forces the activation under 1e-6
        s = prototype_activations(np.array([math.sqrt(20.0)]), params)
        assert s[0] < 1e-6

    def test_hand_value(self):
        params = EnnParams(
            prototypes=np.zeros((1, 1)),
            scale_raw=np.array([1.0]),
            support_raw=np.array([logit(0.5)]),
            membership_raw=np.zeros((1, 2)),
        )
        s = prototype_activations(np.array([math.sqrt(math.log(2.0))]), params)
        assert abs(s[0] - 0.25) <= 1e-12

    def test_dimension_mismatch(self):
        params = random_params(np.random.default_rng(0), d=3)
        with pytest.raises(DataError):
            prototype_activations(np.zeros(4), params)

    def test_bounded_by_support(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, h=6, d=4)
        for _ in range(100):
            s = prototype_activations(rng.normal(size=4), params)
            assert np.all(s > 0.0)
            assert np.all(s <= beta(params) + 1e-15)


class TestPrototypeMass:
    def test_inactive_prototype_is_vacuous(self):
        m = prototype_mass(0.0, np.array([0.7, 0.3]))
        assert m.ignorance == 1.0
        assert np.all(m.singletons == 0.0)

    def test_full_activation_is_certain(self):
        m = prototype_mass(1.0, np.array([1.0, 0.0]))
        assert m.ignorance == 0.0
        assert m.singletons[0] == 1.0

    def test_hand_value(self):
        m = prototype_mass(0.5, np.array([0.7, 0.3]))
        np.testing.assert_allclose(m.singletons, [0.35, 0.15], atol=1e-15)
        assert abs(m.ignorance - 0.5) <= 1e-15


class TestForward:
    def test_single_prototype(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, h=1, d=2)
        x = rng.normal(size=2)
        expected = prototype_mass(
            prototype_activations(x, params)[0], membership(params)[0]
        )
        got = enn_forward(x, params)
        np.testing.assert_allclose(got.singletons, expected.singletons, atol=1e-15)

    def test_matches_pairwise_combination(self):
        # two prototypes placed on the query point, engineered to emit the
        # mass-algebra worked examples
        frame = frame_of_size(2)
        x = np.array([0.5, 0.5])
        params = EnnParams(
            prototypes=np.array([x, x]),
            scale_raw=np.ones(2),
            support_raw=np.array([logit(0.6), logit(0.5)]),
            membership_raw=np.array([[40.0, 0.0], [0.0, 40.0]]),
        )
        a = SimpleMass(frame, np.array([0.6, 0.0]), 0.4)
        b = SimpleMass(frame, np.array([0.0, 0.5]), 0.5)
        expected = combine_simple(a, b)
        got = enn_forward(x, params, frame)
        np.testing.assert_allclose(got.singletons, expected.singletons, atol=1e-12)
        assert abs(got.ignorance - expected.ignorance) <= 1e-12

    def test_collapsed_support_gives_vacuous(self):
        rng = np.random.default_rng(5)
        params = EnnParams(
            prototypes=rng.normal(size=(20, 3)),
            scale_raw=rng.uniform(0.3, 1.0, size=20),
            support_raw=np.full(20, logit(1e-5)),  # beta well under 1e-4
            membership_raw=rng.normal(size=(20, 2)),
        )
        for _ in range(20):
            out = enn_forward(rng.normal(size=3), params)
            assert out.ignorance >= 0.999

    def test_ignorance_strictly_positive(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, h=8, d=3)
        for _ in range(50):
            out = enn_forward(rng.normal(size=3), params)
            assert 0.0 < out.ignorance <= 1.0

    def test_prototype_order_irrelevant(self):
        rng = np.random.default_rng(9)
        params = random_params(rng, h=6, d=3)
        perm = rng.permutation(6)
        shuffled = EnnParams(
            prototypes=params.prototypes[perm],
            scale_raw=params.scale_raw[perm],
            support_raw=params.support_raw[perm],
            membership_raw=params.membership_raw[perm],
        )
        for _ in range(20):
            x = rng.normal(size=3)
            a, b = enn_forward(x, params), enn_forward(x, shuffled)
            np.testing.assert_allclose(a.singletons, b.singletons, atol=1e-10)
            assert abs(a.ignorance - b.ignorance) <= 1e-10


class TestBatchedPath:
    def test_matches_per_sample_forward(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, h=5, d=4, m=3)
        x = rng.normal(size=(16, 4))
        singles, ign = product_evidence_batch(x, **params.as_param_dict())
        for i in range(16):
            ref = enn_forward(x[i], params)
            np.testing.assert_allclose(singles[i], ref.singletons, atol=1e-12)
            assert abs(ign[i, 0] - ref.ignorance) <= 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        params = random_params(rng, h=3, d=2, m=2)
        x = rng.normal(size=(6, 2))
        weights = rng.normal(size=(6, 2))  # arbitrary scalarization

        def f(prototypes, scale_raw, support_raw, membership_raw):
            singles, ign = product_evidence_batch(x, prototypes, scale_raw,
                                                  support_raw, membership_raw)
            return ad.sum_along(singles * weights) + ad.sum_along(ign * ign)

        check_gradients(
            f,
            [params.prototypes, params.scale_raw, params.support_raw,
             params.membership_raw],
            tol=1e-5,
        )

    def test_input_gradient_flows(self):
        rng = np.random.default_rng(15)
        params = random_params(rng, h=3, d=2, m=2)
        x = rng.normal(size=(4, 2))

        def f(xv):
            singles, ign = product_evidence_batch(xv, **params.as_param_dict())
            return ad.sum_along(singles * singles) + 2.0 * ad.sum_along(ign)

        check_gradients(f, [x], tol=1e-5)


def fusion_grads(fused, g):
    """Each source's five input gradients, from the gradient ``g`` of
    ``fused.probs``: ``fusion_vjp``, then ``_source_vjp`` per source."""
    d_log_q, d_log_q_omega = fusion_vjp(fused, g)
    return [_source_vjp(ev, d_log_q, d_log_q_omega) for ev in fused.sources]


def random_sources(rng, k, m, n=8, h=4, d=3):
    """k sources: (inputs (n, d), EnnParams) each."""
    return [(rng.normal(size=(n, d)), random_params(rng, h=h, d=d, m=m)) for _ in range(k)]


@st.composite
def extreme_sources(draw):
    """Rows and 1-3 sources of up to 1000 prototypes, with support_raw
    anywhere in [-30, 30] and inputs up to 100x the prototype scale."""
    k, m, d = draw(st.integers(1, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 4))
    h, n = draw(st.integers(1, 1000)), draw(st.integers(1, 6))
    low = draw(st.floats(-30.0, 30.0))
    high = draw(st.floats(low, 30.0))
    scale = 10.0 ** draw(st.floats(-2.0, 1.0))
    reach = draw(st.floats(0.0, 100.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [
        (rng.normal(size=(n, d)) * scale * reach,
         EnnParams(prototypes=rng.normal(size=(h, d)) * scale,
                   scale_raw=rng.uniform(0.3, 1.2, size=h),
                   support_raw=rng.uniform(low, high, size=h),
                   membership_raw=rng.normal(size=(h, m)) * 5.0))
        for _ in range(k)
    ]


class TestFusedEvidence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_exact_oracle(self, k, m):
        rng = np.random.default_rng(100 + 10 * k + m)
        sources = random_sources(rng, k, m)
        fused = fuse_evidence([evidence_batch(x, **p.as_param_dict()) for x, p in sources])
        singles, ign = fused.masses()
        for i in range(8):
            per_source = [enn_forward(x[i], p) for x, p in sources]
            ref = combine_many(per_source)
            np.testing.assert_allclose(fused.probs[i], pignistic(ref), rtol=0, atol=1e-12)
            np.testing.assert_allclose(singles[i], ref.singletons, rtol=0, atol=1e-12)
            assert abs(ign[i, 0] - ref.ignorance) <= 1e-12
            for ev, src_ref in zip(fused.sources, per_source):
                s_singles, s_ign = ev.masses()
                np.testing.assert_allclose(s_singles[i], src_ref.singletons, rtol=0, atol=1e-12)
                assert abs(s_ign[i, 0] - src_ref.ignorance) <= 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(33)
        sources = random_sources(rng, k=2, m=3, n=5, h=3, d=2)
        arrays = []
        for x, p in sources:
            arrays += [x, p.prototypes, p.scale_raw, p.support_raw, p.membership_raw]
        weights = rng.normal(size=(5, 3))  # arbitrary scalarization

        def f(*arrs):
            fused = fuse_evidence([evidence_batch(*arrs[:5]), evidence_batch(*arrs[5:])])
            return np.sum(fused.probs * weights)

        fused = fuse_evidence([evidence_batch(*arrays[:5]), evidence_batch(*arrays[5:])])
        got = [g for grads in fusion_grads(fused, weights) for g in grads]
        for k, (g, want) in enumerate(zip(got, finite_difference_gradients(f, arrays))):
            np.testing.assert_allclose(g, want, rtol=1e-5, atol=1e-5, err_msg=str(k))

    def test_one_tape_node(self):
        """The byte oracle of the training step records the fusion as one
        node, whose VJP gives the bytes of ``fusion_vjp`` and
        ``_source_vjp``."""
        rng = np.random.default_rng(35)
        sources = random_sources(rng, k=3, m=2)
        tape = ad.Tape()
        leaves = []
        for x, p in sources:
            leaves.append([tape.leaf(a) for a in (x, *p.as_param_dict().values())])
        before = len(tape.nodes)
        fused = taped_fuse_evidence([reference_evidence_batch(*group) for group in leaves])
        assert len(tape.nodes) == before + 1
        assert isinstance(fused.probs, ad.Tensor)
        weights = rng.normal(size=fused.probs.value.shape)
        tape.backward(ad.sum_along(fused.probs * weights))
        plain = fuse_evidence([evidence_batch(x, **p.as_param_dict()) for x, p in sources])
        assert plain.probs.tobytes() == fused.probs.value.tobytes()
        for group, grads in zip(leaves, fusion_grads(plain, weights)):
            for leaf, g in zip(group, grads):
                assert leaf.grad.tobytes() == g.tobytes()

    def test_extreme_parameters_finite(self):
        # H = 1000 strongly supported prototypes: the linear-domain
        # commonality products underflow to 0/0 here
        rng = np.random.default_rng(37)
        h, d, m = 1000, 4, 3
        params = [
            EnnParams(prototypes=rng.normal(size=(h, d)) * 0.1,
                      scale_raw=np.ones(h),
                      support_raw=support,
                      membership_raw=rng.normal(size=(h, m)) * 5.0)
            for support in (np.full(h, 30.0), np.where(np.arange(h) % 2 == 0, 30.0, -30.0))
        ]
        near = rng.normal(size=(4, d)) * 0.1
        far = rng.normal(size=(4, d)) * 0.1 + 1e3
        between = rng.normal(size=(4, d)) * 0.1 + 13.4  # gamma * d^2 ~ 718: subnormal
        x = np.vstack([near, far, between])

        with np.errstate(all="ignore"):
            old_singles, _ = product_evidence_batch(near, **params[0].as_param_dict())
        assert np.isnan(old_singles).all()

        fused = fuse_evidence([evidence_batch(x, **p.as_param_dict()) for p in params])
        probs = fused.probs
        assert np.all(np.isfinite(probs)) and np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        for ev in fused.sources:
            singles, ign = ev.masses()
            assert np.all(np.isfinite(singles)) and np.all(np.isfinite(ign))
        # far inputs carry no evidence: vacuous fused mass, uniform probabilities
        np.testing.assert_allclose(probs[4:8], 1.0 / m, rtol=0, atol=1e-12)
        for grads in fusion_grads(fused, rng.normal(size=probs.shape)):
            assert all(np.all(np.isfinite(g)) for g in grads)


    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(extreme_sources())
    def test_extreme_parameters_property(self, sources):
        fused = fuse_evidence([evidence_batch(x, **p.as_param_dict()) for x, p in sources])
        probs = fused.probs
        assert np.all(np.isfinite(probs)) and np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        weights = np.random.default_rng(0).normal(size=probs.shape)
        for grads in fusion_grads(fused, weights):
            assert all(np.all(np.isfinite(g)) for g in grads)


def _kernel_case(rng, n, h, d, m, spread=1.0):
    """(z, prototypes, scale_raw, support_raw, membership_raw)."""
    return [rng.normal(size=(n, d)) * spread, rng.normal(size=(h, d)),
            rng.uniform(0.1, 1.0, h), rng.normal(size=h), rng.normal(size=(h, m)) * 2.0]


def _kernel_cases():
    """Inputs for the byte oracles of the evidential kernels."""
    rng = np.random.default_rng(4242)
    for i in range(12):
        yield f"random-{i}", _kernel_case(
            rng, int(rng.integers(1, 60)), int(rng.integers(1, 30)), int(rng.integers(1, 8)),
            int(rng.integers(2, 5)), spread=rng.uniform(0.2, 3.0))
    # integer coordinates: the expanded distance from a row to the
    # prototype it copies is exactly 0
    z, p, a, b, r = _kernel_case(rng, 20, 6, 3, 3)
    z, p = np.round(z * 4.0), np.round(p * 4.0)
    z[[0, 7, 8]] = p[[2, 5, 5]]
    yield "row-on-prototype", [z, p, a * 0.3, b, r]
    # exp(-1000) is 0, so these prototypes have u == 1.0 for one class
    z, p, a, b, r = _kernel_case(rng, 16, 5, 2, 3)
    r[1] = [0.0, -1000.0, -1000.0]
    r[3] = [-900.0, 0.0, -900.0]
    yield "saturated-membership", [z, p, a, b, r]
    yield "one-row-one-prototype", _kernel_case(rng, 1, 1, 4, 2)
    yield "one-row", _kernel_case(rng, 1, 7, 3, 4)
    yield "one-prototype", _kernel_case(rng, 9, 1, 3, 3)
    yield "1024x100x2", _kernel_case(rng, 1024, 100, 8, 2, spread=0.3)


KERNEL_CASES = dict(_kernel_cases())
EVIDENCE_FIELDS = ("log_q", "log_q_omega", "sq_dist", "closeness", "activation", "beta",
                   "membership")


class TestInPlaceKernels:
    """``evidence_batch`` and ``_source_vjp`` compute in place; they must
    give the bytes of the versions that allocate one array per step."""

    def test_cases_reach_the_edges(self):
        evs = {name: evidence_batch(*case) for name, case in KERNEL_CASES.items()}
        assert np.any(evs["row-on-prototype"].sq_dist == 0.0)
        assert np.any(evs["saturated-membership"].membership == 1.0)
        assert evs["one-row-one-prototype"].sq_dist.shape == (1, 1)

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    def test_forward_and_vjp_match_byte_for_byte(self, name):
        case = KERNEL_CASES[name]
        ev = evidence_batch(*case)
        want = reference_evidence_batch(*case)
        for field in EVIDENCE_FIELDS:
            got, ref = getattr(ev, field), getattr(want, field)
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), field
        rng = np.random.default_rng(len(name))
        d_log_q = rng.normal(size=want.log_q.shape)
        d_log_q_omega = rng.normal(size=want.log_q_omega.shape)
        grads = _source_vjp(ev, d_log_q, d_log_q_omega)
        want_grads = reference_source_vjp(want, d_log_q, d_log_q_omega)
        for k, (got, ref) in enumerate(zip(grads, want_grads)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), k
        # the VJP only reads the forward values
        for field in EVIDENCE_FIELDS:
            assert getattr(ev, field).tobytes() == getattr(want, field).tobytes(), field

    @pytest.mark.parametrize("name", ["random-0", "row-on-prototype", "one-row", "1024x100x2"])
    def test_buffer_views_match_fresh_arrays(self, name):
        """Computed in views of larger storage, as a training workspace
        gives them to a ragged batch, with a term array sized for more
        prototypes and classes, the forward and VJP keep their bytes."""
        case = KERNEL_CASES[name]
        n, h, m = len(case[0]), len(case[1]), case[4].shape[1]
        storage = [np.full((n + 3) * h, np.nan) for _ in range(3)]
        terms = np.full((m + 1) * (n + 3) * (h + 2), np.nan)
        out = EvidenceBuffers(*(a[:n * h].reshape(n, h) for a in storage),
                              terms[:m * n * h].reshape(m, n, h))
        ev = evidence_batch(*case, out=out)
        want = reference_evidence_batch(*case)
        for field in EVIDENCE_FIELDS:
            assert getattr(ev, field).tobytes() == getattr(want, field).tobytes(), field
        assert ev.sq_dist is out.sq_dist and ev.activation is out.activation
        rng = np.random.default_rng(len(name))
        d_log_q = rng.normal(size=want.log_q.shape)
        d_log_q_omega = rng.normal(size=want.log_q_omega.shape)
        grads = _source_vjp(ev, d_log_q, d_log_q_omega, out.terms)
        for k, (got, ref) in enumerate(zip(grads, reference_source_vjp(want, d_log_q,
                                                                        d_log_q_omega))):
            assert got.tobytes() == ref.tobytes(), k

    def test_allocation_budget(self):
        """In (N, H) float64 units at (N, H, M) = (1024, 100, 2): the
        forward keeps d2, e and s and a 2-unit term array; the VJP a
        2-unit t, g_s and two boolean masks."""
        case = KERNEL_CASES["1024x100x2"]
        unit = 1024 * 100 * 8
        rng = np.random.default_rng(5)
        d_log_q, d_log_q_omega = rng.normal(size=(1024, 2)), rng.normal(size=(1024, 1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ev = evidence_batch(*case)
            forward = (tracemalloc.get_traced_memory()[1] - base) / unit
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            grads = _source_vjp(ev, d_log_q, d_log_q_omega)
            vjp = (tracemalloc.get_traced_memory()[1] - base) / unit
        finally:
            tracemalloc.stop()
        assert len(grads) == 5
        assert forward < 6.0, forward
        assert vjp < 5.0, vjp

    def test_allocation_budget_with_buffers(self):
        """In the same units: given its buffers, the forward allocates no
        (N, H) array, and the VJP only g_s and two boolean masks."""
        case = KERNEL_CASES["1024x100x2"]
        unit = 1024 * 100 * 8
        rng = np.random.default_rng(5)
        d_log_q, d_log_q_omega = rng.normal(size=(1024, 2)), rng.normal(size=(1024, 1))
        out = EvidenceBuffers(*np.empty((3, 1024, 100)), np.empty((2, 1024, 100)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ev = evidence_batch(*case, out=out)
            forward = (tracemalloc.get_traced_memory()[1] - base) / unit
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _source_vjp(ev, d_log_q, d_log_q_omega, out.terms)
            vjp = (tracemalloc.get_traced_memory()[1] - base) / unit
        finally:
            tracemalloc.stop()
        assert forward < 0.5, forward
        assert vjp < 1.5, vjp


class TestKMeans:
    def test_deterministic(self):
        rng_data = np.random.default_rng(17)
        pts = rng_data.normal(size=(40, 3))
        c1, a1 = lloyd_kmeans(pts, 5, np.random.default_rng(99))
        c2, a2 = lloyd_kmeans(pts, 5, np.random.default_rng(99))
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(a1, a2)

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(30, 2))
        _, assign = lloyd_kmeans(pts, 8, np.random.default_rng(1))
        assert set(assign.tolist()) == set(range(8))

    @pytest.mark.parametrize("n,h", [(3000, 100), (15000, 20)])
    def test_scratch_beyond_distances_and_grouped_rows(self, n, h):
        """At the workloads' shapes, the peak beyond the (n, h) distances
        and the (n, 32) coordinate buffer stays under 8 float64 vectors of
        length n: no (D, n) index array or per-iteration (n, D) copy."""
        points = np.random.default_rng(n).normal(size=(n, 32))
        tracemalloc.start()
        try:
            lloyd_kmeans(points, h, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra = peak / (8 * n) - h - 32
        assert extra < 8.0, extra

    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(21)
        blob_a = rng.normal(size=(25, 2)) * 0.1 + np.array([10.0, 0.0])
        blob_b = rng.normal(size=(25, 2)) * 0.1 - np.array([10.0, 0.0])
        centers, _ = lloyd_kmeans(np.vstack([blob_a, blob_b]), 2, np.random.default_rng(2))
        xs = sorted(centers[:, 0].tolist())
        assert abs(xs[0] + 10.0) < 1.0 and abs(xs[1] - 10.0) < 1.0


def _oracle_cases():
    """(features, h) pairs: continuous rows; rows repeated from 100-400
    distinct values at h = 100, which forces reseeds; h = 1; h equal to
    the distinct-row count; the workloads' k-means shapes; and a blob
    whose members all hold a signed zero in one coordinate."""
    rng = np.random.default_rng(2024)
    for _ in range(4):
        n, d = int(rng.integers(40, 400)), int(rng.integers(1, 10))
        yield rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0), int(rng.integers(2, 30))
    for _ in range(4):
        n_distinct = int(rng.integers(100, 401))
        base = rng.normal(size=(n_distinct, int(rng.integers(1, 6))))
        # every distinct value at least once, then repeats
        pick = np.concatenate([np.arange(n_distinct), rng.integers(0, n_distinct, 2 * n_distinct)])
        yield base[rng.permutation(pick)], 100
    for _ in range(2):
        yield rng.normal(size=(int(rng.integers(2, 60)), 3)), 1
    for _ in range(3):
        base = rng.normal(size=(int(rng.integers(3, 40)), int(rng.integers(1, 4))))
        yield base[rng.integers(0, len(base), size=200)], None
    yield rng.normal(size=(3000, 32)), 100
    yield rng.normal(size=(15000, 32)), 20
    # every cluster inside the far blob sums -0.0 in one coordinate and
    # +0.0 in another; numpy's sum of either starts at +0.0
    blob = rng.normal(size=(120, 4)) + np.array([50.0, 0.0, 0.0, 0.0])
    blob[:, 1], blob[:, 2] = -0.0, 0.0
    yield np.vstack([rng.normal(size=(80, 4)), blob]), 4


class TestInit:
    def test_matches_per_cluster_loops_byte_for_byte(self):
        reseeds = []
        zero_coordinates = 0
        for seed, (features, h) in enumerate(_oracle_cases()):
            if h is None:
                h = len(np.unique(features, axis=0))
            m = 2 + seed % 3
            labels = np.random.default_rng(seed).integers(0, m, features.shape[0])
            centers, assign = lloyd_kmeans(features, h, np.random.default_rng(seed))
            want_centers, want_assign = reference_lloyd_kmeans(
                features, h, np.random.default_rng(seed), reseeds)
            assert centers.tobytes() == want_centers.tobytes()
            zero_coordinates += np.count_nonzero(want_centers == 0.0)
            assert assign.tobytes() == want_assign.tobytes()
            got = init_enn(features, labels, h, seed, m).as_param_dict()
            want = reference_init_enn(features, labels, h, seed, m).as_param_dict()
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name
        assert reseeds  # the duplicate-heavy cases exercise reseeding
        assert zero_coordinates  # and the blob, centers that sum to zero

    def test_bit_identical_across_runs(self):
        rng = np.random.default_rng(23)
        feats = rng.normal(size=(60, 4))
        labels = rng.integers(0, 2, size=60)
        p1 = init_enn(feats, labels, 6, seed=7, m=2)
        p2 = init_enn(feats, labels, 6, seed=7, m=2)
        np.testing.assert_array_equal(p1.prototypes, p2.prototypes)
        np.testing.assert_array_equal(p1.scale_raw, p2.scale_raw)
        np.testing.assert_array_equal(p1.support_raw, p2.support_raw)
        np.testing.assert_array_equal(p1.membership_raw, p2.membership_raw)

    def test_pure_cluster_concentrates_membership(self):
        rng = np.random.default_rng(25)
        feats = rng.normal(size=(50, 3))
        labels = np.zeros(50, dtype=int)
        params = init_enn(feats, labels, 1, seed=3, m=2)
        assert membership(params)[0, 0] >= 0.9

    def test_degenerate_prototype_count_keeps_inputs(self):
        rng = np.random.default_rng(27)
        feats = rng.normal(size=(10, 2))
        params = init_enn(feats, np.zeros(10, dtype=int), 10, seed=5, m=2)
        got = sorted(map(tuple, params.prototypes.tolist()))
        want = sorted(map(tuple, feats.tolist()))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_support_initialized_at_point_nine(self):
        rng = np.random.default_rng(29)
        feats = rng.normal(size=(30, 2))
        params = init_enn(feats, rng.integers(0, 2, 30), 4, seed=1, m=2)
        np.testing.assert_allclose(beta(params), 0.9, atol=1e-12)

    def test_scale_reflects_cluster_spread(self):
        rng = np.random.default_rng(31)
        tight = rng.normal(size=(25, 2)) * 0.05 + 10.0
        loose = rng.normal(size=(25, 2)) * 2.0 - 10.0
        feats = np.vstack([tight, loose])
        params = init_enn(feats, np.zeros(50, dtype=int), 2, seed=2, m=2)
        gammas = sorted(gamma(params).tolist())
        assert gammas[1] / gammas[0] > 50.0  # tight cluster gets much higher precision

    def test_too_many_prototypes_rejected(self):
        with pytest.raises(DataError):
            init_enn(np.zeros((3, 2)), np.zeros(3, dtype=int), 4, seed=0, m=2)
        # more rows than prototypes, but fewer distinct rows
        with pytest.raises(DataError, match="cannot place 4 prototypes on 1 distinct rows"):
            init_enn(np.zeros((10, 2)), np.zeros(10, dtype=int), 4, seed=0, m=2)

    @pytest.mark.parametrize("labels,message", [
        (np.r_[np.zeros(39, dtype=int), 2], r"labels must lie in \[0, 2\), got \[0, 2\]"),
        (np.r_[-1, np.zeros(39, dtype=int)], r"labels must lie in \[0, 2\), got \[-1, 0\]"),
        (np.zeros(30, dtype=int), r"labels of shape \(30,\) for 40 rows"),
    ], ids=["label-equal-to-m", "negative-label", "too-few-labels"])
    def test_bad_labels_rejected(self, labels, message):
        feats = np.random.default_rng(33).normal(size=(40, 3))
        with pytest.raises(DataError, match=message):
            init_enn(feats, labels, 4, seed=0, m=2)

    def test_one_prototype_per_distinct_row(self):
        # duplicates and a signed zero: k-means sees 3 distinct points
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 0.0], [5.0, 5.0]])
        feats = rows[np.arange(12) % 4]
        params = init_enn(feats, np.arange(12) % 2, 3, seed=0, m=2)
        got = sorted(map(tuple, params.prototypes.tolist()))
        assert got == [(0.0, 1.0), (2.0, 0.0), (5.0, 5.0)]
        with pytest.raises(DataError, match="4 prototypes on 3 distinct rows"):
            init_enn(feats, np.arange(12) % 2, 4, seed=0, m=2)
