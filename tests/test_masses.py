"""Unit and property tests for the exact mass-function algebra that the
tests use as their reference (``reference.py``).

The power-set representation acts as the brute-force oracle for the
closed-form singleton+ignorance combination throughout.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidfuse.errors import DataError
from evidfuse.model import Frame
from reference import (
    PowerSetMass,
    SimpleMass,
    TotalConflictError,
    combine_many,
    combine_powerset,
    combine_simple,
    degree_of_conflict,
    embed_simple,
    frame_of_size,
    pignistic,
    project_simple,
    vacuous,
)

F2 = frame_of_size(2)
F3 = frame_of_size(3)


def random_mass(frame, rng):
    parts = rng.dirichlet(np.ones(frame.m + 1))
    return SimpleMass(frame, parts[:-1], parts[-1])


def assert_mass_close(a, b, tol):
    np.testing.assert_allclose(a.singletons, b.singletons, atol=tol, rtol=0)
    assert abs(a.ignorance - b.ignorance) <= tol


class TestFrame:
    def test_rejects_single_class(self):
        with pytest.raises(DataError):
            Frame(("only",))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DataError):
            Frame(("a", "a", "b"))


class TestValidation:
    def test_large_drift_rejected(self):
        with pytest.raises(DataError):
            SimpleMass(F2, np.array([0.5, 0.5]), 0.1)

    def test_small_drift_renormalized(self):
        m = SimpleMass(F2, np.array([0.25, 0.25]), 0.5 + 1e-7)
        total = m.singletons.sum() + m.ignorance
        assert abs(total - 1.0) <= 1e-12

    def test_negligible_drift_kept_verbatim(self):
        s = np.array([0.3, 0.2])
        m = SimpleMass(F2, s, 0.5)
        assert m.singletons[0] == 0.3 and m.singletons[1] == 0.2

    def test_negative_mass_rejected(self):
        with pytest.raises(DataError):
            SimpleMass(F2, np.array([-0.2, 0.7]), 0.5)

    def test_wrong_length_rejected(self):
        with pytest.raises(DataError):
            SimpleMass(F3, np.array([0.5, 0.5]), 0.0)


class TestVacuous:
    def test_total_ignorance_m2(self):
        v = vacuous(F2)
        assert v.ignorance == 1.0
        assert np.all(v.singletons == 0.0)

    def test_total_ignorance_m3(self):
        v = vacuous(F3)
        assert v.ignorance == 1.0
        assert np.all(v.singletons == 0.0)

    def test_identity_for_combination(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = random_mass(F3, rng)
            assert_mass_close(combine_simple(m, vacuous(F3)), m, 1e-15)


class TestCombineSimple:
    def test_agreeing_evidence(self):
        a = SimpleMass(F2, np.array([0.6, 0.0]), 0.4)
        b = SimpleMass(F2, np.array([0.5, 0.0]), 0.5)
        out = combine_simple(a, b)
        # kappa = 0: unnormalized masses are already the answer
        np.testing.assert_allclose(out.singletons, [0.8, 0.0], atol=1e-15)
        assert abs(out.ignorance - 0.2) <= 1e-15

    def test_conflicting_evidence(self):
        a = SimpleMass(F2, np.array([0.6, 0.0]), 0.4)
        b = SimpleMass(F2, np.array([0.0, 0.5]), 0.5)
        out = combine_simple(a, b)
        np.testing.assert_allclose(out.singletons, [3 / 7, 2 / 7], atol=1e-15)
        assert abs(out.ignorance - 2 / 7) <= 1e-15

    def test_total_conflict_raises(self):
        a = SimpleMass(F2, np.array([1.0, 0.0]), 0.0)
        b = SimpleMass(F2, np.array([0.0, 1.0]), 0.0)
        with pytest.raises(TotalConflictError):
            combine_simple(a, b)

    def test_frame_mismatch_rejected(self):
        with pytest.raises(DataError):
            combine_simple(vacuous(F2), vacuous(F3))

    def test_commutative(self):
        rng = np.random.default_rng(11)
        for m_classes in (2, 3, 4, 8):
            frame = frame_of_size(m_classes)
            for _ in range(250):
                a, b = random_mass(frame, rng), random_mass(frame, rng)
                assert_mass_close(combine_simple(a, b), combine_simple(b, a), 1e-12)

    def test_associative(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            frame = frame_of_size(int(rng.integers(2, 5)))
            a, b, c = (random_mass(frame, rng) for _ in range(3))
            left = combine_simple(combine_simple(a, b), c)
            right = combine_simple(a, combine_simple(b, c))
            assert_mass_close(left, right, 1e-10)

    def test_output_normalized(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            frame = frame_of_size(int(rng.integers(2, 6)))
            out = combine_simple(random_mass(frame, rng), random_mass(frame, rng))
            assert abs(out.singletons.sum() + out.ignorance - 1.0) <= 1e-9


class TestPowerSetOracle:
    def test_matches_simple_on_spot_examples(self):
        a = SimpleMass(F2, np.array([0.6, 0.0]), 0.4)
        for b_s, b_i in ([(0.5, 0.0), 0.5], [(0.0, 0.5), 0.5]):
            b = SimpleMass(F2, np.array(b_s), b_i)
            via_oracle = project_simple(combine_powerset(embed_simple(a), embed_simple(b)))
            assert_mass_close(via_oracle, combine_simple(a, b), 1e-12)

    def test_matches_simple_randomized(self):
        rng = np.random.default_rng(19)
        for m_classes in (2, 3, 4):
            frame = frame_of_size(m_classes)
            for _ in range(300):
                a, b = random_mass(frame, rng), random_mass(frame, rng)
                via_oracle = project_simple(combine_powerset(embed_simple(a), embed_simple(b)))
                assert_mass_close(via_oracle, combine_simple(a, b), 1e-12)

    def test_family_closure_under_combination(self):
        # No compound focal set other than the full frame ever appears.
        rng = np.random.default_rng(23)
        frame = frame_of_size(3)
        full = (1 << 3) - 1
        for _ in range(200):
            a, b = random_mass(frame, rng), random_mass(frame, rng)
            combined = combine_powerset(embed_simple(a), embed_simple(b))
            for subset, value in combined.masses.items():
                if subset != full and subset.bit_count() != 1:
                    assert value <= 1e-15

    def test_logical_masses_intersect(self):
        # {0,1} combined with {1,2} concentrates on {1}
        a = PowerSetMass(F3, {0b011: 1.0})
        b = PowerSetMass(F3, {0b110: 1.0})
        out = combine_powerset(a, b)
        assert out.masses == {0b010: 1.0}

    def test_bayesian_plus_vacuous_is_identity(self):
        a = PowerSetMass(F3, {0b001: 0.2, 0b010: 0.5, 0b100: 0.3})
        v = PowerSetMass(F3, {0b111: 1.0})
        out = combine_powerset(a, v)
        for subset, value in a.masses.items():
            assert abs(out.mass_of(subset) - value) <= 1e-15

    def test_total_conflict_raises(self):
        a = PowerSetMass(F2, {0b01: 1.0})
        b = PowerSetMass(F2, {0b10: 1.0})
        with pytest.raises(TotalConflictError):
            combine_powerset(a, b)

    def test_oversized_frame_rejected(self):
        with pytest.raises(DataError):
            PowerSetMass(frame_of_size(17), {1: 1.0})


class TestCombineMany:
    def test_single_element(self):
        m = SimpleMass(F2, np.array([0.3, 0.1]), 0.6)
        assert_mass_close(combine_many([m]), m, 0.0)

    def test_identity_absorption(self):
        m = SimpleMass(F2, np.array([0.3, 0.1]), 0.6)
        assert_mass_close(combine_many([m, vacuous(F2), vacuous(F2)]), m, 1e-15)

    def test_order_irrelevant(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            frame = frame_of_size(int(rng.integers(2, 5)))
            ms = [random_mass(frame, rng) for _ in range(5)]
            assert_mass_close(combine_many(ms), combine_many(ms[::-1]), 1e-10)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            combine_many([])


class TestPignistic:
    def test_hand_example(self):
        m = SimpleMass(F2, np.array([0.5, 0.3]), 0.2)
        np.testing.assert_allclose(pignistic(m), [0.6, 0.4], atol=1e-15)

    def test_vacuous_is_uniform(self):
        np.testing.assert_allclose(pignistic(vacuous(frame_of_size(4))), [0.25] * 4, atol=1e-15)

    def test_bayesian_is_unchanged(self):
        m = SimpleMass(F3, np.array([0.2, 0.5, 0.3]), 0.0)
        np.testing.assert_allclose(pignistic(m), m.singletons, atol=1e-15)

    def test_simplex_under_fuzzing(self):
        rng = np.random.default_rng(31)
        for _ in range(2000):
            frame = frame_of_size(int(rng.integers(2, 9)))
            p = pignistic(random_mass(frame, rng))
            assert np.all(p >= 0.0)
            assert abs(p.sum() - 1.0) <= 1e-12


class TestDegreeOfConflict:
    def test_vacuous_never_conflicts(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            m = random_mass(F3, rng)
            assert degree_of_conflict(m, vacuous(F3)) == 0.0

    def test_contradictory_certainty(self):
        a = SimpleMass(F2, np.array([1.0, 0.0]), 0.0)
        b = SimpleMass(F2, np.array([0.0, 1.0]), 0.0)
        assert abs(degree_of_conflict(a, b) - 1.0) <= 1e-15

    def test_hand_example(self):
        a = SimpleMass(F2, np.array([0.6, 0.0]), 0.4)
        b = SimpleMass(F2, np.array([0.0, 0.5]), 0.5)
        assert abs(degree_of_conflict(a, b) - 0.3) <= 1e-15

    def test_matches_powerset_conflict(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            frame = frame_of_size(int(rng.integers(2, 5)))
            a, b = random_mass(frame, rng), random_mass(frame, rng)
            kappa = degree_of_conflict(a, b)
            conflict = 0.0
            for sa, va in embed_simple(a).masses.items():
                for sb, vb in embed_simple(b).masses.items():
                    if sa & sb == 0:
                        conflict += va * vb
            assert abs(kappa - conflict) <= 1e-12


@st.composite
def simple_masses(draw, m_classes=3):
    # Build a valid mass by normalizing positive weights drawn per entry.
    weights = [
        draw(st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
        for _ in range(m_classes + 1)
    ]
    parts = np.asarray(weights) / np.sum(weights)
    return SimpleMass(frame_of_size(m_classes), parts[:-1], float(parts[-1]))


class TestAlgebraProperties:
    @settings(max_examples=200, deadline=None)
    @given(simple_masses(), simple_masses())
    def test_combination_stays_normalized(self, a, b):
        out = combine_simple(a, b)
        assert abs(out.singletons.sum() + out.ignorance - 1.0) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(simple_masses(), simple_masses())
    def test_conflict_in_unit_interval(self, a, b):
        kappa = degree_of_conflict(a, b)
        assert -1e-12 <= kappa <= 1.0 + 1e-12
