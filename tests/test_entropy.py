import math
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhetor import (
    BadCount,
    BadDistribution,
    OutOfRange,
    asymptotic_subset_entropy,
    entropy_flat,
    entropy_layered,
    entropy_subset_sizes,
    subset_entropy_exact,
    subset_entropy_logspace,
    uniform,
)
from rhetor.entropy import MAX_ENTROPY_WIDTH
from rhetor.records import asdict

# Size-entropy checkpoints computed independently before the module was
# written (17 significant digits folded to 6 decimals).
CHECKPOINTS = {
    1: 0.0,
    2: 0.918296,
    3: 1.448816,
    4: 1.806239,
    7: 2.399471,
    10: 2.697890,
    14: 2.949276,
    18: 3.131573,
    20: 3.207705,
    100: 4.369011,
}


def correctly_rounded(terms) -> float:
    """``0.0 - Σ terms``, summed exactly as rationals and rounded once."""
    return 0.0 - float(sum(map(Fraction, terms)))


def exact_terms(k: int) -> list[float]:
    """The terms ``q log2 q``, ``q = C(K,i)/(2^K−1)``, of the exact path."""
    return [q * math.log2(q) for q in (math.comb(k, i) / (2**k - 1) for i in range(1, k + 1))]


def logspace_terms(k: int) -> list[float]:
    """The terms ``q log2 q`` of the log-space path, each from ``ln q``."""
    ln_nrc = k * math.log(2.0) + math.log1p(-(2.0**-k))
    ln_probs = (math.lgamma(k + 1) - math.lgamma(i + 1) - math.lgamma(k - i + 1) - ln_nrc
                for i in range(1, k + 1))
    return [math.exp(lq) * (lq / math.log(2.0)) for lq in ln_probs]


def brute_force_size_entropy(k: int) -> float:
    """Entropy of |S| for S uniform over non-empty subsets, by enumeration."""
    sizes = Counter(mask.bit_count() for mask in range(1, 2**k))
    total = 2**k - 1
    return -sum((n / total) * math.log2(n / total) for n in sizes.values())


class TestFlatEntropy:
    def test_uniform_is_log2(self):
        assert entropy_flat(uniform(18)) == pytest.approx(math.log2(18), abs=1e-12)
        assert entropy_flat(uniform(1)) == 0.0
        assert entropy_flat(uniform(2)) == pytest.approx(1.0, abs=1e-12)

    def test_skewed(self):
        assert entropy_flat([0.5, 0.25, 0.25]) == pytest.approx(1.5, abs=1e-12)
        assert entropy_flat([1.0, 0.0]) == 0.0

    def test_bad_distributions(self):
        with pytest.raises(BadDistribution):
            entropy_flat([0.5, 0.4])
        with pytest.raises(BadDistribution):
            entropy_flat([0.5, 0.6])
        with pytest.raises(BadDistribution):
            entropy_flat([1.1, -0.1])
        with pytest.raises(BadDistribution):
            entropy_flat([float("nan"), 1.0])

    @pytest.mark.parametrize("probabilities, named", [
        (["0.5", "0.5"], "'0.5'"), ([True], "True"), ([False, True], "False"),
        ([0.5, None, 0.5], "None"), ([1 + 0j], "(1+0j)")])
    def test_only_real_numbers_are_probabilities(self, probabilities, named):
        with pytest.raises(BadDistribution,
                           match=re.escape(f"probability {named} is not a real number")):
            entropy_flat(probabilities)

    @pytest.mark.parametrize("huge", [10**400, -10**400, 10**5000, Fraction(10**5000, 3)],
                             ids=["1e400", "-1e400", "1e5000", "fraction"])
    def test_probability_beyond_float_range(self, huge):
        with pytest.raises(BadDistribution) as caught:
            entropy_flat([0.5, huge])
        assert str(caught.value) == "a probability is out of floating-point range"

    def test_integer_and_fraction_probabilities(self):
        assert entropy_flat([1]) == entropy_flat([0, 1]) == 0.0
        assert entropy_flat([Fraction(1, 2), 0.5]) == 1.0

    def test_width_refuses_a_bool_too(self):
        with pytest.raises(OutOfRange, match="width must be an integer, got True"):
            entropy_subset_sizes(True)

    def test_reads_an_iterator_once(self):
        assert entropy_flat(iter([0.5, 0.5])) == 1.0
        assert entropy_flat(p for p in (0.25,) * 4) == 2.0

    def test_uniform_requires_outcomes(self):
        with pytest.raises(OutOfRange):
            uniform(0)

    @pytest.mark.parametrize("k, message", [
        (0, "need at least one outcome, got 0"),
        (True, "outcome count must be an integer, got True"),
        (2.5, "outcome count must be an integer, got 2.5"),
        ("3", "outcome count must be an integer, got '3'"),
    ])
    def test_uniform_refuses_a_count_that_is_not_a_positive_int(self, k, message):
        with pytest.raises(OutOfRange) as caught:
            uniform(k)
        assert str(caught.value) == message

    # A count just under sys.maxsize is not tried: uniform would build a
    # list of that many floats.
    @pytest.mark.parametrize("k", [2**63, 10**30], ids=["2**63", "1e30"])
    def test_uniform_refuses_a_count_above_the_largest_list_size(self, k):
        with pytest.raises(OutOfRange) as caught:
            uniform(k)
        assert str(caught.value) == f"outcome count must be at most {sys.maxsize}, got {k}"

    @pytest.mark.parametrize("k", [10**400, 10**5000, -10**5000],
                             ids=["1e400", "1e5000", "-1e5000"])
    def test_uniform_refuses_a_count_beyond_float_range(self, k):
        with pytest.raises(OutOfRange) as caught:
            uniform(k)
        assert str(caught.value) == "outcome count is out of floating-point range"

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1,
                    max_size=12))
    @settings(max_examples=60)
    def test_bounded_by_log_support(self, weights):
        total = sum(weights)
        probs = [w / total for w in weights]
        h = entropy_flat(probs)
        assert -1e-9 <= h <= math.log2(len(probs)) + 1e-9


class TestSubsetSizeEntropy:
    @pytest.mark.parametrize("k,expected", sorted(CHECKPOINTS.items()))
    def test_checkpoints(self, k, expected):
        assert subset_entropy_exact(k) == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_brute_force_enumeration(self, k):
        assert subset_entropy_exact(k) == pytest.approx(
            brute_force_size_entropy(k), abs=1e-12)

    def test_strictly_increasing(self):
        values = [subset_entropy_exact(k) for k in range(1, 101)]
        for prev, cur in zip(values, values[1:]):
            assert cur > prev

    def test_per_decision_reduction(self):
        # A size decision carries far fewer bits than picking the subset.
        for k in (10, 20, 100):
            assert subset_entropy_exact(k) < math.log2(2**k - 1)

    def test_paths_agree_on_overlap(self):
        worst = max(abs(subset_entropy_exact(k) - subset_entropy_logspace(k))
                    for k in range(100, 121))
        assert worst <= 1e-9

    def test_logspace_beyond_exact_range(self):
        h_500 = subset_entropy_logspace(500)
        assert h_500 == pytest.approx(asymptotic_subset_entropy(500), abs=0.01)
        assert subset_entropy_logspace(1000) > h_500

    @pytest.mark.parametrize("h", [subset_entropy_exact(1), subset_entropy_logspace(1),
                                   entropy_flat(uniform(1))],
                             ids=["exact", "logspace", "flat"])
    def test_single_choice_is_positive_zero(self, h):
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_range_checks(self):
        for fn in (subset_entropy_exact, subset_entropy_logspace):
            with pytest.raises(OutOfRange):
                fn(0)
        with pytest.raises(OutOfRange):
            subset_entropy_exact(121)
        with pytest.raises(OutOfRange):
            subset_entropy_logspace(MAX_ENTROPY_WIDTH + 1)


class TestAsymptotic:
    def test_value_at_100(self):
        assert asymptotic_subset_entropy(100) == pytest.approx(4.369024, abs=1e-6)

    def test_formula(self):
        for k in (10, 50, 250):
            assert asymptotic_subset_entropy(k) == pytest.approx(
                0.5 * math.log2(math.pi * math.e * k / 2), abs=1e-12)

    def test_gap_shrinks_with_width(self):
        gap_10 = abs(entropy_subset_sizes(10).gap)
        gap_100 = abs(entropy_subset_sizes(100).gap)
        assert gap_100 < gap_10
        assert gap_100 < 2e-5


class TestEntropyReport:
    def test_fields(self):
        report = entropy_subset_sizes(20)
        assert report.K == 20
        assert report.H_flat == pytest.approx(math.log2(20), abs=1e-12)
        assert report.H_subset == pytest.approx(3.207705, abs=1e-6)
        assert report.gap == pytest.approx(report.H_subset - report.H_asymptotic,
                                           abs=1e-15)

    def test_exact_path_used_up_to_cap(self):
        assert entropy_subset_sizes(120).H_subset == pytest.approx(
            subset_entropy_exact(120), abs=0)

    def test_logspace_path_used_beyond_cap(self):
        assert entropy_subset_sizes(500).H_subset == pytest.approx(
            subset_entropy_logspace(500), abs=0)

    def test_range(self):
        with pytest.raises(OutOfRange):
            entropy_subset_sizes(0)
        with pytest.raises(OutOfRange):
            entropy_subset_sizes(MAX_ENTROPY_WIDTH + 1)

    def test_as_dict_round_trips_values(self):
        report = entropy_subset_sizes(14)
        record = asdict(report)
        assert record["K"] == 14
        assert record["H_subset"] == report.H_subset


class TestLayered:
    def test_two_stage_demonstration(self):
        report = entropy_layered([("c", 4), ("r", 4)], flat_k=20)
        per_stage = [h for _, _, h in report.stage_entropies]
        assert per_stage == pytest.approx([1.806239, 1.806239], abs=1e-6)
        assert report.flat_H == pytest.approx(3.207705, abs=1e-6)
        assert report.max_stage_H == pytest.approx(1.806239, abs=1e-6)
        assert report.sum_stage_H == pytest.approx(3.612478, abs=1e-6)
        assert report.max_stage_H < report.flat_H

    def test_stage_metadata_preserved(self):
        report = entropy_layered([("broad", 6), ("narrow", 2)], flat_k=12)
        assert [(n, b) for n, b, _ in report.stage_entropies] == [
            ("broad", 6), ("narrow", 2)]
        assert report.flat_K == 12

    def test_empty_stages_rejected(self):
        with pytest.raises(BadCount):
            entropy_layered([], flat_k=20)

    def test_stage_width_validated(self):
        with pytest.raises(OutOfRange):
            entropy_layered([("bad", 0)], flat_k=20)

    @given(st.integers(min_value=2, max_value=40))
    @settings(max_examples=40)
    def test_single_stage_equals_direct(self, k):
        report = entropy_layered([("only", k)], flat_k=k)
        assert report.max_stage_H == pytest.approx(report.flat_H, abs=1e-12)


class TestCorrectlyRounded:
    """Each entropy is its terms' exact sum, rounded once to a float."""

    def test_exact_path(self):
        for k in range(1, 121):
            assert subset_entropy_exact(k) == correctly_rounded(exact_terms(k)), k

    def test_logspace_path(self):
        for k in (*range(1, 1000, 37), 120, 121, 500, 999, 1000):
            assert subset_entropy_logspace(k) == correctly_rounded(logspace_terms(k)), k

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40)
           .filter(lambda weights: sum(weights) > 0))
    @settings(max_examples=200)
    def test_flat(self, weights):
        total = math.fsum(weights)
        probs = [w / total for w in weights]
        assert entropy_flat(probs) == correctly_rounded(p * math.log2(p) for p in probs if p > 0)
