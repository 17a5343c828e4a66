import math

import pytest
from hypothesis import given, settings, strategies as st

from rhetor import (
    AnnotatedDocument,
    BadCapacity,
    BadCount,
    BadIndex,
    BadRuleSet,
    BadSchedule,
    OutOfRange,
    Segment,
    UnknownMode,
    asymptotic_subset_entropy,
    capacity,
    capacity_ratio,
    capacity_table,
    coverage,
    coverage_band,
    default_registry,
    entropy_layered,
    entropy_subset_sizes,
    estimate_rri,
    growth,
    load_rules,
    load_schedule,
    parse_document,
    subset_entropy_exact,
    subset_entropy_logspace,
)
from rhetor.capacity import MAX_WIDTH, MRB
from rhetor.errors import SHOWN_LENGTH
from rhetor.records import asdict

widths = st.integers(min_value=1, max_value=MAX_WIDTH)


class TestCapacity:
    def test_example_widths(self):
        report = capacity(14)
        assert (report.k_m, report.K_max, report.K_NRC) == (7, 3432, 16383)
        report = capacity(20)
        assert (report.k_m, report.K_max, report.K_NRC) == (10, 184756, 1048575)
        report = capacity(1)
        assert (report.k_m, report.K_max, report.K_NRC) == (0, 1, 1)

    def test_exact_formulas(self):
        for k in (2, 3, 5, 8, 13, 30, 64, 120):
            report = capacity(k)
            assert report.k_m == k // 2
            assert report.K_max == math.comb(k, k // 2)
            assert report.K_NRC == 2 ** k - 1

    def test_large_width_stays_exact(self):
        report = capacity(120)
        assert report.K_NRC == 2 ** 120 - 1
        assert report.K_max == math.comb(120, 60)
        assert isinstance(report.K_NRC, int)

    def test_out_of_range(self):
        for k in (0, -3, MAX_WIDTH + 1):
            with pytest.raises(OutOfRange):
                capacity(k)
        with pytest.raises(OutOfRange):
            capacity(2.5)

    @given(widths)
    @settings(max_examples=80)
    def test_max_binomial_by_scan(self, k):
        assert capacity(k).K_max == max(math.comb(k, j) for j in range(k + 1))

    @given(widths)
    @settings(max_examples=80)
    def test_subsets_sum_to_nonempty_count(self, k):
        assert sum(math.comb(k, j) for j in range(1, k + 1)) == capacity(k).K_NRC

    def test_log_capacity(self):
        assert capacity(18).K_RC == pytest.approx(math.log2(2**18 - 1), abs=1e-12)
        assert capacity(1).K_RC == 0.0

    def test_log_capacity_approaches_width(self):
        for k in range(21, 60):
            assert k - capacity(k).K_RC < 1e-6

    def test_mrb_constant(self):
        assert MRB == 1.0
        for k in (1, 14, 120):
            assert capacity(k).MRB == 1.0

    def test_as_dict_fields(self):
        record = asdict(capacity(14))
        assert record["K"] == 14
        assert record["k_m"] == 7
        assert record["K_max"] == 3432
        assert record["K_NRC"] == 16383
        assert record["MRB"] == 1.0
        assert set(record) == {"K", "k_m", "K_max", "K_NRC", "K_RC", "MRB"}


class TestCapacityTable:
    def test_rows_match_per_width_reports(self):
        rows = capacity_table(30)
        assert len(rows) == 30
        assert [r.K for r in rows] == list(range(1, 31))
        for row in rows:
            assert row == capacity(row.K)

    def test_spot_values(self):
        rows = {r.K: r for r in capacity_table(30)}
        assert (rows[25].K_max, rows[25].K_NRC) == (5200300, 33554431)
        assert (rows[27].K_max, rows[27].K_NRC) == (20058300, 134217727)
        assert (rows[30].K_max, rows[30].K_NRC) == (155117520, 1073741823)

    def test_small_table(self):
        rows = capacity_table(2)
        assert [(r.K, r.k_m, r.K_max, r.K_NRC) for r in rows] == [
            (1, 0, 1, 1), (2, 1, 2, 3)]

    def test_recurrences(self):
        rows = capacity_table(MAX_WIDTH)
        for prev, cur in zip(rows, rows[1:]):
            assert cur.K_NRC == 2 * prev.K_NRC + 1
            assert cur.K_max >= prev.K_max

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            capacity_table(0)
        with pytest.raises(OutOfRange):
            capacity_table(MAX_WIDTH + 1)


class TestCapacityRatio:
    def test_examples(self):
        assert capacity_ratio(16, 10) == pytest.approx(64.06158357771261, rel=1e-12)
        assert capacity_ratio(20, 10) == pytest.approx(1025.0, rel=1e-12)
        assert capacity_ratio(10, 10) == 1.0

    @given(widths, widths)
    @settings(max_examples=60)
    def test_reciprocal(self, k1, k2):
        assert capacity_ratio(k1, k2) == pytest.approx(
            1.0 / capacity_ratio(k2, k1), rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            capacity_ratio(0, 14)
        with pytest.raises(OutOfRange):
            capacity_ratio(14, MAX_WIDTH + 1)


class TestGrowth:
    def test_classes(self):
        assert growth(0.5, 1.0).load_class == "subcritical"
        assert growth(1.0, 1.0).load_class == "critical"
        assert growth(2.0, 1.0).load_class == "supercritical"

    def test_scale_rate_is_bits_per_stage(self):
        report = growth(0.5, 1.0)
        assert report.R_scale == pytest.approx(0.5, rel=1e-12)
        assert report.R_scale_norm == pytest.approx(0.5, rel=1e-12)

    def test_critical_tolerance(self):
        assert growth(1.0 + 5e-10).load_class == "critical"
        assert growth(1.0 - 5e-10).load_class == "critical"
        assert growth(1.0 + 5e-9).load_class == "supercritical"
        assert growth(1.0 - 5e-9).load_class == "subcritical"

    def test_normalization_against_capacity(self):
        report = growth(1.7, c_0=2.0)
        assert report.L_n == 1.7
        assert report.C_0 == 2.0
        assert report.R_scale == pytest.approx(1.7, rel=1e-12)
        assert report.R_scale_norm == pytest.approx(0.85, rel=1e-12)
        assert report.load_class == "subcritical"

    def test_bad_inputs(self):
        with pytest.raises(BadCapacity):
            growth(1.0, c_0=0.0)
        with pytest.raises(BadCapacity):
            growth(1.0, c_0=-1.0)
        with pytest.raises(BadCapacity):
            growth(-0.1)

    @pytest.mark.parametrize("l_n, c_0, message", [
        (True, 1.0, "introduction rate L_n must be an int or float, got True"),
        ("x", 1.0, "introduction rate L_n must be an int or float, got 'x'"),
        (None, 1.0, "introduction rate L_n must be an int or float, got None"),
        (1.0, False, "learner capacity C_0 must be an int or float, got False"),
        (1.0, "2", "learner capacity C_0 must be an int or float, got '2'"),
        (1.0, 2j, "learner capacity C_0 must be an int or float, got 2j"),
    ], ids=["bool-rate", "str-rate", "none-rate", "bool-capacity", "str-capacity",
            "complex-capacity"])
    def test_rate_or_capacity_that_is_not_a_number(self, l_n, c_0, message):
        with pytest.raises(BadCapacity) as caught:
            growth(l_n, c_0)
        assert str(caught.value) == message

    @pytest.mark.parametrize("l_n, c_0, message", [
        (10**400, 1.0, "introduction rate L_n is out of floating-point range"),
        (10**5000, 1.0, "introduction rate L_n is out of floating-point range"),
        (-10**5000, 1.0, "introduction rate L_n is out of floating-point range"),
        (1, 10**400, "learner capacity C_0 is out of floating-point range"),
        (1.0, 10**5000, "learner capacity C_0 is out of floating-point range"),
    ], ids=["rate-1e400", "rate-1e5000", "rate-negative", "capacity-1e400", "capacity-1e5000"])
    def test_rate_or_capacity_beyond_float_range(self, l_n, c_0, message):
        with pytest.raises(BadCapacity) as caught:
            growth(l_n, c_0)
        assert str(caught.value) == message

    def test_load_beyond_float_range(self):
        with pytest.raises(BadCapacity, match="out of floating-point range"):
            growth(1e308, c_0=1e-10)


class TestCoverage:
    def test_lesson_example(self):
        report = coverage(14, 20)
        assert report.C_m == pytest.approx(0.7, rel=1e-12)
        assert report.band == "high"

    def test_bands(self):
        assert coverage(0, 10).band == "limited"
        assert coverage(2, 10).band == "limited"
        assert coverage(3, 10).band == "moderate"
        assert coverage(6, 10).band == "moderate"
        assert coverage(7, 10).band == "high"
        assert coverage(10, 10).band == "high"

    def test_band_helper_boundaries(self):
        assert coverage_band(0.29999) == "limited"
        assert coverage_band(0.3) == "moderate"
        assert coverage_band(0.69999) == "moderate"
        assert coverage_band(0.7) == "high"
        assert coverage_band(1.0) == "high"
        assert coverage_band(0) == "limited" and coverage_band(1) == "high"

    @pytest.mark.parametrize("share", [math.nan, -1, -0.01, 1.5, math.inf, True, "0.5", None],
                             ids=["nan", "negative-int", "negative", "above-one", "inf",
                                  "bool", "str", "none"])
    def test_band_helper_refuses_a_share_outside_0_to_1(self, share):
        with pytest.raises(BadCount) as caught:
            coverage_band(share)
        assert str(caught.value) == (f"usage share must be an int or float from 0 to 1, "
                                     f"got {share!r}")

    def test_no_width_cap(self):
        assert coverage(100, 200).C_m == pytest.approx(0.5)

    def test_bad_inputs(self):
        with pytest.raises(OutOfRange):
            coverage(1, 0)
        with pytest.raises(BadCount):
            coverage(-1, 10)
        with pytest.raises(BadCount):
            coverage(11, 10)

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=50)
    def test_full_use_is_unity(self, k):
        assert coverage(k, k).C_m == pytest.approx(1.0)


# Python 3.11 and later refuse to write this int as a string.
HUGE = 10**5000
NAMED = "<int out of floating-point range>"
# A name of 10**6 characters is cut where every value in an error text is.
LONG = "x" * 10**6
CUT = f"'{LONG[:SHOWN_LENGTH - 1]}... (1000002 characters)"


def _doc(*indices):
    return AnnotatedDocument("d", tuple(Segment(i, "s", frozenset({"narration"}))
                                        for i in indices))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: capacity(HUGE), OutOfRange,
                 f"width {NAMED} outside supported range 1..120", id="capacity"),
    pytest.param(lambda: capacity(-HUGE), OutOfRange,
                 f"width -{NAMED} outside supported range 1..120", id="capacity-negative"),
    pytest.param(lambda: capacity_table(HUGE), OutOfRange,
                 f"width {NAMED} outside supported range 1..120", id="capacity_table"),
    pytest.param(lambda: capacity_ratio(1, HUGE), OutOfRange,
                 f"width {NAMED} outside supported range 1..120", id="capacity_ratio"),
    pytest.param(lambda: subset_entropy_exact(HUGE), OutOfRange,
                 f"width {NAMED} outside supported range 1..1000", id="subset_entropy_exact"),
    pytest.param(lambda: subset_entropy_logspace(HUGE), OutOfRange,
                 f"width {NAMED} outside supported range 1..1000", id="subset_entropy_logspace"),
    pytest.param(lambda: asymptotic_subset_entropy(HUGE), OutOfRange,
                 f"width {NAMED} outside supported range 1..1000",
                 id="asymptotic_subset_entropy"),
    pytest.param(lambda: entropy_subset_sizes(HUGE), OutOfRange,
                 f"width {NAMED} outside supported range 1..1000", id="entropy_subset_sizes"),
    pytest.param(lambda: entropy_layered([("a", HUGE)], 3), OutOfRange,
                 f"width {NAMED} outside supported range 1..1000", id="entropy_layered"),
    pytest.param(lambda: coverage(HUGE, 3), BadCount,
                 f"{NAMED} modes used exceeds the 3 available", id="coverage-used"),
    pytest.param(lambda: coverage(HUGE + 1, HUGE), BadCount,
                 f"{NAMED} modes used exceeds the {NAMED} available", id="coverage-both"),
    pytest.param(lambda: coverage(-HUGE, 3), BadCount,
                 f"used-mode count must be a non-negative integer, got -{NAMED}",
                 id="coverage-used-negative"),
    pytest.param(lambda: coverage(1, -HUGE), OutOfRange,
                 f"width must be a positive integer, got -{NAMED}", id="coverage-width"),
    pytest.param(lambda: coverage_band(HUGE), BadCount,
                 f"usage share must be an int or float from 0 to 1, got {NAMED}",
                 id="coverage_band"),
    pytest.param(lambda: coverage_band(-HUGE), BadCount,
                 f"usage share must be an int or float from 0 to 1, got -{NAMED}",
                 id="coverage_band-negative"),
    pytest.param(lambda: load_schedule({"stages": [{"name": "a", "K": HUGE}]}), BadSchedule,
                 f"stages[0]: stage 'a' needs a width of at most 120, got {NAMED}",
                 id="schedule-width"),
    pytest.param(lambda: load_schedule({"stages": [{"name": "a", "K": 3},
                                                   {"name": "b", "K": -HUGE}]}), BadSchedule,
                 f"stages[1]: stage 'b' needs a positive integer width, got -{NAMED}",
                 id="schedule-falling-width"),
    pytest.param(lambda: load_schedule({"stages": [{"name": "a", "K": 3, "duration": -HUGE}]}),
                 BadSchedule, f"stages[0]: stage 'a' needs a positive finite duration, "
                              f"got -{NAMED}", id="schedule-duration"),
    pytest.param(lambda: _doc(HUGE, 1), BadIndex,
                 "segment index 1 of 'd' does not increase", id="document"),
    pytest.param(lambda: _doc(-HUGE), BadIndex,
                 f"segment index -{NAMED} of 'd' does not increase", id="document-negative"),
    pytest.param(lambda: estimate_rri([(HUGE, _doc(1)), (1, _doc(1))]), BadIndex,
                 f"stage indices must increase strictly ({NAMED} then 1)", id="estimate_rri"),
    pytest.param(lambda: default_registry().resolve([HUGE]), UnknownMode,
                 f"no mode named [{NAMED}]: a name must be a str, not list", id="resolve-list"),
    pytest.param(lambda: load_rules({"reversal": [["cause", HUGE]]}), BadRuleSet,
                 f"reversal[0]: reversal pair ['cause', {NAMED}] must be a list of names",
                 id="rules-pair"),
    pytest.param(lambda: default_registry().resolve(LONG), UnknownMode,
                 f"no mode named {CUT}", id="resolve-long-name"),
    pytest.param(lambda: parse_document(f"doc d\nstage s\nseg | {LONG}\n"), UnknownMode,
                 f"no mode named {CUT} (line 3)", id="parse_document-long-name"),
])
def test_an_int_beyond_float_range_is_named_not_written(call, error, message):
    """Nor is a long value: each error text stays under 1,000 characters."""
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
    assert len(message) < 1000
