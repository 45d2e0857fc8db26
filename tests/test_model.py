import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circascade import (
    CascadeError,
    CascadeSpec,
    ConfigInvalid,
    EventStream,
    HistogramConfig,
    SimConfig,
    StreamInvariantViolation,
    SubsetSpec,
    bundle_peak,
    correlate_blocks,
    cs_check,
    find_peaks,
    find_peaks_cross,
    g2_equal,
    g2_equal_pair,
    g2_general,
    g2_subset,
    g2_three_level,
    simulate,
    small_tau_leading,
    trace_index,
)
from circascade import model
from circascade.model import check_order, check_rate


def test_validate_canonical_spec():
    assert CascadeSpec(3, (1.0, 1.0, 1.0)).rates == (1.0, 1.0, 1.0)


def test_validate_zero_levels():
    with pytest.raises(ConfigInvalid, match="n_levels must be >= 1"):
        CascadeSpec(0, ())


@pytest.mark.parametrize("call", [
    lambda n: CascadeSpec.equal(n),
    lambda n: g2_equal(n, 1, 1.0, 5.0),
    lambda n: g2_equal_pair(n, 1, 1, 1.0, 0.5),
    lambda n: g2_subset(n, SubsetSpec([1]), 1.0, 0.5),
    lambda n: small_tau_leading(n, 1, 1.0, 0.5),
    lambda n: bundle_peak(n, 2),
    lambda n: trace_index(1, 1, n),
    lambda n: find_peaks(n, 1.0, 1, 1),
    lambda n: find_peaks_cross(n, 1.0, 1),
], ids=["CascadeSpec.equal", "g2_equal", "g2_equal_pair", "g2_subset", "small_tau_leading",
        "bundle_peak", "trace_index", "find_peaks", "find_peaks_cross"])
@pytest.mark.parametrize("n_levels", [sys.maxsize + 1, 10**20])
def test_a_level_count_past_the_index_range_is_config_invalid(call, n_levels):
    with pytest.raises(ConfigInvalid, match="more levels than a ring can hold"):
        call(n_levels)


def test_validate_negative_rate():
    with pytest.raises(ConfigInvalid, match=r"rates\[1\] = -0.5 must be > 0"):
        CascadeSpec(2, (1.0, -0.5))


def test_validate_zero_rate():
    with pytest.raises(ConfigInvalid, match=r"rates\[1\] = 0.0 must be > 0"):
        CascadeSpec(2, (1.0, 0.0))


def test_validate_nonfinite_rate():
    with pytest.raises(ConfigInvalid, match=r"rates\[1\] = inf is not finite"):
        CascadeSpec(2, (1.0, float("inf")))
    with pytest.raises(ConfigInvalid, match=r"rates\[0\] = nan is not finite"):
        CascadeSpec(2, (float("nan"), 1.0))


def test_validate_length_mismatch():
    with pytest.raises(ConfigInvalid, match="expected 3 rates, got 2"):
        CascadeSpec(3, (1.0, 2.0))


def test_one_error_class_per_exit_code():
    kinds = CascadeError.__subclasses__()
    assert not any(kind.__subclasses__() for kind in kinds)
    assert sorted(kind.exit_code for kind in kinds) == [2, 3, 4, 5]
    assert issubclass(ConfigInvalid, ValueError)


def test_trace_index_examples():
    assert trace_index(1, 1, 6) == 1       # autocorrelation class
    assert trace_index(2, 1, 6) == 0       # contiguous cascade class
    assert trace_index(0, 5, 6) == 0       # cyclic wraparound


@given(st.integers(2, 40), st.integers(0, 39))
def test_trace_index_autocorrelation_is_class_one(n, m):
    assert trace_index(m % n, m % n, n) == 1


@given(st.integers(1, 40), st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_trace_index_rotation_invariant(n, m, k, r):
    assert trace_index((m + r) % n, (k + r) % n, n) == trace_index(m % n, k % n, n)


@given(
    st.integers(-1, 6),
    st.lists(
        st.one_of(
            st.floats(min_value=1e-6, max_value=1e6),
            st.sampled_from([0.0, -1.0, float("inf"), float("nan")]),
        ),
        max_size=6,
    ),
)
@settings(max_examples=200)
def test_validate_accepts_iff_invariants_hold(n, rates):
    should_pass = (
        n >= 1
        and len(rates) == n
        and all(np.isfinite(r) and r > 0 for r in rates)
    )
    if should_pass:
        CascadeSpec(n, tuple(rates))
    else:
        with pytest.raises(ConfigInvalid):
            CascadeSpec(n, tuple(rates))


def test_spec_json_round_trip():
    spec = CascadeSpec(3, (1.0, 2.5, 0.125))
    again = CascadeSpec.from_json(spec.to_json())
    assert again == spec
    payload = json.loads(spec.to_json())
    assert payload == {"n_levels": 3, "rates": [1.0, 2.5, 0.125]}


def test_spec_json_rejects_length_mismatch():
    with pytest.raises(ConfigInvalid, match="expected 3 rates, got 2"):
        CascadeSpec.from_json('{"n_levels": 3, "rates": [1.0, 2.0]}')


@pytest.mark.parametrize("n_levels", ["3.9", "true", '"3"'])
def test_spec_json_rejects_a_non_integer_level_count(n_levels):
    with pytest.raises(ConfigInvalid, match="n_levels must be an integer"):
        CascadeSpec.from_json(f'{{"n_levels": {n_levels}, "rates": [1.0, 2.0, 3.0]}}')


@pytest.mark.parametrize(
    "n_levels, rates", [(3.9, (1.0, 2.0, 3.0)), (True, (1.0,)), ("3", (1.0, 2.0, 3.0))],
    ids=["float", "bool", "string"],
)
def test_spec_rejects_a_non_integer_level_count(n_levels, rates):
    with pytest.raises(ConfigInvalid, match="n_levels must be an integer"):
        CascadeSpec(n_levels, rates)


def test_spec_rejects_rates_that_are_not_a_sequence():
    # a non-numeric rate is one of BAD_RATES in test_spectral_general
    with pytest.raises(ConfigInvalid, match="rates must be a sequence, got 5"):
        CascadeSpec(2, 5)


def test_spec_accepts_a_numpy_integer_level_count():
    spec = CascadeSpec(np.int64(3), (1.0, 2.0, 3.0))
    assert json.loads(spec.to_json())["n_levels"] == 3


def test_check_rate_rejects_a_non_number():
    with pytest.raises(ConfigInvalid, match=r"gamma = 'fast' is not a number"):
        check_rate("gamma", "fast")
    assert check_rate("gamma", np.float32(0.5)) == 0.5


# settings that are not numbers, or not integers where a count is due; each
# used to end in a bare TypeError or ValueError from a comparison or numpy
RING3 = CascadeSpec.equal(3)
NOT_NUMBERS = {
    "stream window 'x'": (lambda: EventStream(np.array([1.0]), 0, 3, "x"),
                          "total_duration = 'x' is not a number"),
    "stream window None": (lambda: EventStream(np.array([1.0]), 0, 3, None),
                           "total_duration = None is not a number"),
    "total_events 1.5": (lambda: simulate(SimConfig(RING3, seed=1, total_events=1.5)),
                         "total_events must be an integer, got 1.5"),
    "total_events True": (lambda: simulate(SimConfig(RING3, seed=1, total_events=True)),
                          "total_events must be an integer, got True"),
    "duration '5'": (lambda: SimConfig(RING3, seed=1, duration="5"),
                     "duration = '5' is not a number"),
    "burn_in '1'": (lambda: SimConfig(RING3, seed=1, duration=5, burn_in="1"),
                    "burn_in = '1' is not a number"),
    "bin_width '0.1'": (lambda: HistogramConfig("0.1", 1.0), "bin_width = '0.1' is not a number"),
    "tau_max None": (lambda: HistogramConfig(0.1, None), "tau_max = None is not a number"),
    "tau sample 'a'": (lambda: cs_check(CascadeSpec.equal(6), 1, 2, [0.1, "a"]),
                       "tau = 'a' is not a number"),
    # every g2 route applies the same rule to its delays, through check_delays
    "g2_equal_pair tau 'a'": (lambda: g2_equal_pair(6, 1, 1, 1.0, "a"),
                              "tau = 'a' is not a number"),
    "g2_equal_pair tau '0.5'": (lambda: g2_equal_pair(6, 1, 1, 1.0, "0.5"),
                                "tau = '0.5' is not a number"),
    "g2_equal_pair tau None": (lambda: g2_equal_pair(6, 1, 1, 1.0, None),
                               "tau = None is not a number"),
    "g2_general tau 'a'": (lambda: g2_general(RING3, 1, 1, "a"), "tau = 'a' is not a number"),
    "g2_three_level tau 'a'": (lambda: g2_three_level(1.0, 2.0, 4.0, 1, 1, "a"),
                               "tau = 'a' is not a number"),
    "g2_subset tau 'a'": (lambda: g2_subset(6, SubsetSpec((1, 2)), 1.0, "a"),
                          "tau = 'a' is not a number"),
    "small_tau_leading tau 'a'": (lambda: small_tau_leading(6, 2, 1.0, "a"),
                                  "tau = 'a' is not a number"),
}


@pytest.mark.parametrize("case", NOT_NUMBERS)
def test_settings_that_are_not_numbers_are_config_invalid(case):
    call, message = NOT_NUMBERS[case]
    with pytest.raises(ConfigInvalid) as info:
        call()
    assert str(info.value) == message


def test_equal_rate_predicate():
    assert CascadeSpec.equal(4, 2.0).is_equal_rate()
    assert not CascadeSpec(2, (1.0, 1.0 + 1e-6)).is_equal_rate()
    # relative spread right at the threshold stays equal-rate
    assert CascadeSpec(2, (1.0, 1.0 + 1e-13)).is_equal_rate()


def test_cycle_current_matches_harmonic_sum():
    spec = CascadeSpec(3, (1.0, 2.0, 4.0))
    assert 1.0 / spec.cycle_time == pytest.approx(4.0 / 7.0)


def test_subset_spec_validation():
    s = SubsetSpec((2, 1))
    assert s.members == (1, 2)
    assert s.n_s == 2
    with pytest.raises(ConfigInvalid, match="at least one transition"):
        SubsetSpec(())
    with pytest.raises(ConfigInvalid, match="must be distinct"):
        SubsetSpec((1, 1))
    with pytest.raises(ConfigInvalid, match=r"member 7 outside \[0, 6\)"):
        SubsetSpec((0, 7)).check_against(6)


@pytest.mark.parametrize("members", [[2, 0], range(0, 3, 2), {0, 2}, np.array([2, 0]),
                                     (m for m in (2, 0))],
                         ids=["list", "range", "set", "array", "generator"])
def test_subset_spec_takes_any_iterable(members):
    assert SubsetSpec(members).members == (0, 2)


@pytest.mark.parametrize("members", [3, 2.5, None], ids=["int", "float", "None"])
def test_subset_spec_rejects_what_is_not_iterable(members):
    with pytest.raises(ConfigInvalid, match="subset must be iterable"):
        SubsetSpec(members)


def test_event_stream_accepts_valid_cycle():
    # labels must step down cyclically: 2, 1, 0, 2, 1, 0, ...
    stream = EventStream.from_labels(
        [0.3, 0.9, 1.4, 2.2, 3.0, 3.1], [2, 1, 0, 2, 1, 0], 3, 4.0
    )
    stream.check()
    assert stream.counts == (2, 2, 2)
    assert stream.n_events == 6


@pytest.mark.parametrize("n_levels", [3.9, True, "3"], ids=repr)
def test_event_stream_rejects_a_non_integer_level_count(n_levels):
    with pytest.raises(ConfigInvalid, match="n_levels must be an integer"):
        EventStream(np.array([1.0, 2.0]), 0, n_levels, 10.0)
    with pytest.raises(ConfigInvalid, match="n_levels must be an integer"):
        EventStream.from_labels(np.array([1.0, 2.0]), np.array([1, 0]), n_levels, 10.0)


def test_event_stream_accepts_a_numpy_integer_level_count():
    stream = EventStream(np.array([1.0, 2.0]), np.int64(1), np.int64(3), 10.0)
    assert (stream.n_levels, stream.first_label) == (3, 1)
    assert type(stream.n_levels) is int and type(stream.first_label) is int


def test_event_stream_rejects_broken_cycling():
    with pytest.raises(StreamInvariantViolation):
        EventStream.from_labels([0.3, 0.9, 1.4], [2, 0, 1], 3, 2.0)


def test_event_stream_rejects_ties():
    with pytest.raises(StreamInvariantViolation):
        EventStream.from_labels([0.3, 0.3, 0.9], [2, 1, 0], 3, 2.0).check()


def test_event_stream_rejects_unordered_times_on_construction():
    # the estimator counts pairs assuming strict order: an in-memory stream
    # with a tie must fail before it gets there, not only on check()
    with pytest.raises(StreamInvariantViolation, match="out-of-order"):
        EventStream(np.array([1.0, 2.0, 2.0, 3.0, *np.arange(4.0, 60.0)]), 0, 1, 100.0)
    for times in ([2.0, 1.0], [1.0, float("nan"), 3.0]):
        with pytest.raises(StreamInvariantViolation, match="out-of-order"):
            EventStream(np.array(times), 0, 1, 10.0)


def test_event_stream_count_spread_of_one_is_fine():
    stream = EventStream.from_labels(
        [0.1, 0.5, 0.8, 1.2, 1.9], [1, 0, 1, 0, 1], 2, 3.0
    )
    stream.check()
    assert stream.counts == (2, 3)


def test_event_stream_rejects_imbalanced_channels():
    # channel 0 fires three times in a row: cycling and balance both break
    with pytest.raises(StreamInvariantViolation):
        EventStream.from_labels([0.1, 0.5, 0.9, 2.0], [0, 0, 0, 1], 2, 3.0)


def test_event_stream_span_must_fit_window():
    with pytest.raises(StreamInvariantViolation):
        EventStream.from_labels([0.1, 1.5], [1, 0], 2, 1.0).check()


@pytest.mark.parametrize("total", [float("nan"), float("inf")])
def test_event_stream_rejects_non_finite_duration(total):
    with pytest.raises(StreamInvariantViolation):
        EventStream.from_labels([0.5], [0], 1, total)


@pytest.mark.parametrize("call, error, message", [
    (lambda: HistogramConfig(0.0, 1.0), ConfigInvalid, "bin_width must be finite and > 0, got 0.0"),
    (lambda: SimConfig(CascadeSpec.equal(2), seed=0, duration=-1.0), ConfigInvalid,
     "duration must be finite and > 0, got -1.0"),
    (lambda: correlate_blocks([], 2, float("inf"), HistogramConfig(0.1, 1.0)), ConfigInvalid,
     "total_duration must be finite and > 0, got inf"),
    (lambda: EventStream(np.array([0.5]), 0, 1, float("nan")), StreamInvariantViolation,
     "total_duration must be finite and > 0, got nan"),
    (lambda: model.check_positive("x", "1"), ConfigInvalid, "x = '1' is not a number"),
], ids=["bin_width", "duration", "window", "stream window", "not a number"])
def test_every_window_and_width_takes_the_positive_rule(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@given(st.integers(1, 300), st.data())
@settings(max_examples=100, deadline=None)
def test_ring_channels_match_the_labeled_split(n, data):
    first = data.draw(st.integers(0, n - 1), label="first")
    events = data.draw(st.integers(0, 2000), label="events")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    times = np.cumsum(0.1 + rng.random(events))
    labels = (first - np.arange(events)) % n
    stream = EventStream.from_labels(times, labels, n, float(times.sum()) + 1.0)
    for l in range(n):  # channel l is a strided view of the ring
        np.testing.assert_array_equal(stream.times[(first - l) % n::n], times[labels == l])
    assert stream.counts == tuple(int(np.sum(labels == l)) for l in range(n))
    merged_times, merged_labels = stream.merged()
    np.testing.assert_array_equal(merged_times, times)
    np.testing.assert_array_equal(merged_labels, labels)
    again = EventStream.from_labels(merged_times, merged_labels, n, stream.total_duration)
    assert again.first_label == stream.first_label
    np.testing.assert_array_equal(again.times, stream.times)


@given(st.integers(2, 300), st.data())
@settings(max_examples=100, deadline=None)
def test_labels_that_do_not_cycle_are_rejected(n, data):
    events = data.draw(st.integers(2, 2000), label="events")
    labels = (data.draw(st.integers(0, n - 1), label="first") - np.arange(events)) % n
    broken = data.draw(st.integers(1, events - 1), label="broken")
    labels[broken] = data.draw(
        st.integers(0, n - 1).filter(lambda v: v != labels[broken]), label="label"
    )
    with pytest.raises(StreamInvariantViolation, match=f"merged index {broken}$"):
        EventStream.from_labels(np.arange(1.0, events + 1), labels, n, float(events))


@pytest.mark.parametrize("labels", [[1, 0, -1], [3, 2, 1]])
def test_labels_outside_the_ring_are_rejected(labels):
    with pytest.raises(StreamInvariantViolation, match=r"outside \[0, N\)"):
        EventStream.from_labels([0.1, 0.2, 0.3], labels, 3, 1.0)


@pytest.mark.parametrize(
    "labels",
    [[2.7, 1.2], ["2", "1"], ["a", "b"], [None, 1], [float("nan"), 1.0], [float("inf"), 1.0]],
    ids=repr,
)
def test_labels_that_are_not_whole_numbers_are_rejected(labels):
    # the text reader's label rule: no label is truncated, parsed or cast
    with pytest.raises(StreamInvariantViolation, match="whole numbers"):
        EventStream.from_labels([0.5, 1.5], labels, 3, 100.0)


def test_whole_labels_of_any_number_dtype_are_accepted():
    for labels in ([2.0, 1.0], np.array([2, 1], np.uint64), np.array([2, 1], np.int8)):
        assert EventStream.from_labels([0.5, 1.5], labels, 3, 100.0).first_label == 2


def test_stream_shorter_than_the_ring_has_empty_channels():
    stream = EventStream.from_labels([0.5, 1.5], [2, 1], 5, 10.0)
    stream.check()
    assert stream.counts == (0, 1, 1, 0, 0)
    assert [len(stream.times[(stream.first_label - l) % 5::5]) for l in range(5)] == [0, 1, 1, 0, 0]


@pytest.mark.parametrize(
    "where", [1, model._ORDER_BLOCK - 1, model._ORDER_BLOCK, model._ORDER_BLOCK + 1,
              3 * model._ORDER_BLOCK])
def test_order_check_catches_a_tie_or_nan_at_every_block_seam(where):
    times = np.arange(1.0, 3 * model._ORDER_BLOCK + 2)
    for bad in (times[where - 1], times[where - 1] - 0.5, np.nan):
        broken = times.copy()
        broken[where] = bad
        with pytest.raises(StreamInvariantViolation, match="out-of-order"):
            EventStream(broken, 0, 1, 1e9)


def test_order_check_compares_the_first_time_with_the_previous_one():
    check_order(np.array([2.0, 3.0]), previous=1.0)
    for previous in (2.0, 5.0, np.nan):
        with pytest.raises(StreamInvariantViolation, match="out-of-order"):
            check_order(np.array([2.0, 3.0]), previous=previous)


def test_building_a_stream_allocates_under_2_percent_of_its_bytes():
    times = np.arange(1.0, 4_000_001.0)
    tracemalloc.start()
    try:
        EventStream(times, 0, 6, 5e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.02 * times.nbytes
