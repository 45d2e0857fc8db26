import json
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
    StreamInvariantViolation,
    SubsetSpec,
    trace_index,
    validate,
)
from circascade import model
from circascade.model import check_order, check_rate


def test_validate_canonical_spec():
    validate(CascadeSpec(3, (1.0, 1.0, 1.0)))  # no exception


def test_validate_zero_levels():
    with pytest.raises(ConfigInvalid, match="n_levels must be >= 1"):
        validate(CascadeSpec(0, ()))


def test_validate_negative_rate():
    with pytest.raises(ConfigInvalid, match=r"rates\[1\] = -0.5 must be > 0"):
        validate(CascadeSpec(2, (1.0, -0.5)))


def test_validate_zero_rate():
    with pytest.raises(ConfigInvalid, match=r"rates\[1\] = 0.0 must be > 0"):
        validate(CascadeSpec(2, (1.0, 0.0)))


def test_validate_nonfinite_rate():
    with pytest.raises(ConfigInvalid, match=r"rates\[1\] = inf is not finite"):
        validate(CascadeSpec(2, (1.0, float("inf"))))
    with pytest.raises(ConfigInvalid, match=r"rates\[0\] = nan is not finite"):
        validate(CascadeSpec(2, (float("nan"), 1.0)))


def test_validate_length_mismatch():
    with pytest.raises(ConfigInvalid, match="expected 3 rates, got 2"):
        validate(CascadeSpec(3, (1.0, 2.0)))


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
        validate(CascadeSpec(n, tuple(rates)))
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
    validate(spec)
    assert json.loads(spec.to_json())["n_levels"] == 3


def test_check_rate_rejects_a_non_number():
    with pytest.raises(ConfigInvalid, match=r"gamma = 'fast' is not a number"):
        check_rate("gamma", "fast")
    assert check_rate("gamma", np.float32(0.5)) == 0.5


def test_equal_rate_predicate():
    assert CascadeSpec.equal(4, 2.0).is_equal_rate()
    assert not CascadeSpec(2, (1.0, 1.0 + 1e-6)).is_equal_rate()
    # relative spread right at the threshold stays equal-rate
    assert CascadeSpec(2, (1.0, 1.0 + 1e-13)).is_equal_rate()


def test_cycle_current_matches_harmonic_sum():
    spec = CascadeSpec(3, (1.0, 2.0, 4.0))
    assert spec.cycle_current == pytest.approx(4.0 / 7.0)


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
