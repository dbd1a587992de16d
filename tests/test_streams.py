from __future__ import annotations

import collections
import functools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from streamcolor import (
    Graph,
    GraphSpec,
    Stream,
    StreamSource,
    read_stream,
    to_dynamic_stream,
    to_insertion_stream,
    write_stream,
)
from streamcolor.errors import ArgumentError, FormatError, PassLimitError, StreamValidationError
from streamcolor.graph import MAX_VERTICES
from streamcolor.seeds import rng_for
from streamcolor import streams
from streamcolor.streams import _sample_non_edges

from oracles import ReplayMultigraph, pair_totals


def k3() -> Graph:
    return Graph(3, [(0, 1), (0, 2), (1, 2)])


class TestInsertionStreams:
    def test_empty_graph(self):
        s = to_insertion_stream(Graph(4))
        assert len(s) == 0 and s.model == "ins"

    def test_as_given_order(self):
        s = to_insertion_stream(k3())
        assert list(s) == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]

    def test_shuffle_same_multiset(self):
        a = to_insertion_stream(k3(), "shuffled", seed=1)
        b = to_insertion_stream(k3(), "shuffled", seed=2)
        assert sorted(a) == sorted(b)

    def test_shuffle_deterministic_in_seed(self):
        a = to_insertion_stream(k3(), "shuffled", seed=5)
        b = to_insertion_stream(k3(), "shuffled", seed=5)
        assert a == b

    def test_shuffle_uniform_over_orders(self):
        # 6000 draws over the 6 orders of K_3's edges; chi-squared sanity
        counts = collections.Counter()
        for seed in range(6000):
            s = to_insertion_stream(k3(), "shuffled", seed=seed)
            counts[tuple(s)] += 1
        assert len(counts) == 6
        _, pvalue = stats.chisquare(list(counts.values()))
        assert pvalue > 1e-4

    def test_rejects_duplicate_insertions(self):
        with pytest.raises(StreamValidationError):
            Stream(3, "ins", [(0, 1, 1), (1, 0, 1)])

    def test_rejects_deletions(self):
        with pytest.raises(StreamValidationError):
            Stream(3, "ins", [(0, 1, -1)])


class TestDynamicStreams:
    def test_no_churn_is_insertion_shaped(self):
        s = to_dynamic_stream(k3(), extra_pairs=0, cycles=1, seed=0)
        assert s.model == "dyn"
        assert len(s) == 3
        assert all(delta == 1 for _, _, delta in s)
        assert s.final_graph() == k3()

    def test_churn_length_and_final_graph(self):
        # needs non-edges: K_3 on n=3 has none, so use K_3 inside n=6
        g = Graph(6, [(0, 1), (0, 2), (1, 2)])
        s = to_dynamic_stream(g, extra_pairs=2, cycles=1, seed=3)
        assert len(s) == 3 + 2 * 2
        assert s.final_graph() == g

    def test_cycles_multiply_events(self):
        g = Graph(6, [(0, 1)])
        s = to_dynamic_stream(g, extra_pairs=3, cycles=2, seed=4)
        assert len(s) == 1 + 3 * 2 * 2
        assert s.final_graph() == g

    def test_replay_never_negative(self):
        g = Graph(10, [(0, 1), (2, 3), (4, 5)])
        s = to_dynamic_stream(g, extra_pairs=10, cycles=3, seed=9)
        m = ReplayMultigraph(10)
        for u, v, delta in s:  # the reference replay raises on any negative prefix
            m.apply(u, v, delta)
        assert Graph(10, m.final_edges()) == g

    def test_too_much_churn_rejected(self):
        with pytest.raises(ArgumentError):
            to_dynamic_stream(k3(), extra_pairs=1, cycles=1, seed=0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_final_graph_invariant(self, seed):
        g = Graph(8, [(0, 1), (1, 2), (3, 4), (5, 7)])
        s = to_dynamic_stream(g, extra_pairs=5, cycles=2, seed=seed)
        assert s.final_graph() == g


def reference_sample_non_edges(g, count, rng):
    """The scalar rejection loop: two scalar draws per attempt."""
    n = g.n
    available = n * (n - 1) // 2 - g.num_edges
    if count > available:
        raise ArgumentError(
            f"requested {count} churn pairs but only {available} non-edges exist"
        )
    taken = set(g.edges)
    out = []
    while len(out) < count:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in taken:
            continue
        taken.add(e)
        out.append(e)
    return out


@st.composite
def churn_cases(draw):
    """A graph on 2 <= n <= 30 and a churn count from 0 to one past its non-edges."""
    n = draw(st.integers(2, 30))
    a, b = np.triu_indices(n, 1)
    m = draw(st.integers(0, len(a)))
    pick = np.random.default_rng(draw(st.integers(0, 2**16))).choice(len(a), m, replace=False)
    g = Graph(n, np.column_stack((a[pick], b[pick])))
    available = len(a) - m
    count = draw(st.one_of(st.sampled_from((0, 1, available, available + 1)),
                           st.integers(0, available)))
    return g, count, draw(st.integers(0, 2**32 - 1))


def reference_dynamic_events(g, extra_pairs, cycles, seed):
    """The stable-argsort churn construction: a stable sort of the stream by
    owning pair ranks each pair's events, and even ranks carry +1."""
    rng = rng_for(seed, 2)
    churn = np.empty((0, 2), np.int64)
    if extra_pairs and cycles:
        churn = _sample_non_edges(g, extra_pairs, rng)
    pairs = np.concatenate((g.edge_array(), churn))
    lengths = np.r_[np.ones(g.num_edges, np.int64), np.full(len(churn), 2 * cycles)]
    slots = np.repeat(np.arange(len(pairs)), lengths)
    owner = slots[rng.permutation(len(slots))]
    starts = np.cumsum(lengths) - lengths
    rank = np.empty_like(slots)
    rank[np.argsort(owner, kind="stable")] = np.arange(len(slots)) - starts[slots]
    delta = np.where(rank % 2 == 0, 1, -1)
    return np.column_stack((pairs[owner], delta))


class TestDynamicStreamMatchesArgsortRanks:
    @given(churn_cases(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_random_cases(self, case, cycles):
        g, extra, seed = case
        try:
            want = reference_dynamic_events(g, extra, cycles, seed)
        except ArgumentError:
            with pytest.raises(ArgumentError):
                to_dynamic_stream(g, extra_pairs=extra, cycles=cycles, seed=seed)
            return
        got = to_dynamic_stream(g, extra_pairs=extra, cycles=cycles, seed=seed).events
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSampleNonEdgesMatchesScalarLoop:
    def assert_same_draws(self, g, count, seed):
        want_rng, got_rng = rng_for(seed, 2), rng_for(seed, 2)
        try:
            want = reference_sample_non_edges(g, count, want_rng)
        except ArgumentError as e:
            with pytest.raises(ArgumentError) as got:
                _sample_non_edges(g, count, got_rng)
            assert str(got.value) == str(e)
            return
        got = _sample_non_edges(g, count, got_rng)
        assert got.dtype == np.int64 and got.shape == (count, 2)
        assert got.tolist() == [list(e) for e in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(churn_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_cases(self, case):
        self.assert_same_draws(*case)

    @pytest.mark.parametrize("seed", range(5))
    def test_n2(self, seed):
        for g in (Graph(2), Graph(2, [(0, 1)])):
            for count in (0, 1, 2):
                self.assert_same_draws(g, count, seed)

    def test_every_non_edge_of_a_larger_graph(self):
        g = GraphSpec.parse("gnm:n=80,m=2000").build(rng_for(3, 0))
        self.assert_same_draws(g, 80 * 79 // 2 - 2000, 3)


@functools.cache
def _events_on(n: int, deltas: tuple[int, ...]):
    """The strategy of `event_lists`' events on n vertices, built once."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    return st.lists(st.tuples(pair, st.sampled_from(deltas)).map(lambda e: (*e[0], e[1])),
                    max_size=24)


@st.composite
def event_lists(draw, deltas=(1, -1)):
    """(n, events) with n <= 6, either endpoint order and no self-loops."""
    n = draw(st.integers(2, 6))
    return n, draw(_events_on(n, deltas))


def reference_first_fault(n: int, model: str, events) -> tuple[int, str] | None:
    """The first event at fault and its message, replaying the events one at
    a time: a delta the model does not allow, then a pair out of range, then a
    repeat (insertion) or a multiplicity below zero (dynamic)."""
    allowed = (1,) if model == "ins" else (1, -1)
    count = collections.Counter()
    for i, (u, v, delta) in enumerate(events):
        pair = (min(u, v), max(u, v))
        if delta not in allowed:
            return i, f"{model} stream carries delta {delta}; allowed: {allowed}"
        if pair[0] < 0 or pair[1] >= n:
            return i, f"pair {pair} out of range for n={n}"
        count[pair] += delta
        if model == "ins" and count[pair] > 1:
            return i, f"pair {pair} inserted twice"
        if count[pair] < 0:
            return i, f"pair {pair} deleted more than inserted"
    return None


class TestStreamConstruction:
    @given(event_lists())
    @settings(max_examples=300, deadline=None)
    def test_dynamic_validation_matches_multigraph_replay(self, case):
        n, events = case
        reference = ReplayMultigraph(n)
        try:
            for u, v, delta in events:
                reference.apply(u, v, delta)
        except ValueError:  # some prefix went negative
            with pytest.raises(StreamValidationError):
                Stream(n, "dyn", events)
            return
        assert Stream(n, "dyn", events).final_graph() == Graph(n, reference.final_edges())

    @given(event_lists())
    @settings(max_examples=300, deadline=None)
    def test_dynamic_validation_names_the_replays_failing_event(self, case):
        n, events = case
        reference = ReplayMultigraph(n)
        for u, v, delta in events:
            try:
                reference.apply(u, v, delta)
            except ValueError:  # the earliest event whose pair goes negative
                with pytest.raises(StreamValidationError) as raised:
                    Stream(n, "dyn", events)
                want = f"pair ({min(u, v)}, {max(u, v)}) deleted more than inserted"
                assert str(raised.value) == want
                return
        Stream(n, "dyn", events)

    @pytest.mark.parametrize("model", ["ins", "dyn"])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_largest_n_matches_the_stream_relabeled_small(self, model, data):
        # vertex 0 and the top n - 1 ids of n = MAX_VERTICES, in order: the
        # relabel keeps each pair's key order, and keys of two top ids are too
        # wide for the packed sort, so both stable-order branches must agree
        n, events = data.draw(event_lists(deltas=(1,) if model == "ins" else (1, -1)))
        ids = np.r_[0, MAX_VERTICES - n + 1 : MAX_VERTICES]
        rows = np.array(events, np.int64).reshape(-1, 3)
        big = np.column_stack((ids[rows[:, :2]], rows[:, 2]))

        def outcome(n, events):
            try:
                pairs, totals = Stream(n, model, events).pair_totals()
            except StreamValidationError as e:
                return str(e)
            return pairs.tolist(), totals.tolist()

        def relabel(match):
            return f"pair ({ids[int(match[1])]}, {ids[int(match[2])]})"

        small = outcome(n, rows)
        if isinstance(small, str):
            want = re.sub(r"pair \((\d+), (\d+)\)", relabel, small)
        else:
            want = ids[np.array(small[0], np.int64).reshape(-1, 2)].tolist(), small[1]
        assert outcome(MAX_VERTICES, big) == want

    @given(event_lists())
    @settings(max_examples=300, deadline=None)
    def test_dynamic_pair_totals_kept_from_validation(self, case):
        n, events = case
        try:
            s = Stream(n, "dyn", events)
        except StreamValidationError:
            return
        pairs, totals = s.pair_totals()
        want_pairs, want_totals = pair_totals(n, s.events)
        assert pairs.shape == want_pairs.shape and pairs.tobytes() == want_pairs.tobytes()
        assert totals.dtype == want_totals.dtype == np.int64
        assert totals.tolist() == want_totals.tolist()
        assert not pairs.flags.writeable and not totals.flags.writeable
        assert s.pair_totals() is s.pair_totals()

    @given(event_lists(deltas=(1,)))
    @example((3, list(to_insertion_stream(k3(), "shuffled", seed=1))))
    @settings(max_examples=200, deadline=None)
    def test_insertion_pair_totals_computed_on_first_call(self, case):
        n, events = case
        edges = sorted({(min(u, v), max(u, v)) for u, v, _ in events})
        if len(edges) < len(events):
            return  # a repeated pair: not an insertion stream
        s = Stream(n, "ins", events)
        assert s._totals is None
        pairs, totals = s.pair_totals()
        want_pairs, want_totals = pair_totals(n, s.events)
        assert pairs.shape == want_pairs.shape and pairs.tobytes() == want_pairs.tobytes()
        assert pairs.tolist() == [list(e) for e in edges] and totals.tolist() == [1] * len(edges)
        assert totals.dtype == want_totals.dtype == np.int64
        assert totals.tobytes() == want_totals.tobytes()
        assert not pairs.flags.writeable and not totals.flags.writeable
        assert s.pair_totals() is s.pair_totals()

    @pytest.mark.parametrize("first, then", [("final_graph", "pair_totals"),
                                             ("pair_totals", "final_graph")])
    def test_insertion_stream_builds_one_graph(self, monkeypatch, first, then):
        g = GraphSpec.parse("gnm:n=200,m=8000").build(rng_for(1, 0))
        stream = to_insertion_stream(g, "shuffled", seed=1)
        init, built = Graph.__init__, []

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting)
        for call in (first, then, first, then):
            getattr(stream, call)()
        assert len(built) == 1
        pairs, totals = stream.pair_totals()
        assert stream.final_graph() == g and pairs is stream.final_graph().edge_array()
        assert totals.tolist() == [1] * g.num_edges

    @given(event_lists(deltas=(1,)))
    @settings(max_examples=200, deadline=None)
    def test_insertion_validation_rejects_exactly_repeats(self, case):
        n, events = case
        pairs = [(min(u, v), max(u, v)) for u, v, _ in events]
        if len(set(pairs)) < len(pairs):
            with pytest.raises(StreamValidationError):
                Stream(n, "ins", events)
            return
        s = Stream(n, "ins", events)
        assert list(s) == [(u, v, 1) for u, v in pairs]
        assert s.final_graph() == Graph(n, pairs)

    @given(event_lists(deltas=(1,)))
    @settings(max_examples=200, deadline=None)
    def test_insertion_repeat_names_the_earliest_repeating_event(self, case):
        n, events = case
        pairs = [(min(u, v), max(u, v)) for u, v, _ in events]
        repeat = next((e for i, e in enumerate(pairs) if e in pairs[:i]), None)
        if repeat is None:
            Stream(n, "ins", events)
            return
        with pytest.raises(StreamValidationError) as raised:
            Stream(n, "ins", events)
        assert str(raised.value) == f"pair ({repeat[0]}, {repeat[1]}) inserted twice"

    @given(event_lists(), st.sampled_from(["ins", "dyn"]), st.integers(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_validation_names_the_earliest_event_at_fault(self, case, model, cut):
        # at n - 1 vertices, vertex n - 1 is out of range; an insertion
        # stream of these events may also carry -1
        n, events = case
        n -= cut
        want = reference_first_fault(n, model, events)
        if want is None:
            Stream(n, model, events)
            return
        with pytest.raises(StreamValidationError) as raised:
            Stream(n, model, events)
        index, message = want
        assert (raised.value.index, str(raised.value)) == (index, message)
        assert raised.value.rule == re.sub(r"pair \(\d+, \d+\)", "pair", message)

    @pytest.mark.parametrize(
        "model, events, index, message",
        [
            # a repeat before a bad delta, then an overdraw before a range fault
            ("ins", [(0, 1, 1), (1, 0, 1), (1, 2, -1)], 1, "pair (0, 1) inserted twice"),
            ("dyn", [(0, 1, 1), (1, 0, -1), (0, 1, -1), (1, 3, 1)], 2,
             "pair (0, 1) deleted more than inserted"),
            # on one event the delta check wins, then the range check
            ("ins", [(0, 1, 1), (3, 1, -1)], 1, "ins stream carries delta -1; allowed: (1,)"),
            ("ins", [(0, 1, 1), (0, 3, 1), (1, 0, 1)], 1, "pair (0, 3) out of range for n=3"),
        ],
    )
    def test_two_faults_name_the_earlier_event(self, model, events, index, message):
        with pytest.raises(StreamValidationError) as raised:
            Stream(3, model, events)
        assert (raised.value.index, str(raised.value)) == (index, message)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1))
    def test_rejects_rows_that_are_not_triples(self, rows):
        with pytest.raises(ArgumentError):
            Stream(6, "dyn", rows)

    @pytest.mark.parametrize(
        "events",
        [
            [(0, 1), (1, 2), (0, 2)],
            np.array([[0, 1], [1, 2], [0, 2]]),
            [(0, 1, 1), (1, 2)],
            np.array([[0.0, 1.0, 1.0]]),
            np.zeros((2, 3, 1), dtype=np.int64),
        ],
    )
    def test_rejects_bad_shapes_and_dtypes(self, events):
        with pytest.raises(ArgumentError):
            Stream(3, "ins", events)

    def test_rejects_n_whose_pair_keys_overflow(self):
        # at n = 2**33 the keys u * n + v of these two distinct pairs wrap
        # to one int64 value
        with pytest.raises(ArgumentError):
            Stream(2**33, "ins", [(1, 2**31 + 5, 1), (2**31 + 1, 2**31 + 5, 1)])

    def test_self_loop_is_argument_error(self):
        with pytest.raises(ArgumentError):
            Stream(3, "dyn", [(0, 1, 1), (2, 2, 1)])

    def test_out_of_range_and_bad_delta_are_validation_errors(self):
        for model, events in [("ins", [(0, 3, 1)]), ("dyn", [(-1, 1, 1)]),
                              ("dyn", [(0, 1, 2)]), ("dyn", [(0, 1, 0)])]:
            with pytest.raises(StreamValidationError):
                Stream(3, model, events)

    def test_array_input_is_normalized_and_frozen(self):
        s = Stream(4, "dyn", np.array([[3, 1, 1], [1, 3, -1], [2, 0, 1]]))
        assert s.events.dtype == np.int64 and s.events.shape == (3, 3)
        assert list(s) == [(1, 3, 1), (1, 3, -1), (0, 2, 1)]
        assert all(type(x) is int for ev in s for x in ev)
        with pytest.raises(ValueError):
            s.events[0, 0] = 0
        assert s.final_graph() == Graph(4, [(0, 2)])

    def test_empty(self):
        for events in ([], (), np.empty((0, 3), dtype=np.int64)):
            s = Stream(5, "ins", events)
            assert len(s) == 0 and list(s) == [] and s.final_graph() == Graph(5)


class TestStreamSource:
    def test_pass_limit(self):
        s = to_insertion_stream(k3())
        src = StreamSource(s, max_passes=2)
        list(src.open())
        list(src.open())
        with pytest.raises(PassLimitError):
            src.open()

    def test_unlimited(self):
        src = StreamSource(to_insertion_stream(k3()))
        for _ in range(5):
            assert len(list(src.open())) == 3

    def test_open_returns_the_read_only_event_array(self):
        s = to_insertion_stream(k3(), "shuffled", seed=1)
        events = StreamSource(s).open()
        assert isinstance(events, np.ndarray) and events.shape == (3, 3)
        assert np.array_equal(events, s.events)
        with pytest.raises(ValueError):
            events[0, 0] = 2


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = Graph(6, [(0, 1), (0, 2), (1, 2)])
        s = to_dynamic_stream(g, extra_pairs=2, cycles=2, seed=7)
        path = tmp_path / "s.stream"
        write_stream(s, str(path))
        again = read_stream(str(path))
        assert again == s
        path2 = tmp_path / "s2.stream"
        write_stream(again, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_accepts_either_endpoint_order(self, tmp_path):
        path = tmp_path / "s.stream"
        path.write_text("#stream v1 n=3 model=ins\n1 0 +1\n")
        s = read_stream(str(path))
        assert tuple(s.events[0, :2]) == (0, 1)

    def test_self_loop_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text("#stream v1 n=3 model=ins\n0 0 +1\n")
        with pytest.raises(FormatError) as err:
            read_stream(str(path))
        assert "line 2" in str(err.value)

    def test_deleting_uninserted_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text("#stream v1 n=3 model=dyn\n0 1 -1\n")
        with pytest.raises(FormatError) as err:
            read_stream(str(path))
        assert err.value.line == 2

    def test_overdrawn_pair_names_its_file_line(self, tmp_path):
        # the blank line 3 is no event, so the failing event, the second,
        # is on line 4; the same events as arrays keep their own error
        path = tmp_path / "bad.stream"
        path.write_text("#stream v1 n=4 model=dyn\n2 3 +1\n\n3 1 -1\n")
        with pytest.raises(FormatError) as err:
            read_stream(str(path))
        assert err.value.line == 4
        assert str(err.value) == "line 4: pair deleted more than inserted: '3 1 -1'"
        with pytest.raises(StreamValidationError, match=re.escape("pair (1, 3) deleted more")):
            Stream(4, "dyn", [(2, 3, 1), (3, 1, -1)])

    @pytest.mark.parametrize(
        "body, line, message",
        [
            # the blank line 3 is no event, so the repeat, the second event, is on line 4
            ("0 1 +1\n\n1 0 +1\n", 4, "pair inserted twice: '1 0 +1'"),
            ("0 1 +1\n1 2 -1\n", 3, "ins stream carries delta -1; allowed: (1,): '1 2 -1'"),
            # the earliest line wins: a repeat before a -1, a bad pair and a bad row
            ("0 1 +1\n1 0 +1\n1 2 -1\n2 2 +1\n0 x +1\n", 3, "pair inserted twice: '1 0 +1'"),
            ("0 1 +1\n1 2 -1\n1 0 +1\n", 3, "ins stream carries delta -1; allowed: (1,): '1 2 -1'"),
            ("0 1 +1\n0 3 +1\n1 0 +1\n", 3, "pair must be two distinct vertices below 3: '0 3 +1'"),
            ("0 1 +1\n0 1 +2\n1 0 +1\n", 3, "field 3 must be one of ('-1', '+1'): '0 1 +2'"),
        ],
    )
    def test_refused_insertion_stream_names_its_file_line(self, tmp_path, body, line, message):
        path = tmp_path / "bad.stream"
        path.write_text(f"#stream v1 n=3 model=ins\n{body}")
        with pytest.raises(FormatError) as err:
            read_stream(str(path))
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_dynamic_read_sums_multiplicities_once(self, tmp_path, monkeypatch):
        # the reader's pass both names an overdrawn line and gives the pair totals
        events = [(2, 3, 1), (0, 1, 1), (3, 2, -1), (1, 2, 1), (2, 3, 1), (0, 1, -1)]
        path = tmp_path / "ok.stream"
        write_stream(Stream(4, "dyn", events), str(path))
        calls = []
        real = streams._running_sums
        monkeypatch.setattr(streams, "_running_sums", lambda *a: calls.append(1) or real(*a))
        got = read_stream(str(path))
        assert len(calls) == 1
        want = Stream(4, "dyn", events)
        assert got == want and got.model == "dyn"
        for a, b in zip(got.pair_totals(), want.pair_totals()):
            assert np.array_equal(a, b) and not a.flags.writeable
        assert np.array_equal(got.final_graph().edge_array(), want.final_graph().edge_array())
        assert not got.events.flags.writeable

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text("#stream v2 n=3 model=ins\n")
        with pytest.raises(FormatError):
            read_stream(str(path))

    def test_negative_n_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text("#stream v1 n=-2 model=dyn\n")
        with pytest.raises(FormatError) as err:
            read_stream(str(path))
        assert err.value.line == 1

    def test_too_large_n_is_parse_error(self, tmp_path):
        path = tmp_path / "big.stream"
        path.write_text(f"#stream v1 n={MAX_VERTICES + 1} model=ins\n0 1 +1\n")
        with pytest.raises(FormatError) as err:
            read_stream(str(path))
        assert err.value.line == 1

    def test_bad_delta(self, tmp_path):
        path = tmp_path / "bad.stream"
        path.write_text("#stream v1 n=3 model=dyn\n0 1 +2\n")
        with pytest.raises(FormatError):
            read_stream(str(path))


class TestStreamPathCallsNoHashOrArgsort:
    def test_builders_and_validation(self, monkeypatch):
        # the churn graphs of both benchmark sides, a draw of every non-edge
        # (several batches, so the taken keys are re-sorted), and each
        # validation message path; every key here fits the packed sort
        graphs = [
            (GraphSpec.parse("bipartite:n=200,m=5000").build(rng_for(1, 0)), 100, 1),
            (GraphSpec.parse("planted:n=256,clique=64").build(rng_for(1, 0)), 500, 2),
            (GraphSpec.parse("gnm:n=80,m=2000").build(rng_for(3, 0)), 80 * 79 // 2 - 2000, 1),
        ]
        want = [to_dynamic_stream(g, extra, cycles, seed=5).events for g, extra, cycles in graphs]

        def refuse(*args, **kwargs):
            raise AssertionError("the stream path called a hashing or argsort routine")

        for name in ("isin", "unique", "argsort"):
            monkeypatch.setattr(np, name, refuse)
        for (g, extra, cycles), events in zip(graphs, want):
            s = to_dynamic_stream(g, extra, cycles, seed=5)
            assert s.events.tobytes() == events.tobytes()
            assert Stream(g.n, "dyn", s.events) == s and s.final_graph() == g
        for model, events, message in [
            ("ins", [(0, 1, 1), (2, 3, 1), (1, 0, 1)], "pair (0, 1) inserted twice"),
            ("ins", [(0, 1, -1)], "ins stream carries delta -1; allowed: (1,)"),
            ("dyn", [(0, 1, 1), (0, 1, -1), (1, 0, -1)], "pair (0, 1) deleted more than inserted"),
            ("dyn", [(0, 1, 2)], "dyn stream carries delta 2; allowed: (1, -1)"),
        ]:
            with pytest.raises(StreamValidationError, match=re.escape(message)):
                Stream(4, model, events)
