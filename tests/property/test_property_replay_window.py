"""ReplayWindow (the RFC 4303 bitmap) against the set semantics it replaced.

The reference is the window the record layer and the ground station each
ran before: a high-water mark plus the set of accepted numbers above
``max - REPLAY_WINDOW``, rebuilt on every accept.  Streams mix in-order,
out-of-order, duplicate, negative and huge (up to ±1e20) numbers; as in
``SecureChannel.open``, only arrivals marked authenticated are accepted,
and only when the verdict admits them.
"""

from hypothesis import example, given, settings, strategies as st

from repro.comms.crypto.replay import REPLAY_WINDOW, ReplayWindow


class SetWindow:
    """The reference: high-water mark plus a seen set."""

    def __init__(self) -> None:
        self.max = -1
        self.seen = set()

    def verdict(self, seq):
        if seq in self.seen:
            return "replay"
        if seq <= self.max - REPLAY_WINDOW:
            return "stale"
        return None

    def accept(self, seq) -> None:
        self.seen.add(seq)
        self.max = max(self.max, seq)
        floor = self.max - REPLAY_WINDOW
        self.seen = {s for s in self.seen if s > floor}


HUGE = 10 ** 20

#: an arrival: a step from the previous number (in-order, reordered,
#: duplicate, at the window edge) or an absolute one (negative, huge)
steps = st.one_of(
    st.tuples(st.just("step"), st.integers(-2 * REPLAY_WINDOW,
                                           2 * REPLAY_WINDOW)),
    st.tuples(st.just("at"), st.integers(-3 * REPLAY_WINDOW, 300)),
    st.tuples(st.just("at"), st.integers(-HUGE, HUGE)),
)
arrivals = st.lists(st.tuples(steps, st.booleans()), max_size=120)


@settings(max_examples=300)
@given(arrivals)
@example([(("at", n), True) for n in range(70)] + [(("at", 5), True)])
@example([(("at", HUGE), True), (("at", -HUGE), True),
          (("at", HUGE - 63), True), (("at", HUGE - 64), True)])
def test_bitmap_matches_set_reference(stream):
    window, reference = ReplayWindow(), SetWindow()
    seq = 0
    for (how, value), authenticated in stream:
        seq = seq + value if how == "step" else value
        verdict = reference.verdict(seq)
        assert window.verdict(seq) == verdict, (seq, window.top)
        if verdict is None and authenticated:
            window.accept(seq)
            reference.accept(seq)
        assert window.top == reference.max
