import threading

import pytest

import trace


def span(name, start, end, parent=-1, thread=1):
    return [name, start, end, thread, parent, 0, 0]


def test_union_length_merges_overlaps_and_skips_gaps():
    assert trace.union_length([(0, 2), (1, 3), (5, 6), (6, 7), (9, 9)]) == 5
    assert trace.union_length([]) == 0


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        span("op", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0, thread=2),   # overlaps a, other thread
        span("c", 9.0, 12.0, parent=0, thread=2),  # sticks out: clipped at 10
        span("a.inner", 1.5, 2.0, parent=1),
    ]
    selfs = trace.self_times(spans)
    assert selfs == pytest.approx([10 - (5 + 1), 3 - 0.5, 3, 3, 0.5])
    agg = trace.aggregate(spans, [(1, "k", 2.0), (2, "k", 3.0)])
    assert agg["spans"]["op"] == {"calls": 1, "total_s": 10.0,
                                  "self_s": pytest.approx(4.0), "bytes": 0}
    assert agg["notes"] == {"k": 5.0}


def test_parent_is_enclosing_span_else_operation_in_flight():
    ticks = iter(range(100))
    tr = trace.Tracer(clock=lambda: next(ticks))
    op = tr.begin("op")
    inner = tr.begin("layer")
    seen = {}

    def pool_thread():
        idx = tr.begin("kernel")
        tr.end(idx, 7)
        seen["idx"] = idx

    t = threading.Thread(target=pool_thread, name="ThreadPoolExecutor-0_0")
    t.start()
    t.join(timeout=5)
    assert not t.is_alive()
    tr.end(inner)
    tr.end(op)
    kernel = tr.spans[seen["idx"]]
    assert tr.spans[inner][trace.PARENT] == op
    assert (kernel[trace.PARENT], kernel[trace.OP], kernel[trace.BYTES]) == (op, op, 7)
    # nothing is in flight any more: the next span is its own operation
    later = tr.begin("later")
    tr.end(later)
    assert tr.spans[later][trace.PARENT] == -1 and tr.spans[later][trace.OP] == later


def test_wrappers_are_fully_removed_after_a_traced_run():
    targets = [(owner, attr) for owner, attr, _, _ in trace._targets()]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tr = trace.Tracer()
    with tr:
        assert all(owner.__dict__[attr] is not orig
                   for (owner, attr), orig in zip(targets, before))
        with pytest.raises(RuntimeError):
            tr.install()
    assert [owner.__dict__[attr] for owner, attr in targets] == before


def test_wrapper_records_a_span_and_lets_errors_through():
    from repro.metadata.kvstore import KVStore

    tr = trace.Tracer()
    with tr:
        with pytest.raises(AttributeError):
            KVStore.put(None, b"k", b"v")  # wrappers off: nothing recorded
        assert tr.spans == []
        tr.enabled = True
        with pytest.raises(AttributeError):
            KVStore.put(None, b"k", b"v")  # no store: fails inside the wrapper
    assert [s[trace.NAME] for s in tr.spans] == ["metadata.put"]
    assert tr.spans[0][trace.END] is not None
