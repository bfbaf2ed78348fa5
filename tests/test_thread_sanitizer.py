"""Tests for ``thread_map`` edge semantics and the runtime thread
sanitizer (``repro.parallel.sanitizer``).

The edge-semantics section pins down the contract the EC pipeline
relies on: order preservation, exception propagation identical to the
serial path, and the ``workers <= 1`` inline fast path.  The sanitizer
section proves the shadow-tracker catches a deliberately racy callable
and stays quiet for pure, locked, or explicitly-vouched-for ones.
"""

import threading

import numpy as np
import pytest

from repro.parallel.sanitizer import (
    SANITIZER_ENV,
    ThreadSanitizerError,
    sanitizer_mode,
)
from repro.parallel.threads import thread_map


class TestThreadMapSemantics:
    def test_order_preserved(self):
        items = list(range(100))
        assert thread_map(lambda x: x * x, items, workers=8) == [
            x * x for x in items
        ]

    def test_empty_and_single_item(self):
        assert thread_map(lambda x: x, [], workers=8) == []
        assert thread_map(lambda x: x + 1, [41], workers=8) == [42]

    def test_workers_leq_one_runs_inline(self):
        main = threading.current_thread().name
        seen = []
        thread_map(lambda x: seen.append(threading.current_thread().name),
                   [1, 2, 3], workers=1)
        assert seen == [main] * 3

    def test_pool_path_uses_worker_threads(self):
        main = threading.current_thread().name
        names = thread_map(
            lambda x: threading.current_thread().name, list(range(32)),
            workers=4,
        )
        assert any(n != main for n in names)

    def test_exception_propagates_like_serial(self):
        def boom(x):
            if x == 3:
                raise ValueError("bad item 3")
            return x

        with pytest.raises(ValueError, match="bad item 3"):
            thread_map(boom, range(8), workers=1)
        with pytest.raises(ValueError, match="bad item 3"):
            thread_map(boom, range(8), workers=4)

    def test_generator_input_consumed_once(self):
        gen = (i for i in range(10))
        assert thread_map(lambda x: x, gen, workers=4) == list(range(10))


def racy_map(items, workers=4, **kwargs):
    """A deliberately racy workload: append to a closed-over list."""
    shared = []

    def work(item):
        # rapidslint: disable-next=RPD103 -- deliberately racy fixture the sanitizer must catch
        shared.append(item)
        return item

    return thread_map(work, items, workers=workers, **kwargs)


class TestSanitizerMode:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(SANITIZER_ENV, raising=False)
        assert sanitizer_mode() is None
        monkeypatch.setenv(SANITIZER_ENV, "0")
        assert sanitizer_mode() is None

    def test_enabled_modes(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")
        assert sanitizer_mode() == "strict"
        monkeypatch.setenv(SANITIZER_ENV, "warn")
        assert sanitizer_mode() == "warn"


class TestSanitizerCatchesRaces:
    def test_racy_callable_flagged(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")
        with pytest.raises(ThreadSanitizerError, match="shared"):
            racy_map(list(range(64)))

    def test_warn_mode_warns_instead(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "warn")
        with pytest.warns(RuntimeWarning, match="shared state"):
            out = racy_map(list(range(64)))
        assert out == list(range(64))

    def test_racy_dict_write_flagged(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")
        counts = {}

        def work(item):
            # rapidslint: disable-next=RPD103 -- deliberately racy fixture the sanitizer must catch
            counts[item % 4] = counts.get(item % 4, 0) + 1

        with pytest.raises(ThreadSanitizerError):
            thread_map(work, range(64), workers=4)

    def test_racy_ndarray_write_flagged(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")
        acc = np.zeros(4, dtype=np.int64)

        def work(item):
            # rapidslint: disable-next=RPD103 -- deliberately racy fixture the sanitizer must catch
            acc[0] += item  # classic lost-update race

        with pytest.raises(ThreadSanitizerError):
            thread_map(work, range(64), workers=4)

    def test_bound_method_self_mutation_flagged(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")

        class Tally:
            def __init__(self):
                self.total = 0

            def work(self, item):
                # rapidslint: disable-next=RPD103 -- deliberately racy fixture the sanitizer must catch
                self.total += item

        with pytest.raises(ThreadSanitizerError, match="self"):
            thread_map(Tally().work, range(64), workers=4)


class TestSanitizerStaysQuiet:
    def test_pure_callable_clean(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")
        table = {i: i * i for i in range(64)}  # read-only shared state
        out = thread_map(lambda x: table[x], list(range(64)), workers=4)
        assert out == [i * i for i in range(64)]

    def test_lock_in_closure_presumed_synchronized(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")
        shared = []
        lock = threading.Lock()

        def work(item):
            with lock:
                shared.append(item)
            return item

        out = thread_map(work, list(range(64)), workers=4)
        assert out == list(range(64))
        assert sorted(shared) == list(range(64))

    def test_allow_shared_writes_vouches_for_disjoint_writes(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")
        out = np.zeros(64, dtype=np.int64)

        def work(item):
            # rapidslint: disable-next=RPD103 -- disjoint slot per item, vouched via allow_shared_writes
            out[item] = item * 3

        thread_map(work, range(64), workers=4, allow_shared_writes=("out",))
        np.testing.assert_array_equal(out, np.arange(64) * 3)

    def test_inline_path_never_sanitized(self, monkeypatch):
        monkeypatch.setenv(SANITIZER_ENV, "1")
        # workers=1 is the serial fast path; mutation there is ordinary
        # sequential code and must not be flagged.
        assert racy_map(list(range(16)), workers=1) == list(range(16))

    def test_disabled_env_is_zero_overhead_path(self, monkeypatch):
        monkeypatch.delenv(SANITIZER_ENV, raising=False)
        assert racy_map(list(range(16))) == list(range(16))
