import itertools
import threading
import time

import pytest

from sdedensity.util import iter_ordered, path_chunks


@pytest.mark.parametrize("threads", [2, 3])
def test_iter_ordered_holds_at_most_two_results_per_thread(threads):
    # a result is alive from its call until the slow consumer is done with it
    lock = threading.Lock()
    alive = most = 0

    def make(i):
        nonlocal alive, most
        with lock:
            alive += 1
            most = max(most, alive)
        return i

    taken = []
    for i in iter_ordered(make, range(40), threads):
        time.sleep(0.002)
        taken.append(i)
        with lock:
            alive -= 1
    assert taken == list(range(40))
    assert threads < most <= 2 * threads


@pytest.mark.parametrize("threads", [1, 2])
def test_iter_ordered_reads_its_arguments_lazily(threads):
    first = itertools.islice(iter_ordered(lambda i: i * i, itertools.count(), threads), 5)
    assert list(first) == [0, 1, 4, 9, 16]


def test_path_chunks_are_made_as_they_are_read():
    chunks = path_chunks(2**62, 4096)
    assert next(chunks) == (0, 4096) and next(chunks) == (4096, 8192)
    assert list(path_chunks(10, 4)) == [(0, 4), (4, 8), (8, 10)]
