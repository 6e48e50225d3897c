"""Growth curves: a layer's cost at a size N and at 8N.

Cost that grows linearly takes about eight times as long at 8N, a little more
where the work sorts; cost that grows with the square of the input takes about
64 times as long.  The bound of 16 lies between the two.

The tests that use this helper are named ``test_*grows_linearly*``, so
``pytest -k grows_linearly`` runs them alone.
"""

import gc
import time
from typing import Callable


def assert_grows_linearly(prepare: Callable[[int], Callable[[], object]], small: int) -> None:
    """Require ``prepare(8 * small)()`` to take at most 16 times as long as
    ``prepare(small)()``.

    ``prepare`` builds the input outside the timing and returns the call to
    time.  The two sizes alternate for three rounds and each keeps its best
    time, so a busy moment on the host slows both.  Each call starts after a
    full collection, whose cost follows the whole process's heap and not the
    input; the collector stays on during the call."""
    calls = {n: prepare(n) for n in (small, 8 * small)}
    best = dict.fromkeys(calls, float("inf"))
    for _ in range(3):
        for n, call in calls.items():
            gc.collect()
            start = time.perf_counter()
            call()
            best[n] = min(best[n], time.perf_counter() - start)
    assert best[8 * small] <= 16 * best[small], best
