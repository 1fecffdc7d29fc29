"""The tracemalloc peak helper the memory-bound tests share."""

import tracemalloc


class traced_memory:
    """Trace numpy's and Python's allocations over a ``with`` block, in bytes.

    ``live`` is what was traced at the last ``mark()`` (0 at the block's
    start), and after the block ``peak`` is the most traced above ``live``
    from that mark on.  Only what is allocated inside the block is seen, so
    work done before ``mark()`` (a recorded graph, say) counts as live.
    """

    def __enter__(self):
        tracemalloc.start()
        self.mark()
        return self

    def mark(self) -> None:
        self.live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1] - self.live
        tracemalloc.stop()
