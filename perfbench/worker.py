"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED [--trace]

Prints one JSON object: the verdict rows, the sha256 of the round's output,
the set-up time (import plus case construction: ``gallery.build_case``,
``casefile.load_case_file`` and ``Connection.perturbed``), the peak RSS,
and with ``--trace`` the per-layer trace.  ``run.py`` starts it; it expects
the repository's ``src`` directory next to ``perfbench``.

The round also samples the machine's speed (see ``SpeedProbe``) and
reports its mean over the set-up and over the whole round.
"""

import time

START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def product(self):
        return self.a * self.b


def _probe_loop() -> float:
    """A fixed slice of interpreter work: small objects and method calls."""
    total = 0.0
    for i in range(60):
        total += _Node(i, 1.5).product()
    return total


class SpeedProbe:
    """The machine's speed while the round runs, relative to a fixed reference.

    On a shared machine the same code runs up to 40% slower for periods of
    seconds to minutes, under load from outside the benchmark.  Every ``INTERVAL_S`` of wall time a SIGALRM handler times one
    ``_probe_loop`` (about 20 us, well under 1% of the round).  A sample's
    speed is ``REFERENCE_S`` over its time; the mean speed over an interval,
    times the interval's wall time, is that wall time expressed at the
    reference speed.
    """

    INTERVAL_S = 0.01
    REFERENCE_S = 20e-6

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_):
        start = time.perf_counter()
        _probe_loop()
        self.samples.append((start, self.REFERENCE_S / (time.perf_counter() - start)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self, windows=None) -> float:
        """Mean speed of the samples taken inside ``windows``, a list of
        (start, end) times, else of all of them."""
        speeds = [
            s for t, s in self.samples if windows is None or any(a <= t < b for a, b in windows)
        ] or [s for _, s in self.samples]
        return sum(speeds) / len(speeds) if speeds else 1.0


PROBE = SpeedProbe()
PROBE.start()


class SetupClock:
    """Time spent in the outermost calls of the wrapped set-up functions."""

    def __init__(self):
        self.seconds = 0.0
        self.windows: list[tuple[float, float]] = []
        self._depth = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    end = time.perf_counter()
                    self.seconds += end - start
                    self.windows.append((start, end))

        return timed


def main(argv: list[str]) -> int:
    import bianchi.cli  # noqa: F401  (imports every bianchi module)
    from bianchi import casefile, gallery
    from bianchi.connection import Connection

    import_end = time.perf_counter()
    name, seed, traced = argv[0], int(argv[1]), argv[2:] == ["--trace"]

    import workloads

    clock = SetupClock()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    else:
        gallery.build_case = clock.wrap(gallery.build_case)
        casefile.load_case_file = clock.wrap(casefile.load_case_file)
        Connection.perturbed = clock.wrap(Connection.perturbed)

    rows, digest = workloads.run(name, seed)
    PROBE.stop()
    result = {
        "rows": rows,
        "sha256": digest,
        "setup_s": import_end - START + clock.seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
    result["setup_speed"] = PROBE.speed([(START, import_end)] + clock.windows)
    result["speed"] = PROBE.speed()
    result["probe_samples"] = len(PROBE.samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        PROBE.stop()  # a SIGALRM left pending at interpreter exit kills the process
    sys.exit(code)
