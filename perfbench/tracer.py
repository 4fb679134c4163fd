"""Outside-in span tracer for cirauth's layers.

Spans are recorded by wrapping public functions at the names their
callers look them up by, so nothing under ``src/`` changes:

* ``simkit`` imports ``Rng``, ``draw_channel``, ``measure`` and calls
  ``scenario_codec`` by bare name, so those are patched in ``simkit``;
* ``simkit`` reaches ``detect`` and ``sparse`` through the module, and
  ``sparse.reconstruct_*`` look ``omp`` up in ``sparse``'s globals, so
  those are patched on the module;
* ``NoiseModel.apply_inverse`` is patched on the class, which covers the
  bound methods ``simkit`` hands to ``detect``.

Each span is kept in memory as (name id, parent span index, start ns,
end ns) and written out once, by :meth:`Tracer.write`.
"""

from __future__ import annotations

import inspect
import time
from array import array
from contextlib import contextmanager

# Span names in the order they are reported.  ``cli.main`` is the root of
# every traced run; ``simkit.estimate_curves`` is the simulation proper.
SPANS = (
    "cli.main",
    "simkit.estimate_curves",
    "numerics.Rng",
    "channel.draw_channel",
    "channel.measure",
    "channel.NoiseModel.apply_inverse",
    "detect.fc_raw_statistic",
    "detect.fuse",
    "sparse.compress",
    "sparse.omp",
    "sparse.reconstruct_raw",
    "sparse.reconstruct_decisions",
    "simkit.scenario_codec",
)
ROOT_SPAN = "cli.main"
SIMULATE_SPAN = "simkit.estimate_curves"


class Tracer:
    """In-memory spans plus per-name aggregates (calls, inclusive, self ns)."""

    def __init__(self):
        self.names = list(SPANS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.total_ns = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counters = {"sparse.omp.atoms": 0, "sparse.omp.breakdowns": 0}
        self.spans = array("q")  # flattened (name id, parent index, start, end)
        self._stack: list[list[int]] = []  # open spans: [span index, child ns]

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        stack, spans = self._stack, self.spans
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans) // 4
            spans.extend((nid, stack[-1][0] if stack else -1, 0, 0))
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[4 * index + 2] = start
                spans[4 * index + 3] = end
                calls[nid] += 1
                total_ns[nid] += duration
                self_ns[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def summary(self, trials_per_run: int, slowdown: float) -> dict[str, float]:
        """Per-layer metrics, given the trials each root span simulates.

        ``us_per_call`` is inclusive time at the reference speed: the
        measured time divided by the machine's ``slowdown`` while traced.

        ``self_share`` is a span's self time over the total time of the
        root span; ``trace.unattributed_share`` is the share of
        ``simkit.estimate_curves`` time that no wrapped layer covers.
        """
        ids = self._ids
        trials = trials_per_run * self.calls[ids[ROOT_SPAN]] or 1
        root_ns = self.total_ns[ids[ROOT_SPAN]] or 1
        out: dict[str, float] = {}
        for name in self.names:
            i = ids[name]
            calls = self.calls[i]
            out[f"{name}.calls_per_trial"] = calls / trials
            out[f"{name}.us_per_call"] = self.total_ns[i] / calls / 1e3 / slowdown if calls else 0.0
            out[f"{name}.self_share"] = self.self_ns[i] / root_ns
        omp_calls = self.calls[ids["sparse.omp"]]
        out["sparse.omp.atoms_per_call"] = (
            self.counters["sparse.omp.atoms"] / omp_calls if omp_calls else 0.0
        )
        out["sparse.omp.breakdown_frac"] = (
            self.counters["sparse.omp.breakdowns"] / omp_calls if omp_calls else 0.0
        )
        sim = ids[SIMULATE_SPAN]
        out["trace.unattributed_share"] = (
            self.self_ns[sim] / self.total_ns[sim] if self.total_ns[sim] else 0.0
        )
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated table with a header."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart_ns\tend_ns\n")
            for k in range(len(spans) // 4):
                nid, parent, start, end = spans[4 * k : 4 * k + 4]
                fh.write(f"{k}\t{self.names[nid]}\t{parent}\t{start}\t{end}\n")


def _counting_omp(tracer: Tracer, omp, recovery_error):
    """``omp`` that also counts atoms used and breakdowns raised."""
    counters = tracer.counters

    def omp_with_counts(*args, **kwargs):
        try:
            coeffs, diagnostics = omp(*args, return_diagnostics=True, **kwargs)
        except recovery_error as exc:
            counters["sparse.omp.breakdowns"] += 1
            counters["sparse.omp.atoms"] += int((exc.partial != 0).sum())
            raise
        counters["sparse.omp.atoms"] += len(diagnostics["support"])
        return coeffs

    return omp_with_counts


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    from cirauth import channel, cli, detect, simkit, sparse

    targets = [
        (cli, "main", "cli.main"),
        (simkit, "estimate_curves", "simkit.estimate_curves"),
        (simkit, "Rng", "numerics.Rng"),
        (simkit, "draw_channel", "channel.draw_channel"),
        (simkit, "measure", "channel.measure"),
        (channel.NoiseModel, "apply_inverse", "channel.NoiseModel.apply_inverse"),
        (detect, "fc_raw_statistic", "detect.fc_raw_statistic"),
        (detect, "fuse", "detect.fuse"),
        (sparse, "compress", "sparse.compress"),
        (sparse, "omp", "sparse.omp"),
        (sparse, "reconstruct_raw", "sparse.reconstruct_raw"),
        (sparse, "reconstruct_decisions", "sparse.reconstruct_decisions"),
        (simkit, "scenario_codec", "simkit.scenario_codec"),
    ]
    # Later versions may stop looking a name up where it is patched here, or
    # drop omp's diagnostics; such a span then reports 0 calls (or atoms)
    # instead of breaking the traced run.
    originals = [(owner, attr, name, getattr(owner, attr)) for owner, attr, name in targets
                 if hasattr(owner, attr)]
    try:
        for owner, attr, name, fn in originals:
            if name == "sparse.omp" and "return_diagnostics" in inspect.signature(fn).parameters:
                fn = _counting_omp(tracer, fn, sparse.RecoveryError)
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, _, fn in originals:
            setattr(owner, attr, fn)
