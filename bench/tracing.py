"""Spans and counters around calls into pinchsec's layers, for the traced run.

While a ``Tracer`` is installed it replaces the public names that
``pinchsec.harness`` and ``pinchsec.game`` look up at call time with timed
wrappers, so the study code runs unchanged and every call it makes into
geometry, channel, secrecy, game and baselines passes a layer boundary.

Coarse calls (a drop, a channel vector, an activation scan, a baseline)
are recorded as spans: (id, name, layer, start, end, parent, sweep point,
trial), kept in memory and written out at the end.  ``shapley_value`` is
timed into the game layer without a span.  The evaluator's ``v(S)``
lookups, up to a hundred thousand per trial and each a fraction of a
microsecond, are too many and too short to time one by one; they are
only counted, by the layer that made them; the masks of every
``SAMPLE_EVERY``-th evaluator are logged and replayed afterwards on a
fresh, untraced evaluator, and that replay gives the cost of one lookup.

A layer's self time is its calls' time minus the time of the calls they
made into other wrapped names, lookups included at their replayed cost.
The replay also runs the logged masks through the counting wrapper, and
the wrapper's cost per lookup is taken back out of the calling layer.
"""

import csv
import time
from collections import defaultdict

from pinchsec import game, harness

ns = time.perf_counter_ns

# (module, name, layer): the coarse calls, each recorded as a span
SPANNED = (
    (harness, "sample_drop", "geometry"),
    (harness, "channel_vector", "channel"),
    (harness, "run_activation", "game"),
    (harness, "brute_force_secrecy_optimum", "baselines"),
    (harness, "coalition_value_activation", "baselines"),
    (harness, "simulated_annealing", "baselines"),
    (harness, "ula_secrecy_rate", "baselines"),
)
LAYERS = ("harness", "geometry", "channel", "secrecy", "game", "baselines")
SAMPLE_EVERY = 7            # log the lookups of the 1st, 8th, 15th ... evaluator
MAX_LOGGED = 2_000_000      # ... until this many masks are logged


class TrialClock:
    """Process CPU time of every trial, cut at each ``drop_seed`` call.

    A trial starts when the harness derives its drop seed; the last trial of
    a study ends when the study returns (``close``).  Installing only this
    clock costs one ``process_time`` call per trial.
    """

    def __init__(self):
        self.cpu_s: list[float] = []
        self.trial = (-1, -1)
        self._start = None
        self._saved = None

    def _drop_seed(self, master_seed, sweep_idx, trial):
        now = time.process_time()
        if self._start is not None:
            self.cpu_s.append(now - self._start)
        self._start = now
        self.trial = (sweep_idx, trial)
        return self._saved(master_seed, sweep_idx, trial)

    def close(self):
        if self._start is not None:
            self.cpu_s.append(time.process_time() - self._start)
        self._start = None
        self.trial = (-1, -1)

    def __enter__(self):
        self._saved = harness.drop_seed
        harness.drop_seed = self._drop_seed
        return self

    def __exit__(self, *exc):
        harness.drop_seed = self._saved


class Tracer(TrialClock):
    """Layer spans, self times and counters for everything a study calls."""

    def __init__(self, sample_every: int = SAMPLE_EVERY):
        super().__init__()
        self.sample_every = sample_every
        self.spans: list[tuple] = []
        self.self_ns = defaultdict(float)
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.v_calls = 0
        self.v_hits = 0
        self.v_calls_by_layer = defaultdict(int)
        self.evaluators = 0
        self.logged = []            # (evaluator args, kwargs, masks looked up)
        self.logged_calls = 0
        self.subset_terms = 0
        self.scan_cycles = 0
        # frame: [span id, layer, child ns, v calls made directly from it]
        self.stack = [[0, "harness", 0, 0]]
        self._last_id = 0
        self._restore = []

    # --- wrappers -------------------------------------------------------

    def _enter(self, layer):
        self._last_id += 1
        frame = [self._last_id, layer, 0, 0]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, name, t0, t1, record):
        self.stack.pop()
        parent = self.stack[-1]
        dur = t1 - t0
        parent[2] += dur
        layer = frame[1]
        self.self_ns[layer] += dur - frame[2]
        self.v_calls_by_layer[layer] += frame[3]
        self.calls[name] += 1
        self.total_ns[name] += dur
        if record:
            self.spans.append((frame[0], name, layer, t0, t1, parent[0]) + self.trial)

    def span(self, name, layer, fn, record=True):
        def wrapper(*args, **kwargs):
            frame = self._enter(layer)
            t0 = ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, name, t0, ns(), record)
        return wrapper

    def _traced_evaluator(self, base):
        tracer = self
        call = base.__call__

        class TracedEvaluator(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.bench_seen = set()
                self.bench_log = None
                tracer.evaluators += 1
                if (tracer.sample_every and (tracer.evaluators - 1) % tracer.sample_every == 0
                        and tracer.logged_calls < MAX_LOGGED):
                    self.bench_log = []
                    tracer.logged.append((args, kwargs, self.bench_log))

            def __call__(self, mask):
                seen = self.bench_seen
                if mask in seen:
                    tracer.v_hits += 1
                else:
                    seen.add(mask)
                if self.bench_log is not None:
                    self.bench_log.append(mask)
                    tracer.logged_calls += 1
                tracer.stack[-1][3] += 1
                tracer.v_calls += 1
                return call(self, mask)

        return TracedEvaluator

    def _shapley(self, fn):
        timed = self.span("shapley_value", "game", fn, record=False)

        def shapley_value(v, coalition, member, *args, **kwargs):
            self.subset_terms += 1 << (coalition.bit_count() - 1)
            return timed(v, coalition, member, *args, **kwargs)
        return shapley_value

    def _activation(self, fn):
        def run_activation(*args, **kwargs):
            mask, trace = fn(*args, **kwargs)
            self.scan_cycles += trace.cycles_used
            return mask, trace
        return self.span("run_activation", "game", run_activation)

    def __enter__(self):
        super().__enter__()
        replaced = [(harness, "SecrecyEvaluator",
                     self.span("SecrecyEvaluator", "secrecy",
                               self._traced_evaluator(harness.SecrecyEvaluator))),
                    (game, "shapley_value", self._shapley(game.shapley_value))]
        for module, name, layer in SPANNED:
            fn = getattr(module, name)
            wrapped = self._activation(fn) if name == "run_activation" else self.span(name, layer, fn)
            replaced.append((module, name, wrapped))
        for module, name, wrapped in replaced:
            self._restore.append((module, name, getattr(module, name)))
            setattr(module, name, wrapped)
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore.clear()
        super().__exit__(*exc)

    # --- results --------------------------------------------------------

    def replay(self, evaluator_class) -> tuple[float, float]:
        """Cost in ns of one lookup, and of the counting wrapper around it.

        Replays the logged masks on fresh evaluators, plain and wrapped,
        so both figures come from the workload's own pattern of memo hits
        and inserts.
        """
        wrapped_class = Tracer(sample_every=0)._traced_evaluator(evaluator_class)
        elapsed = {evaluator_class: 0, wrapped_class: 0}
        for args, kwargs, masks in self.logged:
            for cls in elapsed:
                v = cls(*args, **kwargs)
                t0 = ns()
                for mask in masks:
                    v(mask)
                elapsed[cls] += ns() - t0
        plain, wrapped = elapsed.values()
        return plain / self.logged_calls, max(wrapped - plain, 0) / self.logged_calls

    def layer_self_ms(self, v_ns: float, overhead_ns: float) -> dict:
        """Self time of every layer in ms, with v(S) lookups under secrecy.

        Each lookup is charged ``v_ns`` to secrecy and ``overhead_ns`` (the
        counting wrapper's cost) to nobody; both come off the layer that
        made the lookup.
        """
        out = {}
        for layer in LAYERS:
            lookups = self.v_calls_by_layer[layer]
            out[layer] = (self.self_ns[layer] - lookups * (v_ns + overhead_ns)) / 1e6
        out["secrecy"] += self.v_calls * v_ns / 1e6
        return out

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("id", "name", "layer", "start_ns", "end_ns", "parent",
                             "sweep_idx", "trial"))
            writer.writerows(self.spans)
