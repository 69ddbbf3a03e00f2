"""Metric arithmetic for the benchmark: percentiles, per-layer attribution
from the runner's spans, run.py's own checks, and the check that a result
names exactly the metrics BENCHMARK.json declares. Pure functions over plain data, so
test_harness.py can pin them without building anything."""

import json
import math
import re
from collections import defaultdict

# Percentiles a latency may be reported at, lowest first.
STANDARD_PERCENTILES = (50, 90, 99, 99.9)
MIN_SAMPLES_BEYOND = 10

# Traced runs must keep at least this share of their wall time in
# top-level spans.
MIN_TRACE_COVERAGE = 0.95

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(count, q):
    """Samples strictly above the q-th percentile of `count` samples."""
    return count * (100.0 - q) / 100.0


def highest_supported_percentile(count):
    """The highest standard percentile with at least ten samples beyond it,
    or None when even the median lacks them (fewer than 20 samples)."""
    best = None
    for q in STANDARD_PERCENTILES:
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND - 1e-9:
            best = q
    return best


def median(values):
    return percentile(values, 50)


def reported_percentile(values, q):
    """The q-th percentile when at least ten samples lie beyond it; else
    the highest standard percentile that has them, and never less than
    the median. A sweep run holds a handful of jobs, so its p90 slot
    reports the median rather than an order statistic next to the max."""
    supported = highest_supported_percentile(len(values))
    return percentile(values, min(q, supported) if supported else 50)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Span:
    __slots__ = ("name", "start", "end", "thread", "id", "parent", "label",
                 "args")

    def __init__(self, name, start, end, thread=0, id=0, parent=0, label="",
                 args=None):
        self.name = name
        self.start = start  # seconds
        self.end = end
        self.thread = thread
        self.id = id
        self.parent = parent
        self.label = label
        self.args = args or {}

    @property
    def dur(self):
        return self.end - self.start


def load_trace(path):
    """Spans of a Chrome trace-event file written by the runner."""
    with open(path) as f:
        doc = json.load(f)
    spans = []
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        sid = int(args.pop("id", 0))
        parent = int(args.pop("parent", 0))
        label = args.pop("label", "")
        start = ev["ts"] / 1e6
        spans.append(Span(ev["name"], start, start + ev["dur"] / 1e6,
                          ev["tid"], sid, parent, label, args))
    return spans


class Task:
    """One unit of engine work reconstructed from adversary lifetimes: a
    scalar run (one lane) or a batched chunk (several lanes)."""

    def __init__(self, span):
        self.start = span.start
        self.end = span.end
        self.lanes = [span]

    def add(self, span):
        self.end = max(self.end, span.end)
        self.lanes.append(span)

    @property
    def dur(self):
        return self.end - self.start

    @property
    def batched(self):
        return len(self.lanes) > 1

    @property
    def n(self):
        return int(self.lanes[0].args.get("n", 0))

    @property
    def decide_s(self):
        return sum(s.args.get("decide_ns", 0) for s in self.lanes) / 1e9

    @property
    def decide_calls(self):
        return sum(s.args.get("decide_calls", 0) for s in self.lanes)


def is_probe(span):
    """The engine's oblivious() probe: built during planning, never run."""
    return span.args.get("decide_calls", 0) == 0


def group_tasks(spans):
    """Per-chunk attribution. The engine builds every lane adversary of a
    batched chunk before the chunk runs and destroys them together, so
    their lifetimes overlap; summing them would count the chunk once per
    lane. Per thread, overlapping adversary lifetimes merge into one task
    whose time is their union; a scalar task is a group of one. Probes
    (no decisions) are planning work, not tasks."""
    by_thread = defaultdict(list)
    for span in spans:
        if span.name == "adversary.instance" and not is_probe(span):
            by_thread[span.thread].append(span)
    tasks = []
    for thread in sorted(by_thread):
        current = None
        for span in sorted(by_thread[thread], key=lambda s: s.start):
            if current is not None and span.start < current.end:
                current.add(span)
            else:
                current = Task(span)
                tasks.append(current)
    return tasks


def words_per_round(n):
    """64-bit words in one n x n heard matrix."""
    return n * ((n + 63) // 64)


def batch_bytes(n, lane_rounds):
    """Computed bytes a batched round moves: each lane reads its old
    n x n plane and writes the new one (double-buffered lanes)."""
    return lane_rounds * 2 * words_per_round(n) * 8


def _sum_arg(spans, key):
    return sum(s.args.get(key, 0) for s in spans)


def per_layer_metrics(spans, traced_wall_s, untraced_wall_s, counters):
    """Per-layer numbers from one traced run. Residuals (differences of
    spans) are marked as such in README.md."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    m = {}

    # Engine.
    tasks = group_tasks(spans)
    probes = [s for s in by_name["adversary.instance"] if is_probe(s)]
    other = (by_name["adversary.beam"] + by_name["sim.frontier_task"] +
             by_name["service.task"])
    task_durs = [t.dur for t in tasks] + [s.dur for s in other]
    # ExperimentEngine runs tasks on its pool threads and on the calling
    # thread while it waits, so capacity is the threads seen running tasks.
    executors = len({t.lanes[0].thread for t in tasks} |
                    {s.thread for s in other})
    m["engine.plan_s"] = (sum(s.dur for s in by_name["engine.portfolio_factory"])
                          + sum(s.dur for s in probes))
    m["engine.tasks"] = len(task_durs)
    m["engine.busy_share"] = (sum(task_durs) / (traced_wall_s * executors)
                              if traced_wall_s > 0 and executors else 0.0)
    m["engine.critical_task_s"] = max(task_durs, default=0.0)

    # Adversary.
    instances = [s for s in by_name["adversary.instance"] if not is_probe(s)]
    decide_s = _sum_arg(instances, "decide_ns") / 1e9
    calls = _sum_arg(instances, "decide_calls")
    m["adversary.decide_s"] = decide_s
    m["adversary.decide_calls"] = calls
    m["adversary.decide_us_per_call"] = decide_s * 1e6 / calls if calls else 0.0
    busy = sum(task_durs)
    for member in ("greedy-delay", "local-search"):
        member_s = _sum_arg([s for s in instances if s.label == member],
                            "decide_ns") / 1e9
        m["adversary.%s.decide_s" % member] = member_s
    m["adversary.greedy-delay.busy_share"] = (
        m["adversary.greedy-delay.decide_s"] / busy if busy else 0.0)
    beams = by_name["adversary.beam"]
    m["adversary.beam_s"] = sum(s.dur for s in beams)
    for key in ("states_expanded", "unique_states", "transposition_hits"):
        m["adversary.beam." + key] = _sum_arg(beams, key)

    # Simulator: dense scalar and batched runs are residuals (task time
    # minus the adversary's decision time inside it).
    scalar = [t for t in tasks if not t.batched]
    scalar_s = sum(t.dur - t.decide_s for t in scalar)
    scalar_words = sum(t.decide_calls * words_per_round(t.n) for t in scalar)
    m["sim.scalar_s"] = scalar_s
    m["sim.scalar_ns_per_word"] = (scalar_s * 1e9 / scalar_words
                                   if scalar_words else 0.0)
    chunks = [t for t in tasks if t.batched]
    m["sim.batch_s"] = sum(t.dur - t.decide_s for t in chunks)
    m["sim.batch_lane_rounds"] = sum(t.decide_calls for t in chunks)
    for n in (512, 2048):
        at_n = [t for t in chunks if t.n == n]
        secs = sum(t.dur - t.decide_s for t in at_n)
        moved = sum(batch_bytes(n, t.decide_calls) for t in at_n)
        m["sim.batch_gib_per_s.n%d" % n] = (moved / secs / 2**30
                                            if secs > 0 else 0.0)
    frontier = by_name["sim.frontier_task"]
    generate_s = _sum_arg(frontier, "generate_ns") / 1e9
    tstar = _sum_arg(frontier, "tstar")
    generated = _sum_arg(frontier, "rounds_generated")
    m["sim.frontier_s"] = sum(s.dur for s in frontier) - generate_s
    m["sim.frontier_rounds"] = tstar
    m["dynamics.generate_s"] = generate_s
    m["dynamics.rounds_generated"] = generated
    m["dynamics.rounds_per_tstar"] = generated / tstar if tstar else 0.0

    # Service: per-call means of each public call, from the in-process
    # replay of the request stream.
    def mean_ms(name):
        spans_ = by_name[name]
        return 1e3 * sum(s.dur for s in spans_) / len(spans_) if spans_ else 0.0

    def op_us(op):
        holders = by_name["service.prepass"] + by_name["service.task"]
        ns = _sum_arg(holders, op + "_ns")
        n_calls = _sum_arg(holders, op + "_calls")
        return ns / 1e3 / n_calls if n_calls else 0.0

    m["service.plan_ms"] = mean_ms("service.plan")
    m["service.manifest_load_ms"] = mean_ms("service.manifest_load")
    for op in ("task_key", "cache_get", "cache_put", "manifest_append",
               "execute"):
        m["service.%s_us" % op] = op_us(op)
    # Residual: served submit latency minus the untraced in-process replay
    # of the same requests (socket, protocol and client-side row assembly).
    served = counters.get("served_requests", 0)
    m["service.client_ms"] = (
        1e3 * (counters["served_latency_s"]
               - counters["replay_untraced_request_s"]) / served
        if served else 0.0)
    requests = by_name["service.request"]
    hits = counters.get("replay_cache_hits", 0)
    executed = counters.get("replay_executed", 0)
    m["service.cache_hits"] = hits
    m["service.tasks_executed"] = executed
    m["service.hit_ratio"] = hits / (hits + executed) if hits + executed else 0.0
    warm_ids = {s.id for s in requests if s.label == "warm"}
    warm_s = sum(s.dur for s in requests if s.label == "warm")
    warm_append_s = _sum_arg([s for s in by_name["service.prepass"]
                              if s.parent in warm_ids],
                             "manifest_append_ns") / 1e9
    m["service.warm_append_share"] = warm_append_s / warm_s if warm_s else 0.0

    # The trace itself.
    top = sum(s.dur for s in spans if s.parent == 0)
    m["trace.coverage"] = top / traced_wall_s if traced_wall_s > 0 else 0.0
    m["trace.overhead"] = (traced_wall_s / untraced_wall_s - 1.0
                           if untraced_wall_s > 0 else 0.0)
    return m


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(raw):
    """End-to-end numbers from one untraced run's raw runner output."""
    jobs = raw["jobs"]
    busy = sum(j["seconds"] for j in jobs)
    m = {
        "setup_s": median(raw["setup_s"]),
        "rows_per_s": sum(j["rows"] for j in jobs) / busy,
        "peak_rss_mb": raw["peak_rss_mb"],
        "best_tstar_over_lb": raw["tstar_over_lb"],
        "jobs_per_s": len(jobs) / busy,
    }
    for kind in ("cold", "warm"):
        ms = [1e3 * j["seconds"] for j in latency_samples(raw, kind)]
        m["%s_job_p50_ms" % kind] = median(ms)
        m["%s_job_p90_ms" % kind] = reported_percentile(ms, 90)
    return m


def latency_samples(raw, kind):
    """The jobs a cold or warm latency is taken over. Without a result
    cache (the in-process sweeps) a warm job redoes a cold job's work
    exactly, so both kinds are taken over every job of the run."""
    if not raw["result_cache"]:
        return raw["jobs"]
    return [j for j in raw["jobs"] if j["kind"] == kind]


def sample_counts(raw):
    """Latency sample counts per job kind, and the highest percentile each
    count supports under the ten-samples-beyond rule."""
    counts = defaultdict(int)
    for job in raw["jobs"]:
        counts[job["kind"]] += 1
    if not raw["result_cache"]:
        counts = {"cold": len(raw["jobs"]), "warm": len(raw["jobs"])}
    return {kind: (c, highest_supported_percentile(c))
            for kind, c in sorted(counts.items())}


# ---------------------------------------------------------------------------
# run.py's own checks
# ---------------------------------------------------------------------------

def digest_failure(digest, again, seed):
    """None when a second process at the same seed reproduced the run's
    row digest; else the failure. `again` is None when that process
    failed."""
    if again == digest:
        return None
    return ("a second process at seed %d produced row digest %s, not %s"
            % (seed, again, digest))


def coverage_failure(per_layer):
    """None when a traced run's top-level spans cover enough of its traced
    wall time; else the failure."""
    coverage = per_layer["trace.coverage"]
    if coverage >= MIN_TRACE_COVERAGE:
        return None
    return ("top-level spans cover %.3f of the traced wall time, below %.2f"
            % (coverage, MIN_TRACE_COVERAGE))


def add_checks(raw, outcomes):
    """The runner's check counts plus run.py's: one outcome per check, None
    when it passed. Returns (attempted, failed, failure messages)."""
    extra = [o for o in outcomes if o is not None]
    return (raw["attempted"] + len(outcomes), raw["failed"] + len(extra),
            list(raw["failures"]) + extra)


# ---------------------------------------------------------------------------
# Metric-name check
# ---------------------------------------------------------------------------

def check_metric_names(metrics, declared):
    """Raises ValueError unless `metrics` (name -> {"value", "unit"}) has
    exactly the declared metrics (list of {"name", "unit", ...}), with the
    declared units, finite values, and names/units the contract allows."""
    want = {d["name"]: d["unit"] for d in declared}
    for name, unit in want.items():
        if not NAME_RE.match(name):
            raise ValueError("invalid metric name %r" % name)
        if not UNIT_RE.match(unit):
            raise ValueError("invalid unit %r for %s" % (unit, name))
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing or extra:
        raise ValueError("metric names differ from BENCHMARK.json: missing %s, "
                         "unexpected %s" % (missing, extra))
    for name, entry in metrics.items():
        if entry["unit"] != want[name]:
            raise ValueError("%s has unit %r, declared %r"
                             % (name, entry["unit"], want[name]))
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("%s is not a finite number: %r" % (name, value))
