"""Turn-budget benchmark: ``CDAEngine.ask`` latency on seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py                       # every workload, then its layer budget
    python3 perfbench/run.py --workload sql_heavy --seed 3 --seconds 20 --trace 0

One simulated user per session drives the engine in a closed loop from
one thread (see ``workloads.py``); engines run with the shipped
``ReliabilityConfig()`` defaults.  A run with ``--trace 0`` measures:

* ``setup_s`` — median of several builds of the workload's registries,
  vocabularies, benchgen databases and engines;
* after a fixed warm-up, whose answers are fingerprinted (SHA-256 over
  kind, text, columns and rows), a timed phase of ``--seconds``: wall
  time per ``ask`` overall and by answer kind, throughput, failed turns,
  abstentions, and wrong answers against an independent sqlite3 oracle.

Times are host-normalised: the turns run in short segments bracketed by
a fixed pure-Python probe (``measure.HostClock``), and each segment's
times are scaled to a reference host on which the probe takes
``REFERENCE_PROBE_MS``.  On a host shared with other work this removes
most of the run-to-run drift; the raw wall times are reported beside
them (``raw.*``).

A run with ``--trace 1`` alternates turns with and without the layer
wrappers of ``spans.py`` and reports each layer's calls, self time and
share of turn time, the engine's own spans beside the outside ones, and
the tracemalloc growth per turn of an untimed pass on a fresh build.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  Full
results, and the spans of a traced run, are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Shortest stretch of turns timed between two host probes, in seconds.
SEGMENT_S = 0.05


def _import_program() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


# -- one timed phase --------------------------------------------------------------


class TurnLog:
    """What the timed phase keeps per turn: kind, wall time, oracle inputs."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.ms: list[float] = []
        #: ``ms`` scaled to the reference host speed (see ``HostClock``).
        self.normalised_ms: list[float] = []
        self.failed = 0
        #: The first few failed turns, for diagnosis.
        self.failures: list[str] = []
        #: ``(database, answer sql, answer rows, gold sql)`` of DATA answers.
        self.data_answers: list[tuple] = []

    def add(self, user, turn, answer, error, ms: float) -> None:
        from repro.core.answer import AnswerKind

        self.ms.append(ms)
        if error is not None or not isinstance(answer.kind, AnswerKind):
            self.kinds.append("failed")
            self._fail(turn, repr(error) if error is not None else f"kind {answer.kind!r}")
            return
        self.kinds.append(answer.kind.value)
        if answer.kind is AnswerKind.ERROR:
            self._fail(turn, answer.text)
        elif answer.kind is AnswerKind.DATA:
            self.data_answers.append(
                (user.engine.database, answer.sql, list(answer.rows), turn.gold_sql)
            )

    def _fail(self, turn, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{turn.text!r}: {reason}")

    def normalise(self, factor: float) -> None:
        """Scale the turns added since the last call by ``factor``."""
        done = len(self.normalised_ms)
        self.normalised_ms.extend(ms * factor for ms in self.ms[done:])

    def normalised_of(self, kind: str | None = None) -> list[float]:
        """Normalised times of the turns answered ``kind`` (None: all)."""
        return [ms for k, ms in zip(self.kinds, self.normalised_ms) if kind in (None, k)]


def _ask(user):
    """One closed-loop turn: ``(turn, answer, error, wall ms)``."""
    turn = user.next_turn()
    answer = error = None
    started = perf_counter()
    try:
        answer = user.engine.ask(turn.text, llm_gold_sql=turn.gold_sql)
    except Exception as exc:  # noqa: BLE001 - a raising turn is a failed turn
        error = exc
    ms = (perf_counter() - started) * 1e3
    user.observe(answer)
    return turn, answer, error, ms


def _warm_up(workload) -> str:
    """Run the untimed warm-up turns; return their answers' fingerprint.

    The warm-up has a fixed number of turns on freshly built engines, so
    one seed gives the same fingerprint on every run of the same code.
    """
    from measure import Fingerprint

    users = workload.users
    fingerprint = Fingerprint()
    for index in range(workload.warmup_turns):
        _turn, answer, error, _ms = _ask(users[index % len(users)])
        if error is not None:
            raise RuntimeError(f"warm-up turn {index} raised") from error
        fingerprint.add(answer)
    return fingerprint.hexdigest()


def timed_phase(workload, seconds: float) -> tuple[TurnLog, float, float]:
    """Round-robin closed loop over the users for ``seconds``, after warm-up.

    Turns run in segments of at least ``SEGMENT_S``, each bracketed by a
    host probe.  Returns the log, the wall time of the turns, and that
    time normalised to the reference host speed.
    """
    from measure import HostClock

    users = workload.users
    log = TurnLog()
    index = workload.warmup_turns
    clock = HostClock()
    elapsed = normalised = 0.0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        segment_started = perf_counter()
        while perf_counter() - segment_started < SEGMENT_S:
            user = users[index % len(users)]
            index += 1
            turn, answer, error, ms = _ask(user)
            log.add(user, turn, answer, error, ms)
        wall = perf_counter() - segment_started
        factor = clock.factor_until_now()
        log.normalise(factor)
        elapsed += wall
        normalised += wall * factor
    return log, elapsed, normalised


def retained_kb_per_turn(workload) -> float:
    """tracemalloc growth per turn from the end of warm-up to the end of
    a fixed number of further turns, on a freshly built workload."""
    users = workload.users
    gc.collect()
    tracemalloc.start()
    try:
        _warm_up(workload)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for index in range(workload.warmup_turns, workload.warmup_turns + workload.memory_turns):
            _ask(users[index % len(users)])
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / 1024 / workload.memory_turns


def check_answers(log: TurnLog) -> dict:
    """Compare DATA answers with the sqlite3 oracle.

    * executor check: the answer's own SQL re-run in sqlite3 must give
      the answer's rows (the program executed it correctly);
    * gold check: for turns that carry gold SQL, the gold SQL's rows in
      sqlite3 must equal the answer's, or the answer is wrong.
    """
    from oracle import SqliteOracle, is_ordered, rows_match

    oracle = SqliteOracle()
    executor_mismatches = 0
    gold_answers = wrong = 0
    try:
        for database, sql, rows, gold_sql in log.data_answers:
            if not rows_match(rows, oracle.rows(database, sql), is_ordered(sql)):
                executor_mismatches += 1
            if gold_sql is not None:
                gold_answers += 1
                expected = oracle.rows(database, gold_sql)
                wrong += not rows_match(rows, expected, is_ordered(gold_sql))
    finally:
        oracle.close()
    return {
        "executor_mismatches": executor_mismatches,
        "gold_answers": gold_answers,
        "wrong_answers": wrong,
    }


# -- the untraced run -------------------------------------------------------------


def build_timed(build_workload, seed: int):
    """Build the workload ``SETUP_REPEATS`` times.

    Returns the median build time, normalised to the reference host
    speed by probes taken right before and after each build, the median
    wall time, and the last build.
    """
    from measure import REFERENCE_PROBE_MS, calibrate

    normalised = []
    wall = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = calibrate(3)
        started = perf_counter()
        workload = build_workload(seed)
        seconds = perf_counter() - started
        after = calibrate(3)
        wall.append(seconds)
        normalised.append(seconds * REFERENCE_PROBE_MS / ((before + after) / 2))
    return statistics.median(normalised), statistics.median(wall), workload


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from measure import calibrate, percentile
    from workloads import WORKLOADS

    calibration_ms = calibrate()
    setup_s, raw_setup_s, workload = build_timed(WORKLOADS[name], seed)
    fingerprint = _warm_up(workload)
    log, elapsed, normalised_elapsed = timed_phase(workload, seconds)
    checks = check_answers(log)

    attempted = len(log.ms)
    rows = {}

    def put(metric, value, unit, samples):
        # A percentile of no samples (no turn of that kind) reads null.
        rows[metric] = {
            "value": None if math.isnan(value) else value,
            "unit": unit,
            "samples": samples,
        }

    put("setup_s", setup_s, "s", SETUP_REPEATS)
    data_ms = log.normalised_of("data")
    for q in (50, 95):
        put(f"turn_p{q}_ms", percentile(log.normalised_ms, q)[0], "ms", attempted)
        put(f"data_turn_p{q}_ms", percentile(data_ms, q)[0], "ms", len(data_ms))
    put("turns_per_s", attempted / normalised_elapsed, "1/s", attempted)
    for kind in ("discovery", "analysis"):
        kind_ms = log.normalised_of(kind)
        put(f"{kind}_turn_p50_ms", percentile(kind_ms, 50)[0], "ms", len(kind_ms))
    put("failed_turn_share", log.failed / attempted, "ratio", attempted)
    put(
        "wrong_answer_share",
        checks["wrong_answers"] / checks["gold_answers"] if checks["gold_answers"] else 0.0,
        "ratio",
        checks["gold_answers"],
    )
    put("abstention_share", log.kinds.count("abstention") / attempted, "ratio", attempted)
    # The same times as measured, before normalising to the reference host.
    put("raw.setup_s", raw_setup_s, "s", SETUP_REPEATS)
    put("raw.turn_p50_ms", percentile(log.ms, 50)[0], "ms", attempted)
    put("raw.turn_p95_ms", percentile(log.ms, 95)[0], "ms", attempted)
    put("raw.turns_per_s", attempted / elapsed, "1/s", attempted)
    correct = (
        log.failed == 0
        and checks["executor_mismatches"] == 0
        and rows["data_turn_p95_ms"]["value"] is not None
    )
    return {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "correct": correct,
        "attempted": attempted,
        "failed": log.failed,
        "metrics": rows,
        "kinds": {kind: log.kinds.count(kind) for kind in sorted(set(log.kinds))},
        "checks": checks,
        "failures": log.failures,
        "fingerprint": fingerprint,
        "fingerprint_turns": workload.warmup_turns,
        "host.calibration_ms": calibration_ms,
    }


# -- the traced run ---------------------------------------------------------------

#: Outside layer whose duration is compared with the engine's own spans.
AGREEMENT = {
    "nl.nl2sql.parse": ("nl.nl2sql.ground", "nl.nl2sql.translate"),
    "sqldb.database.execute": ("engine.execution",),
    "soundness.verifier.verify": ("engine.verification",),
}
ENGINE_SPANS = sorted({name for names in AGREEMENT.values() for name in names})


def _engine_span_ns(trace) -> dict[str, int]:
    """Summed duration per engine span name, for the names in AGREEMENT."""
    totals = dict.fromkeys(ENGINE_SPANS, 0)
    if trace is not None:
        for node in trace.iter_spans():
            if node.name in totals:
                totals[node.name] += node.duration_ns
    return totals


def _outside_ns(spans_list, turns_with_execution: set[int]) -> dict[str, int]:
    """Summed outside duration per AGREEMENT layer.

    ``engine.execution`` wraps only the engine's own call on a data
    turn, so executes are counted when their parent is the turn root
    and the turn has that engine span.
    """
    from spans import ROOT

    totals = dict.fromkeys(AGREEMENT, 0)
    for name, start, end, parent, turn in spans_list:
        if name not in totals:
            continue
        if name == "sqldb.database.execute" and (
            spans_list[parent][0] != ROOT or turn not in turns_with_execution
        ):
            continue
        totals[name] += end - start
    return totals


def cache_counts() -> tuple[int, int]:
    """Query-cache hits and misses so far, summed over every cache.

    Read from the process metrics registry, which every ``QueryCache``
    updates beside its own ``stats``, so caches of sessions that ended
    during the run still count.
    """
    from repro.obs.metrics import get_registry

    values = get_registry().counter_values()
    return values.get("sqldb.cache.hits", 0), values.get("sqldb.cache.misses", 0)


def run_traced(name: str, seed: int, seconds: float) -> dict:
    import spans
    from measure import calibrate, percentile
    from workloads import WORKLOADS

    calibration_ms = calibrate()
    workload = WORKLOADS[name](seed)
    layer_list = spans.layers()
    span_log = spans.SpanLog()
    users = workload.users
    _warm_up(workload)
    index = workload.warmup_turns
    hits_before, misses_before = cache_counts()
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    engine_ns = dict.fromkeys(ENGINE_SPANS, 0)
    turns_with_execution: set[int] = set()
    failed = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        user = users[index % len(users)]
        if index % 2 == 0:
            turn = user.next_turn()
            answer = None
            with spans.Installed(span_log, layer_list):
                span_log.begin_turn(index)
                try:
                    answer = user.engine.ask(turn.text, llm_gold_sql=turn.gold_sql)
                except Exception:  # noqa: BLE001 - counted as a failed turn
                    failed += 1
                root = span_log.end_turn()
            user.observe(answer)
            traced_ms.append((root[2] - root[1]) / 1e6)
            if answer is not None:
                for span_name, ns in _engine_span_ns(answer.trace).items():
                    engine_ns[span_name] += ns
                if answer.trace is not None and answer.trace.find("engine.execution"):
                    turns_with_execution.add(index)
        else:
            _turn, _answer, error, ms = _ask(user)
            failed += error is not None
            untraced_ms.append(ms)
        index += 1
    hits_after, misses_after = cache_counts()

    turns = len(traced_ms)
    turn_ns = sum(traced_ms) * 1e6
    totals = spans.layer_totals(span_log.spans)
    metrics: dict[str, dict] = {}

    def put(metric, value, unit):
        metrics[metric] = {"value": value, "unit": unit}

    for layer in layer_list:
        entry = totals.get(layer.name, spans.LayerTotals())
        put(f"{layer.name}.calls_per_turn", entry.calls / turns, "calls/turn")
        put(f"{layer.name}.self_ms_per_turn", entry.self_ns / 1e6 / turns, "ms/turn")
        put(f"{layer.name}.self_share", entry.self_ns / turn_ns, "ratio")
    counts = span_log.counts
    lookups = totals.get("kg.vocabulary.lookup", spans.LayerTotals()).calls
    verifies = totals.get("soundness.verifier.verify", spans.LayerTotals()).calls
    lookups_hit = counts["kg.vocabulary.lookup.hits"]
    put("kg.vocabulary.lookup.hit_ratio", lookups_hit / lookups if lookups else 0.0, "ratio")
    put(
        "sqldb.database.rows_scanned_per_row",
        counts["sqldb.database.rows_scanned"] / max(counts["sqldb.database.rows_returned"], 1),
        "rows/row",
    )
    lookups_cache = (hits_after - hits_before) + (misses_after - misses_before)
    put(
        "sqldb.cache.hit_ratio",
        (hits_after - hits_before) / lookups_cache if lookups_cache else 0.0,
        "ratio",
    )
    put(
        "soundness.verifier.cache_served_share",
        counts["soundness.verifier.cache_served"] / verifies if verifies else 0.0,
        "ratio",
    )
    root = totals[spans.ROOT]
    put("core.engine.ask.unattributed_ms_per_turn", root.self_ns / 1e6 / turns, "ms/turn")
    put(
        "bench.trace_overhead_ratio",
        percentile(traced_ms, 50)[0] / percentile(untraced_ms, 50)[0],
        "ratio",
    )
    put("host.calibration_ms", calibration_ms, "ms")
    put("retained_kb_per_turn", retained_kb_per_turn(WORKLOADS[name](seed)), "kB")

    outside = _outside_ns(span_log.spans, turns_with_execution)
    agreement = {
        layer: {
            "outside_ms_per_turn": outside[layer] / 1e6 / turns,
            "outside_self_ms_per_turn": totals.get(layer, spans.LayerTotals()).self_ns / 1e6 / turns,
            "engine_ms_per_turn": sum(engine_ns[n] for n in names) / 1e6 / turns,
            "engine_spans": list(names),
        }
        for layer, names in AGREEMENT.items()
    }
    for entry in agreement.values():
        entry["gap_ms_per_turn"] = entry["outside_ms_per_turn"] - entry["engine_ms_per_turn"]

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{name}-seed{seed}-spans.jsonl"
    span_log.dump(spans_path)
    return {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "correct": failed == 0,
        "attempted": turns + len(untraced_ms),
        "failed": failed,
        "metrics": metrics,
        "traced_turns": turns,
        "untraced_turns": len(untraced_ms),
        "agreement": agreement,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


# -- output -----------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"
    return str(value)


def print_untraced(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}): end to end, tracing off")
    print(f"{'metric':28s} {'value':>12s} {'unit':6s} {'samples':>8s}")
    for metric, row in result["metrics"].items():
        print(f"{metric:28s} {_fmt(row['value']):>12s} {row['unit']:6s} {row['samples']:>8d}")
    print(f"turns by kind: {result['kinds']}")
    print(f"oracle checks: {result['checks']}")
    for failure in result["failures"]:
        print(f"failed turn: {failure}")
    print(f"host.calibration_ms: {_fmt(result['host.calibration_ms'])}")
    print(
        f"answer fingerprint ({result['fingerprint_turns']} warm-up turns): "
        f"{result['fingerprint']}"
    )


def print_traced(result: dict) -> None:
    print(
        f"== {result['workload']} (seed {result['seed']}): layer budget over "
        f"{result['traced_turns']} traced turns"
    )
    metrics = result["metrics"]
    layer_names = [m[: -len(".self_share")] for m in metrics if m.endswith(".self_share")]
    print(f"{'layer':48s} {'calls/turn':>10s} {'self ms/turn':>12s} {'self share':>10s}")
    for layer in sorted(layer_names, key=lambda n: -metrics[f"{n}.self_share"]["value"]):
        print(
            f"{layer:48s} {metrics[f'{layer}.calls_per_turn']['value']:10.2f} "
            f"{metrics[f'{layer}.self_ms_per_turn']['value']:12.4f} "
            f"{metrics[f'{layer}.self_share']['value']:10.4f}"
        )
    for metric, row in metrics.items():
        if not metric.endswith(("calls_per_turn", "self_ms_per_turn", "self_share")):
            print(f"{metric:48s} {_fmt(row['value']):>10s} {row['unit']}")
    print("outside spans vs the engine's own spans (ms per traced turn):")
    for layer, entry in result["agreement"].items():
        print(
            f"  {layer:28s} outside {entry['outside_ms_per_turn']:.4f} "
            f"(self {entry['outside_self_ms_per_turn']:.4f})  "
            f"engine {'+'.join(entry['engine_spans'])} {entry['engine_ms_per_turn']:.4f}  "
            f"gap {entry['gap_ms_per_turn']:+.4f}"
        )
    print(f"spans written to {result['spans_file']}")


def _declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def result_line(result: dict) -> str:
    metrics = {
        name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
        for name in _declared_metrics(result["trace"])
    }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    result = (run_traced if trace else run_untraced)(name, seed, seconds)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=2), encoding="utf-8")
    (print_traced if trace else print_untraced)(result)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: layer budget (default: both)")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}")
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = [
        run_one(name, args.seed, args.seconds, trace) for name in names for trace in traces
    ]
    if len(results) == 1:
        print(result_line(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
