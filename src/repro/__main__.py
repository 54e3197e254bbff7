"""Command-line chat interface: ``python -m repro``.

Converse with one of the bundled synthetic domains::

    python -m repro --domain swiss
    python -m repro --domain ecommerce --ask "how many orders are there"

Interactive mode reads questions from stdin until EOF/empty line;
``--ask`` answers one question and exits (script-friendly).  Annotations
(confidence, sources, suggestions) are printed with every answer,
``--show-sql`` / ``--show-explanation`` expose the P3 artefacts,
``--trace`` prints the per-turn span tree, ``--scorecard`` prints the
session's P1–P5 reliability verdicts at exit, ``--prometheus`` dumps
the metrics registry in Prometheus exposition format, and
``--export-trace PATH`` writes the last traced turn as Chrome
trace-event JSON (open it in Perfetto / ``chrome://tracing``).

Flight recorder: ``--record PATH`` (alias ``--dump-blackbox PATH``)
writes the session's black-box JSONL at exit — every turn's input and
output envelope, replayable on any machine with the same code.
``--replay FILE`` re-executes a black box on a fresh engine and prints
the field-attributed divergence report; it exits 0 when every turn
reproduced, 1 on any divergence (so CI can gate on "recordings
reproduce exactly") and 2, with one ``error: …`` line on stderr, when
the file cannot be replayed (missing, malformed, unsupported version).
"""

from __future__ import annotations

import argparse
import sys

from repro.core import CDAEngine, ReliabilityConfig

DOMAINS = ("swiss", "ecommerce", "healthcare")


def build_engine(domain: str, llm_error_rate: float | None) -> CDAEngine:
    """Construct the engine for one bundled domain."""
    if domain == "swiss":
        from repro.datasets import build_swiss_labour_registry

        bundle = build_swiss_labour_registry(seed=0)
    elif domain == "ecommerce":
        from repro.datasets import build_ecommerce_registry

        bundle = build_ecommerce_registry(seed=0)
    elif domain == "healthcare":
        from repro.datasets import build_healthcare_registry

        bundle = build_healthcare_registry(seed=0)
    else:
        raise SystemExit(f"unknown domain {domain!r}; choose from {DOMAINS}")
    llm = None
    if llm_error_rate is not None:
        from repro.nl import SimulatedLLM

        llm = SimulatedLLM(
            bundle.registry.database.catalog, error_rate=llm_error_rate
        )
    engine = CDAEngine(
        bundle.registry,
        bundle.vocabulary,
        config=ReliabilityConfig.full(),
        llm=llm,
    )
    if engine.recorder is not None:
        # Stamp the black-box header with everything --replay needs to
        # rebuild this exact engine.
        engine.recorder.context.update(
            domain=domain, seed=0, llm_error_rate=llm_error_rate
        )
    return engine


def answer_and_print(engine: CDAEngine, question: str, args):
    """Ask one question and print the annotated answer (returned for
    the exit-time exporters)."""
    answer = engine.ask(question)
    print(f"[{answer.kind.value}]")
    print(answer.render())
    if args.show_sql and answer.sql:
        print(f"SQL: {answer.sql}")
    if args.show_explanation and answer.explanation is not None:
        print(answer.explanation.to_text())
    if args.trace and answer.trace is not None:
        from repro.obs import render_text

        print(render_text(answer.trace))
    return answer


def epilogue(engine: CDAEngine, args, last_answer=None) -> None:
    """Exit-time telemetry exports: scorecard, Prometheus, trace JSON,
    and the flight-recorder black box."""
    if getattr(args, "record", None):
        if engine.recorder is None:
            print("recording is disabled (config.record_turns is off)")
        else:
            engine.recorder.dump(args.record)
            print(
                f"black box written to {args.record} "
                f"({len(engine.recorder)} turns"
                + (
                    f", {engine.recorder.dropped} dropped"
                    if engine.recorder.dropped
                    else ""
                )
                + ")"
            )
    if args.scorecard:
        print(engine.scorecard().render_text())
    if args.prometheus:
        from repro.obs import to_prometheus

        print(to_prometheus(), end="")
    if args.export_trace:
        if last_answer is None or last_answer.trace is None:
            print("no traced turn to export (is tracing enabled?)")
        else:
            from repro.obs import chrome_trace_json

            with open(args.export_trace, "w", encoding="utf-8") as handle:
                handle.write(chrome_trace_json(last_answer.trace, indent=2))
            print(f"trace written to {args.export_trace}")


def main(argv: list[str] | None = None) -> int:
    """Entry point (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reliable Conversational Data Analytics — chat CLI",
    )
    parser.add_argument(
        "--domain", choices=DOMAINS, default="swiss",
        help="bundled synthetic domain to converse with",
    )
    parser.add_argument(
        "--ask", metavar="QUESTION",
        help="answer one question and exit (non-interactive)",
    )
    parser.add_argument(
        "--show-sql", action="store_true", help="print the executed SQL"
    )
    parser.add_argument(
        "--show-explanation", action="store_true",
        help="print the provenance-backed explanation",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the per-turn span tree after each answer",
    )
    parser.add_argument(
        "--scorecard", action="store_true",
        help="print the session's P1-P5 reliability scorecard at exit",
    )
    parser.add_argument(
        "--prometheus", action="store_true",
        help="print the metrics registry in Prometheus exposition format at exit",
    )
    parser.add_argument(
        "--export-trace", metavar="PATH", default=None,
        help="write the last traced turn as Chrome trace-event JSON "
        "(Perfetto-loadable)",
    )
    parser.add_argument(
        "--record", "--dump-blackbox", metavar="PATH", default=None,
        help="write the session's flight-recorder black box (JSONL) at exit",
    )
    parser.add_argument(
        "--replay", metavar="FILE", default=None,
        help="replay a recorded black box on a fresh engine and print the "
        "divergence report (exit code 0: reproduced, 1: diverged, "
        "2: the file could not be replayed)",
    )
    parser.add_argument(
        "--llm-error-rate", type=float, default=None, metavar="EPS",
        help="attach a simulated LLM fallback with this hallucination rate",
    )
    args = parser.parse_args(argv)
    if args.replay is not None:
        from repro.obs import BlackBox, build_engine_for_header, replay_session

        try:
            blackbox = BlackBox.load(args.replay)
            engine = build_engine_for_header(blackbox.header)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        report = replay_session(blackbox, engine=engine)
        print(report.render_text())
        return 1 if report.diverged else 0
    engine = build_engine(args.domain, args.llm_error_rate)
    if args.ask is not None:
        answer = answer_and_print(engine, args.ask, args)
        epilogue(engine, args, answer)
        return 0
    print(
        f"Connected to the {args.domain!r} domain "
        f"({len(engine.registry.sources())} data sources). "
        "Ask a question, or press Enter on an empty line to quit."
    )
    last_answer = None
    while True:
        try:
            line = input("you> ").strip()
        except EOFError:
            break
        if not line:
            break
        last_answer = answer_and_print(engine, line, args)
    summary = engine.session.snapshot()
    print(
        f"session: {summary['questions_asked']} questions, "
        f"{summary['answers_given']} answered, "
        f"{summary['abstentions']} abstained, "
        f"{summary['clarifications_asked']} clarifications"
    )
    epilogue(engine, args, last_answer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
