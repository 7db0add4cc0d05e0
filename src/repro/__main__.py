"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``classes N T``   -- print the equivalence-class partition of
  ASM(N, T, x) for x = 1..N (paper Section 5.4).
* ``band T X``      -- the multiplicative band of t' for ASM(n, t', X)
  ~ ASM(n, T, 1).
* ``solve N T X K`` -- decide solvability of K-set agreement in
  ASM(N, T, X) and, on the possible side, run the paper's construction.
* ``check NAME``    -- exhaustively model-check a named scenario over
  ALL interleavings (DPOR-accelerated); exit 0 = property holds,
  1 = counterexample found (printed shrunk), 2 = configuration error,
  3 = a ``--timeout`` / ``--max-runs`` budget interrupted the sweep
  (partial coverage, no violation found so far), 4 = an error that is
  no verdict (a shard that failed on every attempt, a diverged replay).
  ``check --list`` enumerates the registered scenarios.  ``--metrics``
  prints a per-scenario observability summary; ``--metrics-out PATH``
  writes one JSON-lines run record per scenario (atomically; see
  docs/observability.md for the schema -- interrupted sweeps emit a
  record flagged ``"partial": true``).
* ``lint [PATHS]``  -- static protocol-discipline linter over process
  code plus the footprint-soundness pass (see docs/static_analysis.md);
  exit 0 = clean, 1 = violations, 2 = unparsable/unreadable input.
  ``--format json`` emits a machine-readable report; ``--baseline FILE``
  fails only on findings not in the snapshot (``--update-baseline``
  rewrites it atomically).
* ``audit NAME``    -- dynamic footprint-soundness audit of a named
  scenario (every executed operation is checked against the footprint
  it declares to DPOR); exit codes mirror ``check`` (3 = a run
  exhausted ``--max-steps``).
* ``mutants``       -- mutation-soundness harness: run every planted
  protocol mutant (see ``repro.mutants`` and docs/fault_injection.md)
  and verify the expected detection stage catches it; exit 0 only when
  every mutant is caught.
* ``sweep``         -- generative corollary sweep: synthesize ``--count``
  seeded configurations (see ``repro.generative`` and
  docs/generative_sweep.md), run each one's experiment, and cross-check
  the outcome against the solvability oracle's ``floor(t/x)``
  prediction; exit 0 = full agreement, 1 = a disagreement (printed with
  its shrunk minimal witness), 2 = configuration error, 3 = the
  ``--timeout`` budget interrupted the sweep (partial record emitted,
  resumable via ``--resume``).
* ``serve``         -- coordinate one scenario's exhaustive check over
  a TCP shard service (``--bind HOST:PORT``): remote ``worker``
  processes execute frontier shards under the lease protocol, the
  coordinator degrades to in-process execution when none are around,
  and ``--checkpoint``/``--resume`` make the run durable exactly like
  ``check`` (see docs/distributed_exploration.md).  Exit codes mirror
  ``check``.
* ``worker``        -- join a shard server (``--connect HOST:PORT``)
  with ``--jobs`` worker processes; exit 0 when the run ends (even if
  the coordinator vanishes mid-run), 2 if it was never reachable.
* ``demo``          -- a one-minute tour (runs the quickstart scenario).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .core import (kset_solvable, multiplicative_band, partition_table,
                   simulate_with_xcons)
from .model import ASM


def cmd_classes(args: argparse.Namespace) -> int:
    """Print the Section 5.4 equivalence-class partition."""
    print(partition_table(args.n, args.t))
    return 0


def cmd_band(args: argparse.Namespace) -> int:
    """Print the multiplicative band of t' for the given (t, x)."""
    lo, hi = multiplicative_band(args.t, args.x)
    print(f"ASM(n, t', {args.x}) ~ ASM(n, {args.t}, 1)  iff  "
          f"{lo} <= t' <= {hi}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    """Decide solvability; on the possible side run the construction."""
    model = ASM(args.n, args.t, args.x)
    possible = kset_solvable(model, args.k)
    print(f"{args.k}-set agreement in {model}: "
          f"{'SOLVABLE' if possible else 'IMPOSSIBLE'} "
          f"(floor(t/x) = {model.resilience_index}, need k > that)")
    if not possible:
        return 1
    from .algorithms import KSetReadWrite, run_algorithm
    from .tasks import KSetAgreementTask
    t0 = model.resilience_index
    src = KSetReadWrite(n=args.n, t=t0, k=max(args.k, t0 + 1))
    alg = src if args.x == 1 else simulate_with_xcons(
        src, t_prime=args.t, x=args.x)
    result = run_algorithm(alg, list(range(args.n)),
                           max_steps=20_000_000)
    verdict = KSetAgreementTask(args.k).validate_run(
        list(range(args.n)), result)
    print(f"construction executed: {result.summary()}")
    print(f"task verdict: {verdict.explain()}")
    return 0 if verdict.ok else 1


def _resolve_jobs_arg(value):
    """Parse a ``--jobs`` flag value; returns (jobs_or_None, error)."""
    if value is None:
        return None, None
    from .runtime import resolve_jobs
    try:
        return resolve_jobs(value), None
    except ValueError as exc:
        return None, str(exc)


def _emit_metrics(records, show_table: bool,
                  out_path: Optional[str]) -> None:
    """Print and/or atomically persist collected run records."""
    if not records:
        return
    if show_table:
        from .analysis.metrics import render_metrics_table
        print()
        for line in render_metrics_table(records):
            print(line)
    if out_path:
        from .analysis.metrics import write_jsonl
        write_jsonl(out_path, records)


def _resolve_scenario(name: str, args: argparse.Namespace):
    """The scenario ``name`` denotes at ``--n``/``--x``, or ``None``.

    Registry names and synthesized ``generated:SEED:INDEX`` names
    resolve alike (see :func:`repro.scenarios.build_scenario`); on an
    unknown name the error is printed and ``None`` returned.
    """
    from .scenarios import build_scenario
    try:
        return build_scenario(name, n=args.n, x=args.x)
    except KeyError as exc:
        print(f"{args.command}: {exc.args[0]}", file=sys.stderr)
        return None


def _budgets(sc, args: argparse.Namespace):
    """``(max_steps, max_runs)``: the flags, else the scenario's own."""
    return args.max_steps or sc.max_steps, args.max_runs or sc.max_runs


def _open_frontier(name: str, args: argparse.Namespace):
    """The frontier store ``--checkpoint``/``--resume`` name, if any.

    Returns ``(store, rejection)``.  A resume names a store the user
    believes exists; silently starting fresh would hide a typo'd path
    (or a lost disk) behind a full re-exploration, so a missing or
    unreadable store is a rejection, exactly like a fingerprint
    mismatch.
    """
    import os

    from .runtime import FrontierStore
    path = args.checkpoint or args.resume
    if not path:
        return None, None
    frontier = FrontierStore(path)
    if args.checkpoint:
        # --checkpoint starts a fresh exploration; continuing an
        # existing store is what --resume is for.
        if os.path.exists(path):
            os.unlink(path)
        return frontier, None
    if not frontier.exists():
        return None, f"no frontier store at {path}"
    try:
        frontier.load()
    except (OSError, ValueError) as exc:
        return None, f"unreadable frontier store {path}: {exc}"
    print(f"[{name}] resuming from {path}")
    return frontier, None


def _outcome_ladder(name: str, exc: BaseException, metrics=None):
    """Report how a run of scenario ``name`` ended in ``exc``.

    The one outcome ladder of ``check``, ``serve`` and ``audit``: prints
    the verdict, records it on ``metrics`` (an exploration collector,
    when given), and returns ``(exit code, record outcome)`` -- the
    outcome is ``None`` when no record is due (a rejected resume).
    Exit codes: 1 violation, 2 resume rejected, 3 budget interrupt, 4
    any other error.
    """
    from .lint import FootprintViolation
    from .runtime import (CounterexampleFound, ExplorationInterrupted,
                          FrontierMismatch)
    from .runtime.dpor import is_check_failure
    if isinstance(exc, CounterexampleFound):
        cex = exc.counterexample
        print(f"[{name}] PROPERTY VIOLATED ({exc.stats})")
        print(cex.describe())
        if metrics is not None:
            # The engine already recorded the run counts and ddmin
            # replays (``dpor.raise_violation``).
            metrics.record_violation(error_type=type(cex.error).__name__,
                                     prefix=cex.prefix,
                                     schedule=cex.schedule)
        return 1, "violation"
    if isinstance(exc, AssertionError) or is_check_failure(exc):
        # The naive engine reports the check's bare failure, of any
        # type; only DPOR shrinks it to a replayable counterexample.
        detail = (exc if isinstance(exc, AssertionError)
                  else f"{type(exc).__name__}: {exc}")
        print(f"[{name}] PROPERTY VIOLATED: {detail}")
        print(f"[{name}] (rerun without --naive for a shrunk "
              f"counterexample)")
        if metrics is not None:
            metrics.record_violation(error_type=type(exc).__name__)
        return 1, "violation"
    if isinstance(exc, FootprintViolation):
        print(f"[{name}] FOOTPRINT VIOLATION")
        print(exc)
        return 1, "violation"
    if isinstance(exc, ExplorationInterrupted):
        # Graceful degradation: a budget stopped the run before the
        # work was done.  Partial coverage is reported (flagged
        # ``"partial": true`` in an exploration record) under its own
        # exit code, apart from "found a violation" (1) and "bad
        # invocation" (2).
        print(f"[{name}] INTERRUPTED ({exc.reason}): {exc}",
              file=sys.stderr)
        if metrics is not None:
            metrics.record_interrupted(exc.reason, exc.stats)
        return 3, "interrupted"
    if isinstance(exc, FrontierMismatch):
        # Resuming under a different configuration would merge
        # statistics from two different state spaces.
        print(f"[{name}] RESUME REJECTED: {exc}", file=sys.stderr)
        return 2, None
    # A shard that failed on every attempt, a diverged replay: an
    # error, which no budget explains.
    print(f"[{name}] ERROR ({type(exc).__name__}): {exc}",
          file=sys.stderr)
    if metrics is not None:
        metrics.record_error()
    return 4, "error"


def _explore_scenario(name: str, sc, args: argparse.Namespace,
                      records: list, *, jobs: Optional[int],
                      reduction: str, pool=None) -> int:
    """Exhaustively explore one resolved scenario; returns the exit code.

    The one exploration path of ``check`` and ``serve``.  ``jobs=None``
    runs the serial engine; any other value (``--checkpoint`` and
    ``--resume`` imply 1) runs the sharded engine, on ``pool`` when
    given (``serve`` passes its :class:`~repro.runtime.ShardServer`).
    The metrics record, if ``--metrics``/``--metrics-out`` asked for
    one, is appended to ``records``.
    """
    from time import monotonic, perf_counter

    from .runtime import ShardServer, explore, explore_parallel
    from .runtime.dpor import is_check_failure
    from .scenarios import ScenarioRef

    if args.checkpoint and args.resume:
        print(f"{args.command}: --checkpoint and --resume are mutually "
              f"exclusive (--resume continues the store it names)",
              file=sys.stderr)
        return 2
    if jobs is None and (args.checkpoint or args.resume):
        # Durability is a property of the sharded engine; jobs=1 keeps
        # serial-speed execution while the frontier store journals it.
        jobs = 1
    max_steps, max_runs = _budgets(sc, args)
    print(f"[{name}] {sc.description}")
    extra = f", jobs={jobs}" if jobs is not None else ""
    print(f"[{name}] exploring ({reduction}, max_steps={max_steps}, "
          f"max_runs={max_runs}{extra}) ...", flush=True)
    frontier, rejection = _open_frontier(name, args)
    if rejection is not None:
        print(f"[{name}] RESUME REJECTED: {rejection}", file=sys.stderr)
        return 2
    metrics = None
    if args.metrics or args.metrics_out:
        from .analysis.metrics import ExplorationMetrics
        metrics = ExplorationMetrics(scenario=name, engine=reduction,
                                     jobs=jobs or 1)
    wall_start = perf_counter()
    try:
        if jobs is None:
            stats = explore(sc.build, sc.check,
                            crash_plan_factory=sc.crash_plan_factory,
                            max_steps=max_steps, max_runs=max_runs,
                            reduction=reduction, metrics=metrics,
                            timeout=args.timeout or None)
        else:
            # The ref names the run for the checkpoint fingerprint
            # and socket workers (closures do not pickle) and pins the
            # CLI's sizing flags.  The wall-clock budget ships as an
            # absolute monotonic deadline, valid across fork on Linux.
            stats = explore_parallel(
                crash_plan_factory=sc.crash_plan_factory,
                max_steps=max_steps, max_runs=max_runs, jobs=jobs,
                reduction=reduction,
                scenario=ScenarioRef(name, n=args.n, x=args.x),
                metrics=metrics, frontier=frontier, pool=pool,
                deadline=(monotonic() + args.timeout
                          if args.timeout else None))
        exit_code, outcome = 0, "passed"
    except Exception as exc:  # noqa: BLE001 - an engine bug re-raises
        if not (isinstance(exc, (AssertionError, RuntimeError))
                or is_check_failure(exc)):
            raise
        exit_code, outcome = _outcome_ladder(name, exc, metrics)
    if metrics is not None and outcome is not None:
        if isinstance(pool, ShardServer):
            metrics.record_network(pool.tallies)
        records.append(
            metrics.finalize(perf_counter() - wall_start).to_dict())
    if exit_code == 0:
        if stats.truncated_runs:
            print(f"[{name}] PASSED up to depth {max_steps} "
                  f"(bounded: {stats})")
        else:
            print(f"[{name}] PASSED: {stats}")
    return exit_code


def cmd_check(args: argparse.Namespace) -> int:
    """Exhaustively check one named scenario (or ``all`` sound ones)."""
    from .scenarios import SOUND_SCENARIOS, check_scenarios

    jobs, jobs_error = _resolve_jobs_arg(args.jobs)
    if jobs_error is not None:
        print(f"check: {jobs_error}", file=sys.stderr)
        return 2
    if args.list or args.scenario in (None, "list"):
        if args.scenario is None and not args.list:
            print("no scenario given; registered scenarios "
                  "(also: --list):", file=sys.stderr)
        for name, sc in check_scenarios(n=args.n, x=args.x).items():
            print(f"{name:18s} {sc.description}")
        print(f"{'generated:S:I':18s} [generative] explorable "
              f"configuration I of sweep batch S (synthesized; see "
              f"'sweep --describe' and docs/generative_sweep.md)")
        return 0 if (args.list or args.scenario == "list") else 2
    names = (list(SOUND_SCENARIOS) if args.scenario == "all"
             else [args.scenario])
    if (args.checkpoint or args.resume) and len(names) != 1:
        print("check: --checkpoint/--resume journal exactly one "
              "scenario per store (not 'all')", file=sys.stderr)
        return 2

    reduction = "naive" if args.naive else "dpor"
    records: list = []
    exit_code = 0
    for name in names:
        sc = _resolve_scenario(name, args)
        if sc is None:
            return 2
        exit_code = max(exit_code, _explore_scenario(
            name, sc, args, records, jobs=jobs, reduction=reduction))
    _emit_metrics(records, args.metrics, args.metrics_out)
    return exit_code


def cmd_lint(args: argparse.Namespace) -> int:
    """Statically lint protocol code (exit 0/1/2 like ``check``)."""
    import json as json_module

    from .lint import (all_rules, filter_baseline, lint_paths,
                       load_baseline, select_rules, violations_payload,
                       write_baseline)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code} {rule.name:22s} {rule.description}")
        return 0
    if args.update_baseline and not args.baseline:
        print("lint: --update-baseline requires --baseline FILE",
              file=sys.stderr)
        return 2
    try:
        rules = (select_rules(args.select.split(","))
                 if args.select else None)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    violations, errors = lint_paths(args.paths, rules=rules)
    if args.update_baseline:
        if errors:
            for error in errors:
                print(error.render(), file=sys.stderr)
            print("lint: refusing to baseline an unparsable tree",
                  file=sys.stderr)
            return 2
        write_baseline(args.baseline, violations)
        print(f"lint: baseline written to {args.baseline} "
              f"({len(violations)} finding(s))")
        return 0
    suppressed = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError,
                json_module.JSONDecodeError) as exc:
            print(f"lint: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        violations, suppressed = filter_baseline(violations, baseline)
    if args.format == "json":
        print(json_module.dumps(
            violations_payload(violations, errors,
                               baseline_suppressed=suppressed),
            indent=2, sort_keys=True))
    else:
        for violation in violations:
            print(violation.render())
        for error in errors:
            print(error.render(), file=sys.stderr)
        if suppressed:
            print(f"lint: {suppressed} baselined finding(s) suppressed")
    if errors:
        return 2
    if violations:
        if args.format != "json":
            print(f"lint: {len(violations)} violation(s)")
        return 1
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Dynamically audit footprint declarations over a scenario."""
    from time import perf_counter

    from .lint import audit_scenario
    from .scenarios import check_scenarios

    jobs, jobs_error = _resolve_jobs_arg(args.jobs)
    if jobs_error is not None:
        print(f"audit: {jobs_error}", file=sys.stderr)
        return 2
    names = (list(check_scenarios(n=args.n, x=args.x))
             if args.scenario == "all" else [args.scenario])

    records = []
    exit_code = 0
    for name in names:
        sc = _resolve_scenario(name, args)
        if sc is None:
            return 2
        wall_start = perf_counter()
        detail = {}
        try:
            report = audit_scenario(sc, max_steps=args.max_steps,
                                    perturb=not args.no_perturb,
                                    jobs=jobs)
        except (AssertionError, RuntimeError) as exc:
            code, outcome = _outcome_ladder(name, exc)
            if outcome == "interrupted":
                detail = {"interrupt_reason": exc.reason}
        else:
            code, outcome = 0, "passed"
            print(f"[{name}] AUDIT PASSED: {report}")
            # Adversary reprs carry the seeds (see lint.audit): the
            # record alone reproduces a randomized audit.
            detail = {"runs": report.runs,
                      "audited_ops": report.audited_ops,
                      "adversaries": list(report.adversaries)}
        exit_code = max(exit_code, code)
        if outcome is not None and (args.metrics or args.metrics_out):
            from .analysis.metrics import RunMetrics
            data = {"outcome": outcome, "jobs": jobs if jobs else 1,
                    "wall_seconds": perf_counter() - wall_start, **detail}
            records.append(
                RunMetrics(kind="audit", name=name, data=data).to_dict())
    _emit_metrics(records, args.metrics, args.metrics_out)
    return exit_code


def cmd_mutants(args: argparse.Namespace) -> int:
    """Run the mutation-soundness harness (see ``repro.mutants``)."""
    from .mutants import MUTANTS, get_mutant

    if args.list:
        width = max(len(mutant.name) for mutant in MUTANTS)
        for mutant in MUTANTS:
            print(f"{mutant.name:{width}s} [{mutant.expected_stage:7s}] "
                  f"{mutant.description}")
        return 0
    if args.name:
        try:
            selected = [get_mutant(args.name)]
        except KeyError as exc:
            print(f"mutants: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        selected = list(MUTANTS)

    exit_code = 0
    for mutant in selected:
        stage = mutant.detect()
        if stage is None:
            print(f"[{mutant.name}] NOT DETECTED -- "
                  f"{mutant.description}", file=sys.stderr)
            print(f"[{mutant.name}] the {mutant.expected_stage} stage "
                  f"was expected to catch this mutant; a hole in the "
                  f"detection matrix", file=sys.stderr)
            exit_code = 1
        elif stage != mutant.expected_stage:
            print(f"[{mutant.name}] detected by {stage}, but the "
                  f"pinned stage is {mutant.expected_stage} -- the "
                  f"detection matrix shifted", file=sys.stderr)
            exit_code = 1
        else:
            print(f"[{mutant.name}] detected by {stage}")
    if exit_code == 0:
        print(f"all {len(selected)} mutant(s) detected")
    return exit_code


def _sweep_resume_skip(path: str, seed: int, count: int):
    """Indices an earlier sweep of ``seed`` verified; (skip, error).

    The synthesized batch is a pure function of ``(seed, count,
    GENERATOR_VERSION)``, so all three are validated against the
    partial record -- resuming under a different count (or a different
    grammar build) would re-derive a different configuration set and
    silently skip the wrong indices.  Records predating the
    ``generator_version`` field are accepted as current.
    """
    import json
    import os

    from .generative import GENERATOR_VERSION
    if not os.path.exists(path):
        return None, f"resume file {path!r} does not exist"
    data = None
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if (record.get("kind") == "sweep"
                    and record.get("data", {}).get("seed") == seed):
                data = record["data"]
    if data is None:
        return None, (f"no sweep record for seed {seed} in {path!r} "
                      f"(a resume must reuse the original --seed)")
    stored_count = data.get("count")
    if stored_count != count:
        return None, (f"sweep record for seed {seed} in {path!r} was "
                      f"written with --count {stored_count}, not "
                      f"--count {count} (a resume must reuse the "
                      f"original --count; the batch is a pure function "
                      f"of seed and count)")
    stored_version = data.get("generator_version", GENERATOR_VERSION)
    if stored_version != GENERATOR_VERSION:
        return None, (f"sweep record for seed {seed} in {path!r} was "
                      f"written by generator grammar version "
                      f"{stored_version}; this build is version "
                      f"{GENERATOR_VERSION}, so the synthesized batch "
                      f"may differ -- rerun without --resume")
    return data.get("verified", []), None


def cmd_sweep(args: argparse.Namespace) -> int:
    """Generative corollary sweep (see ``repro.generative``)."""
    from .generative import (config_from_choices, execute_config,
                             generate_batch, run_sweep)

    jobs, jobs_error = _resolve_jobs_arg(args.jobs)
    if jobs_error is not None:
        print(f"sweep: {jobs_error}", file=sys.stderr)
        return 2
    if args.count < 1:
        print("sweep: --count must be >= 1", file=sys.stderr)
        return 2

    if args.describe:
        for cfg in generate_batch(args.seed, args.count):
            kind = "explore" if cfg.explorable else "execute"
            print(f"{cfg.describe():48s} [{kind}] "
                  f"choices={list(cfg.choices)}")
        return 0

    if args.replay is not None:
        try:
            choices = [int(piece) for piece
                       in args.replay.split(",") if piece.strip()]
        except ValueError:
            print(f"sweep: --replay wants a comma-separated integer "
                  f"tape, got {args.replay!r}", file=sys.stderr)
            return 2
        outcome = execute_config(config_from_choices(choices))
        print(outcome.describe())
        return 0 if outcome.agree else 1

    skip = ()
    if args.resume:
        skip, resume_error = _sweep_resume_skip(args.resume, args.seed,
                                                args.count)
        if resume_error is not None:
            print(f"sweep: {resume_error}", file=sys.stderr)
            return 2
        print(f"[sweep] resuming seed={args.seed}: skipping "
              f"{len(skip)} verified configuration(s)")

    extra = f", jobs={jobs}" if jobs is not None else ""
    print(f"[sweep] seed={args.seed} count={args.count}{extra}: "
          f"synthesizing and cross-checking against the oracle ...")
    result = run_sweep(args.seed, args.count, jobs=jobs,
                       timeout=args.timeout or None, skip=skip,
                       shrink=not args.no_shrink)
    for outcome in result.disagreements:
        print(f"[sweep] {outcome.describe()}")
        if outcome.shrunk_choices is not None:
            print(f"[sweep]   shrunk witness: "
                  f"{outcome.shrunk_config.describe()} "
                  f"(--replay "
                  f"{','.join(map(str, outcome.shrunk_choices))})")
    if result.interrupted:
        print(f"[sweep] INTERRUPTED ({result.interrupt_reason}): "
              f"{len(result.remaining)} configuration(s) left; rerun "
              f"with --resume to continue", file=sys.stderr)
    print(f"[sweep] {result.summary()}")

    records = [result.to_record()] if (args.metrics
                                       or args.metrics_out) else []
    _emit_metrics(records, args.metrics, args.metrics_out)
    if result.disagreements:
        return 1
    if result.interrupted:
        return 3
    return 0


def _parse_hostport(value: str, flag: str):
    """Parse a ``HOST:PORT`` flag value; returns ((host, port), error)."""
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        return None, (f"{flag} wants HOST:PORT, got {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        return None, (f"{flag} wants a numeric port, got {port_text!r}")
    if not 0 <= port <= 65535:
        return None, f"{flag} port out of range: {port}"
    return (host, port), None


def cmd_serve(args: argparse.Namespace) -> int:
    """Coordinate one scenario's exploration over a TCP shard service.

    Binds ``--bind HOST:PORT`` (port 0 = ephemeral, announced as
    ``[serve] listening on HOST:PORT``) and serves shards to ``worker``
    clients, running them in-process when none show up.  The rest, exit
    codes and the transport-agnostic ``--resume`` included, is
    ``check``'s path (:func:`_explore_scenario`).
    """
    from .runtime import ShardServer

    bind, bind_error = _parse_hostport(args.bind, "--bind")
    if bind_error is not None:
        print(f"serve: {bind_error}", file=sys.stderr)
        return 2
    sc = _resolve_scenario(args.scenario, args)
    if sc is None:
        return 2
    max_steps, max_runs = _budgets(sc, args)
    server = ShardServer(
        bind[0], bind[1],
        config={"scenario": args.scenario, "n": args.n, "x": args.x,
                "max_steps": max_steps, "max_runs": max_runs,
                "reduction": "dpor"},
        lease_timeout=args.lease_timeout, solo_after=args.solo_after,
        announce=lambda host, port: print(
            f"[serve] listening on {host}:{port}", flush=True))
    records: list = []
    exit_code = _explore_scenario(args.scenario, sc, args, records,
                                  jobs=1, reduction="dpor", pool=server)
    tallies = server.tallies
    print(f"[serve] {tallies['remote_shards']} shard(s) remote, "
          f"{tallies['inprocess_shards']} in-process, "
          f"{tallies['reconnects']} reconnect(s), "
          f"{tallies['stale_rejections']} stale rejection(s)")
    _emit_metrics(records, args.metrics, args.metrics_out)
    return exit_code


def _worker_session(spec: dict) -> dict:
    """Run one :class:`~repro.runtime.netshard.ShardWorker` session to
    its end; returns a picklable summary (``cmd_worker``'s unit)."""
    from .runtime.netshard import ShardWorker, WorkerUnavailable

    worker = ShardWorker(**spec)
    try:
        worker.run()
    except WorkerUnavailable as exc:
        return {"completed": 0, "retries": 0, "reconnects": 0,
                "stopped": "unreachable", "error": str(exc)}
    return {"completed": worker.shards_completed,
            "retries": worker.tallies["retries"],
            "reconnects": worker.tallies["reconnects"],
            "stopped": worker.stopped}


def cmd_worker(args: argparse.Namespace) -> int:
    """Join a shard server as a remote worker (``--jobs`` processes).

    Each session is an independent :class:`~repro.runtime.netshard.
    ShardWorker` in its own process (``--jobs 1`` runs it in this
    one): shards are CPU-bound, so threads would serialise on the GIL.
    A session connects with jittered backoff, rebuilds the announced
    scenario by name, and serves shards until the coordinator says
    ``done``.  Exit 0 when the run ended (even if the coordinator
    vanished mid-run -- a worker is expendable by design); exit 2 only
    when the server was never reachable.
    """
    from collections import Counter

    connect, connect_error = _parse_hostport(args.connect, "--connect")
    if connect_error is not None:
        print(f"worker: {connect_error}", file=sys.stderr)
        return 2
    jobs, jobs_error = _resolve_jobs_arg(args.jobs or "1")
    if jobs_error is not None:
        print(f"worker: {jobs_error}", file=sys.stderr)
        return 2

    specs = [{"host": connect[0], "port": connect[1],
              "name": (f"{args.name}-{i}" if jobs > 1 else args.name)
              if args.name else None,
              "rpc_timeout": args.rpc_timeout,
              "connect_attempts": args.connect_attempts}
             for i in range(jobs)]
    if jobs == 1:
        summaries = [_worker_session(specs[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(jobs) as pool:
            summaries = list(pool.map(_worker_session, specs))
    completed = sum(s["completed"] for s in summaries)
    retries = sum(s["retries"] for s in summaries)
    reconnects = sum(s["reconnects"] for s in summaries)
    stopped = Counter(s["stopped"] for s in summaries)
    print(f"[worker] {completed} shard(s) completed across {jobs} "
          f"session(s), {retries} RPC retr(ies), "
          f"{reconnects} reconnect(s); stopped on "
          + ", ".join(f"{reason} ({count})"
                      for reason, count in sorted(stopped.items())))
    if stopped["unreachable"] == len(summaries):
        print(f"worker: {summaries[0]['error']}", file=sys.stderr)
        return 2
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """A one-minute tour of the headline result."""
    from .algorithms import KSetReadWrite, run_algorithm
    from .runtime import CrashPlan
    from .tasks import KSetAgreementTask
    n, t, x = 6, 1, 3
    t_prime = t * x + x - 1
    src = KSetReadWrite(n=n, t=t, k=t + 1)
    lifted = simulate_with_xcons(src, t_prime=t_prime, x=x)
    print(f"{src.name} in {src.model()} lifted to {lifted.model()}")
    plan = CrashPlan.at_own_step({v: 4 + 3 * v for v in range(t_prime)})
    result = run_algorithm(lifted, list(range(n)), crash_plan=plan,
                           max_steps=5_000_000)
    print(f"with {t_prime} crashes: {result.summary()}")
    ok = KSetAgreementTask(t + 1).validate_run(
        list(range(n)), result).ok
    print(f"2-set agreement: {'preserved' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _add_exploration_args(p: argparse.ArgumentParser) -> None:
    """The flags ``check`` and ``serve`` share (one exploration path)."""
    p.add_argument("--n", type=int, default=3,
                   help="process count for sized scenarios (default 3)")
    p.add_argument("--x", type=int, default=2,
                   help="consensus number x for x-safe-agreement "
                        "(default 2)")
    p.add_argument("--max-steps", type=int, default=0,
                   help="override the scenario's depth bound")
    p.add_argument("--max-runs", type=int, default=0,
                   help="override the scenario's run budget")
    p.add_argument("--timeout", type=float, default=0.0,
                   metavar="SECONDS",
                   help="wall-clock budget per scenario; on expiry the "
                        "sweep stops cleanly, emits a partial metrics "
                        "record, and exits 3")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="journal the exploration to a durable frontier "
                        "store at PATH (fresh store; overwrites an "
                        "existing one -- see --resume), so a killed run "
                        "can continue under 'check --resume' or 'serve "
                        "--resume' alike: the store is transport-"
                        "agnostic (see docs/resumable_exploration.md)")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="continue an interrupted --checkpoint "
                        "exploration from the frontier store at PATH "
                        "(exit 2 if the store is missing, unreadable, "
                        "or its configuration fingerprint does not "
                        "match this invocation); final statistics are "
                        "bit-for-bit identical to an uninterrupted run")
    p.add_argument("--metrics", action="store_true",
                   help="print a per-scenario observability summary "
                        "(phases, prune/sleep rates, runs/sec; serve "
                        "adds the per-connection net tallies)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write one JSON-lines run record per scenario "
                        "to PATH (atomic; schema in "
                        "docs/observability.md; a serve record carries "
                        "transport tallies under 'net')")


def main(argv=None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Multiplicative Power of Consensus Numbers -- "
                    "reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="Section 5.4 partition table")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("band", help="multiplicative band of t'")
    p.add_argument("t", type=int)
    p.add_argument("x", type=int)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("solve", help="solvability of k-set agreement")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.add_argument("x", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "check",
        help="exhaustively model-check a named scenario (DPOR)")
    p.add_argument("scenario", nargs="?", default=None,
                   help="scenario name, 'all' (sound scenarios), or "
                        "'list'")
    p.add_argument("--list", action="store_true",
                   help="enumerate the registered scenarios and exit")
    _add_exploration_args(p)
    p.add_argument("--naive", action="store_true",
                   help="disable partial-order reduction (enumerate "
                        "every interleaving)")
    p.add_argument("--jobs", default=None, metavar="N",
                   help="shard exploration across N worker processes "
                        "('auto' = cpu count); run counts are identical "
                        "for every N; --checkpoint/--resume imply "
                        "--jobs 1")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "lint",
        help="static protocol-discipline linter (AST rules)")
    p.add_argument("paths", nargs="*", default=["src/repro"],
                   help="files/directories to lint "
                        "(default: src/repro)")
    p.add_argument("--select", default=None,
                   help="comma-separated rule codes/names to run "
                        "(default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered rules and exit")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="finding output format (default: text)")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="accept-current-findings snapshot: only "
                        "violations not in FILE fail the run")
    p.add_argument("--update-baseline", action="store_true",
                   help="(re)write --baseline FILE from the current "
                        "findings and exit 0")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "audit",
        help="dynamic footprint-soundness audit of a scenario")
    p.add_argument("scenario",
                   help="scenario name or 'all' (every registered "
                        "scenario)")
    p.add_argument("--n", type=int, default=3,
                   help="process count for sized scenarios (default 3)")
    p.add_argument("--x", type=int, default=2,
                   help="consensus number x for x-safe-agreement "
                        "(default 2)")
    p.add_argument("--max-steps", type=int, default=100_000,
                   help="per-run step budget (default 100000)")
    p.add_argument("--no-perturb", action="store_true",
                   help="skip the replay-based read audit (state-diff "
                        "write audit only)")
    p.add_argument("--jobs", default=None, metavar="N",
                   help="audit the scenario's adversaries across N "
                        "worker processes ('auto' = cpu count)")
    p.add_argument("--metrics", action="store_true",
                   help="print a per-scenario observability summary")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write one JSON-lines run record per scenario "
                        "to PATH (atomic)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "mutants",
        help="mutation-soundness harness over planted protocol bugs")
    p.add_argument("name", nargs="?", default=None,
                   help="run one mutant by name (default: all)")
    p.add_argument("--list", action="store_true",
                   help="list the planted mutants and exit")
    p.set_defaults(func=cmd_mutants)

    p = sub.add_parser(
        "sweep",
        help="generative corollary sweep vs the solvability oracle")
    p.add_argument("--seed", type=int, default=0,
                   help="batch seed; the synthesized configurations "
                        "are a pure function of it (default 0)")
    p.add_argument("--count", type=int, default=50,
                   help="configurations to synthesize (default 50)")
    p.add_argument("--timeout", type=float, default=0.0,
                   metavar="SECONDS",
                   help="wall-clock budget for the whole sweep; on "
                        "expiry the sweep stops cleanly, emits a "
                        "partial metrics record listing completed and "
                        "remaining indices, and exits 3")
    p.add_argument("--jobs", default=None, metavar="N",
                   help="shard each explorable configuration across N "
                        "worker processes ('auto' = cpu count); "
                        "verdicts and records are identical for "
                        "every N")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="skip configurations a previous sweep of the "
                        "same seed verified (PATH = its --metrics-out "
                        "file)")
    p.add_argument("--describe", action="store_true",
                   help="print the synthesized batch without "
                        "executing anything")
    p.add_argument("--replay", default=None, metavar="CHOICES",
                   help="rebuild one configuration from a "
                        "comma-separated choice tape (as printed for "
                        "shrunk witnesses) and cross-check it")
    p.add_argument("--no-shrink", action="store_true",
                   help="report disagreements without shrinking them "
                        "to minimal tapes")
    p.add_argument("--metrics", action="store_true",
                   help="print an observability summary")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the sweep's JSON-lines run record to "
                        "PATH (atomic; required for --resume)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="coordinate a scenario check over a TCP shard service")
    p.add_argument("scenario",
                   help="scenario name (or generated:SEED:INDEX)")
    p.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="address to listen on (default 127.0.0.1:0; "
                        "port 0 picks an ephemeral port, printed as "
                        "'[serve] listening on HOST:PORT')")
    _add_exploration_args(p)
    p.add_argument("--lease-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="seconds a shard lease survives without a "
                        "heartbeat before re-grant (default 10)")
    p.add_argument("--solo-after", type=float, default=5.0,
                   metavar="SECONDS",
                   help="seconds to wait for a first worker before "
                        "executing shards in-process (default 5)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="join a shard server as a remote exploration worker")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="shard server address (from '[serve] listening "
                        "on HOST:PORT')")
    p.add_argument("--jobs", default=None, metavar="N",
                   help="worker sessions, one process each "
                        "('auto' = cpu count; default 1)")
    p.add_argument("--name", default=None,
                   help="stable worker name prefix (reconnections "
                        "re-identify by name; default host-pid based)")
    p.add_argument("--rpc-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="per-RPC frame deadline (default 10)")
    p.add_argument("--connect-attempts", type=int, default=10,
                   help="connect attempts (jittered capped backoff) "
                        "before giving up (default 10)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("demo", help="one-minute tour")
    p.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
