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
  (partial coverage, no violation found so far).
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
  it declares to DPOR); exit codes mirror ``check``.
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


def cmd_check(args: argparse.Namespace) -> int:
    """Exhaustively check one named scenario (or ``all`` sound ones)."""
    import os

    from .runtime import (CounterexampleFound, ExplorationInterrupted,
                          FrontierMismatch, FrontierStore, explore)
    from .runtime.parallel import explore_parallel
    from .scenarios import SOUND_SCENARIOS, ScenarioRef, check_scenarios

    jobs, jobs_error = _resolve_jobs_arg(args.jobs)
    if jobs_error is not None:
        print(f"check: {jobs_error}", file=sys.stderr)
        return 2
    checkpoint_path = args.checkpoint or args.resume
    if args.checkpoint and args.resume:
        print("check: --checkpoint and --resume are mutually exclusive "
              "(--resume continues the store it names)", file=sys.stderr)
        return 2
    if checkpoint_path and jobs is None:
        # Durability is a property of the sharded engine; jobs=1 keeps
        # serial-speed execution while the frontier store journals it.
        jobs = 1
    scenarios = check_scenarios(n=args.n, x=args.x)
    if args.list or args.scenario in (None, "list"):
        if args.scenario is None and not args.list:
            print("no scenario given; registered scenarios "
                  "(also: --list):", file=sys.stderr)
        for name, sc in scenarios.items():
            print(f"{name:18s} {sc.description}")
        print(f"{'generated:S:I':18s} [generative] explorable "
              f"configuration I of sweep batch S (synthesized; see "
              f"'sweep --describe' and docs/generative_sweep.md)")
        return 0 if (args.list or args.scenario == "list") else 2
    if args.scenario == "all":
        names = list(SOUND_SCENARIOS)
    elif args.scenario in scenarios:
        names = [args.scenario]
    elif args.scenario.startswith("generated:"):
        # Synthesized scenarios resolve through the generative grammar;
        # the ref round-trips by name, so --jobs sharding is unchanged.
        from .scenarios import build_scenario
        try:
            scenarios[args.scenario] = build_scenario(args.scenario)
        except KeyError as exc:
            print(f"check: {exc.args[0]}", file=sys.stderr)
            return 2
        names = [args.scenario]
    else:
        print(f"unknown scenario {args.scenario!r}; try "
              f"'--list' or one of: {', '.join(scenarios)}",
              file=sys.stderr)
        return 2

    if checkpoint_path and len(names) != 1:
        print("check: --checkpoint/--resume journal exactly one "
              "scenario per store (not 'all')", file=sys.stderr)
        return 2
    if args.checkpoint and os.path.exists(args.checkpoint):
        # --checkpoint starts a fresh exploration; continuing an
        # existing store is what --resume is for.
        os.unlink(args.checkpoint)

    reduction = "naive" if args.naive else "dpor"
    collect_metrics = args.metrics or args.metrics_out
    records = []
    exit_code = 0
    for name in names:
        sc = scenarios[name]
        max_steps = args.max_steps or sc.max_steps
        max_runs = args.max_runs or sc.max_runs
        print(f"[{name}] {sc.description}")
        extra = f", jobs={jobs}" if jobs is not None else ""
        print(f"[{name}] exploring ({reduction}, max_steps={max_steps}, "
              f"max_runs={max_runs}{extra}) ...")
        metrics = None
        if collect_metrics:
            from time import perf_counter

            from .analysis.metrics import ExplorationMetrics
            metrics = ExplorationMetrics(scenario=name, engine=reduction,
                                         jobs=jobs if jobs else 1)
            wall_start = perf_counter()

        def settle_metrics():
            if metrics is not None:
                records.append(metrics.finalize(
                    perf_counter() - wall_start).to_dict())
        try:
            if jobs is not None:
                from time import monotonic

                # Workers rebuild the scenario by name (closures do not
                # pickle); the ref pins the CLI's sizing flags.  The
                # wall-clock budget ships as an absolute monotonic
                # deadline, valid across fork on Linux.
                deadline = (monotonic() + args.timeout
                            if args.timeout else None)
                frontier = None
                if checkpoint_path:
                    frontier = FrontierStore(checkpoint_path)
                    if args.resume:
                        # A resume names a store the user believes
                        # exists; silently starting fresh would hide a
                        # typo'd path (or a lost disk) behind a full
                        # re-exploration.  Reject missing and
                        # unreadable stores exactly like a fingerprint
                        # mismatch: loudly, exit 2.
                        if not frontier.exists():
                            print(f"[{name}] RESUME REJECTED: no "
                                  f"frontier store at "
                                  f"{checkpoint_path}", file=sys.stderr)
                            exit_code = max(exit_code, 2)
                            continue
                        try:
                            frontier.load()
                        except (OSError, ValueError) as exc:
                            print(f"[{name}] RESUME REJECTED: "
                                  f"unreadable frontier store "
                                  f"{checkpoint_path}: {exc}",
                                  file=sys.stderr)
                            exit_code = max(exit_code, 2)
                            continue
                        print(f"[{name}] resuming from "
                              f"{checkpoint_path}")
                stats = explore_parallel(
                    crash_plan_factory=sc.crash_plan_factory,
                    max_steps=max_steps, max_runs=max_runs,
                    jobs=jobs, reduction=reduction,
                    scenario=ScenarioRef(name, n=args.n, x=args.x),
                    metrics=metrics, deadline=deadline,
                    frontier=frontier)
            else:
                stats = explore(sc.build, sc.check,
                                crash_plan_factory=sc.crash_plan_factory,
                                max_steps=max_steps, max_runs=max_runs,
                                reduction=reduction, metrics=metrics,
                                timeout=args.timeout or None)
        except CounterexampleFound as exc:
            print(f"[{name}] PROPERTY VIOLATED ({exc.stats})")
            print(exc.counterexample.describe())
            if metrics is not None:
                if exc.stats is not None:
                    metrics.record_stats(exc.stats)
                metrics.record_violation(
                    error_type=type(exc.counterexample.error).__name__,
                    prefix=exc.counterexample.prefix,
                    schedule=exc.counterexample.schedule)
                if not metrics.ddmin_replays:
                    metrics.ddmin_replays = \
                        exc.counterexample.ddmin_attempts
                settle_metrics()
            exit_code = max(exit_code, 1)
            continue
        except AssertionError as exc:
            # The naive engine reports the bare failure; only DPOR
            # shrinks it to a replayable counterexample.
            print(f"[{name}] PROPERTY VIOLATED: {exc}")
            print(f"[{name}] (rerun without --naive for a shrunk "
                  f"counterexample)")
            if metrics is not None:
                metrics.record_violation(error_type=type(exc).__name__)
                settle_metrics()
            exit_code = max(exit_code, 1)
            continue
        except ExplorationInterrupted as exc:
            # Graceful degradation: the budget stopped the sweep before
            # the tree was done.  Partial coverage is reported (flagged
            # ``"partial": true`` in the metrics record) and the
            # distinct exit code 3 separates "ran out of budget" from
            # "found a violation" (1) and "bad invocation" (2).
            print(f"[{name}] INTERRUPTED ({exc.reason}): {exc}",
                  file=sys.stderr)
            if metrics is not None:
                metrics.record_interrupted(exc.reason, exc.stats)
                settle_metrics()
            exit_code = max(exit_code, 3)
            continue
        except FrontierMismatch as exc:
            # Resuming under a different configuration would merge
            # statistics from two different state spaces; reject like
            # a mismatched sweep --resume seed (exit 2).
            print(f"[{name}] RESUME REJECTED: {exc}", file=sys.stderr)
            exit_code = max(exit_code, 2)
            continue
        except RuntimeError as exc:
            print(f"[{name}] BUDGET EXCEEDED: {exc}", file=sys.stderr)
            if metrics is not None:
                metrics.record_budget_exceeded()
                settle_metrics()
            exit_code = max(exit_code, 2)
            continue
        settle_metrics()
        if stats.truncated_runs:
            print(f"[{name}] PASSED up to depth {max_steps} "
                  f"(bounded: {stats})")
        else:
            print(f"[{name}] PASSED: {stats}")
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
    from .lint import FootprintViolation, audit_scenario
    from .scenarios import check_scenarios

    jobs, jobs_error = _resolve_jobs_arg(args.jobs)
    if jobs_error is not None:
        print(f"audit: {jobs_error}", file=sys.stderr)
        return 2
    scenarios = check_scenarios(n=args.n, x=args.x)
    if args.scenario == "all":
        names = list(scenarios)
    elif args.scenario in scenarios:
        names = [args.scenario]
    else:
        print(f"unknown scenario {args.scenario!r}; one of: "
              f"all, {', '.join(scenarios)}", file=sys.stderr)
        return 2

    collect_metrics = args.metrics or args.metrics_out
    records = []
    exit_code = 0
    for name in names:
        sc = scenarios[name]
        if collect_metrics:
            from time import perf_counter

            from .analysis.metrics import RunMetrics
            wall_start = perf_counter()

        def settle_metrics(outcome, report=None):
            if not collect_metrics:
                return
            data = {"outcome": outcome, "jobs": jobs if jobs else 1,
                    "wall_seconds": perf_counter() - wall_start}
            if report is not None:
                # Adversary reprs carry the seeds (see lint.audit):
                # the record alone reproduces a randomized audit.
                data.update(runs=report.runs,
                            audited_ops=report.audited_ops,
                            adversaries=list(report.adversaries))
            records.append(
                RunMetrics(kind="audit", name=name, data=data).to_dict())
        try:
            report = audit_scenario(sc, max_steps=args.max_steps,
                                    perturb=not args.no_perturb,
                                    jobs=jobs)
        except FootprintViolation as exc:
            print(f"[{name}] FOOTPRINT VIOLATION")
            print(exc)
            settle_metrics("violation")
            exit_code = max(exit_code, 1)
            continue
        except RuntimeError as exc:
            print(f"[{name}] BUDGET EXCEEDED: {exc}", file=sys.stderr)
            settle_metrics("budget_exceeded")
            exit_code = max(exit_code, 2)
            continue
        settle_metrics("passed", report)
        print(f"[{name}] AUDIT PASSED: {report}")
    _emit_metrics(records, args.metrics, args.metrics_out)
    return exit_code


def cmd_mutants(args: argparse.Namespace) -> int:
    """Run the mutation-soundness harness (see ``repro.mutants``)."""
    from .mutants import MUTANTS, get_mutant

    if args.list:
        for mutant in MUTANTS:
            print(f"{mutant.name:26s} [{mutant.expected_stage:7s}] "
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

    Binds ``--bind HOST:PORT`` (port 0 = ephemeral; the bound address
    is printed as ``[serve] listening on HOST:PORT`` before any shard
    runs), serves frontier shards to ``python -m repro worker``
    clients, and degrades to in-process execution when no workers show
    up (or all of them vanish).  Exit codes mirror ``check``: 0 pass,
    1 violation, 2 configuration error, 3 budget interrupt.  With
    ``--checkpoint``/``--resume`` the run is durable exactly like
    ``check --checkpoint`` -- the store fingerprint excludes the
    transport, so a killed ``serve`` resumes under a plain ``check
    --resume`` and vice versa.
    """
    import os

    from .runtime import (CounterexampleFound, ExplorationInterrupted,
                          FrontierMismatch, FrontierStore)
    from .runtime.netshard import ShardServer
    from .runtime.parallel import explore_parallel
    from .scenarios import ScenarioRef, check_scenarios

    bind, bind_error = _parse_hostport(args.bind, "--bind")
    if bind_error is not None:
        print(f"serve: {bind_error}", file=sys.stderr)
        return 2
    checkpoint_path = args.checkpoint or args.resume
    if args.checkpoint and args.resume:
        print("serve: --checkpoint and --resume are mutually exclusive",
              file=sys.stderr)
        return 2
    scenarios = check_scenarios(n=args.n, x=args.x)
    name = args.scenario
    if name not in scenarios:
        if name.startswith("generated:"):
            from .scenarios import build_scenario
            try:
                scenarios[name] = build_scenario(name)
            except KeyError as exc:
                print(f"serve: {exc.args[0]}", file=sys.stderr)
                return 2
        else:
            print(f"unknown scenario {name!r}; try 'check --list'",
                  file=sys.stderr)
            return 2
    sc = scenarios[name]
    max_steps = args.max_steps or sc.max_steps
    max_runs = args.max_runs or sc.max_runs

    frontier = None
    if checkpoint_path:
        frontier = FrontierStore(checkpoint_path)
        if args.resume:
            if not frontier.exists():
                print(f"[{name}] RESUME REJECTED: no frontier store "
                      f"at {checkpoint_path}", file=sys.stderr)
                return 2
            try:
                frontier.load()
            except (OSError, ValueError) as exc:
                print(f"[{name}] RESUME REJECTED: unreadable frontier "
                      f"store {checkpoint_path}: {exc}",
                      file=sys.stderr)
                return 2
            print(f"[{name}] resuming from {checkpoint_path}")
        elif os.path.exists(args.checkpoint):
            os.unlink(args.checkpoint)

    server = ShardServer(
        bind[0], bind[1],
        config={"scenario": name, "n": args.n, "x": args.x,
                "max_steps": max_steps, "max_runs": max_runs,
                "reduction": "dpor"},
        lease_timeout=args.lease_timeout,
        solo_after=args.solo_after,
        announce=lambda host, port: print(
            f"[serve] listening on {host}:{port}", flush=True))

    collect_metrics = args.metrics or args.metrics_out
    metrics = None
    records = []
    if collect_metrics:
        from time import perf_counter

        from .analysis.metrics import ExplorationMetrics
        metrics = ExplorationMetrics(scenario=name, engine="dpor",
                                     jobs=1)
        wall_start = perf_counter()

    def settle_metrics():
        if metrics is not None:
            metrics.record_network(server.tallies)
            records.append(metrics.finalize(
                perf_counter() - wall_start).to_dict())
            _emit_metrics(records, args.metrics, args.metrics_out)

    from time import monotonic
    deadline = monotonic() + args.timeout if args.timeout else None
    print(f"[{name}] {sc.description}")
    print(f"[{name}] serving shards (dpor, max_steps={max_steps}, "
          f"max_runs={max_runs}) ...", flush=True)
    try:
        stats = explore_parallel(
            crash_plan_factory=sc.crash_plan_factory,
            max_steps=max_steps, max_runs=max_runs, jobs=1,
            reduction="dpor",
            scenario=ScenarioRef(name, n=args.n, x=args.x),
            metrics=metrics, deadline=deadline,
            frontier=frontier, pool=server)
    except CounterexampleFound as exc:
        print(f"[{name}] PROPERTY VIOLATED ({exc.stats})")
        print(exc.counterexample.describe())
        if metrics is not None:
            if exc.stats is not None:
                metrics.record_stats(exc.stats)
            metrics.record_violation(
                error_type=type(exc.counterexample.error).__name__,
                prefix=exc.counterexample.prefix,
                schedule=exc.counterexample.schedule)
            if not metrics.ddmin_replays:
                metrics.ddmin_replays = exc.counterexample.ddmin_attempts
            settle_metrics()
        return 1
    except ExplorationInterrupted as exc:
        print(f"[{name}] INTERRUPTED ({exc.reason}): {exc}",
              file=sys.stderr)
        if metrics is not None:
            metrics.record_interrupted(exc.reason, exc.stats)
            settle_metrics()
        return 3
    except FrontierMismatch as exc:
        print(f"[{name}] RESUME REJECTED: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"[{name}] BUDGET EXCEEDED: {exc}", file=sys.stderr)
        if metrics is not None:
            metrics.record_budget_exceeded()
            settle_metrics()
        return 2
    settle_metrics()
    tallies = server.tallies
    print(f"[serve] {tallies['remote_shards']} shard(s) remote, "
          f"{tallies['inprocess_shards']} in-process, "
          f"{tallies['reconnects']} reconnect(s), "
          f"{tallies['stale_rejections']} stale rejection(s)")
    if stats.truncated_runs:
        print(f"[{name}] PASSED up to depth {max_steps} "
              f"(bounded: {stats})")
    else:
        print(f"[{name}] PASSED: {stats}")
    return 0


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
    p.add_argument("--naive", action="store_true",
                   help="disable partial-order reduction (enumerate "
                        "every interleaving)")
    p.add_argument("--jobs", default=None, metavar="N",
                   help="shard exploration across N worker processes "
                        "('auto' = cpu count); run counts are identical "
                        "for every N")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="journal the exploration to a durable frontier "
                        "store at PATH (fresh store; overwrites an "
                        "existing one -- see --resume), so a killed run "
                        "can continue; implies --jobs 1 unless --jobs "
                        "is given (see docs/resumable_exploration.md)")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="continue an interrupted --checkpoint "
                        "exploration from the frontier store at PATH; "
                        "the store's configuration fingerprint must "
                        "match this invocation (exit 2 otherwise), and "
                        "final statistics are bit-for-bit identical to "
                        "an uninterrupted run")
    p.add_argument("--metrics", action="store_true",
                   help="print a per-scenario observability summary "
                        "(phases, prune/sleep rates, runs/sec)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write one JSON-lines run record per scenario "
                        "to PATH (atomic; schema in "
                        "docs/observability.md)")
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
                   help="wall-clock budget; on expiry the run stops "
                        "cleanly and exits 3")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="journal the exploration to a durable frontier "
                        "store at PATH (fresh store); a killed serve "
                        "resumes via --resume here or via plain "
                        "'check --resume' -- the store is "
                        "transport-agnostic")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="continue an interrupted checkpointed run from "
                        "the frontier store at PATH (exit 2 if the "
                        "store is missing, unreadable, or fingerprint-"
                        "mismatched)")
    p.add_argument("--lease-timeout", type=float, default=10.0,
                   metavar="SECONDS",
                   help="seconds a shard lease survives without a "
                        "heartbeat before re-grant (default 10)")
    p.add_argument("--solo-after", type=float, default=5.0,
                   metavar="SECONDS",
                   help="seconds to wait for a first worker before "
                        "executing shards in-process (default 5)")
    p.add_argument("--metrics", action="store_true",
                   help="print an observability summary (includes the "
                        "per-connection net tallies)")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the JSON-lines run record to PATH "
                        "(atomic; 'net' key carries transport tallies)")
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
