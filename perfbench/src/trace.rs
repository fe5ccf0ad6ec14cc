//! The traced run: the same plan replayed in-process, one operation at
//! a time, calling each layer's public function directly and timing
//! every call.
//!
//! The replay keeps the state a server keeps, split by layer: its own
//! copy of each document (advanced by `xic_xml::apply`, rolled back by
//! `undo` where the baseline rejects), its own journal (appended and
//! fsynced per commit), a probe `Checker` for the optimized pre-update
//! check, and the service `xic-serve` would run (a `CheckerService`
//! over a store, or a `ShardSet`) for `submit`, snapshot reads and
//! restarts. Every service reply is rendered as its protocol line and
//! checked against the verdict model exactly as in the socket run.
//!
//! The replay runs twice, untraced and then traced, on fresh state; the
//! ratio of their wall times is the tracing overhead.

use crate::plan::{Plan, Verb};
use crate::report::{json_number, median, Metric, Outcome, Sample};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xic_mapping::map_update;
use xic_obs::Counter;
use xic_xml::{apply, parse_document, undo, Document, Dtd, Journal, RecordKind, XUpdateDoc};
use xicheck::protocol::{parse_command, Command};
use xicheck::{
    live_set, read_footprints, xpath_resolver, Checker, CheckerError, CheckerService,
    IndependenceIndex, ReadFootprint, ReadSnapshot, ServiceConfig, ShardSet, ShardSetConfig,
    SharedGamma, Strategy, SubmitOutcome, UpdateOutcome,
};

/// Repeats of each set-up measurement; the metric is their median.
const SETUP_REPEATS: usize = 3;

const US: f64 = 1e6;
const MS: f64 = 1e3;

/// Times calls when on; when off, only runs them.
struct Tracer {
    on: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
    covered: Duration,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            samples: BTreeMap::new(),
            covered: Duration::ZERO,
        }
    }

    /// Runs `f`, recording its duration under `name` in units of
    /// `1/scale` seconds.
    fn time<T>(&mut self, name: &'static str, scale: f64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let value = f();
        let took = start.elapsed();
        self.covered += took;
        self.samples
            .entry(name)
            .or_default()
            .push(took.as_secs_f64() * scale);
        value
    }

    /// Records a per-call value (a count or a share) under `name`.
    fn value(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(v);
        }
    }

    /// Runs a check, recording its time and the XPath nodes and XQuery
    /// bindings it visited.
    fn check<T>(&mut self, names: [&'static str; 3], f: impl FnOnce() -> T) -> T {
        let nodes = xic_obs::counter(Counter::XpathNodesVisited);
        let bindings = xic_obs::counter(Counter::XqueryBindingsVisited);
        let value = self.time(names[0], MS, f);
        self.value(
            names[1],
            (xic_obs::counter(Counter::XpathNodesVisited) - nodes) as f64,
        );
        self.value(
            names[2],
            (xic_obs::counter(Counter::XqueryBindingsVisited) - bindings) as f64,
        );
        value
    }
}

/// The service the replay commits through, as `xic-serve` runs it.
enum Service {
    Single(Arc<CheckerService>),
    Sharded(ShardSet),
}

impl Service {
    fn submit(&self, doc: usize, stmt: &str) -> String {
        let result = match self {
            Service::Single(s) => s.submit(stmt).map_err(|e| e.to_string()),
            Service::Sharded(set) => set.submit(doc, stmt).map_err(|e| e.to_string()),
        };
        render_submit(result)
    }

    fn snapshot(&self, doc: usize) -> Result<Arc<ReadSnapshot>, String> {
        match self {
            Service::Single(s) => Ok(s.snapshot()),
            Service::Sharded(set) => set.snapshot(doc).map_err(|e| e.to_string()),
        }
    }

    fn versions(&self, docs: usize) -> Vec<Option<u64>> {
        (0..docs)
            .map(|d| self.snapshot(d).ok().map(|s| s.version()))
            .collect()
    }

    fn shutdown(&self) {
        match self {
            Service::Single(s) => drop(s.shutdown()),
            Service::Sharded(set) => drop(set.shutdown()),
        }
    }
}

fn strategy_word(s: Strategy) -> &'static str {
    match s {
        Strategy::Optimized => "optimized",
        Strategy::FullWithRollback => "full-with-rollback",
    }
}

/// A submission's result as its protocol reply line.
fn render_submit(result: Result<SubmitOutcome, String>) -> String {
    match result {
        Ok(out) => match out.outcome {
            UpdateOutcome::Applied { strategy } => {
                format!("OK {} APPLIED {}", out.version, strategy_word(strategy))
            }
            UpdateOutcome::Rejected {
                strategy,
                violation,
            } => {
                format!(
                    "OK {} REJECTED {} {}",
                    out.version,
                    strategy_word(strategy),
                    violation.denial
                )
            }
        },
        Err(e) => format!("ERR {e}"),
    }
}

/// A snapshot read's result as its protocol reply line.
fn render_read(
    version: u64,
    result: Result<Option<xicheck::Violation>, CheckerError>,
    ok: &str,
    bad: &str,
) -> String {
    match result {
        Ok(None) => format!("OK {version} {ok}"),
        Ok(Some(v)) => format!("OK {version} {bad} {}", v.denial),
        Err(e) => format!("ERR {e}"),
    }
}

/// One document's layer-by-layer state.
struct DocState {
    doc: Document,
    probe: Checker,
    /// Target paths (positions stripped) whose pattern the probe has
    /// compiled.
    patterns: std::collections::HashSet<String>,
    journal: Journal,
    commits: u64,
}

/// Compiled Γ and the independence index the layers share.
struct Layers {
    gamma: Arc<SharedGamma>,
    index: IndependenceIndex,
    read_fps: Vec<ReadFootprint>,
}

/// The statement inside a parsed request line.
fn statement(command: Command) -> Option<String> {
    match command {
        Command::Update(s, _) | Command::Decide(s, _) => Some(s),
        Command::Doc(_, inner) => statement(*inner),
        _ => None,
    }
}

/// Starts the service `xic-serve` would run over `store`.
fn start_service(plan: &Plan, store: &Path) -> Result<Service, String> {
    match plan.shards {
        Some(k) => {
            let bases = vec![plan.base_xml.as_str(); k];
            let config = ShardSetConfig {
                sync: true,
                ..Default::default()
            };
            let (set, _) = ShardSet::recover(store, &bases, &plan.dtd, &plan.gamma, config, true)
                .map_err(|e| e.to_string())?;
            Ok(Service::Sharded(set))
        }
        None => {
            let mut checker =
                Checker::new(&plan.base_xml, &plan.dtd, &plan.gamma).map_err(|e| e.to_string())?;
            checker
                .attach_store(store, true)
                .map_err(|e| e.to_string())?;
            Ok(Service::Single(CheckerService::with_config(
                checker,
                ServiceConfig::default(),
            )))
        }
    }
}

/// What one replay leaves behind.
struct Replay {
    tracer: Tracer,
    wall: Duration,
    /// Wall time of round 0's first `prefix` steps (the part the
    /// untraced replay also runs).
    prefix_wall: Duration,
    outcome: Outcome,
    journal_bytes: u64,
    commits: u64,
    probe_wrong: Vec<String>,
    skipped: usize,
    footprinted: usize,
}

/// The optimized pre-update check on the probe checker: `true` when it
/// rejects. A statement's pattern is compiled on first sight of its
/// target path, outside the timed call.
fn optimized(tracer: &mut Tracer, st: &mut DocState, stmt: &XUpdateDoc) -> Result<bool, String> {
    let target: String = stmt.ops[0]
        .select()
        .split('[')
        .map(|s| s.rsplit(']').next().unwrap_or(""))
        .collect();
    if !st.patterns.contains(&target) {
        st.probe.register_pattern(stmt).map_err(|e| e.to_string())?;
        st.patterns.insert(target);
    }
    let names = [
        "check.optimized_ms",
        "check.optimized_nodes",
        "check.optimized_bindings",
    ];
    tracer
        .check(names, || st.probe.check_optimized(stmt))
        .map(|v| v.is_some())
        .map_err(|e| e.to_string())
}

/// Replays every round: every connection's ops, interleaved
/// round-robin, then the round's restarts.
/// With `prefix_only`, stops after the first `prefix` steps of round 0:
/// the untraced replay the tracing overhead is measured against.
fn replay(
    plan: &Plan,
    layers: &Layers,
    dir: &Path,
    traced: bool,
    prefix: usize,
    prefix_only: bool,
) -> Result<Replay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut tracer = Tracer::new(traced);
    let mut outcome = Outcome::new(plan);
    let mut probe_wrong = Vec::new();
    let (mut skipped, mut footprinted) = (0usize, 0usize);
    let (mut wall, mut journal_bytes, mut commits) = (Duration::ZERO, 0, 0);
    let mut prefix_wall = Duration::ZERO;
    for round in 0..plan.rounds {
        let mut docs = Vec::new();
        for d in 0..plan.docs() {
            let (doc, _) = parse_document(&plan.base_xml).map_err(|e| e.to_string())?;
            let probe =
                Checker::from_shared(&plan.base_xml, &layers.gamma).map_err(|e| e.to_string())?;
            let crc = xic_xml::journal::crc32(plan.base_xml.as_bytes());
            let journal = Journal::create(&dir.join(format!("replay-{round}-{d}.wal")), crc, false)
                .map_err(|e| e.to_string())?;
            docs.push(DocState {
                doc,
                probe,
                patterns: Default::default(),
                journal,
                commits: 0,
            });
        }
        let store = dir.join(format!("store-{round}"));
        let service = start_service(plan, &store)?;
        let sharded = plan.sharded();
        let longest = plan.conns.iter().map(Vec::len).max().unwrap_or(0);

        let started = Instant::now();
        for i in 0..longest {
            if round == 0 && i == prefix {
                prefix_wall = started.elapsed();
                if prefix_only {
                    service.shutdown();
                    return Ok(Replay {
                        tracer,
                        wall: prefix_wall,
                        prefix_wall,
                        outcome,
                        journal_bytes,
                        commits,
                        probe_wrong,
                        skipped,
                        footprinted,
                    });
                }
            }
            for conn in &plan.conns {
                let Some(op) = conn.get(i) else { continue };
                let st = &mut docs[op.doc];
                let line = op.line(sharded);
                let command = tracer.time("protocol.parse_us", US, || parse_command(&line));
                let command = command.map_err(|e| format!("{line:.80}: {e}"))?;
                if op.verb == Verb::Check {
                    let snap = service.snapshot(op.doc)?;
                    let names = ["check.full_ms", "check.full_nodes", "check.full_bindings"];
                    let verdict = tracer.check(names, || snap.check_full());
                    let reply = render_read(snap.version(), verdict, "CONSISTENT", "VIOLATION");
                    outcome.record(
                        plan,
                        op,
                        Sample {
                            reply,
                            nanos: 0,
                            timed: i >= plan.warmup,
                            at: Instant::now(),
                        },
                    );
                    continue;
                }
                let text = statement(command).ok_or("request without a statement")?;
                let stmt = tracer.time("xupdate.parse_us", US, || XUpdateDoc::parse(&text));
                let stmt = stmt.map_err(|e| e.to_string())?;
                tracer.time("resolver.select_us", US, || {
                    stmt.ops
                        .iter()
                        .map(|o| xpath_resolver(&st.doc, o.select()).map(|n| n.len()))
                        .sum::<Result<usize, _>>()
                })?;
                let live = tracer.time("footprint.live_set_us", US, || {
                    let wfp = layers
                        .index
                        .write_footprint(&stmt, st.probe.nesting_trusted());
                    live_set(&layers.read_fps, &wfp)
                });
                let retained = live.iter().filter(|&&l| l).count();
                tracer.value("footprint.live_constraints", retained as f64);
                skipped += live.len() - retained;
                footprinted += live.len();

                // The replay is sequential, so the snapshot, the probe
                // checker and the model all stand at the same version.
                let snap = service.snapshot(op.doc)?;
                let expected = plan.expected(op, snap.version())?;
                if stmt.insertions_only() {
                    tracer
                        .time("mapping.map_update_us", US, || {
                            map_update(&st.doc, layers.gamma.schema(), &stmt, &xpath_resolver)
                                .map(|m| m.bindings.len())
                        })
                        .map_err(|e| e.to_string())?;
                    if optimized(&mut tracer, st, &stmt)? != expected.is_some() {
                        probe_wrong.push(format!(
                            "check_optimized disagrees with the model on {line:.120}"
                        ));
                    }
                }
                match op.verb {
                    Verb::Update => {
                        let legal = expected.is_none();
                        if legal || !stmt.insertions_only() {
                            tracer.time(
                                "xupdate.apply_undo_us",
                                US,
                                || -> Result<(), String> {
                                    let applied = apply(&mut st.doc, &stmt, &xpath_resolver)
                                        .map_err(|(e, _)| e.to_string())?;
                                    if !legal {
                                        undo(&mut st.doc, applied);
                                    }
                                    Ok(())
                                },
                            )?;
                        }
                        if legal {
                            st.commits += 1;
                            let (next, canonical) = (st.commits, stmt.to_xml());
                            tracer
                                .time("journal.append_us", US, || {
                                    st.journal.append(RecordKind::Commit, next, &canonical)
                                })
                                .map_err(|e| e.to_string())?;
                            tracer
                                .time("journal.fsync_ms", MS, || st.journal.sync_now())
                                .map_err(|e| e.to_string())?;
                            tracer.time("publish.clone_ms", MS, || drop(st.doc.clone()));
                            st.probe.apply_unchecked(&stmt).map_err(|e| e.to_string())?;
                        }
                        let reply =
                            tracer.time("service.submit_ms", MS, || service.submit(op.doc, &text));
                        outcome.record(
                            plan,
                            op,
                            Sample {
                                reply,
                                nanos: 0,
                                timed: i >= plan.warmup,
                                at: Instant::now(),
                            },
                        );
                    }
                    Verb::Decide => {
                        let verdict =
                            tracer.time("check.decide_full_ms", MS, || snap.decide_full(&stmt));
                        let reply = render_read(snap.version(), verdict, "LEGAL", "ILLEGAL");
                        outcome.record(
                            plan,
                            op,
                            Sample {
                                reply,
                                nanos: 0,
                                timed: i >= plan.warmup,
                                at: Instant::now(),
                            },
                        );
                    }
                    _ => unreachable!("CHECK handled above"),
                }
            }
        }
        wall += started.elapsed();
        journal_bytes += docs.iter().map(|d| d.journal.byte_len()).sum::<u64>();
        commits += docs.iter().map(|d| d.commits).sum::<u64>();

        // Restarts: what `xic-serve` runs at start-up, over the round's
        // store.
        let mut service = service;
        let mut acknowledged = plan.commits.clone();
        for restart in 0..plan.restarts {
            service.shutdown();
            drop(service);
            service = tracer.time("restart.recover_ms", MS, || start_service(plan, &store))?;
            let found = service.versions(plan.docs());
            outcome.restart(&acknowledged, &found);
            acknowledged = found.iter().map(|v| v.unwrap_or(0)).collect();
            if restart > 0 {
                continue;
            }
            for op in &plan.after_restart {
                let snap = service.snapshot(op.doc)?;
                let reply = match op.verb {
                    Verb::Check => {
                        render_read(snap.version(), snap.check_full(), "CONSISTENT", "VIOLATION")
                    }
                    _ => {
                        let stmt = XUpdateDoc::parse(&op.stmt).map_err(|e| e.to_string())?;
                        render_read(snap.version(), snap.decide_full(&stmt), "LEGAL", "ILLEGAL")
                    }
                };
                outcome.record(
                    plan,
                    op,
                    Sample {
                        reply,
                        nanos: 0,
                        timed: false,
                        at: Instant::now(),
                    },
                );
            }
        }
        service.shutdown();
    }
    Ok(Replay {
        tracer,
        wall,
        prefix_wall,
        outcome,
        journal_bytes,
        commits,
        probe_wrong,
        skipped,
        footprinted,
    })
}

/// The traced run's result: every per-layer metric plus the checks.
pub struct TraceRun {
    record: Vec<Metric>,
    outcome: Outcome,
    probe_wrong: Vec<String>,
}

impl TraceRun {
    pub fn correct(&self) -> bool {
        self.outcome.correct() && self.probe_wrong.is_empty()
    }

    pub fn attempted(&self) -> usize {
        self.outcome.attempted()
    }

    pub fn failed(&self) -> usize {
        self.outcome.failed()
    }

    /// The per-layer metrics every workload reports, in
    /// `BENCHMARK.json` order; an error names one the run did not
    /// measure.
    pub fn per_layer(&self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|name| {
                let m = self
                    .record
                    .iter()
                    .find(|m| m.name == *name)
                    .ok_or(format!("no {name} measured"))?;
                Ok(Metric {
                    name: m.name,
                    unit: m.unit,
                    value: m.value,
                })
            })
            .collect()
    }

    /// The trace record (every per-layer metric this workload
    /// exercises) and the verdict checks, as report lines.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for m in &self.record {
            let _ = writeln!(s, "layer {} = {} {}", m.name, m.value, m.unit);
        }
        let fields: Vec<String> = self
            .record
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let _ = writeln!(
            s,
            "trace-record {{\"workload\": \"{}\", \"host_cores\": {cores}, \"metrics\": {{{}}}}}",
            self.outcome.workload.name(),
            fields.join(", ")
        );
        for (verb, stats) in &self.outcome.verbs {
            let _ = writeln!(
                s,
                "verb {:<8} attempted={} failed={}",
                verb.name(),
                stats.attempted,
                stats.failed
            );
        }
        for f in &self.outcome.failures {
            let _ = writeln!(s, "failed {f}");
        }
        for w in self.outcome.wrong.iter().chain(&self.probe_wrong) {
            let _ = writeln!(s, "WRONG {w}");
        }
        s
    }
}

/// The per-layer metrics of `BENCHMARK.json`: the ones every workload
/// exercises.
pub const PER_LAYER: [&str; 24] = [
    "protocol.parse_us",
    "xupdate.parse_us",
    "resolver.select_us",
    "mapping.map_update_us",
    "footprint.live_set_us",
    "footprint.live_constraints",
    "footprint.skip_share",
    "check.optimized_ms",
    "check.optimized_nodes",
    "check.optimized_bindings",
    "check.decide_full_ms",
    "xupdate.apply_undo_us",
    "journal.append_us",
    "journal.fsync_ms",
    "journal.bytes_per_commit",
    "publish.clone_ms",
    "service.submit_ms",
    "load.parse_ms",
    "load.validate_ms",
    "compile.gamma_ms",
    "compile.pattern_ms",
    "restart.recover_ms",
    "trace.covered_share",
    "trace.overhead_ratio",
];

/// Units of the recorded metrics, by name suffix.
fn unit(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_share") || name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("_per_commit") {
        "B"
    } else {
        "count"
    }
}

/// Set-up layers: load, validate, compile Γ, and first-sight pattern
/// compilation, each repeated and reported as the median.
fn setup_layers(plan: &Plan, tracer: &mut Tracer) -> Result<Arc<SharedGamma>, String> {
    let mut gamma = None;
    for _ in 0..SETUP_REPEATS {
        let (doc, _) = tracer
            .time("load.parse_ms", MS, || parse_document(&plan.base_xml))
            .map_err(|e| e.to_string())?;
        let dtd = Dtd::parse(&plan.dtd)?;
        tracer
            .time("load.validate_ms", MS, || dtd.validate(&doc))
            .map_err(|e| e.to_string())?;
        gamma = Some(
            tracer
                .time("compile.gamma_ms", MS, || {
                    SharedGamma::compile(&plan.dtd, &plan.gamma)
                })
                .map_err(|e| e.to_string())?,
        );
    }
    let gamma = gamma.expect("at least one repeat");
    // One exemplar per insertion pattern the plan sends.
    let mut exemplars: Vec<XUpdateDoc> = Vec::new();
    let mut selects: Vec<String> = Vec::new();
    for op in plan
        .conns
        .iter()
        .flatten()
        .filter(|o| o.insertion && !o.stmt.is_empty())
    {
        let stmt = XUpdateDoc::parse(&op.stmt).map_err(|e| e.to_string())?;
        let select = stmt.ops[0]
            .select()
            .split('[')
            .next()
            .unwrap_or_default()
            .to_string();
        if !selects.contains(&select) {
            selects.push(select);
            exemplars.push(stmt);
        }
    }
    for _ in 0..SETUP_REPEATS {
        let mut fresh = Checker::from_shared(&plan.base_xml, &gamma).map_err(|e| e.to_string())?;
        for stmt in &exemplars {
            tracer
                .time("compile.pattern_ms", MS, || fresh.register_pattern(stmt))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(gamma)
}

/// Runs the set-up measurements, the untraced replay and the traced
/// replay under `dir`.
pub fn run(plan: &Plan, dir: &Path) -> Result<TraceRun, String> {
    let mut setup = Tracer::new(true);
    let gamma = setup_layers(plan, &mut setup)?;
    let layers = Layers {
        index: IndependenceIndex::new(gamma.dtd(), gamma.schema()),
        read_fps: read_footprints(gamma.constraints()),
        gamma,
    };
    // The untraced replay runs the first third of round 0 only; the
    // overhead compares the traced replay's time over the same steps.
    let prefix = plan.conns.iter().map(Vec::len).max().unwrap_or(0) / 3;
    let untraced = replay(plan, &layers, &dir.join("untraced"), false, prefix, true)?;
    let traced = replay(plan, &layers, &dir.join("traced"), true, prefix, false)?;

    let mut samples = setup.samples;
    samples.extend(traced.tracer.samples);
    let mut record: Vec<Metric> = Vec::new();
    let mut push = |name: &'static str, value: f64| {
        record.push(Metric {
            name,
            unit: unit(name),
            value,
        })
    };
    for (name, values) in &samples {
        let mean = || values.iter().sum::<f64>() / values.len() as f64;
        let value = match unit(name) {
            "count" => mean(),
            _ => median(values),
        };
        push(name, value);
    }
    push(
        "footprint.skip_share",
        traced.skipped as f64 / traced.footprinted.max(1) as f64,
    );
    push(
        "journal.bytes_per_commit",
        traced.journal_bytes as f64 / traced.commits.max(1) as f64,
    );
    push(
        "checker.optimized_share",
        traced.outcome.optimized_updates as f64 / traced.outcome.updates.max(1) as f64,
    );
    let wall = traced.wall.as_secs_f64();
    let covered: f64 = traced.tracer.covered.as_secs_f64() - restart_time(&samples);
    push("trace.covered_share", covered / wall);
    push(
        "trace.overhead_ratio",
        traced.prefix_wall.as_secs_f64() / untraced.prefix_wall.as_secs_f64(),
    );
    if plan.sharded() {
        if let Some(r) = samples.get("restart.recover_ms") {
            push("shards.recover_ms", median(r));
        }
    }
    record.sort_by_key(|m| m.name);
    let mut probe_wrong = untraced.probe_wrong;
    probe_wrong.extend(traced.probe_wrong);
    Ok(TraceRun {
        record,
        outcome: traced.outcome,
        probe_wrong,
    })
}

/// Seconds spent in the timed restarts (outside the replay's wall time).
fn restart_time(samples: &BTreeMap<&'static str, Vec<f64>>) -> f64 {
    samples
        .get("restart.recover_ms")
        .map(|v| v.iter().sum::<f64>() / MS)
        .unwrap_or(0.0)
}
