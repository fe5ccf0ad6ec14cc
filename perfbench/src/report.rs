//! Reply checking, per-verb accounting and the result line.

use crate::plan::{Op, Plan, Verb, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Length of the blocks a busy span is cut into (about). CPU per reply
/// and goodput are interquartile means over the blocks, so the stalled
/// quarter of the blocks does not move them.
const BLOCK: Duration = Duration::from_millis(500);

/// One reply and its latency, send to reply line.
pub struct Sample {
    pub reply: String,
    pub nanos: u64,
    /// Part of a busy span: the timed phase (not warm-up, not restart
    /// checks) while every connection is busy.
    pub timed: bool,
    /// When the reply arrived.
    pub at: Instant,
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile mean of `values`: the mean of the middle half, sorted
/// (0 when empty). Over a run's blocks it averages the host's fast and
/// slow spells in proportion, where a median jumps from one to the
/// other, and it still drops the stalled quarter.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (n, q) = (sorted.len(), sorted.len() / 4);
    let middle = &sorted[q..n - q];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    if q == 0.5 && sorted.len().is_multiple_of(2) {
        let mid = sorted.len() / 2;
        return (sorted[mid - 1] + sorted[mid]) / 2.0;
    }
    sorted[rank - 1]
}

/// CPU ticks at `t`, interpolated between the readings around it.
fn ticks_at(ticks: &[(Instant, u64)], t: Instant) -> f64 {
    let i = ticks.partition_point(|(at, _)| *at <= t);
    match (i.checked_sub(1).map(|j| ticks[j]), ticks.get(i)) {
        (Some((a, x)), Some((b, y))) => {
            let f = (t - a).as_secs_f64() / (*b - a).as_secs_f64().max(1e-9);
            x as f64 + f * (*y as f64 - x as f64)
        }
        (Some((_, x)), None) => x as f64,
        (None, _) => ticks.first().map_or(0.0, |(_, x)| *x as f64),
    }
}

/// The version an `OK <version> …` reply names.
pub fn reply_version(reply: &str) -> Option<u64> {
    reply.strip_prefix("OK ")?.split(' ').next()?.parse().ok()
}

/// Per-verb counts and timed latencies.
#[derive(Default)]
pub struct VerbStats {
    pub attempted: usize,
    pub failed: usize,
    /// Timed-phase latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// How a reply compares with the model.
enum Check {
    /// The request failed (an `ERR` reply, or a restart that lost
    /// acknowledged commits).
    Failed(String),
    /// The reply is wrong: verdict, strategy or version disagree with
    /// the model.
    Wrong(String),
}

/// Everything one run measured and checked.
pub struct Outcome {
    pub workload: Workload,
    pub verbs: BTreeMap<Verb, VerbStats>,
    /// Replies that disagreed with the model (the first few kept).
    pub wrong: Vec<String>,
    pub wrong_count: usize,
    pub failures: Vec<String>,
    /// Over all rounds' busy spans (see [`Sample::timed`]): seconds,
    /// replies, correct replies, and server CPU milliseconds.
    pub busy_s: f64,
    pub busy_ops: usize,
    pub busy_correct: usize,
    pub busy_cpu_ms: f64,
    /// When the current round's last timed reply arrived.
    round_end: Option<Instant>,
    /// The current round's timed replies: arrival, and whether correct.
    round_replies: Vec<(Instant, bool)>,
    /// Per block of a busy span (see [`BLOCK`]): correct replies per
    /// second, and server CPU milliseconds per reply.
    pub block_goodput: Vec<f64>,
    pub block_cpu_ms_per_op: Vec<f64>,
    pub peak_rss_kib: u64,
    pub store_bytes: u64,
    pub setup_s: f64,
    pub recovery: Vec<f64>,
    /// UPDATE replies decided by the optimized strategy / all UPDATEs.
    pub optimized_updates: usize,
    pub updates: usize,
    pub commits: u64,
}

impl Outcome {
    pub fn new(plan: &Plan) -> Outcome {
        Outcome {
            workload: plan.workload,
            verbs: BTreeMap::new(),
            wrong: Vec::new(),
            wrong_count: 0,
            failures: Vec::new(),
            busy_s: 0.0,
            busy_ops: 0,
            busy_correct: 0,
            busy_cpu_ms: 0.0,
            round_end: None,
            round_replies: Vec::new(),
            block_goodput: Vec::new(),
            block_cpu_ms_per_op: Vec::new(),
            peak_rss_kib: 0,
            store_bytes: 0,
            setup_s: 0.0,
            recovery: Vec::new(),
            optimized_updates: 0,
            updates: 0,
            commits: plan.commits.iter().sum(),
        }
    }

    pub fn attempted(&self) -> usize {
        self.verbs.values().map(|v| v.attempted).sum()
    }

    pub fn failed(&self) -> usize {
        self.verbs.values().map(|v| v.failed).sum()
    }

    fn note(&mut self, verb: Verb, check: Result<(), Check>) -> bool {
        let stats = self.verbs.entry(verb).or_default();
        stats.attempted += 1;
        match check {
            Ok(()) => true,
            Err(Check::Failed(why)) => {
                stats.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(why);
                }
                false
            }
            Err(Check::Wrong(why)) => {
                self.wrong_count += 1;
                if self.wrong.len() < 8 {
                    self.wrong.push(why);
                }
                false
            }
        }
    }

    /// Checks one reply against the model and accounts for it.
    pub fn record(&mut self, plan: &Plan, op: &Op, sample: Sample) {
        if op.verb == Verb::Update {
            self.updates += 1;
            if sample.reply.contains(" APPLIED optimized")
                || sample.reply.contains(" REJECTED optimized")
            {
                self.optimized_updates += 1;
            }
        }
        let check = check_reply(plan, op, &sample.reply);
        let ok = self.note(op.verb, check);
        if sample.timed {
            self.verbs
                .entry(op.verb)
                .or_default()
                .latencies_ms
                .push(sample.nanos as f64 / 1e6);
            self.busy_ops += 1;
            self.busy_correct += usize::from(ok);
            self.round_end = self.round_end.max(Some(sample.at));
            self.round_replies.push((sample.at, ok));
        }
    }

    /// Accounts for one restart: every document must come back at the
    /// version its previous incarnation acknowledged.
    pub fn restart(&mut self, acknowledged: &[u64], found: &[Option<u64>]) {
        let lost: Vec<String> = acknowledged
            .iter()
            .zip(found)
            .enumerate()
            .filter(|(_, (a, f))| Some(**a) != **f)
            .map(|(doc, (a, f))| format!("document {doc}: acknowledged {a}, restarted at {f:?}"))
            .collect();
        let check = if lost.is_empty() {
            Ok(())
        } else {
            Err(Check::Failed(format!(
                "restart lost acknowledged commits: {}",
                lost.join("; ")
            )))
        };
        self.note(Verb::Restart, check);
    }

    /// Closes a round whose busy span began at `start`, given the
    /// server's CPU readings `ticks` (instant, clock ticks, `hz` per
    /// second): adds the span's length and the server CPU it took, and
    /// the figures of each of its blocks: the span cut evenly into
    /// pieces as close to [`BLOCK`] as the span allows.
    pub fn end_round(&mut self, start: Instant, ticks: &[(Instant, u64)], hz: f64) {
        let replies = std::mem::take(&mut self.round_replies);
        let Some(end) = self.round_end.take() else {
            return;
        };
        self.busy_s += (end - start).as_secs_f64();
        self.busy_cpu_ms += (ticks_at(ticks, end) - ticks_at(ticks, start)) / hz * 1e3;
        let span = end - start;
        let blocks = (span.as_secs_f64() / BLOCK.as_secs_f64()).round().max(1.0) as u32;
        let length = span / blocks;
        for k in 0..blocks {
            let (from, to) = (start + length * k, start + length * (k + 1));
            let inside = replies.iter().filter(|(at, _)| *at > from && *at <= to);
            let (count, correct) = inside.fold((0usize, 0usize), |(n, c), (_, ok)| {
                (n + 1, c + usize::from(*ok))
            });
            if count == 0 {
                continue;
            }
            self.block_goodput
                .push(correct as f64 / length.as_secs_f64().max(1e-9));
            let cpu_ms = (ticks_at(ticks, to) - ticks_at(ticks, from)) / hz * 1e3;
            self.block_cpu_ms_per_op.push(cpu_ms / count as f64);
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong_count == 0
    }
}

/// Checks `reply` to `op` against the plan's model.
fn check_reply(plan: &Plan, op: &Op, reply: &str) -> Result<(), Check> {
    let what = || format!("{} on document {}: {reply:.160}", op.verb.name(), op.doc);
    if reply.starts_with("ERR") {
        return Err(Check::Failed(what()));
    }
    let version = reply_version(reply)
        .ok_or_else(|| Check::Wrong(format!("unparsable reply to {}", what())))?;
    let detail = reply.splitn(3, ' ').nth(2).unwrap_or("");
    match op.version {
        Some(v) if v != version => {
            return Err(Check::Wrong(format!(
                "expected version {v}, got {}",
                what()
            )));
        }
        None if version > plan.commits[op.doc] => {
            return Err(Check::Wrong(format!(
                "version past every commit: {}",
                what()
            )));
        }
        _ => {}
    }
    let expected = plan
        .expected(op, version)
        .map_err(|e| Check::Wrong(format!("{e}: {}", what())))?;
    let strategy = if op.insertion {
        "optimized"
    } else {
        "full-with-rollback"
    };
    let agrees = match (op.verb, expected) {
        (Verb::Update, None) => detail == format!("APPLIED {strategy}"),
        (Verb::Update, Some(_)) => detail.starts_with(&format!("REJECTED {strategy} ")),
        (Verb::Decide, None) => detail == "LEGAL",
        (Verb::Decide, Some(_)) => detail.starts_with("ILLEGAL "),
        (Verb::Check, None) => detail == "CONSISTENT",
        (Verb::Check, Some(_)) => detail.starts_with("VIOLATION "),
        (Verb::Restart, _) => detail.is_empty(),
    };
    if agrees {
        Ok(())
    } else {
        Err(Check::Wrong(format!(
            "model expects {expected:?} ({strategy}), got {}",
            what()
        )))
    }
}

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics of a socket run, in `BENCHMARK.json` order.
/// Goodput is left out: it carries every stall of the host in its tail
/// and moved between runs of the same code by more than any bound, so
/// [`describe`] reports it unbound.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let p50 = |verb: Verb| {
        out.verbs
            .get(&verb)
            .map_or(0.0, |v| median(&v.latencies_ms))
    };
    vec![
        Metric {
            name: "update_p50_ms",
            unit: "ms",
            value: p50(Verb::Update),
        },
        Metric {
            name: "decide_p50_ms",
            unit: "ms",
            value: p50(Verb::Decide),
        },
        Metric {
            name: "server_cpu_ms_per_op",
            unit: "ms",
            value: interquartile_mean(&out.block_cpu_ms_per_op),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: out.setup_s,
        },
        Metric {
            name: "recovery_s",
            unit: "s",
            value: median(&out.recovery),
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: out.peak_rss_kib as f64 / 1024.0,
        },
        Metric {
            name: "store_bytes_per_commit",
            unit: "B",
            value: out.store_bytes as f64 / out.commits.max(1) as f64,
        },
    ]
}

/// Human-readable lines: per-verb counts and latency tails, then every
/// metric by name and unit.
pub fn describe(out: &Outcome, metrics: &[Metric]) -> String {
    let mut s = String::new();
    for (verb, stats) in &out.verbs {
        let lat = &stats.latencies_ms;
        let _ = write!(
            s,
            "verb {:<8} attempted={} failed={}",
            verb.name(),
            stats.attempted,
            stats.failed
        );
        // A tail with fewer than ten samples beyond it is marked `*`:
        // it says little about the tail.
        if !lat.is_empty() {
            let _ = write!(s, " timed_n={}", lat.len());
            for (name, q, needs) in [("p50", 0.5, 1), ("p90", 0.9, 100), ("p99", 0.99, 1000)] {
                let mark = if lat.len() < needs { "*" } else { "" };
                let _ = write!(s, " {name}_ms={:.4}{mark}", quantile(lat, q));
            }
        }
        s.push('\n');
    }
    for m in metrics {
        let _ = writeln!(s, "metric {} = {} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        s,
        "metric goodput_ops_s = {} 1/s (reported, not bound)",
        interquartile_mean(&out.block_goodput)
    );
    if let Some(check) = out
        .verbs
        .get(&Verb::Check)
        .filter(|v| !v.latencies_ms.is_empty())
    {
        let _ = writeln!(
            s,
            "metric check_p50_ms = {} ms (reported, not bound)",
            median(&check.latencies_ms)
        );
    }
    let _ = writeln!(
        s,
        "info commits_per_round={} optimized_updates={}/{} busy_ops={} busy_s={:.3} \
         blocks={} busy_goodput_ops_s={:.4} busy_cpu_ms_per_op={:.4}",
        out.commits,
        out.optimized_updates,
        out.updates,
        out.busy_ops,
        out.busy_s,
        out.block_goodput.len(),
        out.busy_correct as f64 / out.busy_s.max(1e-9),
        out.busy_cpu_ms / out.busy_ops.max(1) as f64
    );
    for f in &out.failures {
        let _ = writeln!(s, "failed {f}");
    }
    for w in &out.wrong {
        let _ = writeln!(s, "WRONG {w}");
    }
    s
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
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
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust prints.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.9), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[9.0, 2.0, 3.0, 100.0]), 6.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            true,
            3,
            1,
            &[Metric {
                name: "x_ms",
                unit: "ms",
                value: 1.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert_eq!(reply_version("OK 12 APPLIED optimized"), Some(12));
        assert_eq!(reply_version("ERR nope"), None);
    }
}
