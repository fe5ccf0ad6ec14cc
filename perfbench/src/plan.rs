//! Seeded operation plans for the three workloads.
//!
//! A plan is everything one run does, fixed before it starts: the base
//! document, DTD and constraint set the server loads, and per client
//! connection a sequence of protocol requests (warm-up first, then the
//! timed phase), each with the reply the verdict model expects. The
//! same seed and run length give the same plan, so two runs do the same
//! work on a document that changes the same way.

use crate::model::{ReviewGamma, ReviewModel, ReviewOp, TenantAppend, TenantModel, Violated};
use xic_workload::multi::{generate_multi, MultiConfig};
use xic_workload::{
    conflict_constraint, generate, review_load_constraint, workload_constraint, WorkloadConfig,
};

/// The paper's DTD for the catalog + review corpus (§3.2).
pub const PAPER_DTD: &str = "<!ELEMENT collection (dblp, review)>\n\
    <!ELEMENT dblp (pub)*>\n<!ELEMENT pub (title, aut+)>\n<!ELEMENT aut (name)>\n\
    <!ELEMENT review (track)+>\n<!ELEMENT track (name,rev+)>\n<!ELEMENT rev (name, sub+)>\n\
    <!ELEMENT sub (title, auts+)>\n<!ELEMENT title (#PCDATA)>\n<!ELEMENT auts (name)>\n\
    <!ELEMENT name (#PCDATA)>";

/// Size of the paper-insert corpus.
pub const PAPER_INSERT_KIB: usize = 512;
/// Documents (shards) of the tenant-shards server.
pub const TENANT_SHARDS: usize = 8;
/// Tenant regions per document (two constraints each).
pub const TENANT_REGIONS: usize = 8;
/// Items per region in the tenant base document.
pub const TENANT_ITEMS: usize = 4;
/// Items a tenant region may hold.
pub const TENANT_CAP: usize = 48;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperInsert,
    BaselineMixed,
    TenantShards,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperInsert,
        Workload::BaselineMixed,
        Workload::TenantShards,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperInsert => "paper-insert",
            Workload::BaselineMixed => "baseline-mixed",
            Workload::TenantShards => "tenant-shards",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed operations per connection in one round, and seconds of
    /// `--seconds` one round stands for. A run is whole rounds, each on
    /// a fresh store and each ended by crash-restarts, so set-up and
    /// recovery are sampled across the run; tenant-shards' documents
    /// also start small again each round. Sized so the rounds fill
    /// about `--seconds` on a 2-core host; never depends on the seed.
    fn round_shape(self) -> (usize, usize) {
        match self {
            Workload::PaperInsert => (184, 4),
            Workload::BaselineMixed => (72, 4),
            Workload::TenantShards => (720, 1),
        }
    }

    /// Crash-restarts at the end of each round.
    fn restarts(self) -> usize {
        match self {
            // Each restart parses the 0.5 MiB corpus (~0.45 s).
            Workload::PaperInsert => 2,
            Workload::BaselineMixed => 8,
            Workload::TenantShards => 2,
        }
    }
}

/// A protocol verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    Update,
    Decide,
    Check,
    Restart,
}

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Update => "UPDATE",
            Verb::Decide => "DECIDE",
            Verb::Check => "CHECK",
            Verb::Restart => "restart",
        }
    }
}

/// Where an operation's expected verdict comes from.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Known when the plan is made: `None` legal / consistent,
    /// `Some(c)` rejected for `c`.
    Known(Option<Violated>),
    /// Depends on the version the reply names: the model decides the
    /// statement in the document's state at that version.
    AtVersion(ReviewOp),
}

/// One request and its expected reply.
#[derive(Debug, Clone)]
pub struct Op {
    /// Target document (shard id; 0 on a single-document server).
    pub doc: usize,
    pub verb: Verb,
    /// The XUpdate statement (empty for CHECK and VERSION).
    pub stmt: String,
    /// The version the reply must name, when the connection owns the
    /// document and so knows it exactly.
    pub version: Option<u64>,
    pub verdict: Verdict,
    /// Whether the statement only inserts; an UPDATE of such a
    /// statement is decided by the optimized strategy.
    pub insertion: bool,
}

impl Op {
    /// The request line, `DOC`-routed on a sharded server.
    pub fn line(&self, sharded: bool) -> String {
        let verb = match self.verb {
            Verb::Update => format!("UPDATE {}", self.stmt),
            Verb::Decide => format!("DECIDE {}", self.stmt),
            Verb::Check => "CHECK".to_string(),
            Verb::Restart => "VERSION".to_string(),
        };
        if sharded {
            format!("DOC {} {verb}", self.doc)
        } else {
            verb
        }
    }
}

/// Everything one run does.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub base_xml: String,
    pub dtd: String,
    pub gamma: String,
    /// `Some(k)`: a `--shards k` server, every shard seeded from
    /// `base_xml`.
    pub shards: Option<usize>,
    /// Per connection: warm-up ops, then timed ops. The connections
    /// take strict turns, one request in flight at a time.
    pub conns: Vec<Vec<Op>>,
    /// Times the connections' sequences run, each round on a fresh
    /// store and ended by [`Plan::restarts`] crash-restarts over it.
    pub rounds: usize,
    /// Warm-up ops at the head of each connection's sequence.
    pub warmup: usize,
    /// Per document: commits acknowledged once every op has run.
    pub commits: Vec<u64>,
    /// baseline-mixed: the document's model state at every version.
    pub history: Vec<ReviewModel>,
    /// Crash-restarts at the end of each round: each must come back at
    /// the version its predecessor acknowledged; `recovery_s` is their
    /// median.
    pub restarts: usize,
    /// Ops run after a round's first restart, per document, to show the
    /// acknowledged state survived (CHECK where the document is small,
    /// and on tenant documents a DECIDE that duplicates the last
    /// acknowledged key).
    pub after_restart: Vec<Op>,
    /// The corpus size in bytes before and after the plan's commits
    /// (estimated from statement sizes).
    pub corpus_bytes: (usize, usize),
    /// Human-readable Γ summary.
    pub gamma_summary: String,
}

impl Plan {
    pub fn sharded(&self) -> bool {
        self.shards.is_some()
    }

    /// Documents the server hosts.
    pub fn docs(&self) -> usize {
        self.shards.unwrap_or(1)
    }

    /// Every op a run attempts, restarts included.
    pub fn attempted(&self) -> usize {
        self.rounds
            * (self.conns.iter().map(Vec::len).sum::<usize>()
                + self.restarts
                + self.after_restart.len())
    }

    /// Verdict expected for `op` at reply version `version`, if the
    /// version is one the document reached.
    pub fn expected(&self, op: &Op, version: u64) -> Result<Option<Violated>, String> {
        match &op.verdict {
            Verdict::Known(v) => Ok(*v),
            Verdict::AtVersion(stmt) => {
                let mut state = self
                    .history
                    .get(version as usize)
                    .ok_or_else(|| format!("reply names version {version}, never reached"))?
                    .clone();
                state.decide(stmt)
            }
        }
    }
}

/// splitmix64: the plans' only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Zipf-like skew over `0..n`: index 0 is hottest.
    pub fn skewed(&mut self, n: usize) -> usize {
        let r = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        ((r * r) * n as f64) as usize % n.max(1)
    }
}

/// Builds the plan for `workload` from `seed`: whole rounds for
/// `seconds` seconds.
pub fn build(workload: Workload, seed: u64, seconds: u64) -> Result<Plan, String> {
    let (timed, seconds_per_round) = workload.round_shape();
    let mut plan = match workload {
        Workload::PaperInsert => paper_insert(seed, timed),
        Workload::BaselineMixed => baseline_mixed(seed, timed),
        Workload::TenantShards => tenant_shards(seed, timed),
    }?;
    plan.rounds = (seconds.max(1) as usize).div_ceil(seconds_per_round);
    plan.restarts = workload.restarts();
    Ok(plan)
}

/// Rough serialized size of an inserted submission, for the corpus
/// growth estimate.
fn statement_payload(op: &ReviewOp) -> isize {
    match op {
        ReviewOp::AppendSub { title, authors, .. } => {
            (24 + title.len() + authors.iter().map(|a| 25 + a.len()).sum::<usize>()) as isize
        }
        ReviewOp::RemoveSub { .. } => -110,
        _ => 0,
    }
}

fn paper_insert(seed: u64, timed: usize) -> Result<Plan, String> {
    let corpus = generate(WorkloadConfig::sized_kib(PAPER_INSERT_KIB, seed));
    let gamma = ReviewGamma {
        conflict: true,
        ..Default::default()
    };
    let mut model = ReviewModel::from_xml(&corpus.xml, gamma)?;
    if model.violation().is_some() {
        return Err("generated corpus violates the conflict constraint".into());
    }
    let mut rng = Rng::new(seed, 1);
    // Every reviewer in a seeded order; appends cycle through them.
    let mut reviewers: Vec<(usize, usize)> = (0..model.tracks.len())
        .flat_map(|t| (0..model.tracks[t].revs.len()).map(move |r| (t, r)))
        .collect();
    for i in (1..reviewers.len()).rev() {
        reviewers.swap(i, rng.below(i + 1));
    }
    let warmup = 16;
    let mut ops = Vec::with_capacity(warmup + timed);
    let mut version = 0u64;
    let mut growth = 0isize;
    for k in 0..warmup + timed {
        let (t, r) = reviewers[k % reviewers.len()];
        if k % 8 == 7 {
            // A hypothetical retitle: no constraint reads titles, so the
            // decision costs the snapshot copy and apply/undo only.
            let sub = rng.below(model.tracks[t].revs[r].subs.len());
            let op = ReviewOp::SetTitle {
                track: t,
                rev: r,
                sub,
                title: format!("Draft {seed}-{k}"),
            };
            let verdict = model.decide(&op)?;
            ops.push(Op {
                doc: 0,
                verb: Verb::Decide,
                stmt: op.xupdate(),
                version: Some(version),
                verdict: Verdict::Known(verdict),
                insertion: false,
            });
            continue;
        }
        let reviewer = model.tracks[t].revs[r].name.clone();
        let author = if k % 8 == 3 {
            // A fixed share is conflicted: the reviewer's own paper, or
            // one by a coauthor of the reviewer.
            let coauthors = model.coauthors_of(&reviewer);
            if coauthors.is_empty() || rng.below(2) == 0 {
                reviewer
            } else {
                coauthors[rng.below(coauthors.len())].clone()
            }
        } else {
            format!("fresh{seed}x{k:05}")
        };
        let op = ReviewOp::AppendSub {
            track: t,
            rev: r,
            title: format!("Paper {seed}-{k:05}"),
            authors: vec![author],
        };
        let verdict = model.commit(&op)?;
        if verdict.is_none() {
            version += 1;
            growth += statement_payload(&op);
        }
        ops.push(Op {
            doc: 0,
            verb: Verb::Update,
            stmt: op.xupdate(),
            version: Some(version),
            verdict: Verdict::Known(verdict),
            insertion: true,
        });
    }
    let base = corpus.xml.len();
    Ok(Plan {
        workload: Workload::PaperInsert,
        seed,
        base_xml: corpus.xml,
        dtd: PAPER_DTD.to_string(),
        gamma: conflict_constraint().to_string(),
        shards: None,
        conns: vec![ops],
        rounds: 1,
        warmup,
        commits: vec![version],
        history: Vec::new(),
        restarts: 0,
        // The corpus is too large for a full CHECK within a run.
        after_restart: Vec::new(),
        corpus_bytes: (base, (base as isize + growth) as usize),
        gamma_summary: "conflict of interest (Examples 1/3/6)".to_string(),
    })
}

/// [`name_for`] classes.
const OTHER_REVIEWER: usize = 2;
const FRESH: usize = 4;

/// A name for a rename or an appended author, by class: 0 the
/// reviewer (conflict), 1 a coauthor of the reviewer (conflict), 2
/// another reviewer's name (may push Example 2's aggregate over its
/// bound), 3 a catalog name (may be a coauthor), 4 a fresh name.
fn name_for(
    class: usize,
    rng: &mut Rng,
    model: &ReviewModel,
    t: usize,
    r: usize,
    serial: usize,
    pool: usize,
) -> String {
    let reviewer = &model.tracks[t].revs[r].name;
    match class {
        0 => reviewer.clone(),
        1 => {
            let coauthors = model.coauthors_of(reviewer);
            if coauthors.is_empty() {
                reviewer.clone()
            } else {
                coauthors[rng.below(coauthors.len())].clone()
            }
        }
        2 => {
            let t2 = rng.below(model.tracks.len());
            let r2 = rng.below(model.tracks[t2].revs.len());
            model.tracks[t2].revs[r2].name.clone()
        }
        3 => format!("author{:05}", rng.skewed(pool)),
        _ => format!("guest{serial:05}"),
    }
}

fn baseline_mixed(seed: u64, timed: usize) -> Result<Plan, String> {
    // A few tracks, so reviewer names recur across tracks and Example
    // 2's aggregate has something to count.
    let corpus = generate(WorkloadConfig {
        seed,
        pubs: 130,
        tracks: 3,
        revs_per_track: 6,
        subs_per_rev: 6,
        name_pool: 40,
    });
    let pool = corpus.config.name_pool;
    // Bounds from the corpus itself: consistent at the start, and
    // close enough that renames and appends can cross them.
    let probe = ReviewModel::from_xml(&corpus.xml, ReviewGamma::default())?;
    let min_tracks = 2;
    let mut per_name: std::collections::HashMap<&str, (std::collections::HashSet<usize>, usize)> =
        Default::default();
    for (t, track) in probe.tracks.iter().enumerate() {
        for rev in &track.revs {
            let e = per_name.entry(&rev.name).or_default();
            e.0.insert(t);
            e.1 += rev.subs.len();
        }
    }
    let max_subs = per_name
        .values()
        .filter(|(tracks, _)| tracks.len() >= min_tracks)
        .map(|(_, subs)| *subs)
        .max()
        .unwrap_or(0)
        .max(corpus.config.subs_per_rev)
        + 2;
    let review_load = probe
        .tracks
        .iter()
        .flat_map(|t| &t.revs)
        .map(|r| r.subs.len())
        .max()
        .unwrap_or(1);
    let gamma = ReviewGamma {
        conflict: true,
        workload: Some((min_tracks, max_subs)),
        review_load: Some(review_load),
    };
    let mut model = ReviewModel::from_xml(&corpus.xml, gamma)?;
    if let Some(v) = model.violation() {
        return Err(format!("generated corpus violates {v:?}"));
    }
    let gamma_text = format!(
        "{} . {} . {}",
        conflict_constraint(),
        workload_constraint(min_tracks, max_subs),
        review_load_constraint(review_load)
    );

    let mut rng = Rng::new(seed, 2);
    let warmup = 8;
    // The writer connection: non-insertion statements only, so every
    // one takes apply → full check → rollback.
    let writes = warmup + timed;
    let mut writer = Vec::with_capacity(writes);
    let mut history = vec![model.clone()];
    let mut growth = 0isize;
    for k in 0..writes {
        let t = rng.below(model.tracks.len());
        let r = rng.below(model.tracks[t].revs.len());
        let subs = model.tracks[t].revs[r].subs.len();
        let sub = rng.below(subs);
        // Fixed shares by position. Most statements are legal renames
        // to fresh names, so the median update is a full check that
        // finds nothing; the rest conflict, depend on the data (Example
        // 2), remove a submission, or retitle one (no constraint reads
        // titles).
        let mut name = |class: usize| name_for(class, &mut rng, &model, t, r, k, pool);
        let op = match k % 10 {
            0..=5 => ReviewOp::SetAuthor {
                track: t,
                rev: r,
                sub,
                name: name(FRESH),
            },
            6 => ReviewOp::SetRevName {
                track: t,
                rev: r,
                name: name(FRESH),
            },
            7 => ReviewOp::SetAuthor {
                track: t,
                rev: r,
                sub,
                name: name(k / 10 % 2),
            },
            8 => ReviewOp::SetRevName {
                track: t,
                rev: r,
                name: name(OTHER_REVIEWER),
            },
            // Removals keep at least two submissions per reviewer, so
            // the reader's statements on the first one always resolve.
            _ if subs > 2 && k % 20 == 9 => ReviewOp::RemoveSub {
                track: t,
                rev: r,
                sub: 1 + rng.below(subs - 1),
            },
            _ => ReviewOp::SetTitle {
                track: t,
                rev: r,
                sub,
                title: format!("Retitled {seed}-{k:05}"),
            },
        };
        let verdict = model.commit(&op)?;
        if verdict.is_none() {
            history.push(model.clone());
            growth += statement_payload(&op);
        }
        writer.push(Op {
            doc: 0,
            verb: Verb::Update,
            stmt: op.xupdate(),
            version: Some(history.len() as u64 - 1),
            verdict: Verdict::Known(verdict),
            insertion: false,
        });
    }

    // The reader connection alternates CHECK and DECIDE against
    // whatever snapshot is current. Its statements resolve in every
    // state the writer can produce: reviewers are never removed and
    // keep their first submission.
    // The connections take turns, so with as many reads as writes both
    // stay in the busy span to the end.
    let reads = warmup + timed;
    let mut reader = Vec::with_capacity(reads);
    let initial = &history[0];
    for k in 0..reads {
        if k % 2 == 0 {
            reader.push(Op {
                doc: 0,
                verb: Verb::Check,
                stmt: String::new(),
                version: None,
                verdict: Verdict::Known(None),
                insertion: false,
            });
            continue;
        }
        let t = rng.below(initial.tracks.len());
        let r = rng.below(initial.tracks[t].revs.len());
        let serial = 50_000 + k;
        let op = match (k / 2) % 8 {
            0..=4 => ReviewOp::SetRevName {
                track: t,
                rev: r,
                name: name_for(FRESH, &mut rng, initial, t, r, serial, pool),
            },
            5 => ReviewOp::AppendSub {
                track: t,
                rev: r,
                title: format!("Proposal {seed}-{k:05}"),
                authors: vec![name_for(k / 16 % 5, &mut rng, initial, t, r, serial, pool)],
            },
            6 => ReviewOp::SetAuthor {
                track: t,
                rev: r,
                sub: 0,
                name: name_for(k / 16 % 5, &mut rng, initial, t, r, serial, pool),
            },
            _ => ReviewOp::RemoveSub {
                track: t,
                rev: r,
                sub: 0,
            },
        };
        reader.push(Op {
            doc: 0,
            verb: Verb::Decide,
            stmt: op.xupdate(),
            version: None,
            insertion: op.is_insertion(),
            verdict: Verdict::AtVersion(op),
        });
    }
    let after_restart = vec![Op {
        doc: 0,
        verb: Verb::Check,
        stmt: String::new(),
        version: None,
        verdict: Verdict::Known(None),
        insertion: false,
    }];
    let base = corpus.xml.len();
    Ok(Plan {
        workload: Workload::BaselineMixed,
        seed,
        base_xml: corpus.xml,
        dtd: PAPER_DTD.to_string(),
        gamma: gamma_text,
        shards: None,
        conns: vec![writer, reader],
        rounds: 1,
        warmup,
        commits: vec![history.len() as u64 - 1],
        history,
        restarts: 0,
        after_restart,
        corpus_bytes: (base, (base as isize + growth) as usize),
        gamma_summary: format!(
            "conflict of interest + Example 2 (min_tracks {min_tracks}, max_subs {max_subs}) \
             + Example 7 (max_subs {review_load})"
        ),
    })
}

fn tenant_shards(seed: u64, timed: usize) -> Result<Plan, String> {
    let config = MultiConfig {
        seed,
        regions: TENANT_REGIONS,
        items_per_region: TENANT_ITEMS,
        cap: TENANT_CAP,
    };
    let corpus = generate_multi(config);
    let shards = TENANT_SHARDS;
    let mut models: Vec<TenantModel> = (0..shards)
        .map(|_| TenantModel::from_xml(&corpus.xml, TENANT_REGIONS, TENANT_CAP))
        .collect::<Result<_, _>>()?;
    if models[0].violation().is_some() {
        return Err("generated tenant corpus is inconsistent".into());
    }
    let mut versions = vec![0u64; shards];
    let mut last_key: Vec<(usize, String)> = vec![(0, "k-1-0".to_string()); shards];
    let warmup = TENANT_REGIONS + 2;
    let mut conns = Vec::new();
    let item_bytes = 60;
    let mut growth = 0usize;
    for c in 0..2 {
        let mut rng = Rng::new(seed, 10 + c as u64);
        let owned: Vec<usize> = (c..shards).step_by(2).collect();
        let mut ops = Vec::with_capacity(warmup + timed);
        for k in 0..warmup + timed {
            // Warm-up: one insert per region (first sight of every
            // region's pattern), then one CHECK and one DECIDE.
            let (doc, slot) = if k < warmup {
                (owned[0], k)
            } else {
                (owned[rng.skewed(owned.len())], (k - warmup) % 16)
            };
            let region = if k < TENANT_REGIONS {
                k
            } else {
                rng.below(TENANT_REGIONS)
            };
            let model = &mut models[doc];
            let fresh = TenantAppend {
                region,
                key: format!("t{seed}-{c}-{k:06}"),
                val: format!("v{k}"),
            };
            let duplicate = || {
                let items = &model.regions[region];
                let (key, _) = &items[(k * 7) % items.len()];
                TenantAppend {
                    region,
                    key: key.clone(),
                    val: "dup".into(),
                }
            };
            let (verb, op) = match (k < warmup, slot) {
                (true, s) if s == TENANT_REGIONS => (Verb::Check, None),
                (true, s) if s == TENANT_REGIONS + 1 => (Verb::Decide, Some(duplicate())),
                (false, 7) => (
                    Verb::Decide,
                    Some(if rng.below(2) == 0 {
                        duplicate()
                    } else {
                        fresh
                    }),
                ),
                (false, 3) | (false, 11) => (Verb::Update, Some(duplicate())),
                _ => (Verb::Update, Some(fresh)),
            };
            let verdict = match (&verb, &op) {
                (Verb::Update, Some(op)) => {
                    let v = model.commit(op)?;
                    if v.is_none() {
                        versions[doc] += 1;
                        growth += item_bytes + op.key.len();
                        last_key[doc] = (op.region, op.key.clone());
                    }
                    v
                }
                (Verb::Decide, Some(op)) => model.decide(op)?,
                _ => None,
            };
            ops.push(Op {
                doc,
                verb,
                stmt: op.as_ref().map(TenantAppend::xupdate).unwrap_or_default(),
                version: Some(versions[doc]),
                verdict: Verdict::Known(verdict),
                insertion: op.is_some(),
            });
        }
        conns.push(ops);
    }
    // After the restart: every shard must still be consistent and still
    // hold its last acknowledged insert (a duplicate of it is illegal).
    let mut after_restart = Vec::new();
    for doc in 0..shards {
        after_restart.push(Op {
            doc,
            verb: Verb::Check,
            stmt: String::new(),
            version: Some(versions[doc]),
            verdict: Verdict::Known(None),
            insertion: false,
        });
        let (region, key) = &last_key[doc];
        let dup = TenantAppend {
            region: *region,
            key: key.clone(),
            val: "again".into(),
        };
        after_restart.push(Op {
            doc,
            verb: Verb::Decide,
            stmt: dup.xupdate(),
            version: Some(versions[doc]),
            verdict: Verdict::Known(models[doc].decide(&dup)?),
            insertion: true,
        });
    }
    let base = corpus.xml.len();
    let gamma = corpus.constraints_text();
    Ok(Plan {
        workload: Workload::TenantShards,
        seed,
        base_xml: corpus.xml,
        dtd: corpus.dtd,
        gamma,
        shards: Some(shards),
        conns,
        rounds: 1,
        warmup,
        commits: versions,
        history: Vec::new(),
        restarts: 0,
        after_restart,
        corpus_bytes: (base * shards, base * shards + growth),
        gamma_summary: format!(
            "{TENANT_REGIONS} regions × (key uniqueness + capacity {TENANT_CAP}), {} constraints",
            2 * TENANT_REGIONS
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_independent_in_size() {
        for w in Workload::ALL {
            let a = build(w, 1, 1).unwrap();
            let b = build(w, 1, 1).unwrap();
            let c = build(w, 2, 1).unwrap();
            let lines = |p: &Plan| -> Vec<String> {
                p.conns
                    .iter()
                    .flatten()
                    .map(|o| o.line(p.sharded()))
                    .collect()
            };
            assert_eq!(lines(&a), lines(&b), "{}", w.name());
            assert_ne!(lines(&a), lines(&c), "{}", w.name());
            assert_eq!(
                a.attempted(),
                c.attempted(),
                "{}: op count must not depend on the seed",
                w.name()
            );
            assert_eq!(a.commits, b.commits);
        }
    }

    #[test]
    fn every_plan_mixes_legal_and_rejected_updates() {
        for w in Workload::ALL {
            let p = build(w, 3, 2).unwrap();
            let updates: Vec<&Op> = p
                .conns
                .iter()
                .flatten()
                .filter(|o| o.verb == Verb::Update)
                .collect();
            let rejected = updates
                .iter()
                .filter(|o| matches!(o.verdict, Verdict::Known(Some(_))))
                .count();
            assert!(
                rejected > 0 && rejected < updates.len(),
                "{}: {rejected}/{}",
                w.name(),
                updates.len()
            );
        }
    }

    #[test]
    fn tenant_plan_hits_capacity() {
        let p = build(Workload::TenantShards, 5, 10).unwrap();
        let capacity = p
            .conns
            .iter()
            .flatten()
            .filter(|o| matches!(o.verdict, Verdict::Known(Some(Violated::Capacity(_)))))
            .count();
        assert!(capacity > 0, "the hot regions must fill up");
    }
}
