//! The independent verdict model.
//!
//! Every reply the benchmark receives is checked against this model,
//! which knows the paper's constraints by their meaning, not by their
//! compiled form: it never calls the checker, the XPath/XQuery engines
//! or the XML parser of the system under test. It keeps the review tree
//! (tracks → reviewers → submissions → authors), the coauthor pairs of
//! the publication catalog, and per-region keys and item counts, and it
//! gives the expected verdict of a statement by applying it to its own
//! state, evaluating the constraints, and undoing the change.
//!
//! The constraints, stated over the model:
//!
//! * **conflict** (paper Example 1): no submission author is the
//!   reviewer, or a coauthor of the reviewer in some publication;
//! * **workload** (Example 2, bounds `min`/`max`): no reviewer name that
//!   occurs in at least `min` tracks has more than `max` submissions
//!   under all reviewers of that name;
//! * **review load** (Example 7, bound `max`): no reviewer has more than
//!   `max` submissions;
//! * **key** / **capacity** per tenant region `i`: no two items of the
//!   region share a key, and the region holds at most `cap` items.

use crate::xmlscan::{scan, El};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The constraint a state violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violated {
    Conflict,
    Workload,
    ReviewLoad,
    Key(usize),
    Capacity(usize),
}

/// A submission: title and author names, in order.
#[derive(Debug, Clone)]
pub struct Sub {
    pub title: String,
    pub authors: Vec<String>,
}

/// A reviewer and the submissions assigned to them.
#[derive(Debug, Clone)]
pub struct Rev {
    pub name: String,
    pub subs: Vec<Sub>,
}

/// A review track.
#[derive(Debug, Clone)]
pub struct Track {
    pub revs: Vec<Rev>,
}

/// Which of the paper's constraints are in Γ.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReviewGamma {
    pub conflict: bool,
    /// Example 2: `(min_tracks, max_subs)`.
    pub workload: Option<(usize, usize)>,
    /// Example 7: the most submissions one reviewer may hold.
    pub review_load: Option<usize>,
}

/// Coauthorship in the (never updated) publication catalog.
#[derive(Debug, Default)]
struct Coauthors {
    ids: HashMap<String, u32>,
    pairs: HashSet<(u32, u32)>,
}

/// A statement over the review tree. Indexes are 0-based positions
/// among same-named siblings, as the statements' positional selects
/// name them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReviewOp {
    AppendSub {
        track: usize,
        rev: usize,
        title: String,
        authors: Vec<String>,
    },
    /// Sets the name of the submission's first author.
    SetAuthor {
        track: usize,
        rev: usize,
        sub: usize,
        name: String,
    },
    SetRevName {
        track: usize,
        rev: usize,
        name: String,
    },
    SetTitle {
        track: usize,
        rev: usize,
        sub: usize,
        title: String,
    },
    RemoveSub {
        track: usize,
        rev: usize,
        sub: usize,
    },
}

/// What [`ReviewModel::apply`] needs to take a statement back.
enum ReviewUndo {
    Pop(usize, usize),
    Author(usize, usize, usize, String),
    RevName(usize, usize, String),
    Title(usize, usize, usize, String),
    Insert(usize, usize, usize, Sub),
}

/// The XUpdate envelope every statement is sent in (one line).
pub fn modifications(body: &str) -> String {
    format!(
        "<xupdate:modifications version=\"1.0\" \
         xmlns:xupdate=\"http://www.xmldb.org/xupdate\">{body}</xupdate:modifications>"
    )
}

impl ReviewOp {
    /// Whether the statement only inserts (the optimized path's premise).
    pub fn is_insertion(&self) -> bool {
        matches!(self, ReviewOp::AppendSub { .. })
    }

    /// The statement as single-line XUpdate text.
    pub fn xupdate(&self) -> String {
        let rev =
            |t: usize, r: usize| format!("/collection/review/track[{}]/rev[{}]", t + 1, r + 1);
        let body = match self {
            ReviewOp::AppendSub {
                track,
                rev: r,
                title,
                authors,
            } => {
                let auts: String = authors
                    .iter()
                    .map(|a| format!("<auts><name>{a}</name></auts>"))
                    .collect();
                format!(
                    "<xupdate:append select=\"{}\"><sub><title>{title}</title>{auts}</sub></xupdate:append>",
                    rev(*track, *r)
                )
            }
            ReviewOp::SetAuthor {
                track,
                rev: r,
                sub,
                name,
            } => format!(
                "<xupdate:update select=\"{}/sub[{}]/auts[1]/name\">{name}</xupdate:update>",
                rev(*track, *r),
                sub + 1
            ),
            ReviewOp::SetRevName {
                track,
                rev: r,
                name,
            } => format!(
                "<xupdate:update select=\"{}/name\">{name}</xupdate:update>",
                rev(*track, *r)
            ),
            ReviewOp::SetTitle {
                track,
                rev: r,
                sub,
                title,
            } => format!(
                "<xupdate:update select=\"{}/sub[{}]/title\">{title}</xupdate:update>",
                rev(*track, *r),
                sub + 1
            ),
            ReviewOp::RemoveSub { track, rev: r, sub } => {
                format!(
                    "<xupdate:remove select=\"{}/sub[{}]\"/>",
                    rev(*track, *r),
                    sub + 1
                )
            }
        };
        modifications(&body)
    }
}

/// The review tree plus catalog coauthorship, under a Γ.
#[derive(Debug, Clone)]
pub struct ReviewModel {
    pub tracks: Vec<Track>,
    pub gamma: ReviewGamma,
    coauthors: Arc<Coauthors>,
}

impl ReviewModel {
    /// Builds the model from a `<collection>` corpus (DBLP-style catalog
    /// plus review tree).
    pub fn from_xml(xml: &str, gamma: ReviewGamma) -> Result<ReviewModel, String> {
        let root = scan(xml)?;
        let mut coauthors = Coauthors::default();
        for publication in root.kid("dblp")?.kids("pub") {
            let mut ids = Vec::new();
            for aut in publication.kids("aut") {
                let name = aut.kid("name")?.text();
                let next = coauthors.ids.len() as u32;
                ids.push(*coauthors.ids.entry(name).or_insert(next));
            }
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    coauthors.pairs.insert((a.min(b), a.max(b)));
                }
            }
        }
        let sub = |s: &El| -> Result<Sub, String> {
            Ok(Sub {
                title: s.kid("title")?.text(),
                authors: s
                    .kids("auts")
                    .map(|a| a.kid("name").map(El::text))
                    .collect::<Result<_, _>>()?,
            })
        };
        let rev = |r: &El| -> Result<Rev, String> {
            Ok(Rev {
                name: r.kid("name")?.text(),
                subs: r.kids("sub").map(sub).collect::<Result<_, _>>()?,
            })
        };
        let tracks = root
            .kid("review")?
            .kids("track")
            .map(|t| {
                Ok(Track {
                    revs: t.kids("rev").map(rev).collect::<Result<_, String>>()?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ReviewModel {
            tracks,
            gamma,
            coauthors: Arc::new(coauthors),
        })
    }

    /// Whether two names are coauthors of some publication.
    pub fn coauthors(&self, a: &str, b: &str) -> bool {
        match (self.coauthors.ids.get(a), self.coauthors.ids.get(b)) {
            (Some(&x), Some(&y)) => self.coauthors.pairs.contains(&(x.min(y), x.max(y))),
            _ => false,
        }
    }

    /// Names that share a publication with `name`, in id order.
    pub fn coauthors_of(&self, name: &str) -> Vec<String> {
        let Some(&id) = self.coauthors.ids.get(name) else {
            return Vec::new();
        };
        let mut names: Vec<(&u32, &String)> = self
            .coauthors
            .ids
            .iter()
            .filter(|(_, &other)| {
                other != id
                    && self
                        .coauthors
                        .pairs
                        .contains(&(id.min(other), id.max(other)))
            })
            .map(|(n, i)| (i, n))
            .collect();
        names.sort();
        names.into_iter().map(|(_, n)| n.clone()).collect()
    }

    /// Whether author `a` may not review under reviewer name `r`.
    fn conflicted(&self, a: &str, r: &str) -> bool {
        a == r || self.coauthors(a, r)
    }

    /// The first constraint the current state violates, if any.
    pub fn violation(&self) -> Option<Violated> {
        if self.gamma.conflict {
            for rev in self.tracks.iter().flat_map(|t| &t.revs) {
                if rev
                    .subs
                    .iter()
                    .flat_map(|s| &s.authors)
                    .any(|a| self.conflicted(a, &rev.name))
                {
                    return Some(Violated::Conflict);
                }
            }
        }
        if let Some((min_tracks, max_subs)) = self.gamma.workload {
            // name → (tracks holding a reviewer of that name, submissions)
            let mut per_name: HashMap<&str, (usize, usize)> = HashMap::new();
            for track in &self.tracks {
                let mut seen: HashSet<&str> = HashSet::new();
                for rev in &track.revs {
                    let entry = per_name.entry(&rev.name).or_default();
                    if seen.insert(&rev.name) {
                        entry.0 += 1;
                    }
                    entry.1 += rev.subs.len();
                }
            }
            if per_name
                .values()
                .any(|&(tracks, subs)| tracks >= min_tracks && subs > max_subs)
            {
                return Some(Violated::Workload);
            }
        }
        if let Some(max) = self.gamma.review_load {
            if self
                .tracks
                .iter()
                .flat_map(|t| &t.revs)
                .any(|r| r.subs.len() > max)
            {
                return Some(Violated::ReviewLoad);
            }
        }
        None
    }

    fn rev_mut(&mut self, track: usize, rev: usize) -> Result<&mut Rev, String> {
        self.tracks
            .get_mut(track)
            .and_then(|t| t.revs.get_mut(rev))
            .ok_or_else(|| format!("no reviewer {}/{}", track + 1, rev + 1))
    }

    fn sub_mut(&mut self, track: usize, rev: usize, sub: usize) -> Result<&mut Sub, String> {
        self.rev_mut(track, rev)?
            .subs
            .get_mut(sub)
            .ok_or_else(|| format!("no submission {}/{}/{}", track + 1, rev + 1, sub + 1))
    }

    /// Applies `op`; an `Err` means its select names no node.
    fn apply(&mut self, op: &ReviewOp) -> Result<ReviewUndo, String> {
        Ok(match op {
            ReviewOp::AppendSub {
                track,
                rev,
                title,
                authors,
            } => {
                let subs = &mut self.rev_mut(*track, *rev)?.subs;
                subs.push(Sub {
                    title: title.clone(),
                    authors: authors.clone(),
                });
                ReviewUndo::Pop(*track, *rev)
            }
            ReviewOp::SetAuthor {
                track,
                rev,
                sub,
                name,
            } => {
                let first = self
                    .sub_mut(*track, *rev, *sub)?
                    .authors
                    .first_mut()
                    .ok_or("submission without authors")?;
                ReviewUndo::Author(*track, *rev, *sub, std::mem::replace(first, name.clone()))
            }
            ReviewOp::SetRevName { track, rev, name } => {
                let old = std::mem::replace(&mut self.rev_mut(*track, *rev)?.name, name.clone());
                ReviewUndo::RevName(*track, *rev, old)
            }
            ReviewOp::SetTitle {
                track,
                rev,
                sub,
                title,
            } => {
                let old =
                    std::mem::replace(&mut self.sub_mut(*track, *rev, *sub)?.title, title.clone());
                ReviewUndo::Title(*track, *rev, *sub, old)
            }
            ReviewOp::RemoveSub { track, rev, sub } => {
                let subs = &mut self.rev_mut(*track, *rev)?.subs;
                if *sub >= subs.len() {
                    return Err(format!(
                        "no submission {}/{}/{}",
                        track + 1,
                        rev + 1,
                        sub + 1
                    ));
                }
                ReviewUndo::Insert(*track, *rev, *sub, subs.remove(*sub))
            }
        })
    }

    fn undo(&mut self, undo: ReviewUndo) {
        // Every index came from a successful `apply`.
        match undo {
            ReviewUndo::Pop(t, r) => {
                self.tracks[t].revs[r].subs.pop();
            }
            ReviewUndo::Author(t, r, s, old) => self.tracks[t].revs[r].subs[s].authors[0] = old,
            ReviewUndo::RevName(t, r, old) => self.tracks[t].revs[r].name = old,
            ReviewUndo::Title(t, r, s, old) => self.tracks[t].revs[r].subs[s].title = old,
            ReviewUndo::Insert(t, r, s, sub) => self.tracks[t].revs[r].subs.insert(s, sub),
        }
    }

    /// The verdict `op` would get in this state, leaving the state as it
    /// was: `Ok(None)` legal, `Ok(Some(c))` rejected for `c`.
    pub fn decide(&mut self, op: &ReviewOp) -> Result<Option<Violated>, String> {
        let undo = self.apply(op)?;
        let verdict = self.violation();
        self.undo(undo);
        Ok(verdict)
    }

    /// Decides `op` and commits it when legal; returns the verdict.
    pub fn commit(&mut self, op: &ReviewOp) -> Result<Option<Violated>, String> {
        let undo = self.apply(op)?;
        let verdict = self.violation();
        if verdict.is_some() {
            self.undo(undo);
        }
        Ok(verdict)
    }
}

/// A tenant document: per region, its items as `(key, value)`.
#[derive(Debug, Clone)]
pub struct TenantModel {
    pub regions: Vec<Vec<(String, String)>>,
    pub cap: usize,
}

/// An append of one item to region `region` (0-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAppend {
    pub region: usize,
    pub key: String,
    pub val: String,
}

impl TenantAppend {
    /// The statement as single-line XUpdate text.
    pub fn xupdate(&self) -> String {
        let i = self.region + 1;
        modifications(&format!(
            "<xupdate:append select=\"/db/region{i}\"><item{i}><key{i}>{}</key{i}>\
             <val{i}>{}</val{i}></item{i}></xupdate:append>",
            self.key, self.val
        ))
    }
}

impl TenantModel {
    /// Builds the model from a `<db>` multi-tenant corpus with `regions`
    /// regions and per-region capacity `cap`.
    pub fn from_xml(xml: &str, regions: usize, cap: usize) -> Result<TenantModel, String> {
        let root = scan(xml)?;
        let mut model = TenantModel {
            regions: vec![Vec::new(); regions],
            cap,
        };
        for (r, items) in model.regions.iter_mut().enumerate() {
            let i = r + 1;
            for region in root.kids(&format!("region{i}")) {
                for item in region.kids(&format!("item{i}")) {
                    items.push((
                        item.kid(&format!("key{i}"))?.text(),
                        item.kid(&format!("val{i}"))?.text(),
                    ));
                }
            }
        }
        Ok(model)
    }

    /// The first constraint the current state violates, if any (key
    /// before capacity, region by region, as Γ lists them).
    pub fn violation(&self) -> Option<Violated> {
        for (r, items) in self.regions.iter().enumerate() {
            let mut keys = HashSet::new();
            if !items.iter().all(|(k, _)| keys.insert(k.as_str())) {
                return Some(Violated::Key(r));
            }
            if items.len() > self.cap {
                return Some(Violated::Capacity(r));
            }
        }
        None
    }

    /// The verdict `op` would get, leaving the state as it was.
    pub fn decide(&mut self, op: &TenantAppend) -> Result<Option<Violated>, String> {
        let verdict = self.commit(op)?;
        if verdict.is_none() {
            self.regions[op.region].pop();
        }
        Ok(verdict)
    }

    /// Decides `op` and commits it when legal; returns the verdict.
    pub fn commit(&mut self, op: &TenantAppend) -> Result<Option<Violated>, String> {
        let items = self
            .regions
            .get_mut(op.region)
            .ok_or_else(|| format!("no region {}", op.region + 1))?;
        items.push((op.key.clone(), op.val.clone()));
        let verdict = self.violation();
        if verdict.is_some() {
            self.regions[op.region].pop();
        }
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tracks; ann reviews in both, bob in track 1, cat in track 2.
    /// The catalog makes ann and dan coauthors.
    const CORPUS: &str = "<collection><dblp>\
        <pub><title>P1</title><aut><name>ann</name></aut><aut><name>dan</name></aut></pub>\
        <pub><title>P2</title><aut><name>eve</name></aut></pub>\
        </dblp><review>\
        <track><name>T1</name>\
          <rev><name>ann</name><sub><title>S1</title><auts><name>gus</name></auts></sub></rev>\
          <rev><name>bob</name><sub><title>S2</title><auts><name>eve</name></auts></sub></rev>\
        </track>\
        <track><name>T2</name>\
          <rev><name>ann</name><sub><title>S3</title><auts><name>hal</name></auts></sub></rev>\
          <rev><name>cat</name><sub><title>S4</title><auts><name>ivy</name></auts></sub></rev>\
        </track></review></collection>";

    fn assign(track: usize, rev: usize, author: &str) -> ReviewOp {
        ReviewOp::AppendSub {
            track,
            rev,
            title: "new".into(),
            authors: vec![author.into()],
        }
    }

    #[test]
    fn example_1_conflict_of_interest() {
        let gamma = ReviewGamma {
            conflict: true,
            ..Default::default()
        };
        let mut m = ReviewModel::from_xml(CORPUS, gamma).unwrap();
        assert_eq!(m.violation(), None);
        // The reviewer as author: first disjunct.
        assert_eq!(
            m.decide(&assign(0, 0, "ann")).unwrap(),
            Some(Violated::Conflict)
        );
        // A coauthor of the reviewer: second disjunct.
        assert_eq!(
            m.decide(&assign(0, 0, "dan")).unwrap(),
            Some(Violated::Conflict)
        );
        // Neither: legal, and deciding leaves the state alone.
        assert_eq!(m.decide(&assign(0, 0, "zed")).unwrap(), None);
        assert_eq!(m.tracks[0].revs[0].subs.len(), 1);
        // Renaming a reviewer to a coauthor of one of their authors.
        let rename = ReviewOp::SetRevName {
            track: 0,
            rev: 1,
            name: "eve".into(),
        };
        assert_eq!(m.decide(&rename).unwrap(), Some(Violated::Conflict));
        // Renaming an author in place to the reviewer.
        let author = ReviewOp::SetAuthor {
            track: 1,
            rev: 1,
            sub: 0,
            name: "cat".into(),
        };
        assert_eq!(m.decide(&author).unwrap(), Some(Violated::Conflict));
        // Retitles and removals never conflict.
        let retitle = ReviewOp::SetTitle {
            track: 0,
            rev: 0,
            sub: 0,
            title: "x".into(),
        };
        assert_eq!(m.commit(&retitle).unwrap(), None);
        assert_eq!(m.tracks[0].revs[0].subs[0].title, "x");
        assert_eq!(m.coauthors_of("ann"), ["dan"]);
    }

    #[test]
    fn example_2_workload_aggregates() {
        // A reviewer name in >= 2 tracks may hold at most 2 submissions.
        let gamma = ReviewGamma {
            workload: Some((2, 2)),
            ..Default::default()
        };
        let mut m = ReviewModel::from_xml(CORPUS, gamma).unwrap();
        assert_eq!(m.violation(), None);
        // ann is in both tracks with 2 submissions: at the bound.
        assert_eq!(
            m.decide(&assign(1, 0, "hal")).unwrap(),
            Some(Violated::Workload)
        );
        // cat is in one track only: the track-count conjunct saves her.
        assert_eq!(m.commit(&assign(1, 1, "hal")).unwrap(), None);
        assert_eq!(m.commit(&assign(1, 1, "jon")).unwrap(), None);
        // Renaming bob to ann puts 3 submissions under a two-track name.
        let rename = ReviewOp::SetRevName {
            track: 0,
            rev: 1,
            name: "ann".into(),
        };
        assert_eq!(m.decide(&rename).unwrap(), Some(Violated::Workload));
        // Renaming cat (3 submissions, track 2) to bob spreads "bob"
        // over two tracks with 4 submissions.
        let rename = ReviewOp::SetRevName {
            track: 1,
            rev: 1,
            name: "bob".into(),
        };
        assert_eq!(m.decide(&rename).unwrap(), Some(Violated::Workload));
        // Removing one of ann's submissions makes room again.
        let remove = ReviewOp::RemoveSub {
            track: 0,
            rev: 0,
            sub: 0,
        };
        assert_eq!(m.commit(&remove).unwrap(), None);
        assert_eq!(m.decide(&assign(1, 0, "hal")).unwrap(), None);
    }

    #[test]
    fn example_7_review_load() {
        let gamma = ReviewGamma {
            review_load: Some(2),
            ..Default::default()
        };
        let mut m = ReviewModel::from_xml(CORPUS, gamma).unwrap();
        assert_eq!(m.commit(&assign(0, 1, "x1")).unwrap(), None);
        assert_eq!(
            m.commit(&assign(0, 1, "x2")).unwrap(),
            Some(Violated::ReviewLoad)
        );
        assert_eq!(
            m.tracks[0].revs[1].subs.len(),
            2,
            "a rejected append leaves no trace"
        );
        // The load is per reviewer element, not per name: ann's two
        // reviewer entries hold one submission each.
        assert_eq!(m.commit(&assign(0, 0, "x3")).unwrap(), None);
        assert_eq!(m.commit(&assign(1, 0, "x4")).unwrap(), None);
        let remove = ReviewOp::RemoveSub {
            track: 0,
            rev: 1,
            sub: 0,
        };
        assert_eq!(m.commit(&remove).unwrap(), None);
        assert_eq!(m.commit(&assign(0, 1, "x5")).unwrap(), None);
    }

    #[test]
    fn missing_targets_are_errors_not_verdicts() {
        let mut m = ReviewModel::from_xml(CORPUS, ReviewGamma::default()).unwrap();
        assert!(m
            .decide(&ReviewOp::RemoveSub {
                track: 0,
                rev: 0,
                sub: 5
            })
            .is_err());
        assert!(m.decide(&assign(2, 0, "x")).is_err());
    }

    #[test]
    fn statements_render_positional_selects() {
        let op = ReviewOp::SetAuthor {
            track: 1,
            rev: 0,
            sub: 2,
            name: "n".into(),
        };
        assert!(op.xupdate().contains(
            "<xupdate:update select=\"/collection/review/track[2]/rev[1]/sub[3]/auts[1]/name\">n</xupdate:update>"
        ));
        let append = TenantAppend {
            region: 2,
            key: "k".into(),
            val: "v".into(),
        };
        assert!(append
            .xupdate()
            .contains("select=\"/db/region3\"><item3><key3>k</key3>"));
    }

    #[test]
    fn tenant_keys_and_capacity() {
        let xml = "<db><region1><item1><key1>a</key1><val1>1</val1></item1></region1>\
                   <region2></region2></db>";
        let mut m = TenantModel::from_xml(xml, 2, 2).unwrap();
        let add = |region: usize, key: &str| TenantAppend {
            region,
            key: key.into(),
            val: "v".into(),
        };
        assert_eq!(m.decide(&add(0, "a")).unwrap(), Some(Violated::Key(0)));
        // Keys are unique per region, not across regions.
        assert_eq!(m.commit(&add(1, "a")).unwrap(), None);
        assert_eq!(m.commit(&add(0, "b")).unwrap(), None);
        assert_eq!(m.decide(&add(0, "c")).unwrap(), Some(Violated::Capacity(0)));
        assert_eq!((m.regions[0].len(), m.regions[1].len()), (2, 1));
    }
}
