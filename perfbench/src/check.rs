//! Correctness checks on what the edge answered.

use std::collections::{BTreeSet, HashMap};

use exrec_serve::proto::{ExplainResponse, RateResponse, RecommendResponse};

use crate::load::Sample;
use crate::workload::Req;

/// Decodes a JSON body.
pub fn parse<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Failed checks: the first [`KEPT`] reasons, and how many failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub count: usize,
}

/// Failure reasons kept and printed; the rest are only counted.
const KEPT: usize = 50;

impl Checks {
    pub fn fail(&mut self, what: String) {
        self.count += 1;
        if self.failures.len() < KEPT {
            eprintln!("[perfbench] CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.count == 0
    }
}

/// Items each user was recommended, per recommend response.
pub type Listed = Vec<(u32, Vec<u32>)>;

/// Checks one 2xx body against its request's shape; returns what a
/// recommend listed, for the read-your-writes check.
pub fn shape(sample: &Sample, scale: (f64, f64)) -> Result<Listed, String> {
    let in_scale = |s: f64| s.is_finite() && s >= scale.0 && s <= scale.1;
    match &sample.req {
        Req::Recommend { users, n, explain } => {
            let resp: RecommendResponse =
                parse(&sample.body).map_err(|e| format!("recommend body: {e}"))?;
            let got: Vec<u32> = resp.results.iter().map(|r| r.user).collect();
            if &got != users {
                return Err(format!("recommend for {users:?} answered users {got:?}"));
            }
            let mut listed = Vec::new();
            for r in &resp.results {
                let items: Vec<u32> = r.items.iter().map(|s| s.item).collect();
                let distinct: BTreeSet<u32> = items.iter().copied().collect();
                if items.len() > *n || distinct.len() != items.len() {
                    return Err(format!(
                        "user {} got {} items ({} distinct) for n={n}",
                        r.user,
                        items.len(),
                        distinct.len()
                    ));
                }
                for s in &r.items {
                    if !in_scale(s.score) {
                        return Err(format!(
                            "user {} item {} score {} off scale",
                            r.user, s.item, s.score
                        ));
                    }
                    let text = s
                        .explanation
                        .as_ref()
                        .map(|e| e.text.trim().len())
                        .unwrap_or(0);
                    if *explain != (text > 0) {
                        return Err(format!(
                            "user {} item {}: explanation present={} but asked={explain}",
                            r.user,
                            s.item,
                            text > 0
                        ));
                    }
                }
                listed.push((r.user, items));
            }
            Ok(listed)
        }
        Req::Explain { user, item, aim } => {
            let resp: ExplainResponse =
                parse(&sample.body).map_err(|e| format!("explain body: {e}"))?;
            if (resp.user, resp.item) != (*user, *item) {
                return Err(format!(
                    "explain ({user},{item}) answered ({},{})",
                    resp.user, resp.item
                ));
            }
            if !in_scale(resp.score) {
                return Err(format!(
                    "explain ({user},{item}) score {} off scale",
                    resp.score
                ));
            }
            if resp.explanation.text.trim().is_empty() {
                return Err(format!("explain ({user},{item}) has no explanation text"));
            }
            if resp.aim.as_deref() != *aim {
                return Err(format!(
                    "explain ({user},{item}) echoed aim {:?}, asked {aim:?}",
                    resp.aim
                ));
            }
            Ok(Vec::new())
        }
        Req::Rate { .. } => {
            let resp: RateResponse = parse(&sample.body).map_err(|e| format!("rate body: {e}"))?;
            let ops = sample.req.writes().len() as u64;
            if resp.ops != ops || resp.applied != ops {
                return Err(format!(
                    "write of {ops} ops answered ops={} applied={}",
                    resp.ops, resp.applied
                ));
            }
            Ok(Vec::new())
        }
    }
}

/// What one batch of samples showed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// `applied` summed over acknowledged writes.
    pub applied: u64,
}

/// Checks every sample: status, body shape, and that no recommend sent
/// after a write to `(u, i)` was acknowledged lists `i` for `u`.
pub fn samples(all: &[&Sample], scale: (f64, f64), checks: &mut Checks) -> Tally {
    let mut tally = Tally::default();
    // user -> [(acknowledged at, item)]
    let mut acked: HashMap<u32, Vec<(std::time::Instant, u32)>> = HashMap::new();
    for s in all.iter().filter(|s| s.ok()) {
        for (u, i) in s.req.writes() {
            acked.entry(u).or_default().push((s.done, i));
        }
    }
    for s in all {
        tally.attempted += 1;
        if !s.ok() {
            tally.failed += 1;
            let body = String::from_utf8_lossy(&s.body);
            checks.fail(format!(
                "request {} ({}) got status {}: {}",
                s.index,
                s.req.path(),
                s.status,
                body.chars().take(200).collect::<String>()
            ));
            continue;
        }
        match shape(s, scale) {
            Err(e) => checks.fail(format!("request {}: {e}", s.index)),
            Ok(listed) => {
                for (user, items) in listed {
                    for &(at, item) in acked.get(&user).map(Vec::as_slice).unwrap_or(&[]) {
                        if at < s.sent && items.contains(&item) {
                            checks.fail(format!(
                                "request {}: user {user} was recommended item {item} after rating it",
                                s.index
                            ));
                        }
                    }
                }
            }
        }
        if !s.req.writes().is_empty() {
            if let Ok(resp) = parse::<RateResponse>(&s.body) {
                tally.applied += resp.applied;
            }
        }
    }
    tally
}
