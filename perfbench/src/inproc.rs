//! The in-process side of the checks: the same app the edge serves,
//! built from the same config, and the neighbour-recall measurement.

use std::path::PathBuf;
use std::sync::Arc;

use exrec_algo::kernel::{overlap_candidates, scan_similarities, union_sorted, SimParams};
use exrec_algo::neighbors::top_k_stream;
use exrec_algo::user_knn::UserKnnConfig;
use exrec_algo::{
    CandidateIndex, CsrRatings, Ctx, IndexConfig, KernelConfig, Recommender, ScanEngine, ScanMode,
    UserKnn,
};
use exrec_data::synth::movies;
use exrec_data::{World, WorldConfig};
use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, Deadline, ExplainApp};
use exrec_serve::proto::{
    ExplainRequest, ExplainResponse, RateRequest, RateResponse, RecommendRequest, RecommendResponse,
};
use exrec_types::{ItemId, UserId};

use crate::check::parse;
use crate::workload::{self, Req, Rng, WorldShape};

/// The app the edge serves for `world`, built in-process.
pub fn new_app(world: &WorldShape, wal_path: Option<PathBuf>) -> Result<ExplainApp, String> {
    let config = AppConfig {
        n_users: world.users,
        n_items: world.items,
        density: world.density,
        wal_path,
        ..AppConfig::default()
    };
    ExplainApp::try_new(config, Telemetry::default()).map_err(|e| format!("in-process app: {e}"))
}

/// The world the app generates for `shape`, generated the same way.
pub fn generate_world(shape: &WorldShape) -> World {
    let config = AppConfig::default();
    movies::generate(&WorldConfig {
        n_users: shape.users,
        n_items: shape.items,
        density: shape.density,
        seed: config.seed,
        ..WorldConfig::default()
    })
}

/// Users the probes and the recall measurement ask about.
pub fn probe_users(n_users: usize) -> Vec<u32> {
    (0..8).map(|k| (k * n_users / 8 + 1) as u32).collect()
}

/// Fixed read-only requests sent before any write.
pub fn probe_set(world: &WorldShape) -> Vec<Req> {
    let mut out = Vec::new();
    for (k, user) in probe_users(world.users).into_iter().enumerate() {
        out.push(Req::Recommend {
            users: vec![user],
            n: 10,
            explain: false,
        });
        out.push(Req::Recommend {
            users: vec![user],
            n: 5,
            explain: true,
        });
        out.push(Req::Explain {
            user,
            item: (k * world.items / 8 + 3) as u32,
            aim: None,
        });
    }
    out
}

/// The app's answer to `req`, encoded exactly as the edge encodes it.
pub fn answer(app: &ExplainApp, req: &Req) -> Result<String, String> {
    let decoded = decode(req, req.body().as_bytes())?;
    handle(app, &decoded)?.encode().map_err(|e| e.to_string())
}

/// A decoded request, as the edge's router hands it to the app.
pub enum Decoded {
    Recommend(RecommendRequest),
    Explain(ExplainRequest),
    Rate(RateRequest),
}

/// A handler's typed answer.
pub enum Answer {
    Recommend(RecommendResponse),
    Explain(ExplainResponse),
    Rate(RateResponse),
}

impl Answer {
    pub fn encode(&self) -> Result<String, serde_json::Error> {
        match self {
            Answer::Recommend(r) => serde_json::to_string(r),
            Answer::Explain(r) => serde_json::to_string(r),
            Answer::Rate(r) => serde_json::to_string(r),
        }
    }
}

pub fn decode(req: &Req, body: &[u8]) -> Result<Decoded, String> {
    match req {
        Req::Recommend { .. } => parse(body).map(Decoded::Recommend),
        Req::Explain { .. } => parse(body).map(Decoded::Explain),
        Req::Rate { .. } => parse(body).map(Decoded::Rate),
    }
}

pub fn handle(app: &ExplainApp, req: &Decoded) -> Result<Answer, String> {
    let deadline = Deadline::after_ms(600_000);
    let answer = match req {
        Decoded::Recommend(r) => app.recommend(r, deadline).map(Answer::Recommend),
        Decoded::Explain(r) => app.explain(r, deadline).map(Answer::Explain),
        Decoded::Rate(r) => app.rate(r, deadline).map(Answer::Rate),
    };
    answer.map_err(|e| format!("{e:?}"))
}

/// Pairs explain requests may name: `(user, item)` pairs drawn from the
/// seed and kept only when the served model predicts them, so the
/// stream never asks for a pair no neighbour rated.
pub fn explainable_pairs(world: &World, shape: &WorldShape, seed: u64) -> Vec<(u32, u32)> {
    let model = UserKnn::default().with_engine(
        Arc::new(ScanEngine::new(
            KernelConfig::default(),
            IndexConfig::default(),
        )),
        ScanMode::Pruned,
    );
    let ctx = Ctx::new(&world.ratings, &world.catalog);
    let mut rng = Rng::new(seed ^ 0x5EED_0F_E4B1);
    let mut pairs = Vec::with_capacity(EXPLAINABLE);
    while pairs.len() < EXPLAINABLE {
        let user = workload::draw_user(&mut rng, shape);
        let item = rng.below(shape.items) as u32;
        if model.predict(&ctx, UserId(user), ItemId(item)).is_ok() {
            pairs.push((user, item));
        }
    }
    pairs
}

/// Size of the explainable-pair pool.
const EXPLAINABLE: usize = 256;

pub fn sim_params() -> SimParams {
    let cfg = UserKnnConfig::default();
    SimParams {
        similarity: cfg.similarity,
        min_overlap: cfg.min_overlap,
        significance: cfg.significance,
    }
}

/// Pruned-vs-exact agreement on the probe users.
#[derive(Debug, Clone, Copy)]
pub struct Recall {
    /// Share of the exact top-20 neighbours the pruned scan also finds.
    pub recall_at_20: f64,
    /// Share of the exact top-10 recommendations the pruned model
    /// also recommends.
    pub topn_agreement: f64,
}

pub fn recall(world: &World, users: &[u32]) -> Recall {
    let k = 20;
    let params = sim_params();
    let csr = Arc::new(CsrRatings::from_matrix(&world.ratings));
    let index_cfg = IndexConfig::default();
    let index = CandidateIndex::build(&csr, &index_cfg);
    let n_users = csr.n_users();
    let (mut exact, mut pruned) = (Vec::new(), Vec::new());
    let (mut hit, mut total) = (0usize, 0usize);
    for &u in users {
        let user = UserId(u);
        scan_similarities(&csr, &params, user, None, 2048, &mut exact);
        let cands = union_sorted(
            &index.candidates(&csr, u),
            &overlap_candidates(&csr, user, index_cfg.resolve_budget(n_users)),
        );
        scan_similarities(&csr, &params, user, Some(&cands), 2048, &mut pruned);
        let topk = |sims: &[f64]| -> Vec<u32> {
            top_k_stream(
                (0..n_users as u32).filter(|&v| v != u && sims[v as usize] > 0.0),
                k,
                |&v| sims[v as usize],
            )
        };
        let want = topk(&exact);
        let got = topk(&pruned);
        total += want.len();
        hit += want.iter().filter(|v| got.contains(v)).count();
    }

    let model = |mode| {
        UserKnn::default().with_engine(
            Arc::new(ScanEngine::new(
                KernelConfig::default(),
                IndexConfig::default(),
            )),
            mode,
        )
    };
    let (exact_model, pruned_model) = (model(ScanMode::Exact), model(ScanMode::Pruned));
    let ctx = Ctx::new(&world.ratings, &world.catalog);
    let (mut same, mut listed) = (0usize, 0usize);
    for &u in users {
        let want = exact_model.recommend(&ctx, UserId(u), 10);
        let got = pruned_model.recommend(&ctx, UserId(u), 10);
        listed += want.len();
        same += want
            .iter()
            .filter(|w| got.iter().any(|g| g.item == w.item))
            .count();
    }
    Recall {
        recall_at_20: hit as f64 / total.max(1) as f64,
        topn_agreement: same as f64 / listed.max(1) as f64,
    }
}
