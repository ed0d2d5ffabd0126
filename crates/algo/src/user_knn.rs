//! User-based k-nearest-neighbour collaborative filtering.
//!
//! The classic Resnick/GroupLens predictor behind "people like you
//! liked…" explanations and Herlocker et al.'s neighbour-ratings
//! histogram (the best-performing interface in the survey's Section 3.4).
//!
//! Predictions are mean-centred:
//! `p(u,i) = mean(u) + Σ sim(u,v)·(r(v,i) − mean(v)) / Σ |sim(u,v)|`
//! over the top-k most similar users who rated `i`. Confidence grows with
//! the number of contributing neighbours and their agreement.

use std::sync::Arc;

use crate::cache::SimilarityCache;
use crate::kernel::{scan_similarities, CsrRatings, ScanEngine, ScanMode, SimParams};
use crate::neighbors::{top_k_by, top_k_per_item, top_k_stream};
use crate::recommender::{Ctx, ModelEvidence, NeighborContribution, Recommender, Scored};
use crate::similarity::{self, Similarity};
use exrec_types::{Confidence, Error, ItemId, Prediction, Result, UserId};

/// Configuration for [`UserKnn`].
#[derive(Debug, Clone, PartialEq)]
pub struct UserKnnConfig {
    /// Neighbourhood size.
    pub k: usize,
    /// Similarity measure over co-ratings.
    pub similarity: Similarity,
    /// Minimum co-rated items for a neighbour to count at all.
    pub min_overlap: usize,
    /// Significance-weighting threshold (0 disables).
    pub significance: usize,
    /// Drop neighbours with similarity at or below this value.
    pub min_similarity: f64,
}

impl Default for UserKnnConfig {
    fn default() -> Self {
        Self {
            k: 20,
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 20,
            min_similarity: 0.0,
        }
    }
}

/// User-based kNN recommender. Stateless by default: similarities are
/// computed against the live ratings matrix on every call, so mid-session
/// re-rating (survey Section 5.3) is observed immediately.
///
/// For batch serving, attach a shared [`SimilarityCache`] with
/// [`UserKnn::with_cache`]: pair similarities are then memoized per
/// ratings-matrix revision. Because the cache stores the exact computed
/// value and self-invalidates when the matrix mutates, cached predictions
/// stay bit-identical to uncached ones — including after re-rating.
///
/// For sub-linear uncached serving, attach a shared
/// [`ScanEngine`] with
/// [`UserKnn::with_engine`]: similarity scans then run through the
/// CSR-tiled kernel ([`ScanMode::Exact`], bit-identical to the brute
/// path) and optionally the cluster-pruned candidate index
/// ([`ScanMode::Pruned`], recall ≥ 0.99 with automatic exact fallback).
/// The engine snapshots the matrix per revision, so mid-session
/// re-rating is still observed on the next call, exactly like the
/// cache's invalidation contract. With an engine, `recommend` scans
/// once per request and ranks every unrated item's neighbours in one
/// sorted pass over the scored users' rows; `predict`, `neighbors` and
/// `evidence` scan only the item's raters. Both feed the same
/// prediction arithmetic. See `docs/kernels.md`.
#[derive(Debug, Clone, Default)]
pub struct UserKnn {
    config: UserKnnConfig,
    cache: Option<Arc<SimilarityCache>>,
    scan: Option<ScanHandle>,
}

/// An attached scan engine plus the mode it should run in.
#[derive(Debug, Clone)]
struct ScanHandle {
    engine: Arc<ScanEngine>,
    mode: ScanMode,
}

impl UserKnn {
    /// Builds a recommender with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for `k == 0`.
    pub fn new(config: UserKnnConfig) -> Result<Self> {
        if config.k == 0 {
            return Err(Error::InvalidConfig {
                parameter: "k",
                constraint: "k >= 1".to_owned(),
            });
        }
        Ok(Self {
            config,
            cache: None,
            scan: None,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &UserKnnConfig {
        &self.config
    }

    /// Attaches a shared user–user similarity cache. Clones of the same
    /// `Arc` (e.g. one per batch worker's model handle) share entries.
    pub fn with_cache(mut self, cache: Arc<SimilarityCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached similarity cache, if any.
    pub fn cache(&self) -> Option<&Arc<SimilarityCache>> {
        self.cache.as_ref()
    }

    /// Attaches a shared scan engine and picks the scan mode. Clones of
    /// the same `Arc` (e.g. per batch worker) share the CSR snapshot,
    /// tuned tile size and candidate index.
    pub fn with_engine(mut self, engine: Arc<ScanEngine>, mode: ScanMode) -> Self {
        self.scan = Some(ScanHandle { engine, mode });
        self
    }

    /// The attached scan engine and mode, if any.
    pub fn engine(&self) -> Option<(&Arc<ScanEngine>, ScanMode)> {
        self.scan.as_ref().map(|h| (&h.engine, h.mode))
    }

    /// Stable name of the scan path this model resolves neighbours
    /// through: `"brute"` without an engine, else the engine mode.
    pub fn scan_mode_name(&self) -> &'static str {
        match &self.scan {
            None => "brute",
            Some(h) => h.mode.name(),
        }
    }

    /// The kernel-facing slice of the configuration.
    fn sim_params(&self) -> SimParams {
        SimParams {
            similarity: self.config.similarity,
            min_overlap: self.config.min_overlap,
            significance: self.config.significance,
        }
    }

    fn similarity_uncached(&self, ctx: &Ctx<'_>, a: UserId, b: UserId) -> f64 {
        let co = ctx.ratings.co_rated(a, b);
        if co.len() < self.config.min_overlap {
            return 0.0;
        }
        let pairs: Vec<(f64, f64)> = co.iter().map(|&(_, x, y)| (x, y)).collect();
        let raw = match self.config.similarity {
            Similarity::Pearson => similarity::pearson(&pairs),
            Similarity::Cosine => similarity::cosine(&pairs),
            Similarity::AdjustedCosine => {
                // For user-user, adjusted == centring on each user's mean.
                let ma = ctx.ratings.user_mean(a).unwrap_or_default();
                let mb = ctx.ratings.user_mean(b).unwrap_or_default();
                let centred: Vec<(f64, f64)> =
                    pairs.iter().map(|&(x, y)| (x - ma, y - mb)).collect();
                similarity::adjusted_cosine(&centred)
            }
            Similarity::Jaccard => similarity::jaccard(
                co.len(),
                ctx.ratings.user_ratings(a).len(),
                ctx.ratings.user_ratings(b).len(),
            ),
        };
        similarity::significance_weight(raw, co.len(), self.config.significance)
    }

    /// The top-k neighbours of `user` *who rated `item`*, strongest first.
    ///
    /// With a scan engine attached this routes through the tiled kernel
    /// (restricted to the item's raters — the only users whose
    /// similarity can matter here), intersected with the pruned
    /// candidate set in [`ScanMode::Pruned`]; otherwise it runs the
    /// seed's per-pair path, optionally memoized by the cache. Exact
    /// mode is bit-identical to the brute path.
    pub fn neighbors(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Vec<NeighborContribution> {
        match &self.scan {
            Some(handle) => self.neighbors_scanned(ctx, user, item, handle),
            None => self.neighbors_brute(ctx, user, item),
        }
    }

    fn neighbors_brute(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
    ) -> Vec<NeighborContribution> {
        // Profiler phase per candidate item, not per pair: a guard on
        // every similarity probe would cost more than a cache hit.
        // `cache_probe` covers resolving every candidate similarity
        // through the cache (hits and miss-computes); the uncached
        // model reports the same work as `similarity`. Probe outcomes
        // are counted locally and flushed once per call.
        let _phase = if self.cache.is_some() {
            exrec_obs::profile::phase("cache_probe")
        } else {
            exrec_obs::profile::phase("similarity")
        };
        let probes = std::cell::Cell::new(0u64);
        let computes = std::cell::Cell::new(0u64);
        let raters = ctx.ratings.item_ratings(item);
        let candidates: Vec<NeighborContribution> = raters
            .iter()
            .filter(|&&(v, _)| v != user)
            .filter_map(|&(v, rating)| {
                let s = match &self.cache {
                    Some(cache) => {
                        probes.set(probes.get() + 1);
                        cache.get_or_compute(user.raw(), v.raw(), ctx.ratings.revision(), || {
                            computes.set(computes.get() + 1);
                            self.similarity_uncached(ctx, user, v)
                        })
                    }
                    None => self.similarity_uncached(ctx, user, v),
                };
                (s > self.config.min_similarity).then_some(NeighborContribution {
                    user: v,
                    similarity: s,
                    rating,
                })
            })
            .collect();
        exrec_obs::profile::cache_events(probes.get() - computes.get(), computes.get());
        top_k_by(candidates, self.config.k, |n| n.similarity)
    }

    /// Kernel-backed single-item neighbourhood: scan only the item's
    /// raters (exact) or their intersection with the pruned candidate
    /// set, then rank with the same `> min_similarity` filter and
    /// stable top-k the brute path applies.
    fn neighbors_scanned(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        item: ItemId,
        handle: &ScanHandle,
    ) -> Vec<NeighborContribution> {
        let params = self.sim_params();
        let csr = {
            let _p = exrec_obs::profile::phase("csr");
            handle.engine.csr(ctx.ratings, &params)
        };
        let raters = csr.col(item.index()).0;
        if raters.is_empty() {
            return Vec::new();
        }
        let (scan_list, pruned, fell_back) = self.scan_list_for(&csr, user, handle, Some(raters));
        let mut sims = Vec::new();
        let outcome = {
            let _p = exrec_obs::profile::phase("kernel");
            scan_similarities(
                &csr,
                &params,
                user,
                Some(&scan_list),
                handle.engine.tile(),
                &mut sims,
            )
        };
        handle.engine.record_scan(
            &outcome,
            pruned.then_some((scan_list.len(), csr.n_users())),
            fell_back,
        );
        let _p = exrec_obs::profile::phase("gather");
        self.gather_neighbors(&csr, &sims, user, item)
    }

    /// The user list one scan should score, per mode: `raters` bounds
    /// the scan to one item's raters when given (single-item paths),
    /// the pruned candidate set intersects with it, and a candidate set
    /// under the fallback floor degrades to the exact list. Returns
    /// `(list, is_pruned, fell_back)`.
    fn scan_list_for(
        &self,
        csr: &Arc<CsrRatings>,
        user: UserId,
        handle: &ScanHandle,
        raters: Option<&[u32]>,
    ) -> (Vec<u32>, bool, bool) {
        let exact_list = || -> Vec<u32> {
            match raters {
                Some(r) => r.to_vec(),
                None => (0..csr.n_users() as u32).collect(),
            }
        };
        match handle.mode {
            ScanMode::Exact => (exact_list(), false, false),
            ScanMode::Pruned => {
                // Two complementary candidate sources (docs/kernels.md
                // §pruned-probing): cluster probes catch taste
                // neighbours, the overlap pass catches the
                // high-co-rating users whose significance weight makes
                // them dominate neighbourhoods.
                let candidates = {
                    let _p = exrec_obs::profile::phase("index");
                    let index = handle.engine.index(csr);
                    let clustered = index.candidates(csr, user.raw());
                    let budget = handle.engine.index_config().resolve_budget(csr.n_users());
                    let by_overlap = crate::kernel::overlap_candidates(csr, user, budget);
                    crate::kernel::union_sorted(&clustered, &by_overlap)
                };
                if candidates.len() < handle.engine.fallback_floor(self.config.k) {
                    return (exact_list(), false, true);
                }
                match raters {
                    None => (candidates, true, false),
                    Some(r) => (intersect_sorted(r, &candidates), true, false),
                }
            }
        }
    }

    /// Ranks one item's raters from a dense similarity table, mirroring
    /// the brute path's filter/tie-break exactly: raters in ascending
    /// user order, keep `s > min_similarity`, stable top-k. The
    /// single-item path; whole-request ranking uses [`top_k_per_item`].
    fn gather_neighbors(
        &self,
        csr: &CsrRatings,
        sims: &[f64],
        user: UserId,
        item: ItemId,
    ) -> Vec<NeighborContribution> {
        let (col_users, col_vals) = csr.col(item.index());
        let contributions = col_users
            .iter()
            .zip(col_vals.iter())
            .filter(|&(&v, _)| UserId(v) != user)
            .filter_map(|(&v, &rating)| {
                let s = sims[v as usize];
                (s > self.config.min_similarity).then_some(NeighborContribution {
                    user: UserId(v),
                    similarity: s,
                    rating,
                })
            });
        top_k_stream(contributions, self.config.k, |n| n.similarity)
    }

    /// The mean-centred prediction from a ranked neighbourhood, shared
    /// by [`UserKnn::predict`] and the kernel-backed ranking.
    /// `mean_of` looks up a neighbour's mean rating. `Err` carries the
    /// reason there is no prediction.
    fn predict_from(
        &self,
        ctx: &Ctx<'_>,
        user_mean: f64,
        neighbors: &[NeighborContribution],
        mean_of: impl Fn(UserId) -> f64,
    ) -> std::result::Result<Prediction, &'static str> {
        if neighbors.is_empty() {
            return Err("no similar users rated this item");
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for n in neighbors {
            num += n.similarity * (n.rating - mean_of(n.user));
            den += n.similarity.abs();
        }
        if den <= 1e-12 {
            return Err("neighbour similarities cancel out");
        }
        let score = ctx.ratings.scale().bound(user_mean + num / den);

        // Confidence: neighbourhood fill × rating agreement.
        let fill = neighbors.len() as f64 / self.config.k as f64;
        let mean_rating = neighbors.iter().map(|n| n.rating).sum::<f64>() / neighbors.len() as f64;
        let var = neighbors
            .iter()
            .map(|n| (n.rating - mean_rating).powi(2))
            .sum::<f64>()
            / neighbors.len() as f64;
        let span = ctx.ratings.scale().span();
        let agreement = 1.0 - (var.sqrt() / (span / 2.0)).min(1.0);
        let confidence = Confidence::new(fill.min(1.0) * (0.3 + 0.7 * agreement));
        Ok(Prediction::new(score, confidence))
    }

    /// The trait-default ranking (predict every unrated item through
    /// the per-pair path), duplicated here because overriding
    /// [`Recommender::recommend`] hides the default body.
    fn recommend_brute(&self, ctx: &Ctx<'_>, user: UserId, n: usize) -> Vec<Scored> {
        let scan = exrec_obs::profile::phase("scan");
        let mut scored: Vec<Scored> = ctx
            .catalog
            .ids()
            .filter(|&i| ctx.ratings.rating(user, i).is_none())
            .filter_map(|i| {
                self.predict(ctx, user, i).ok().map(|prediction| Scored {
                    item: i,
                    prediction,
                })
            })
            .collect();
        drop(scan);
        let _rank = exrec_obs::profile::phase("rank");
        scored.sort_by(|a, b| {
            b.prediction
                .score
                .partial_cmp(&a.prediction.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.item.cmp(&b.item))
        });
        scored.truncate(n);
        scored
    }

    /// Kernel-backed ranking: one similarity scan for the whole
    /// request, then one sorted pass over the scored users' rows
    /// ([`top_k_per_item`]) ranks every unrated item's neighbours at
    /// once, and each item is scored from its list. The lists equal a
    /// per-item [`UserKnn::neighbors`] call's, so output matches the
    /// trait-default path bit-for-bit in exact mode. The gather costs
    /// the rows of the passing users, cut short once every list is
    /// full, not the columns of the unrated items
    /// (`docs/kernels.md#neighbour-ranking`).
    fn recommend_scanned(
        &self,
        ctx: &Ctx<'_>,
        user: UserId,
        n: usize,
        handle: &ScanHandle,
    ) -> Vec<Scored> {
        let scan = exrec_obs::profile::phase("scan");
        // Out-of-range user: every per-item predict would fail its id
        // check, so the brute path returns nothing. Match it.
        if user.index() >= ctx.ratings.n_users() {
            return Vec::new();
        }
        let params = self.sim_params();
        let csr = {
            let _p = exrec_obs::profile::phase("csr");
            handle.engine.csr(ctx.ratings, &params)
        };
        let (scan_list, pruned, fell_back) = self.scan_list_for(&csr, user, handle, None);
        let mut sims = Vec::new();
        let outcome = {
            let _p = exrec_obs::profile::phase("kernel");
            scan_similarities(
                &csr,
                &params,
                user,
                Some(&scan_list),
                handle.engine.tile(),
                &mut sims,
            )
        };
        handle.engine.record_scan(
            &outcome,
            pruned.then_some((scan_list.len(), csr.n_users())),
            fell_back,
        );
        let user_mean = ctx
            .ratings
            .user_mean(user)
            .unwrap_or_else(|| ctx.ratings.global_mean());
        let global_mean = ctx.ratings.global_mean();
        let mut scored: Vec<Scored> = {
            let _p = exrec_obs::profile::phase("gather");
            let mut eligible = vec![false; csr.n_items()];
            for i in ctx.catalog.ids() {
                if let Some(e) = eligible.get_mut(i.index()) {
                    *e = ctx.ratings.rating(user, i).is_none();
                }
            }
            let lists = top_k_per_item(
                &csr,
                &sims,
                user,
                &eligible,
                self.config.k,
                self.config.min_similarity,
            );
            let mean_of = |v: UserId| csr.user_mean_or(v.index(), global_mean);
            lists
                .iter()
                .enumerate()
                .filter_map(|(i, neighbors)| {
                    let prediction = self.predict_from(ctx, user_mean, neighbors, mean_of).ok()?;
                    Some(Scored {
                        item: ItemId::new(i as u32),
                        prediction,
                    })
                })
                .collect()
        };
        drop(scan);
        let _rank = exrec_obs::profile::phase("rank");
        scored.sort_by(|a, b| {
            b.prediction
                .score
                .partial_cmp(&a.prediction.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.item.cmp(&b.item))
        });
        scored.truncate(n);
        scored
    }

    fn check_ids(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<()> {
        if user.index() >= ctx.ratings.n_users() {
            return Err(Error::UnknownUser { user });
        }
        if item.index() >= ctx.ratings.n_items() {
            return Err(Error::UnknownItem { item });
        }
        Ok(())
    }
}

/// Intersection of two sorted, deduplicated id lists, ascending.
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl Recommender for UserKnn {
    fn name(&self) -> &'static str {
        "user-knn"
    }

    fn recommend(&self, ctx: &Ctx<'_>, user: UserId, n: usize) -> Vec<Scored> {
        match &self.scan {
            Some(handle) => self.recommend_scanned(ctx, user, n, handle),
            None => self.recommend_brute(ctx, user, n),
        }
    }

    fn predict(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<Prediction> {
        self.check_ids(ctx, user, item)?;
        let user_mean = ctx
            .ratings
            .user_mean(user)
            .unwrap_or_else(|| ctx.ratings.global_mean());
        let neighbors = self.neighbors(ctx, user, item);
        let mean_of = |v: UserId| {
            ctx.ratings
                .user_mean(v)
                .unwrap_or_else(|| ctx.ratings.global_mean())
        };
        self.predict_from(ctx, user_mean, &neighbors, mean_of)
            .map_err(|reason| Error::NoPrediction { user, item, reason })
    }

    fn evidence(&self, ctx: &Ctx<'_>, user: UserId, item: ItemId) -> Result<ModelEvidence> {
        self.check_ids(ctx, user, item)?;
        let neighbors = self.neighbors(ctx, user, item);
        if neighbors.is_empty() {
            return Err(Error::NoPrediction {
                user,
                item,
                reason: "no similar users rated this item",
            });
        }
        Ok(ModelEvidence::UserNeighbors { neighbors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exrec_data::synth::{movies, WorldConfig};
    use exrec_data::{Catalog, RatingsMatrix};
    use exrec_types::{DomainSchema, RatingScale};

    fn ctx_fixtures() -> (RatingsMatrix, Catalog) {
        // Users 0 and 1 agree perfectly; user 2 is their opposite.
        let schema = DomainSchema::new("d", vec![]).unwrap();
        let mut catalog = Catalog::new(schema);
        for k in 0..6 {
            catalog
                .add(&format!("m{k}"), Default::default(), vec![])
                .unwrap();
        }
        let mut m = RatingsMatrix::new(3, 6, RatingScale::FIVE_STAR);
        let grid = [
            (
                0u32,
                [Some(5.0), Some(4.0), Some(1.0), Some(2.0), None, Some(5.0)],
            ),
            (
                1u32,
                [Some(5.0), Some(4.0), Some(1.0), Some(2.0), Some(5.0), None],
            ),
            (
                2u32,
                [Some(1.0), Some(2.0), Some(5.0), Some(4.0), Some(1.0), None],
            ),
        ];
        for (u, row) in grid {
            for (i, v) in row.into_iter().enumerate() {
                if let Some(v) = v {
                    m.rate(UserId(u), ItemId(i as u32), v).unwrap();
                }
            }
        }
        (m, catalog)
    }

    fn knn() -> UserKnn {
        UserKnn::new(UserKnnConfig {
            k: 2,
            min_overlap: 2,
            significance: 0,
            ..UserKnnConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn follows_agreeing_neighbor() {
        let (m, c) = ctx_fixtures();
        let ctx = Ctx::new(&m, &c);
        // User 0 hasn't rated item 4; like-minded user 1 rated it 5,
        // opposite user 2 rated it 1. Prediction should be high.
        let p = knn().predict(&ctx, UserId(0), ItemId(4)).unwrap();
        assert!(p.score > 3.5, "expected high prediction, got {}", p.score);
    }

    #[test]
    fn evidence_lists_neighbors_sorted() {
        let (m, c) = ctx_fixtures();
        let ctx = Ctx::new(&m, &c);
        let ev = knn().evidence(&ctx, UserId(0), ItemId(4)).unwrap();
        match ev {
            ModelEvidence::UserNeighbors { neighbors } => {
                assert!(!neighbors.is_empty());
                assert!(neighbors
                    .windows(2)
                    .all(|w| w[0].similarity >= w[1].similarity));
                assert_eq!(neighbors[0].user, UserId(1));
            }
            other => panic!("wrong evidence kind: {}", other.kind()),
        }
    }

    #[test]
    fn no_prediction_without_raters() {
        let (mut m, c) = ctx_fixtures();
        m.ensure_items(7);
        let err = {
            let ctx = Ctx::new(&m, &c);
            knn().predict(&ctx, UserId(0), ItemId(6)).unwrap_err()
        };
        assert!(matches!(err, Error::NoPrediction { .. }));
    }

    #[test]
    fn rejects_out_of_range() {
        let (m, c) = ctx_fixtures();
        let ctx = Ctx::new(&m, &c);
        assert!(matches!(
            knn().predict(&ctx, UserId(99), ItemId(0)),
            Err(Error::UnknownUser { .. })
        ));
    }

    #[test]
    fn zero_k_is_invalid() {
        assert!(UserKnn::new(UserKnnConfig {
            k: 0,
            ..UserKnnConfig::default()
        })
        .is_err());
    }

    #[test]
    fn beats_global_mean_on_synthetic_world() {
        // Sanity: on a structured world, user-kNN MAE < always-global-mean MAE.
        let world = movies::generate(&WorldConfig {
            n_users: 60,
            n_items: 50,
            density: 0.35,
            ..WorldConfig::default()
        });
        let split = exrec_data::split::holdout(&world.ratings, 0.2, 9);
        let ctx = Ctx::new(&split.train, &world.catalog);
        let model = UserKnn::default();
        let gm = split.train.global_mean();
        let (mut knn_err, mut gm_err, mut n) = (0.0, 0.0, 0);
        for &(u, i, truth) in &split.test {
            if let Ok(p) = model.predict(&ctx, u, i) {
                knn_err += (p.score - truth).abs();
                gm_err += (gm - truth).abs();
                n += 1;
            }
        }
        assert!(n > 20, "need enough predictable pairs, got {n}");
        let (knn_mae, gm_mae) = (knn_err / n as f64, gm_err / n as f64);
        assert!(
            knn_mae < gm_mae,
            "kNN MAE {knn_mae:.3} should beat global-mean MAE {gm_mae:.3}"
        );
    }

    #[test]
    fn prediction_observes_rating_updates() {
        let (mut m, c) = ctx_fixtures();
        let before = {
            let ctx = Ctx::new(&m, &c);
            knn().predict(&ctx, UserId(0), ItemId(4)).unwrap().score
        };
        // Like-minded neighbour slams the item; prediction must drop.
        m.rate(UserId(1), ItemId(4), 1.0).unwrap();
        let after = {
            let ctx = Ctx::new(&m, &c);
            knn().predict(&ctx, UserId(0), ItemId(4)).unwrap().score
        };
        assert!(after < before, "expected {after} < {before}");
    }
}
