//! Integration and property tests for the CSR-tiled similarity kernel
//! and the cluster-pruned candidate index.
//!
//! The correctness bar from `docs/kernels.md`:
//!
//! * **Exact mode is bit-identical** to the brute per-pair path — same
//!   top-k, same scores down to the float bits, for every similarity
//!   measure, with or without a similarity cache attached, including
//!   the negative-`min_similarity` edge where zero-similarity raters
//!   survive the filter.
//! * **Tile size is a pure performance knob** — any tile size produces
//!   the identical exact ranking.
//! * **The sorted row walk ranks like the column walk** — every unrated
//!   item's neighbour list, score and confidence from one sorted pass
//!   over the scored users equals the per-item column walk's, bit for
//!   bit, in exact and pruned mode.
//! * **Pruned mode keeps recall@k ≥ 0.99** against exact on seeded
//!   synthetic worlds, and **falls back to exact** when the candidate
//!   set is too small for `k`.

use std::sync::Arc;

use exrec_algo::cache::{CacheConfig, SimilarityCache};
use exrec_algo::kernel::{
    overlap_candidates, scan_similarities, union_sorted, CsrRatings, SimParams,
};
use exrec_algo::neighbors::{top_k_per_item, top_k_stream};
use exrec_algo::recommender::NeighborContribution;
use exrec_algo::user_knn::UserKnnConfig;
use exrec_algo::{
    Ctx, IndexConfig, KernelConfig, Recommender, ScanEngine, ScanMode, Scored, Similarity,
    TileSize, UserKnn,
};
use exrec_data::synth::{movies, WorldConfig};
use exrec_data::{RatingsMatrix, World};
use exrec_types::{Confidence, ItemId, Prediction, UserId};
use proptest::prelude::*;

fn world(n_users: usize, n_items: usize, seed: u64) -> World {
    movies::generate(&WorldConfig {
        n_users,
        n_items,
        density: 0.2,
        seed,
        ..WorldConfig::default()
    })
}

fn engine_with(tile: TileSize, index: IndexConfig) -> Arc<ScanEngine> {
    Arc::new(ScanEngine::new(
        KernelConfig {
            tile,
            ..KernelConfig::default()
        },
        index,
    ))
}

fn assert_bit_identical(a: &[Scored], b: &[Scored], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: result length");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.item, y.item, "{label}: item order");
        assert_eq!(
            x.prediction.score.to_bits(),
            y.prediction.score.to_bits(),
            "{label}: score bits for {:?}",
            x.item
        );
        assert_eq!(
            x.prediction.confidence.value().to_bits(),
            y.prediction.confidence.value().to_bits(),
            "{label}: confidence bits for {:?}",
            x.item
        );
    }
}

/// Exact mode must reproduce the brute path bit-for-bit: every
/// similarity measure, negative min_similarity (which admits
/// zero-similarity raters), and a cache on the brute side.
#[test]
fn exact_mode_is_bit_identical_to_brute() {
    let w = world(150, 80, 0xC0FFEE);
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let users: Vec<UserId> = (0..150).step_by(7).map(|u| UserId(u as u32)).collect();
    for similarity in [
        Similarity::Pearson,
        Similarity::Cosine,
        Similarity::AdjustedCosine,
        Similarity::Jaccard,
    ] {
        for min_similarity in [0.0, -2.0] {
            let config = UserKnnConfig {
                similarity,
                min_similarity,
                ..UserKnnConfig::default()
            };
            let brute = UserKnn::new(config.clone()).unwrap();
            let cached = UserKnn::new(config.clone())
                .unwrap()
                .with_cache(Arc::new(SimilarityCache::new(CacheConfig::default())));
            let exact = UserKnn::new(config).unwrap().with_engine(
                engine_with(TileSize::Auto, IndexConfig::default()),
                ScanMode::Exact,
            );
            for &u in &users {
                let want = brute.recommend(&ctx, u, 10);
                let label = format!("{similarity:?} min_sim {min_similarity} user {u}");
                assert_bit_identical(&exact.recommend(&ctx, u, 10), &want, &label);
                assert_bit_identical(&cached.recommend(&ctx, u, 10), &want, &label);
                // The single-item evidence path must agree too.
                if let Some(first) = want.first() {
                    let bn = brute.neighbors(&ctx, u, first.item);
                    let en = exact.neighbors(&ctx, u, first.item);
                    assert_eq!(bn.len(), en.len(), "{label}: neighbour count");
                    for (x, y) in bn.iter().zip(&en) {
                        assert_eq!(x.user, y.user, "{label}: neighbour order");
                        assert_eq!(
                            x.similarity.to_bits(),
                            y.similarity.to_bits(),
                            "{label}: similarity bits"
                        );
                    }
                }
            }
        }
    }
}

/// Tile size only changes the clock, never the ranking.
#[test]
fn tile_size_is_result_invariant() {
    let w = world(200, 60, 0x711E);
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let reference = UserKnn::default().with_engine(
        engine_with(TileSize::Fixed(1), IndexConfig::default()),
        ScanMode::Exact,
    );
    let users: Vec<UserId> = (0..200).step_by(13).map(|u| UserId(u as u32)).collect();
    let wants: Vec<Vec<Scored>> = users
        .iter()
        .map(|&u| reference.recommend(&ctx, u, 8))
        .collect();
    for tile in [3, 7, 64, 200, 100_000] {
        let model = UserKnn::default().with_engine(
            engine_with(TileSize::Fixed(tile), IndexConfig::default()),
            ScanMode::Exact,
        );
        for (u, want) in users.iter().zip(&wants) {
            assert_bit_identical(
                &model.recommend(&ctx, *u, 8),
                want,
                &format!("tile {tile} user {u}"),
            );
        }
    }
}

/// Pruned mode on seeded worlds: recall@k of the *neighbour search* —
/// the top-k most similar users the pruned candidate set surfaces,
/// against the exact scan's top-k — must hold ≥ 0.99 averaged over
/// sampled queries. This is the metric `docs/kernels.md` defines (the
/// explanation-evidence guarantee: pruning must not change which
/// neighbours get cited), also reported by `serve_bench` and gated by
/// `benchdiff`.
#[test]
fn pruned_recall_at_k_holds() {
    for (n_users, n_items, seed) in [(4000usize, 150usize, 0xFEEDu64), (6000, 200, 0x5EED)] {
        let w = world(n_users, n_items, seed);
        let csr = Arc::new(CsrRatings::from_matrix(&w.ratings));
        let index_cfg = IndexConfig::default();
        let index = exrec_algo::CandidateIndex::build(&csr, &index_cfg);
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 20,
        };
        let k = 20usize;
        let (mut hit, mut total) = (0usize, 0usize);
        let (mut exact_sims, mut pruned_sims) = (Vec::new(), Vec::new());
        let mut pruned_something = false;
        for u in (0..n_users).step_by(n_users / 50) {
            let user = UserId(u as u32);
            scan_similarities(&csr, &params, user, None, 2048, &mut exact_sims);
            let cands = union_sorted(
                &index.candidates(&csr, user.raw()),
                &overlap_candidates(&csr, user, index_cfg.resolve_budget(n_users)),
            );
            if cands.len() < n_users {
                pruned_something = true;
            }
            scan_similarities(&csr, &params, user, Some(&cands), 2048, &mut pruned_sims);
            let topk = |sims: &[f64]| -> Vec<u32> {
                top_k_stream(
                    (0..n_users as u32).filter(|&v| v as usize != u && sims[v as usize] > 0.0),
                    k,
                    |&v| sims[v as usize],
                )
            };
            let want = topk(&exact_sims);
            let got = topk(&pruned_sims);
            total += want.len();
            hit += want.iter().filter(|v| got.contains(v)).count();
        }
        assert!(pruned_something, "worlds must be big enough to prune");
        assert!(total > 0, "queries must surface neighbours");
        let recall = hit as f64 / total as f64;
        assert!(
            recall >= 0.99,
            "pruned neighbour recall@{k} {recall:.4} below the 0.99 floor on n={n_users}"
        );
    }
}

/// A candidate set below the fallback floor degrades to an exact scan
/// instead of serving a starved neighbourhood.
#[test]
fn tiny_candidate_set_falls_back_to_exact() {
    let w = world(60, 40, 0xFA11);
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let engine = engine_with(TileSize::Auto, IndexConfig::default());
    let brute = UserKnn::default();
    let pruned = UserKnn::default().with_engine(Arc::clone(&engine), ScanMode::Pruned);
    // 60 users < fallback floor (min_candidates 64, and 4k = 80): every
    // request must fall back, making pruned bit-identical to brute.
    for u in (0..60u32).step_by(5) {
        assert_bit_identical(
            &pruned.recommend(&ctx, UserId(u), 10),
            &brute.recommend(&ctx, UserId(u), 10),
            &format!("fallback user {u}"),
        );
    }
    let stats = engine.stats();
    assert!(stats.exact_fallbacks > 0, "expected fallbacks: {stats:?}");
    assert_eq!(
        stats.pruned_scans, 0,
        "nothing should have pruned: {stats:?}"
    );
}

/// Mutating the matrix must invalidate the engine's snapshot: the next
/// scan sees the new rating, matching the stateless brute path.
#[test]
fn engine_observes_rating_updates() {
    let mut w = world(100, 50, 0xAB1E);
    let engine = engine_with(TileSize::Auto, IndexConfig::default());
    let exact = UserKnn::default().with_engine(Arc::clone(&engine), ScanMode::Exact);
    let brute = UserKnn::default();
    let user = UserId(3);
    let before = {
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        exact.recommend(&ctx, user, 5)
    };
    let target = before.first().expect("needs a recommendation").item;
    // The user rates their own top pick; it must vanish from the list
    // and the rebuilt snapshot must agree with brute exactly.
    w.ratings.rate(user, target, 1.0).unwrap();
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let after = exact.recommend(&ctx, user, 5);
    assert!(
        after.iter().all(|s| s.item != target),
        "rated item must drop"
    );
    assert_bit_identical(&after, &brute.recommend(&ctx, user, 5), "post-mutation");
    assert!(engine.stats().csr_builds >= 2, "snapshot must have rebuilt");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR round-trip: every row, column, mean and count the snapshot
    /// exposes matches the dense matrix it was built from.
    #[test]
    fn csr_round_trips_dense_matrix(seed in 0u64..1000, n_users in 2usize..40, n_items in 2usize..30) {
        let w = movies::generate(&WorldConfig {
            n_users,
            n_items,
            density: 0.3,
            seed,
            ..WorldConfig::default()
        });
        let m = &w.ratings;
        let csr = CsrRatings::from_matrix(m);
        prop_assert_eq!(csr.n_users(), m.n_users());
        prop_assert_eq!(csr.n_items(), m.n_items());
        prop_assert_eq!(csr.n_ratings(), m.n_ratings());
        prop_assert_eq!(csr.revision(), m.revision());
        for u in 0..m.n_users() {
            let dense = m.user_ratings(UserId(u as u32));
            let (items, vals) = csr.row(u);
            prop_assert_eq!(items.len(), dense.len());
            for (j, &(item, value)) in dense.iter().enumerate() {
                prop_assert_eq!(items[j], item.raw());
                prop_assert_eq!(vals[j].to_bits(), value.to_bits());
            }
            match m.user_mean(UserId(u as u32)) {
                Some(mean) => prop_assert_eq!(csr.user_mean_or(u, f64::NAN).to_bits(), mean.to_bits()),
                None => prop_assert_eq!(csr.user_mean_or(u, 9.5), 9.5),
            }
        }
        for i in 0..m.n_items() {
            let dense = m.item_ratings(ItemId(i as u32));
            let (users, vals) = csr.col(i);
            prop_assert_eq!(users.len(), dense.len());
            for (j, &(user, value)) in dense.iter().enumerate() {
                prop_assert_eq!(users[j], user.raw());
                prop_assert_eq!(vals[j].to_bits(), value.to_bits());
            }
        }
    }

    /// The raw kernel at any tile size equals the tile-1 kernel: the
    /// sims table is bit-for-bit the same, full range or subset.
    #[test]
    fn kernel_sims_tile_invariant(seed in 0u64..500, tile in 1usize..300, user in 0u32..30) {
        let w = movies::generate(&WorldConfig {
            n_users: 30,
            n_items: 25,
            density: 0.3,
            seed,
            ..WorldConfig::default()
        });
        let csr = CsrRatings::from_matrix(&w.ratings);
        let params = SimParams {
            similarity: Similarity::Pearson,
            min_overlap: 2,
            significance: 10,
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scan_similarities(&csr, &params, UserId(user), None, 1, &mut a);
        scan_similarities(&csr, &params, UserId(user), None, tile, &mut b);
        for v in 0..csr.n_users() {
            prop_assert_eq!(a[v].to_bits(), b[v].to_bits(), "full scan, candidate {}", v);
        }
        let subset: Vec<u32> = (0..30u32).step_by(3).collect();
        scan_similarities(&csr, &params, UserId(user), Some(&subset), tile, &mut b);
        for v in 0..csr.n_users() {
            let want = if subset.contains(&(v as u32)) { a[v] } else { 0.0 };
            prop_assert_eq!(b[v].to_bits(), want.to_bits(), "subset scan, candidate {}", v);
        }
    }
}

/// The list of users one request scans, chosen the way the serving
/// path chooses it: every user in exact mode; in pruned mode the
/// cluster probes united with the overlap pass, or every user when that
/// set is under the fallback floor.
fn scan_list(
    engine: &ScanEngine,
    csr: &Arc<CsrRatings>,
    user: UserId,
    mode: ScanMode,
    k: usize,
) -> Vec<u32> {
    let every = (0..csr.n_users() as u32).collect();
    if mode == ScanMode::Exact {
        return every;
    }
    let clustered = engine.index(csr).candidates(csr, user.raw());
    let budget = engine.index_config().resolve_budget(csr.n_users());
    let candidates = union_sorted(&clustered, &overlap_candidates(csr, user, budget));
    if candidates.len() < engine.fallback_floor(k) {
        every
    } else {
        candidates
    }
}

/// Reference gather: one item's column walked in ascending user id,
/// raters kept at `s > min_similarity`, one streaming top-k per item.
fn column_walk(
    csr: &CsrRatings,
    sims: &[f64],
    user: UserId,
    item: usize,
    config: &UserKnnConfig,
) -> Vec<NeighborContribution> {
    let (users, vals) = csr.col(item);
    let raters = users
        .iter()
        .zip(vals)
        .filter(|&(&v, _)| v != user.raw())
        .filter_map(|(&v, &rating)| {
            let similarity = sims[v as usize];
            (similarity > config.min_similarity).then_some(NeighborContribution {
                user: UserId(v),
                similarity,
                rating,
            })
        });
    top_k_stream(raters, config.k, |n| n.similarity)
}

/// Reference scoring of one neighbour list: mean-centred prediction,
/// confidence from neighbourhood fill and rating agreement.
fn reference_prediction(
    ctx: &Ctx<'_>,
    csr: &CsrRatings,
    user: UserId,
    neighbors: &[NeighborContribution],
    k: usize,
) -> Option<Prediction> {
    if neighbors.is_empty() {
        return None;
    }
    let global_mean = ctx.ratings.global_mean();
    let user_mean = ctx.ratings.user_mean(user).unwrap_or(global_mean);
    let (mut num, mut den) = (0.0, 0.0);
    for n in neighbors {
        num += n.similarity * (n.rating - csr.user_mean_or(n.user.index(), global_mean));
        den += n.similarity.abs();
    }
    if den <= 1e-12 {
        return None;
    }
    let score = ctx.ratings.scale().bound(user_mean + num / den);
    let len = neighbors.len() as f64;
    let fill = len / k as f64;
    let mean_rating = neighbors.iter().map(|n| n.rating).sum::<f64>() / len;
    let var = neighbors
        .iter()
        .map(|n| (n.rating - mean_rating).powi(2))
        .sum::<f64>()
        / len;
    let agreement = 1.0 - (var.sqrt() / (ctx.ratings.scale().span() / 2.0)).min(1.0);
    let confidence = Confidence::new(fill.min(1.0) * (0.3 + 0.7 * agreement));
    Some(Prediction::new(score, confidence))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sorted row walk ranks every unrated item's neighbours
    /// exactly as the per-item column walk does (same users, same
    /// order, same bits), and `recommend` scores match the reference
    /// arithmetic over those lists, for every similarity measure, a
    /// negative `min_similarity`, `k` from 1 to beyond any item's rater
    /// count, exact and pruned mode, and users with empty rows.
    #[test]
    fn sorted_gather_matches_column_walk(
        seed in 0u64..1000,
        n_users in 90usize..150,
        n_items in 8usize..30,
        emptied in 1usize..4,
    ) {
        let mut w = movies::generate(&WorldConfig {
            n_users,
            n_items,
            density: 0.2,
            seed,
            ..WorldConfig::default()
        });
        // Empty a few rows outright, one of them a probed user below.
        for u in (0..n_users).step_by(n_users / emptied).take(emptied) {
            let user = UserId(u as u32);
            let rated: Vec<ItemId> = w.ratings.user_ratings(user).iter().map(|&(i, _)| i).collect();
            for item in rated {
                w.ratings.unrate(user, item).unwrap();
            }
        }
        let ctx = Ctx::new(&w.ratings, &w.catalog);
        let probes: Vec<UserId> = (0..n_users).step_by(n_users / 4).map(|u| UserId(u as u32)).collect();
        // Small clusters and budget, so pruned scans really prune at
        // small k; larger k falls back to exact.
        let index = IndexConfig {
            centroids: 4,
            probes: 1,
            candidate_budget: 16,
            min_candidates: 8,
            ..IndexConfig::default()
        };
        let mut pruned_scans = 0;
        for similarity in [
            Similarity::Pearson,
            Similarity::Cosine,
            Similarity::AdjustedCosine,
            Similarity::Jaccard,
        ] {
            for min_similarity in [0.0, -2.0] {
                for k in [1, 3, 20, n_users + 1] {
                    for mode in [ScanMode::Exact, ScanMode::Pruned] {
                        let config = UserKnnConfig {
                            k,
                            similarity,
                            min_similarity,
                            ..UserKnnConfig::default()
                        };
                        let engine = engine_with(TileSize::Auto, index);
                        let model = UserKnn::new(config.clone())
                            .unwrap()
                            .with_engine(Arc::clone(&engine), mode);
                        let params = SimParams {
                            similarity,
                            min_overlap: config.min_overlap,
                            significance: config.significance,
                        };
                        let csr = engine.csr(&w.ratings, &params);
                        let mut sims = Vec::new();
                        for &user in &probes {
                            let label = format!("{similarity:?} min_sim {min_similarity} k {k} {mode:?} user {user}");
                            let list = scan_list(&engine, &csr, user, mode, k);
                            scan_similarities(&csr, &params, user, Some(&list), engine.tile(), &mut sims);
                            let unrated: Vec<ItemId> = w
                                .catalog
                                .ids()
                                .filter(|&i| w.ratings.rating(user, i).is_none())
                                .collect();
                            let mut eligible = vec![false; csr.n_items()];
                            for i in &unrated {
                                eligible[i.index()] = true;
                            }
                            let lists = top_k_per_item(&csr, &sims, user, &eligible, k, min_similarity);
                            let mut want = Vec::new();
                            for (i, got) in lists.iter().enumerate() {
                                if !eligible[i] {
                                    prop_assert!(got.is_empty(), "{}: item {} is not eligible", label, i);
                                    continue;
                                }
                                let reference = column_walk(&csr, &sims, user, i, &config);
                                prop_assert_eq!(got.len(), reference.len(), "{}: item {} list length", label, i);
                                for (x, y) in got.iter().zip(&reference) {
                                    prop_assert_eq!(x.user, y.user, "{}: item {} neighbour order", label, i);
                                    prop_assert_eq!(x.similarity.to_bits(), y.similarity.to_bits(), "{}: item {}", label, i);
                                    prop_assert_eq!(x.rating.to_bits(), y.rating.to_bits(), "{}: item {}", label, i);
                                }
                                if let Some(prediction) = reference_prediction(&ctx, &csr, user, &reference, k) {
                                    want.push(Scored { item: ItemId(i as u32), prediction });
                                }
                            }
                            want.sort_by(|a, b| {
                                b.prediction
                                    .score
                                    .partial_cmp(&a.prediction.score)
                                    .unwrap()
                                    .then(a.item.cmp(&b.item))
                            });
                            assert_bit_identical(&model.recommend(&ctx, user, usize::MAX), &want, &label);
                        }
                        pruned_scans += engine.stats().pruned_scans;
                    }
                }
            }
        }
        prop_assert!(pruned_scans > 0, "some pruned requests must really prune");
    }
}

/// An empty matrix and a single-user world must not panic anywhere in
/// the engine paths.
#[test]
fn degenerate_worlds_are_safe() {
    let m = RatingsMatrix::new(0, 0, exrec_types::RatingScale::FIVE_STAR);
    let csr = CsrRatings::from_matrix(&m);
    assert_eq!(csr.n_ratings(), 0);
    let params = SimParams {
        similarity: Similarity::Pearson,
        min_overlap: 2,
        significance: 0,
    };
    let mut sims = Vec::new();
    let outcome = scan_similarities(&csr, &params, UserId(0), None, 16, &mut sims);
    assert_eq!(outcome.scored, 0);

    let w = world(1, 5, 0x01);
    let ctx = Ctx::new(&w.ratings, &w.catalog);
    let model = UserKnn::default().with_engine(
        engine_with(TileSize::Auto, IndexConfig::default()),
        ScanMode::Pruned,
    );
    // One user has no neighbours; must return empty, not panic.
    assert!(model.recommend(&ctx, UserId(0), 5).is_empty());
    assert!(model.recommend(&ctx, UserId(99), 5).is_empty());
}
