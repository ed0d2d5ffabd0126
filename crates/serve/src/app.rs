//! The application behind the HTTP edge: a synthetic world, a cached
//! k-NN model and the explanation engine, shaped into wire responses.
//!
//! Everything the handlers do is a thin adapter over existing pipeline
//! pieces: ranking goes through `BatchPool::recommend_batch`, explained
//! ranking through [`Explainer::recommend_explained_batch`], single-pair
//! explanations through [`Explainer::explain`]. The app adds the
//! serving-boundary concerns those APIs deliberately do not have:
//! request validation, deadline checks between work units, per-aim edge
//! telemetry, and (test-gated) fault injection.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use exrec_algo::batch::BatchPool;
use exrec_algo::cache::{CacheConfig, SimilarityCache};
use exrec_algo::{
    Ctx, IndexConfig, KernelConfig, ScanEngine, ScanMode, ScanStats, Scored, UserKnn,
};
use exrec_core::aims::Aim;
use exrec_core::engine::Explainer;
use exrec_core::explanation::Explanation;
use exrec_core::interfaces::{EvidenceNeed, InterfaceId};
use exrec_core::render::{PlainRenderer, Render};
use exrec_core::QualityProbe;
use exrec_data::synth::{movies, WorldConfig};
use exrec_data::wal::{self, WalStats};
use exrec_data::{FsyncPolicy, MutableWorld, RatingsMatrix, Wal, WalOp, WalRecord, World};
use exrec_obs::{QualityMonitor, QualitySample, Telemetry};
use exrec_registry::QualityBook;
use exrec_types::{Error, ItemId, UserId};

use crate::proto::{
    ExplainRequest, ExplainResponse, ExplanationBody, RateBatchRequest, RateRequest, RateResponse,
    RecommendRequest, RecommendResponse, ScoredItem, UserRecommendations,
};

/// A per-request time budget, measured from admission.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `ms` milliseconds after `start`.
    pub fn from(start: Instant, ms: u64) -> Self {
        Deadline {
            at: start + Duration::from_millis(ms),
        }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Deadline::from(Instant::now(), ms)
    }

    /// Whether the budget is spent.
    pub fn exceeded(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// How a request failed inside the app; the server maps these onto HTTP
/// status codes (see `docs/serving.md`).
#[derive(Debug)]
pub enum AppError {
    /// Malformed or out-of-policy request → 400.
    BadRequest(String),
    /// A referenced user or item does not exist → 404.
    NotFound(String),
    /// The pair is valid but no explanation/prediction can be produced
    /// (e.g. the interface's evidence needs are unmet) → 422.
    Unprocessable(String),
    /// The per-request deadline elapsed before completion → 504.
    DeadlineExceeded,
    /// The server itself failed (journal I/O, snapshot write) → 500.
    Internal(String),
}

/// Configuration of the serving application.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Synthetic-world user count.
    pub n_users: usize,
    /// Synthetic-world item count.
    pub n_items: usize,
    /// Synthetic-world rating density.
    pub density: f64,
    /// World RNG seed (equal seeds serve identical answers).
    pub seed: u64,
    /// Interface used when a request does not name one.
    pub default_interface: InterfaceId,
    /// Top-k size when a request does not name one.
    pub default_n: usize,
    /// Per-request caps: most users per recommend call…
    pub max_batch_users: usize,
    /// …and largest top-k size.
    pub max_n: usize,
    /// Threads in the shared intra-request batch pool (`0` = cores).
    pub pool_threads: usize,
    /// Honour `inject_panic` / `inject_delay_ms` request fields. Test
    /// harnesses only; off by default.
    pub fault_injection: bool,
    /// Quality-sample one `/v1/explain` request in this many (`0`
    /// disables live quality estimation, `1` samples every request).
    pub quality_sample_every: u64,
    /// Explanation pairs sampled per interface by the startup scoring
    /// pass that seeds the aim-fit quality book.
    pub quality_pairs: usize,
    /// Serve every request through the exact tiled scan instead of the
    /// pruned candidate index (the `--exact` flag; see
    /// `docs/kernels.md#pruned-probing`).
    pub exact: bool,
    /// Write-ahead-log path (the `--wal-path` flag). When set, writes
    /// are journaled before they apply, and startup warm-restarts from
    /// `<path>.snap` plus the WAL tail. `None` keeps writes volatile.
    pub wal_path: Option<PathBuf>,
    /// Fsync the WAL on every append (the `--fsync` flag). Durable
    /// against power loss, at a per-write latency cost.
    pub fsync: bool,
    /// Most ops accepted in one `POST /v1/rate/batch` body.
    pub max_batch_ops: usize,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            n_users: 2_000,
            n_items: 300,
            density: 0.05,
            seed: 0xEC,
            default_interface: InterfaceId::ClusteredHistogram,
            default_n: 10,
            max_batch_users: 256,
            max_n: 100,
            pool_threads: 0,
            fault_injection: false,
            quality_sample_every: 8,
            quality_pairs: 16,
            exact: false,
            wal_path: None,
            fsync: false,
            max_batch_ops: 1_024,
        }
    }
}

/// The serving application: owns the data, model and batch pool the
/// worker threads share.
pub struct ExplainApp {
    config: AppConfig,
    world: MutableWorld,
    model: UserKnn,
    pool: BatchPool,
    telemetry: Telemetry,
    /// Measured per-interface quality on the served world, seeded by a
    /// startup scoring pass and refreshed by the live estimator.
    book: QualityBook,
    /// The 1-in-N online quality estimator behind `quality.*` metrics.
    monitor: QualityMonitor,
    /// Whether startup found (and loaded) a compaction snapshot.
    snapshot_loaded: bool,
    /// Write requests admitted (`POST /v1/rate` + `/v1/rate/batch`).
    ingest_requests: AtomicU64,
    /// Rating deltas actually applied to the matrix.
    ingest_applied: AtomicU64,
    /// Write requests rejected by validation.
    ingest_rejected: AtomicU64,
}

impl ExplainApp {
    /// Generates the world and builds the cached model. Expensive
    /// (world generation); call once at startup. Panics on journal
    /// I/O failures — use [`ExplainApp::try_new`] to handle them.
    pub fn new(config: AppConfig, telemetry: Telemetry) -> Self {
        Self::try_new(config, telemetry).expect("app startup")
    }

    /// [`ExplainApp::new`], surfacing WAL open/replay failures.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the journal (or its snapshot) cannot be
    /// opened, and [`Error::CorruptSnapshot`] when either is damaged
    /// beyond the tolerated torn tail.
    pub fn try_new(config: AppConfig, telemetry: Telemetry) -> Result<Self, Error> {
        let mut world = movies::generate(&WorldConfig {
            n_users: config.n_users,
            n_items: config.n_items,
            density: config.density,
            seed: config.seed,
            ..WorldConfig::default()
        });
        // Warm restart: a compaction snapshot (if present) replaces the
        // generated matrix wholesale, then the WAL tail replays on top.
        // Together they reproduce the exact pre-shutdown ratings.
        let mut snapshot_loaded = false;
        let wal_handle = match &config.wal_path {
            Some(path) => {
                if let Some(matrix) = wal::load_snapshot(path)? {
                    world.ratings = matrix;
                    snapshot_loaded = true;
                }
                let policy = if config.fsync {
                    FsyncPolicy::Always
                } else {
                    FsyncPolicy::Never
                };
                let (wal_handle, tail) = Wal::open(path, policy)?;
                wal::replay_into(&mut world.ratings, &tail)?;
                Some(wal_handle)
            }
            None => None,
        };
        let cache = Arc::new(SimilarityCache::instrumented(
            CacheConfig::default(),
            telemetry.metrics(),
            "serve",
        ));
        // The scan engine replaces the seed's dense per-request user
        // sweep: pruned candidate probing by default, the exact tiled
        // kernel under `--exact` (both revision-keyed like the cache).
        let engine = Arc::new(ScanEngine::instrumented(
            KernelConfig::default(),
            IndexConfig::default(),
            telemetry.metrics(),
            "serve",
        ));
        let mode = if config.exact {
            ScanMode::Exact
        } else {
            ScanMode::Pruned
        };
        let model = UserKnn::default()
            .with_cache(cache)
            .with_engine(engine, mode);
        let pool = BatchPool::new(config.pool_threads).with_telemetry(telemetry.clone());
        // Seed the aim-fit book by scoring every interface against the
        // world and model actually served — the same pass the offline
        // suite runs, sized down by `quality_pairs`.
        let book = QualityBook::from_interfaces(exrec_eval::quality::score_interfaces(
            &world,
            &model,
            &exrec_eval::quality::QualityConfig {
                sample_pairs: config.quality_pairs,
                ..exrec_eval::quality::QualityConfig::default()
            },
        ));
        let monitor = QualityMonitor::new(
            telemetry.clone(),
            exrec_obs::quality::QualityConfig {
                sample_every: config.quality_sample_every,
                ..exrec_obs::quality::QualityConfig::default()
            },
        );
        let app = ExplainApp {
            config,
            world: MutableWorld::with_wal(world, wal_handle),
            model,
            pool,
            telemetry,
            book,
            monitor,
            snapshot_loaded,
            ingest_requests: AtomicU64::new(0),
            ingest_applied: AtomicU64::new(0),
            ingest_rejected: AtomicU64::new(0),
        };
        app.refresh_wal_gauges();
        Ok(app)
    }

    /// The app's configuration.
    pub fn config(&self) -> &AppConfig {
        &self.config
    }

    /// Number of users in the served world (valid ids are `0..n`).
    pub fn n_users(&self) -> usize {
        self.world.read().ratings.n_users()
    }

    /// Number of items in the served catalog (valid ids are `0..n`).
    pub fn n_items(&self) -> usize {
        self.world.read().catalog.len()
    }

    /// Number of observed ratings in the served world.
    pub fn n_ratings(&self) -> usize {
        self.world.read().ratings.n_ratings()
    }

    /// Current ratings-matrix revision (bumps on mutation; keys the
    /// similarity cache's validity).
    pub fn ratings_revision(&self) -> u64 {
        self.world.read().ratings.revision()
    }

    /// Resolved thread count of the shared intra-request batch pool.
    pub fn pool_threads(&self) -> usize {
        self.pool.threads()
    }

    /// Stable name of the serving model (e.g. `"user-knn"`).
    pub fn model_name(&self) -> &'static str {
        use exrec_algo::Recommender as _;
        self.model.name()
    }

    /// Similarity-cache statistics plus total capacity, for `/healthz`
    /// occupancy fields and `GET /debug/world`. `None` when the model
    /// runs uncached.
    pub fn cache_stats(&self) -> Option<(exrec_algo::cache::CacheStats, usize)> {
        self.model
            .cache()
            .map(|cache| (cache.stats(), cache.capacity()))
    }

    /// Stable name of the neighbour-scan mode actually serving
    /// (`"exact"` / `"pruned"`; `"brute"` would mean no engine).
    pub fn scan_mode(&self) -> &'static str {
        self.model.scan_mode_name()
    }

    /// Point-in-time scan-engine statistics for `GET /debug/world`;
    /// `None` when the model runs the brute per-pair path.
    pub fn scan_stats(&self) -> Option<ScanStats> {
        self.model.engine().map(|(engine, _)| engine.stats())
    }

    /// The measured per-interface quality book behind aim-fit
    /// selection and `GET /debug/quality`.
    pub fn quality_book(&self) -> &QualityBook {
        &self.book
    }

    /// The live quality estimator (`quality.*` metrics, sustained-drop
    /// detection, `GET /debug/quality`'s `online` section).
    pub fn quality_monitor(&self) -> &QualityMonitor {
        &self.monitor
    }

    /// The interface an explain naming only `aim` is served with: the
    /// quality book's aim-fit choice when the served user-kNN model can
    /// feed its evidence, else the configured default. The book is
    /// measured across models, so its choice may need evidence this
    /// model never produces (`effectiveness` picks item-kNN anchors).
    pub(crate) fn interface_for_aim(&self, aim: Aim) -> InterfaceId {
        self.book
            .select_or_default(aim)
            .filter(|id| {
                matches!(
                    id.descriptor().needs,
                    EvidenceNeed::Any | EvidenceNeed::UserNeighbors
                )
            })
            .unwrap_or(self.config.default_interface)
    }

    /// Runs the (test-gated) fault hooks shared by both POST endpoints.
    fn fault_hooks(
        &self,
        inject_panic: Option<bool>,
        inject_delay_ms: Option<u64>,
        deadline: Deadline,
    ) -> Result<(), AppError> {
        if inject_panic.is_none() && inject_delay_ms.is_none() {
            return Ok(());
        }
        if !self.config.fault_injection {
            return Err(AppError::BadRequest(
                "fault-injection fields require the server's --fault-injection flag".to_owned(),
            ));
        }
        if inject_panic == Some(true) {
            panic!("injected handler panic (fault-injection)");
        }
        if let Some(ms) = inject_delay_ms {
            let until = Instant::now() + Duration::from_millis(ms);
            while Instant::now() < until {
                if deadline.exceeded() {
                    return Err(AppError::DeadlineExceeded);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }

    /// Resolves an optional interface key against the catalog.
    fn resolve_interface(&self, key: Option<&str>) -> Result<InterfaceId, AppError> {
        match key {
            None => Ok(self.config.default_interface),
            Some(key) => InterfaceId::from_key(key)
                .ok_or_else(|| AppError::BadRequest(format!("unknown interface {key:?}"))),
        }
    }

    /// Resolves an optional lowercased aim name against the taxonomy.
    fn resolve_aim(&self, key: Option<&str>) -> Result<Option<Aim>, AppError> {
        let Some(key) = key else {
            return Ok(None);
        };
        let lowered = key.to_ascii_lowercase();
        Aim::ALL
            .into_iter()
            .find(|a| a.name().to_ascii_lowercase() == lowered)
            .map(Some)
            .ok_or_else(|| AppError::BadRequest(format!("unknown aim {key:?}")))
    }

    /// Validates a raw user id against the served world. Takes the
    /// world by reference so callers holding the read guard don't
    /// re-lock (nested read acquisition can deadlock behind a writer).
    fn user(world: &World, raw: u32) -> Result<UserId, AppError> {
        let n = world.ratings.n_users();
        if (raw as usize) < n {
            Ok(UserId::new(raw))
        } else {
            Err(AppError::NotFound(format!("user {raw} outside 0..{n}")))
        }
    }

    /// Validates a raw item id against the served catalog.
    fn item(world: &World, raw: u32) -> Result<ItemId, AppError> {
        let n = world.catalog.len();
        if (raw as usize) < n {
            Ok(ItemId::new(raw))
        } else {
            Err(AppError::NotFound(format!("item {raw} outside 0..{n}")))
        }
    }

    /// Counts one served explanation's aims at the edge
    /// (`serve.aims.<aim>` counters).
    fn count_aims(&self, explanation: &Explanation) {
        let metrics = self.telemetry.metrics();
        for aim in explanation.aims.iter() {
            metrics
                .counter(&format!("serve.aims.{}", aim.name().to_ascii_lowercase()))
                .incr();
        }
    }

    /// Flattens an explanation for the wire.
    fn shape_explanation(&self, explanation: &Explanation) -> ExplanationBody {
        // The presentation-render phase of the request profile: aims
        // accounting plus the plain-text document rendering.
        let _phase = exrec_obs::profile::phase("render");
        self.count_aims(explanation);
        ExplanationBody {
            interface: explanation.interface.to_owned(),
            style: explanation.style.name().to_owned(),
            aims: explanation
                .aims
                .iter()
                .map(|a| a.name().to_ascii_lowercase())
                .collect(),
            text: PlainRenderer.render(explanation),
        }
    }

    fn shape_scored(scored: &Scored, explanation: Option<ExplanationBody>) -> ScoredItem {
        ScoredItem {
            item: scored.item.raw(),
            score: scored.prediction.score,
            confidence: scored.prediction.confidence.value(),
            explanation,
        }
    }

    /// Handles `POST /v1/recommend`.
    ///
    /// # Errors
    ///
    /// [`AppError::BadRequest`] on empty/oversized batches, bad `n` or
    /// an unknown interface key; [`AppError::NotFound`] for out-of-world
    /// user ids; [`AppError::DeadlineExceeded`] when the budget elapses
    /// between work units.
    pub fn recommend(
        &self,
        req: &RecommendRequest,
        deadline: Deadline,
    ) -> Result<RecommendResponse, AppError> {
        self.fault_hooks(req.inject_panic, req.inject_delay_ms, deadline)?;
        if req.users.is_empty() {
            return Err(AppError::BadRequest("users must be non-empty".to_owned()));
        }
        if req.users.len() > self.config.max_batch_users {
            return Err(AppError::BadRequest(format!(
                "{} users exceeds the per-request cap of {}",
                req.users.len(),
                self.config.max_batch_users
            )));
        }
        let n = req.n.unwrap_or(self.config.default_n);
        if n == 0 || n > self.config.max_n {
            return Err(AppError::BadRequest(format!(
                "n must be in 1..={}",
                self.config.max_n
            )));
        }
        let interface = self.resolve_interface(req.interface.as_deref())?;
        // One read guard for the whole request: writes queue behind it
        // and land between requests, never inside one.
        let world = self.world.read();
        let users: Vec<UserId> = req
            .users
            .iter()
            .map(|&raw| Self::user(&world, raw))
            .collect::<Result<_, _>>()?;
        let explain = req.explain.unwrap_or(false);
        let ctx = Ctx::new(&world.ratings, &world.catalog);

        // Deadlines are checked between pool-sized chunks: a worker can
        // not abandon a user mid-score, but an overrunning batch stops
        // at the next chunk boundary instead of running to completion.
        let chunk_size = (self.pool.threads().max(1)) * 2;
        let mut results = Vec::with_capacity(users.len());
        for chunk in users.chunks(chunk_size) {
            if deadline.exceeded() {
                return Err(AppError::DeadlineExceeded);
            }
            if explain {
                let explainer =
                    Explainer::new(&self.model, interface).with_telemetry(self.telemetry.clone());
                let per_user = explainer.recommend_explained_batch(&ctx, &self.pool, chunk, n);
                for (&user, items) in chunk.iter().zip(per_user) {
                    results.push(UserRecommendations {
                        user: user.raw(),
                        items: items
                            .iter()
                            .map(|(scored, explanation)| {
                                Self::shape_scored(
                                    scored,
                                    Some(self.shape_explanation(explanation)),
                                )
                            })
                            .collect(),
                    });
                }
            } else {
                let per_user = self.pool.recommend_batch(&self.model, &ctx, chunk, n);
                for (&user, items) in chunk.iter().zip(per_user) {
                    results.push(UserRecommendations {
                        user: user.raw(),
                        items: items.iter().map(|s| Self::shape_scored(s, None)).collect(),
                    });
                }
            }
        }
        Ok(RecommendResponse { results })
    }

    /// Handles `POST /v1/explain`.
    ///
    /// # Errors
    ///
    /// [`AppError::BadRequest`] for unknown interface keys,
    /// [`AppError::NotFound`] for out-of-world ids,
    /// [`AppError::Unprocessable`] when prediction or explanation
    /// generation fails for the pair, [`AppError::DeadlineExceeded`]
    /// when the budget is already spent.
    pub fn explain(
        &self,
        req: &ExplainRequest,
        deadline: Deadline,
    ) -> Result<ExplainResponse, AppError> {
        self.fault_hooks(req.inject_panic, req.inject_delay_ms, deadline)?;
        let aim = self.resolve_aim(req.aim.as_deref())?;
        // An explicit interface always wins; an aim alone selects the
        // measurably best-fitting interface the model can feed.
        let interface = match (req.interface.as_deref(), aim) {
            (Some(key), _) => self.resolve_interface(Some(key))?,
            (None, Some(aim)) => self.interface_for_aim(aim),
            (None, None) => self.config.default_interface,
        };
        let world = self.world.read();
        let user = Self::user(&world, req.user)?;
        let item = Self::item(&world, req.item)?;
        if deadline.exceeded() {
            return Err(AppError::DeadlineExceeded);
        }
        let ctx = Ctx::new(&world.ratings, &world.catalog);
        let explainer =
            Explainer::new(&self.model, interface).with_telemetry(self.telemetry.clone());
        let aim_echo = aim.map(|a| a.name().to_ascii_lowercase());
        // On sampled requests the evidence-carrying path runs so the
        // quality probe can measure coverage/fidelity on data already
        // in hand; unsampled requests keep the lean path.
        if self.monitor.should_sample() {
            match explainer.explain_with_evidence(&ctx, user, item) {
                Ok((prediction, explanation, evidence)) => {
                    self.record_quality(&world.ratings, interface, &explanation, &evidence, user);
                    Ok(ExplainResponse {
                        user: req.user,
                        item: req.item,
                        score: prediction.score,
                        confidence: prediction.confidence.value(),
                        aim: aim_echo,
                        explanation: self.shape_explanation(&explanation),
                    })
                }
                Err(e) => Err(AppError::Unprocessable(e.to_string())),
            }
        } else {
            match explainer.explain(&ctx, user, item) {
                Ok((prediction, explanation)) => Ok(ExplainResponse {
                    user: req.user,
                    item: req.item,
                    score: prediction.score,
                    confidence: prediction.confidence.value(),
                    aim: aim_echo,
                    explanation: self.shape_explanation(&explanation),
                }),
                // MissingEvidence (interface/model mismatch) and
                // NoPrediction (cold pair) are both "valid ids, no
                // answer": 422.
                Err(e) => Err(AppError::Unprocessable(e.to_string())),
            }
        }
    }

    /// Handles `POST /v1/rate`: one journaled rating write (or retract,
    /// when `value` is omitted).
    ///
    /// # Errors
    ///
    /// [`AppError::NotFound`] for out-of-world ids,
    /// [`AppError::Unprocessable`] for off-scale values,
    /// [`AppError::DeadlineExceeded`] when the budget is already spent,
    /// [`AppError::Internal`] on journal I/O failure.
    pub fn rate(&self, req: &RateRequest, deadline: Deadline) -> Result<RateResponse, AppError> {
        if deadline.exceeded() {
            return Err(AppError::DeadlineExceeded);
        }
        let user = UserId::new(req.user);
        let item = ItemId::new(req.item);
        let record = match req.value {
            Some(value) => WalRecord::Rate { user, item, value },
            None => WalRecord::Unrate { user, item },
        };
        self.apply_record(&record)
    }

    /// Handles `POST /v1/rate/batch`: many writes in one journaled,
    /// atomically-validated record.
    ///
    /// # Errors
    ///
    /// [`AppError::BadRequest`] on empty or oversized batches; any op
    /// failing validation rejects the whole batch with that op's error
    /// (see [`ExplainApp::rate`]) and nothing is applied.
    pub fn rate_batch(
        &self,
        req: &RateBatchRequest,
        deadline: Deadline,
    ) -> Result<RateResponse, AppError> {
        if req.ops.is_empty() {
            return Err(AppError::BadRequest("ops must be non-empty".to_owned()));
        }
        if req.ops.len() > self.config.max_batch_ops {
            return Err(AppError::BadRequest(format!(
                "{} ops exceeds the per-request cap of {}",
                req.ops.len(),
                self.config.max_batch_ops
            )));
        }
        if deadline.exceeded() {
            return Err(AppError::DeadlineExceeded);
        }
        let ops = req
            .ops
            .iter()
            .map(|op| {
                let user = UserId::new(op.user);
                let item = ItemId::new(op.item);
                match op.value {
                    Some(value) => WalOp::Rate { user, item, value },
                    None => WalOp::Unrate { user, item },
                }
            })
            .collect();
        self.apply_record(&WalRecord::Batch(ops))
    }

    /// The shared write path: journal + apply the record under the
    /// write lock, and — still under the lock, so readers never observe
    /// the new revision with stale derived state — surgically maintain
    /// the similarity cache and the scan engine from the deltas.
    fn apply_record(&self, record: &WalRecord) -> Result<RateResponse, AppError> {
        let _phase = exrec_obs::profile::phase("ingest_apply");
        let metrics = self.telemetry.metrics();
        self.ingest_requests.fetch_add(1, Ordering::Relaxed);
        metrics.counter("ingest.requests").incr();
        let started = Instant::now();
        let outcome = self
            .world
            .apply(record, |world, deltas| {
                if deltas.is_empty() {
                    return;
                }
                let revision = world.ratings.revision();
                let mut touched: Vec<u32> = deltas.iter().map(|d| d.user.raw()).collect();
                touched.sort_unstable();
                touched.dedup();
                // Similarity is local to its two users: only pairs
                // involving a touched user can change, so the cache
                // survives the write minus exactly those entries.
                if let Some(cache) = self.model.cache() {
                    cache.invalidate_users(&touched, revision);
                }
                // The engine buffers the deltas and patches its CSR
                // snapshot / candidate index incrementally on the next
                // scan (full rebuild only past the drift threshold).
                if let Some((engine, _)) = self.model.engine() {
                    engine.notify_deltas(deltas);
                }
            })
            .map_err(|e| {
                self.ingest_rejected.fetch_add(1, Ordering::Relaxed);
                metrics.counter("ingest.rejected").incr();
                Self::map_write_error(&e)
            })?;
        self.ingest_applied
            .fetch_add(outcome.applied, Ordering::Relaxed);
        metrics.counter("ingest.ops_applied").add(outcome.applied);
        metrics
            .histogram("ingest.apply_ns")
            .record(started.elapsed());
        let journaled = self.config.wal_path.is_some();
        if journaled {
            metrics
                .histogram("ingest.wal_append_ns")
                .record_ns(outcome.wal_append_ns);
            self.refresh_wal_gauges();
        }
        Ok(RateResponse {
            applied: outcome.applied,
            ops: outcome.ops,
            revision: outcome.revision,
            wal_append_ns: outcome.wal_append_ns,
            wal_size_bytes: journaled.then_some(outcome.wal_size_bytes),
        })
    }

    /// Maps a data-layer write failure onto the HTTP-facing error.
    fn map_write_error(e: &Error) -> AppError {
        match e {
            Error::InvalidRating { .. } => AppError::Unprocessable(e.to_string()),
            Error::UnknownUser { .. } | Error::UnknownItem { .. } => {
                AppError::NotFound(e.to_string())
            }
            other => AppError::Internal(other.to_string()),
        }
    }

    /// Publishes the journal's current shape as `wal.*` gauges.
    fn refresh_wal_gauges(&self) {
        if let Some(stats) = self.world.wal_stats() {
            let metrics = self.telemetry.metrics();
            metrics.gauge("wal.size_bytes").set(stats.size_bytes as f64);
            metrics.gauge("wal.records").set(stats.records as f64);
            metrics.gauge("wal.replayed").set(stats.replayed as f64);
            metrics
                .gauge("wal.truncated_bytes")
                .set(stats.truncated_bytes as f64);
        }
    }

    /// Compacts the journal (snapshot beside the WAL, then empty the
    /// log); the `serve` binary runs this after a clean drain. `None`
    /// without a journal.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on snapshot or truncation failure.
    pub fn compact(&self) -> Result<Option<PathBuf>, Error> {
        let compacted = self.world.compact()?;
        if compacted.is_some() {
            self.telemetry.metrics().counter("wal.compactions").incr();
            self.refresh_wal_gauges();
        }
        Ok(compacted)
    }

    /// Journal stats for `/debug/ingest`; `None` without `--wal-path`.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.world.wal_stats()
    }

    /// The journal path in effect, if any.
    pub fn wal_path(&self) -> Option<&Path> {
        self.config.wal_path.as_deref()
    }

    /// Whether startup warm-restarted from a compaction snapshot.
    pub fn snapshot_loaded(&self) -> bool {
        self.snapshot_loaded
    }

    /// Lifetime ingest counts: `(requests, deltas applied, rejected)`.
    pub fn ingest_counts(&self) -> (u64, u64, u64) {
        (
            self.ingest_requests.load(Ordering::Relaxed),
            self.ingest_applied.load(Ordering::Relaxed),
            self.ingest_rejected.load(Ordering::Relaxed),
        )
    }

    /// Measures one sampled explanation, feeds the live estimator,
    /// attributes the score to the request's phase collector, and
    /// folds the interface's rolling means back into the quality book.
    fn record_quality(
        &self,
        ratings: &RatingsMatrix,
        interface: InterfaceId,
        explanation: &Explanation,
        evidence: &exrec_algo::ModelEvidence,
        user: UserId,
    ) {
        let _phase = exrec_obs::profile::phase("quality_probe");
        let baseline = ratings
            .user_mean(user)
            .unwrap_or_else(|| ratings.global_mean());
        let span = ratings.scale().span();
        let probe = QualityProbe::measure(explanation, evidence, baseline, span);
        let sample = QualitySample {
            interface: interface.key(),
            aims: explanation
                .aims
                .iter()
                .map(|a| a.name().to_ascii_lowercase())
                .collect(),
            fidelity: probe.fidelity,
            coverage: probe.coverage,
            provenance_depth: probe.provenance_depth,
            score: probe.score(),
        };
        self.monitor.observe(&sample);
        exrec_obs::profile::quality_sample(sample.score);
        let snapshot = self.monitor.snapshot();
        if let Some(stat) = snapshot
            .interfaces
            .iter()
            .find(|s| s.name == sample.interface)
        {
            self.book.refresh(
                &stat.name,
                stat.fidelity,
                stat.coverage,
                stat.provenance_depth,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> ExplainApp {
        ExplainApp::new(
            AppConfig {
                n_users: 60,
                n_items: 40,
                density: 0.3,
                ..AppConfig::default()
            },
            Telemetry::default(),
        )
    }

    fn recommend_req(users: Vec<u32>) -> RecommendRequest {
        RecommendRequest {
            users,
            n: Some(3),
            interface: None,
            explain: Some(true),
            deadline_ms: None,
            inject_panic: None,
            inject_delay_ms: None,
        }
    }

    #[test]
    fn recommend_shapes_explained_results() {
        let app = app();
        let resp = app
            .recommend(&recommend_req(vec![0, 1, 2]), Deadline::after_ms(60_000))
            .unwrap();
        assert_eq!(resp.results.len(), 3);
        for (idx, per_user) in resp.results.iter().enumerate() {
            assert_eq!(per_user.user, idx as u32);
            for item in &per_user.items {
                assert!((item.item as usize) < app.n_items());
                assert!(item.confidence >= 0.0 && item.confidence <= 1.0);
                let explanation = item.explanation.as_ref().expect("explain=true");
                assert_eq!(explanation.interface, "clustered_histogram");
                assert!(!explanation.text.is_empty());
                assert!(!explanation.aims.is_empty());
            }
        }
    }

    #[test]
    fn recommend_validates_inputs() {
        let app = app();
        let far = Deadline::after_ms(60_000);
        assert!(matches!(
            app.recommend(&recommend_req(vec![]), far),
            Err(AppError::BadRequest(_))
        ));
        assert!(matches!(
            app.recommend(&recommend_req(vec![9_999]), far),
            Err(AppError::NotFound(_))
        ));
        let mut bad_interface = recommend_req(vec![0]);
        bad_interface.interface = Some("nope".to_owned());
        assert!(matches!(
            app.recommend(&bad_interface, far),
            Err(AppError::BadRequest(_))
        ));
        let mut bad_n = recommend_req(vec![0]);
        bad_n.n = Some(0);
        assert!(matches!(
            app.recommend(&bad_n, far),
            Err(AppError::BadRequest(_))
        ));
    }

    #[test]
    fn spent_deadline_stops_work() {
        let app = app();
        let spent = Deadline::from(Instant::now() - Duration::from_millis(10), 1);
        assert!(matches!(
            app.recommend(&recommend_req(vec![0, 1]), spent),
            Err(AppError::DeadlineExceeded)
        ));
    }

    #[test]
    fn explain_returns_rendered_explanation_and_counts_aims() {
        let telemetry = Telemetry::default();
        let app = ExplainApp::new(
            AppConfig {
                n_users: 60,
                n_items: 40,
                density: 0.3,
                ..AppConfig::default()
            },
            telemetry.clone(),
        );
        let resp = app
            .explain(
                &ExplainRequest {
                    user: 0,
                    item: 1,
                    interface: Some("item_average".to_owned()),
                    aim: None,
                    deadline_ms: None,
                    inject_panic: None,
                    inject_delay_ms: None,
                },
                Deadline::after_ms(60_000),
            )
            .unwrap();
        assert_eq!(resp.user, 0);
        assert_eq!(resp.item, 1);
        assert_eq!(resp.explanation.interface, "item_average");
        assert!(!resp.explanation.text.is_empty());
        let report = telemetry.report();
        let aim_counts: u64 = report
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("serve.aims."))
            .map(|(_, v)| v)
            .sum();
        assert!(aim_counts > 0, "edge aim counters recorded");
    }

    #[test]
    fn wal_tail_replay_restores_the_world_without_a_snapshot() {
        use crate::proto::RateOpBody;
        let dir = std::env::temp_dir().join(format!("exrec-serve-app-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = AppConfig {
            n_users: 60,
            n_items: 40,
            density: 0.3,
            wal_path: Some(dir.join("app.wal")),
            ..AppConfig::default()
        };
        let far = Deadline::after_ms(60_000);
        let recommend = recommend_req(vec![0, 1, 5]);

        let first = ExplainApp::new(config.clone(), Telemetry::default());
        let rated = first
            .rate(
                &RateRequest {
                    user: 5,
                    item: 9,
                    value: Some(5.0),
                    deadline_ms: None,
                },
                far,
            )
            .unwrap();
        assert_eq!(rated.applied, 1);
        assert!(rated.wal_size_bytes.unwrap() > 0);
        first
            .rate_batch(
                &RateBatchRequest {
                    ops: vec![
                        RateOpBody {
                            user: 1,
                            item: 2,
                            value: Some(4.0),
                        },
                        RateOpBody {
                            user: 5,
                            item: 9,
                            value: None,
                        },
                    ],
                    deadline_ms: None,
                },
                far,
            )
            .unwrap();
        let n_ratings = first.n_ratings();
        let served = first.recommend(&recommend, far).unwrap();
        // Dropped without compaction: the crash case. Recovery must
        // come from the WAL tail alone.
        drop(first);

        let second = ExplainApp::new(config, Telemetry::default());
        assert!(!second.snapshot_loaded(), "no compaction ran");
        assert_eq!(second.wal_stats().unwrap().replayed, 2);
        assert_eq!(second.n_ratings(), n_ratings);
        let recovered = second.recommend(&recommend, far).unwrap();
        assert_eq!(
            serde_json::to_string(&recovered).unwrap(),
            serde_json::to_string(&served).unwrap(),
            "replayed world must serve bit-identical recommendations"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_fields_rejected_unless_enabled() {
        let app = app();
        let mut req = recommend_req(vec![0]);
        req.inject_panic = Some(true);
        assert!(matches!(
            app.recommend(&req, Deadline::after_ms(1_000)),
            Err(AppError::BadRequest(_))
        ));
    }
}
