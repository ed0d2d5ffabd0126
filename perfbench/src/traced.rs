//! The traced run: the seeded request stream replayed in-process, with
//! a span around each call into a layer's public API.
//!
//! Three legs share one recorder:
//!
//! * **setup** times each startup step on its own: world generation,
//!   CSR build, autotune, index build, quality-book seeding, and then
//!   `ExplainApp::try_new` as a whole.
//! * **app** sends each request through the edge's own pieces: HTTP
//!   parse, proto decode, the `ExplainApp` handler, proto encode, HTTP
//!   write and the per-request telemetry calls. The handler runs under
//!   the program's phase profiler; the phase totals it reports (index
//!   probe, kernel, gather, evidence, generate, render, …) become child
//!   spans of the handler span, laid out back to back from its start.
//!   `ScanEngine::stats()` around each handler call gives its work.
//! * **lock** runs one reader and one writer against a second copy of
//!   the world on the workload's schedule: the reader times read-lock
//!   acquisition, scans, and batch fan-out; the writer times
//!   `MutableWorld::apply` (with the engine's `notify_deltas` closure),
//!   then the CSR patch and index reassignment those deltas cause.

use std::collections::BTreeMap;
use std::io::{BufReader, Cursor};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use exrec_algo::kernel::autotune;
use exrec_algo::{
    BatchPool, CandidateIndex, CsrRatings, Ctx, IndexConfig, KernelConfig, Recommender, ScanEngine,
    ScanMode, ScanStats, UserKnn,
};
use exrec_data::{MutableWorld, RatingDelta, WalRecord, World};
use exrec_eval::quality::{score_interfaces, QualityConfig};
use exrec_obs::{
    FlightConfig, FlightRecorder, Metrics, PhaseCollector, Profiler, RequestRecord, SloConfig,
    SloMonitor, TimeSeries, TsConfig, WatchConfig, Watchdog,
};
use exrec_serve::app::{AppConfig, ExplainApp};
use exrec_serve::http::{self, Response};
use exrec_types::{ItemId, UserId};

use crate::inproc::{self, decode, handle, Answer};
use crate::spans::Recorder;
use crate::stats;
use crate::workload::{Req, Route, Stream, Workload};

/// Request id the setup spans carry.
pub const SETUP: usize = usize::MAX;

/// Layers timed per call: reported as `.p50` (inclusive), `.mean`
/// (self time) and `.calls`.
pub const LAYERS: [&str; 29] = [
    "serve.http.read_request_us",
    "serve.http.write_response_us",
    "serve.proto.decode_us",
    "serve.proto.encode_us",
    "obs.record_us",
    "serve.app.recommend_ms",
    "serve.app.recommend_batch_ms",
    "serve.app.recommend_explained_ms",
    "serve.app.explain_ms",
    "serve.app.rate_ms",
    "algo.batch.recommend_batch_ms",
    "algo.user_knn.recommend_ms",
    "algo.user_knn.gather_rank_ms",
    "algo.user_knn.predict_ms",
    "algo.user_knn.neighbors_ms",
    "algo.index.candidates_ms",
    "algo.kernel.scan_ms",
    "algo.kernel.snapshot_ms",
    "core.engine.explain_ms",
    "core.engine.generate_ms",
    "core.engine.recommend_explained_ms",
    "core.render.render_us",
    "core.quality.probe_us",
    "data.live.apply_ms",
    "data.wal.append_us",
    "algo.kernel.csr_patch_ms",
    "algo.index.reassign_ms",
    "data.live.read_wait_ms",
    "data.live.write_wait_ms",
];

/// Startup steps, one call each: reported as the call's duration.
pub const SETUP_LAYERS: [&str; 6] = [
    "data.synth.generate_ms",
    "algo.kernel.csr_build_ms",
    "algo.kernel.autotune_ms",
    "algo.index.build_ms",
    "eval.quality.seed_ms",
    "serve.app.new_ms",
];

/// Work counts and ratios. They explain a latency move; none is gated.
pub const COUNTS: [&str; 14] = [
    "algo.scans_per_recommend",
    "algo.scans_per_explain",
    "algo.scans_per_recommend_explained",
    "algo.candidates_per_scan",
    "algo.prune_share",
    "algo.exact_fallbacks",
    "algo.csr_patches",
    "algo.index_patches",
    "algo.rebuilds",
    "algo.startup_scans",
    "algo.recall_at_20",
    "algo.topn_agreement",
    "trace.overhead_share",
    "trace.coverage_min",
];

/// `serve.edge.<route>_ms`: untraced open-loop route p50 minus the
/// traced handler p50, the time spent outside the app.
pub fn edge_metric(route: Route) -> String {
    format!("serve.edge.{}_ms", route.name())
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_share")
        || name.ends_with("_min")
        || name.contains("recall")
        || name.contains("agreement")
    {
        "share"
    } else {
        "count"
    }
}

/// Every per-layer metric the traced run reports, with its unit.
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in LAYERS {
        let unit = unit_of(layer);
        out.push((format!("{layer}.p50"), unit));
        out.push((format!("{layer}.mean"), unit));
        out.push((format!("{layer}.calls"), "count"));
    }
    for layer in SETUP_LAYERS {
        out.push((layer.to_owned(), unit_of(layer)));
    }
    for route in Route::ALL {
        out.push((edge_metric(route), "ms"));
    }
    for count in COUNTS {
        out.push((count.to_owned(), unit_of(count)));
    }
    out.push(("gen.late_p95_ms".to_owned(), "ms"));
    out
}

fn app_span(route: Route) -> &'static str {
    match route {
        Route::Recommend => "serve.app.recommend_ms",
        Route::RecommendBatch => "serve.app.recommend_batch_ms",
        Route::RecommendExplained => "serve.app.recommend_explained_ms",
        Route::Explain => "serve.app.explain_ms",
        Route::Write => "serve.app.rate_ms",
    }
}

/// Everything the traced run built, for the probe and recall checks.
pub struct Built {
    pub app: ExplainApp,
    pub world: World,
    csr: Arc<CsrRatings>,
    index: CandidateIndex,
    engine: Arc<ScanEngine>,
    model: UserKnn,
}

/// The setup leg.
pub fn setup(
    workload: &Workload,
    wal: Option<PathBuf>,
    rec: &mut Recorder,
) -> Result<Built, String> {
    let shape = workload.world;
    let params = inproc::sim_params();
    let (world, _) = rec.time("data.synth.generate_ms", None, SETUP, || {
        inproc::generate_world(&shape)
    });
    let (csr, _) = rec.time("algo.kernel.csr_build_ms", None, SETUP, || {
        Arc::new(CsrRatings::from_matrix(&world.ratings))
    });
    rec.time("algo.kernel.autotune_ms", None, SETUP, || {
        autotune(&csr, &params)
    });
    let (index, _) = rec.time("algo.index.build_ms", None, SETUP, || {
        CandidateIndex::build(&csr, &IndexConfig::default())
    });
    let engine = Arc::new(ScanEngine::new(
        KernelConfig::default(),
        IndexConfig::default(),
    ));
    let model = UserKnn::default().with_engine(Arc::clone(&engine), ScanMode::Pruned);
    // Warm the engine first, so the seeding span holds seeding alone.
    engine.index(&engine.csr(&world.ratings, &params));
    let quality = QualityConfig {
        sample_pairs: AppConfig::default().quality_pairs,
        ..QualityConfig::default()
    };
    rec.time("eval.quality.seed_ms", None, SETUP, || {
        score_interfaces(&world, &model, &quality)
    });
    let (app, _) = rec.time("serve.app.new_ms", None, SETUP, || {
        inproc::new_app(&shape, wal)
    });
    Ok(Built {
        app: app?,
        world,
        csr,
        index,
        engine,
        model,
    })
}

fn scan_stats(app: &ExplainApp) -> ScanStats {
    app.scan_stats().expect("the app scans through an engine")
}

/// Scans an engine has run (exact + pruned).
fn scans(s: &ScanStats) -> u64 {
    s.exact_scans + s.pruned_scans
}

/// Work one stretch of app calls did, from two engine snapshots.
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    scans: u64,
    candidates: u64,
    fallbacks: u64,
    csr_patches: u64,
    index_patches: u64,
    rebuilds: u64,
}

impl Work {
    fn between(a: &ScanStats, b: &ScanStats) -> Work {
        Work {
            scans: scans(b) - scans(a),
            candidates: b.candidates_scored - a.candidates_scored,
            fallbacks: b.exact_fallbacks - a.exact_fallbacks,
            csr_patches: b.csr_patches - a.csr_patches,
            index_patches: b.index_patches - a.index_patches,
            rebuilds: (b.csr_builds + b.index_builds) - (a.csr_builds + a.index_builds),
        }
    }

    fn add(&mut self, o: Work) {
        self.scans += o.scans;
        self.candidates += o.candidates;
        self.fallbacks += o.fallbacks;
        self.csr_patches += o.csr_patches;
        self.index_patches += o.index_patches;
        self.rebuilds += o.rebuilds;
    }
}

/// Phase totals (ns) of one handler call, keyed by `;`-joined path.
struct Phases(BTreeMap<String, u64>);

impl Phases {
    /// Total of the paths `keep` accepts.
    fn sum(&self, keep: impl Fn(&str) -> bool) -> u64 {
        self.0
            .iter()
            .filter(|(p, _)| keep(p))
            .map(|(_, &ns)| ns)
            .sum()
    }

    fn get(&self, path: &str) -> u64 {
        self.0.get(path).copied().unwrap_or(0)
    }
}

/// Lays phase-derived child spans out back to back under `parent`.
struct Layout<'a> {
    rec: &'a mut Recorder,
    request: usize,
}

impl Layout<'_> {
    /// Adds `name` under `parent` at `at` for `ns`; returns its id.
    fn child(&mut self, name: &str, parent: usize, at: u64, ns: u64) -> usize {
        self.rec
            .push(name, Some(parent), self.request, at, at + ns, "profile")
    }

    /// A scan's sub-layers (snapshot, index probe, kernel) under
    /// `parent`, from the phases below `prefix` (`""` = top level).
    fn scan_parts(&mut self, phases: &Phases, prefix: &str, parent: usize, mut at: u64) {
        for (phase, name) in [
            ("csr", "algo.kernel.snapshot_ms"),
            ("index", "algo.index.candidates_ms"),
            ("kernel", "algo.kernel.scan_ms"),
        ] {
            let ns = phases.get(&format!("{prefix}{phase}"));
            if ns > 0 {
                self.child(name, parent, at, ns);
                at += ns;
            }
        }
    }

    /// The ranking part of a recommend: `scan` + `rank` phases below
    /// `prefix`. Returns where it ends.
    fn recommend(&mut self, phases: &Phases, prefix: &str, parent: usize, at: u64) -> u64 {
        let ns = phases.get(&format!("{prefix}scan")) + phases.get(&format!("{prefix}rank"));
        if ns == 0 {
            return at;
        }
        let id = self.child("algo.user_knn.recommend_ms", parent, at, ns);
        self.scan_parts(phases, &format!("{prefix}scan;"), id, at);
        at + ns
    }

    /// Evidence gathering (one rater-restricted neighbour scan per
    /// call), below `prefix`. Returns where it ends.
    fn evidence(&mut self, phases: &Phases, prefix: &str, parent: usize, at: u64) -> u64 {
        let ns = phases.get(&format!("{prefix}evidence"));
        if ns == 0 {
            return at;
        }
        let id = self.child("algo.user_knn.neighbors_ms", parent, at, ns);
        self.scan_parts(phases, &format!("{prefix}evidence;"), id, at);
        at + ns
    }

    fn generate(&mut self, phases: &Phases, parent: usize, at: u64) -> u64 {
        let ns = phases.get("generate");
        if ns > 0 {
            self.child("core.engine.generate_ms", parent, at, ns);
        }
        at + ns
    }

    /// Builds the handler's subtree from its phase totals.
    fn handler(&mut self, route: Route, phases: &Phases, parent: usize, start: u64) {
        let mut at = start;
        match route {
            Route::Recommend | Route::RecommendBatch => {
                self.recommend(phases, "", parent, at);
            }
            Route::RecommendExplained => {
                let ns = phases
                    .sum(|p| p == "scan" || p == "rank" || p == "evidence" || p == "generate");
                let id = self.child("core.engine.recommend_explained_ms", parent, at, ns);
                let mut inner = self.recommend(phases, "", id, at);
                inner = self.evidence(phases, "", id, inner);
                self.generate(phases, id, inner);
                at += ns;
            }
            Route::Explain => {
                // `predict` has no phase of its own: its scan runs at
                // the top level, before the evidence scan.
                let predict = phases.sum(|p| matches!(p, "csr" | "index" | "kernel" | "gather"));
                let ns = predict + phases.get("evidence") + phases.get("generate");
                let id = self.child("core.engine.explain_ms", parent, at, ns);
                let p = self.child("algo.user_knn.predict_ms", id, at, predict);
                self.scan_parts(phases, "", p, at);
                let inner = self.evidence(phases, "", id, at + predict);
                self.generate(phases, id, inner);
                at += ns;
            }
            Route::Write => {
                self.child("data.live.apply_ms", parent, at, phases.get("ingest_apply"));
            }
        }
        for (phase, name) in [
            ("render", "core.render.render_us"),
            ("quality_probe", "core.quality.probe_us"),
        ] {
            let ns = phases.get(phase);
            if ns > 0 {
                self.child(name, parent, at, ns);
                at += ns;
            }
        }
    }
}

/// The per-request telemetry the edge records after each response.
struct Obs {
    metrics: Metrics,
    flight: FlightRecorder,
    slo: SloMonitor,
    ts: TimeSeries,
    watch: Watchdog,
}

impl Obs {
    fn new() -> Obs {
        Obs {
            metrics: Metrics::new(),
            flight: FlightRecorder::new(FlightConfig::default()),
            slo: SloMonitor::new(SloConfig::default()),
            ts: TimeSeries::new(TsConfig::default()),
            watch: Watchdog::new(WatchConfig::default(), Vec::new()),
        }
    }

    fn record(&self, endpoint: &str, status: u16, took: Duration, collector: &PhaseCollector) {
        let m = &self.metrics;
        m.counter("serve.requests").incr();
        m.histogram(&format!("serve.latency_ns.{endpoint}"))
            .record(took);
        m.counter(&format!("serve.status.{}xx", status / 100))
            .incr();
        let took_ns = took.as_nanos() as u64;
        self.flight.record(RequestRecord {
            seq: 0,
            trace_id: format!("{:032x}", took_ns),
            route: endpoint.to_owned(),
            status,
            outcome: RequestRecord::outcome_of(status).to_owned(),
            start_offset_ns: exrec_obs::trace::process_offset_ns(),
            duration_ns: took_ns,
            phases: collector.phases(),
            cache_hits: collector.cache_hits(),
            cache_misses: collector.cache_misses(),
            quality: collector.quality(),
            ingest: None,
        });
        self.slo.record(endpoint, took_ns, status < 500);
        if let Some(st) = self.slo.status(endpoint) {
            m.gauge(&format!("slo.good_ratio.{endpoint}"))
                .set(st.good_ratio);
            m.gauge(&format!("slo.burn_rate.{endpoint}"))
                .set(st.burn_rate);
            m.gauge(&format!("slo.window_good.{endpoint}"))
                .set(st.good as f64);
            m.gauge(&format!("slo.window_total.{endpoint}"))
                .set(st.total as f64);
        }
        if self.ts.due() {
            if let Some(tick) = self.ts.maybe_sample(m) {
                self.watch.observe(&tick);
            }
        }
    }
}

/// Result of the traced run.
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    pub failures: Vec<String>,
}

/// The app leg over the first `workload.traced_requests` requests.
fn app_leg(
    stream: &Stream,
    built: &Built,
    rec: &mut Recorder,
    wal_us: &mut Vec<f64>,
    work: &mut BTreeMap<Route, (u64, Work)>,
    failures: &mut Vec<String>,
) {
    let profiler = Profiler::new();
    let obs = Obs::new();
    for k in 0..stream.workload.traced_requests {
        let req = stream.request(k);
        let route = req.route();
        let raw = req.wire("127.0.0.1");
        let (parsed, _) = rec.time("serve.http.read_request_us", None, k, || {
            http::read_request(&mut BufReader::new(Cursor::new(&raw)), 1 << 20)
        });
        let body = match parsed {
            Ok(Some(r)) => r.body,
            other => {
                failures.push(format!("traced request {k}: parse failed: {other:?}"));
                continue;
            }
        };
        let decoded = match rec
            .time("serve.proto.decode_us", None, k, || decode(&req, &body))
            .0
        {
            Ok(d) => d,
            Err(e) => {
                failures.push(format!("traced request {k}: decode failed: {e}"));
                continue;
            }
        };
        let collector = Arc::new(PhaseCollector::new());
        let before = scan_stats(&built.app);
        let started = Instant::now();
        let start = rec.at(started);
        let result = {
            let _route = profiler.route(route.name(), Arc::clone(&collector));
            handle(&built.app, &decoded)
        };
        let took = started.elapsed();
        let end = rec.now();
        let after = scan_stats(&built.app);
        let id = rec.push(app_span(route), None, k, start, end, "timed");
        let phases = Phases(collector.phases().into_iter().collect());
        Layout {
            rec: &mut *rec,
            request: k,
        }
        .handler(route, &phases, id, start);
        let entry = work.entry(route).or_default();
        entry.0 += 1;
        entry.1.add(Work::between(&before, &after));
        let answer = match result {
            Ok(a) => a,
            Err(e) => {
                failures.push(format!("traced request {k} ({}): {e}", req.path()));
                continue;
            }
        };
        if let Answer::Rate(r) = &answer {
            wal_us.push(r.wal_append_ns as f64 / 1e3);
        }
        let encoded = match rec
            .time("serve.proto.encode_us", None, k, || answer.encode())
            .0
        {
            Ok(s) => s,
            Err(e) => {
                failures.push(format!("traced request {k}: encode failed: {e}"));
                continue;
            }
        };
        let response = Response::text(200, encoded, "application/json");
        let mut sink = Vec::with_capacity(response.body.len() + 128);
        if let (Err(e), _) = rec.time("serve.http.write_response_us", None, k, || {
            response.write_to(&mut sink, true)
        }) {
            failures.push(format!("traced request {k}: write failed: {e}"));
        }
        let endpoint = req.path().trim_start_matches("/v1/").replace('/', "_");
        rec.time("obs.record_us", None, k, || {
            obs.record(&endpoint, 200, took, &collector)
        });
    }
}

type Timing = (&'static str, usize, u64, u64);

/// The lock leg: one reader and one writer on the workload schedule
/// against the second world copy.
fn lock_leg(stream: &Stream, built: Built, rec: &mut Recorder) -> Vec<String> {
    let workload = &stream.workload;
    let Built {
        world,
        csr,
        index,
        engine,
        model,
        ..
    } = built;
    let live = MutableWorld::new(world);
    let pool = BatchPool::new(0);
    let reqs: Vec<(usize, Req)> = (0..workload.traced_requests)
        .map(|k| (k, stream.request(k)))
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| start + Duration::from_secs_f64(k as f64 / workload.open_rps);
    let at = |t: Instant| rec.at(t);
    let (reads, (writes, failed)): (Vec<Timing>, (Vec<Timing>, Vec<String>)) =
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut out = Vec::new();
                for (k, req) in reqs.iter().filter(|(_, r)| r.writes().is_empty()) {
                    sleep_until(due(*k));
                    let t0 = Instant::now();
                    let world = live.read();
                    let t1 = Instant::now();
                    out.push(("data.live.read_wait_ms", *k, at(t0), at(t1)));
                    let ctx = Ctx::new(&world.ratings, &world.catalog);
                    match req {
                        Req::Recommend { users, n, .. } if users.len() > 1 => {
                            let ids: Vec<UserId> = users.iter().map(|&u| UserId(u)).collect();
                            pool.recommend_batch(&model, &ctx, &ids, *n);
                            out.push((
                                "algo.batch.recommend_batch_ms",
                                *k,
                                at(t1),
                                at(Instant::now()),
                            ));
                        }
                        Req::Recommend { users, n, .. } => {
                            model.recommend(&ctx, UserId(users[0]), *n);
                        }
                        Req::Explain { user, .. } => {
                            model.recommend(&ctx, UserId(*user), 10);
                        }
                        _ => {}
                    }
                }
                out
            });
            let writer = scope.spawn(|| {
                let (mut out, mut failed) = (Vec::new(), Vec::new());
                let (mut csr, mut index) = (Arc::clone(&csr), index);
                for (k, req) in &reqs {
                    let Req::Rate { user, item, value } = *req else {
                        continue;
                    };
                    sleep_until(due(*k));
                    let record = WalRecord::Rate {
                        user: UserId(user),
                        item: ItemId(item),
                        value,
                    };
                    let mut deltas: Vec<RatingDelta> = Vec::new();
                    let mut entered = Instant::now();
                    let t0 = Instant::now();
                    let applied = live.apply(&record, |_, d| {
                        entered = Instant::now();
                        engine.notify_deltas(d);
                        deltas = d.to_vec();
                    });
                    let t1 = Instant::now();
                    if let Err(e) = applied {
                        failed.push(format!("lock leg write {k}: {e}"));
                        continue;
                    }
                    out.push(("data.live.write_wait_ms", *k, at(t0), at(entered)));
                    let patched = Arc::new(csr.apply_deltas(&deltas));
                    let t2 = Instant::now();
                    out.push(("algo.kernel.csr_patch_ms", *k, at(t1), at(t2)));
                    let mut touched: Vec<u32> = deltas.iter().map(|d| d.user.raw()).collect();
                    touched.sort_unstable();
                    touched.dedup();
                    index = index.reassign(&patched, &touched);
                    out.push(("algo.index.reassign_ms", *k, at(t2), at(Instant::now())));
                    csr = patched;
                }
                (out, failed)
            });
            (
                reader.join().expect("reader"),
                writer.join().expect("writer"),
            )
        });
    for (name, k, s, e) in reads.into_iter().chain(writes) {
        rec.push(name, None, k, s, e, "timed");
    }
    failed
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Cost of recording one span, measured on a scratch recorder.
fn span_cost_ns() -> f64 {
    let mut scratch = Recorder::default();
    let n = 20_000;
    let t = Instant::now();
    for k in 0..n {
        scratch.time("calibration", None, k, || ());
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Runs the app and lock legs after `setup` and reduces the spans to
/// the per-layer metrics. `route_p50` holds the untraced open-loop p50
/// per route, for `serve.edge.*`.
pub fn run(
    stream: &Stream,
    built: Built,
    rec: &mut Recorder,
    route_p50: &BTreeMap<Route, f64>,
) -> Result<Outcome, String> {
    let mut failures = Vec::new();
    let mut wal_us = Vec::new();
    let mut work: BTreeMap<Route, (u64, Work)> = BTreeMap::new();
    let startup = scans(&scan_stats(&built.app));
    let first_span = rec.spans.len();
    let leg_start = rec.now();
    app_leg(stream, &built, rec, &mut wal_us, &mut work, &mut failures);
    let leg_ns = rec.now() - leg_start;
    let app_spans = rec.spans[first_span..]
        .iter()
        .filter(|s| s.source == "timed")
        .count();
    failures.extend(lock_leg(stream, built, rec));

    let selfs = rec.self_times();
    let mut inclusive: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut own: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut coverage: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut metrics = BTreeMap::new();
    for (span, &self_ns) in rec.spans.iter().zip(&selfs) {
        let scale = match unit_of(&span.name) {
            "us" => 1e3,
            _ => 1e6,
        };
        if span.request == SETUP {
            metrics.insert(span.name.clone(), span.duration() as f64 / scale);
            continue;
        }
        let Some(name) = LAYERS.iter().copied().find(|l| *l == span.name) else {
            continue;
        };
        inclusive
            .entry(name)
            .or_default()
            .push(span.duration() as f64 / scale);
        own.entry(name).or_default().push(self_ns as f64 / scale);
        if name.starts_with("serve.app.") {
            let c = coverage.entry(name).or_default();
            c.0 += span.duration() as f64;
            c.1 += self_ns as f64;
        }
        if name == "algo.user_knn.recommend_ms" {
            inclusive
                .entry("algo.user_knn.gather_rank_ms")
                .or_default()
                .push(self_ns as f64 / scale);
            own.entry("algo.user_knn.gather_rank_ms")
                .or_default()
                .push(self_ns as f64 / scale);
        }
    }
    if !wal_us.is_empty() {
        inclusive.insert("data.wal.append_us", wal_us.clone());
        own.insert("data.wal.append_us", wal_us);
    }
    for layer in LAYERS {
        let mut inc = inclusive.remove(layer).unwrap_or_default();
        inc.sort_by(f64::total_cmp);
        let own = own.remove(layer).unwrap_or_default();
        metrics.insert(
            format!("{layer}.p50"),
            stats::percentile(&inc, 0.5).unwrap_or(0.0),
        );
        metrics.insert(format!("{layer}.mean"), stats::mean(&own).unwrap_or(0.0));
        metrics.insert(format!("{layer}.calls"), inc.len() as f64);
    }
    for route in Route::ALL {
        let app_p50 = metrics[&format!("{}.p50", app_span(route))];
        let edge = match route_p50.get(&route) {
            Some(p50) if app_p50 > 0.0 => p50 - app_p50,
            _ => 0.0,
        };
        metrics.insert(edge_metric(route), edge);
    }

    let per = |route: Route| {
        work.get(&route)
            .map(|(n, w)| w.scans as f64 / (*n).max(1) as f64)
            .unwrap_or(0.0)
    };
    let mut total = Work::default();
    for (_, w) in work.values() {
        total.add(*w);
    }
    let n_users = stream.workload.world.users as f64;
    metrics.insert("algo.scans_per_recommend".into(), per(Route::Recommend));
    metrics.insert("algo.scans_per_explain".into(), per(Route::Explain));
    metrics.insert(
        "algo.scans_per_recommend_explained".into(),
        per(Route::RecommendExplained),
    );
    metrics.insert(
        "algo.candidates_per_scan".into(),
        total.candidates as f64 / total.scans.max(1) as f64,
    );
    metrics.insert(
        "algo.prune_share".into(),
        total.candidates as f64 / (total.scans.max(1) as f64 * n_users),
    );
    metrics.insert("algo.exact_fallbacks".into(), total.fallbacks as f64);
    metrics.insert("algo.csr_patches".into(), total.csr_patches as f64);
    metrics.insert("algo.index_patches".into(), total.index_patches as f64);
    metrics.insert("algo.rebuilds".into(), total.rebuilds as f64);
    metrics.insert("algo.startup_scans".into(), startup as f64);
    metrics.insert(
        "trace.overhead_share".into(),
        span_cost_ns() * app_spans as f64 / leg_ns.max(1) as f64,
    );
    let worst = coverage
        .values()
        .map(|&(total, self_ns)| 1.0 - self_ns / total.max(1.0))
        .fold(f64::INFINITY, f64::min);
    metrics.insert(
        "trace.coverage_min".into(),
        if worst.is_finite() { worst } else { 0.0 },
    );
    for (route, (total, self_ns)) in &coverage {
        let share = 1.0 - self_ns / total.max(1.0);
        let short = if share < 0.9 { " (below 90%)" } else { "" };
        eprintln!(
            "[perfbench] traced {route}: layers cover {:.1}% of handler time{short}",
            share * 100.0
        );
    }
    Ok(Outcome { metrics, failures })
}
