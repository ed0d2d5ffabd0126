//! `perfbench` — the serving benchmark of the exrec HTTP edge.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the sibling `serve` binary, measures its set-up, then drives
//! it over loopback with two keep-alive connections: an open loop at
//! the workload's fixed rate, then a closed loop for peak throughput.
//! Every answer is checked. `--trace 1` adds the in-process traced run
//! and reports per-layer metrics instead of end-to-end ones. The last
//! stdout line is the JSON result; see `README.md` beside this crate.

/// Builds a JSON object from `key => value` pairs.
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        {
            use serde::Serialize as _;
            serde_json::Value::Obj(vec![$(($key.to_string(), ($value).to_value())),*])
        }
    };
}

mod check;
mod edge;
mod inproc;
mod load;
mod spans;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use exrec_data::World;
use exrec_serve::app::ExplainApp;
use exrec_serve::proto::RecommendResponse;

use check::Checks;
use edge::{Conn, Edge};
use load::Sample;
use spans::Recorder;
use workload::{Req, Route, Stream, Workload};

/// End-to-end metrics, with units. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("main_p50_ms", "ms"),
    ("main_p75_ms", "ms"),
    ("peak_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Equal slices of the closed loop; `peak_rps` is their median rate, so
/// a stall in one slice does not set the figure.
const RATE_WINDOWS: usize = 8;
/// Share of `--seconds` given to the open loop; the rest is closed.
const OPEN_SHARE: f64 = 0.7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where runs keep journals, spans and run records.
fn scratch() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned());
    PathBuf::from(target).join("perfbench")
}

/// Keep-alive connections, one client thread each: two, or fewer on a
/// machine with fewer cores, so the client never outnumbers the cores.
fn client_connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("[perfbench] run failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Sorted latencies of the 2xx samples on `route`.
fn latencies(samples: &[Sample], route: Route) -> Vec<f64> {
    let mut out: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok() && s.route() == route)
        .map(Sample::latency_ms)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

fn counter(v: &serde_json::Value, pointer: &str) -> u64 {
    v.pointer(pointer)
        .and_then(serde_json::Value::as_u64)
        .unwrap_or(0)
}

/// Scans the edge's counters show, exact plus pruned.
fn edge_scans(world: &serde_json::Value) -> u64 {
    counter(world, "/scan/exact_scans") + counter(world, "/scan/pruned_scans")
}

/// Probe answers must match the in-process app byte for byte, and the
/// pruned scan must keep neighbour recall@20 at 0.99 or more.
fn check_inproc(
    app: &ExplainApp,
    world: &World,
    probes: &[Req],
    bodies: &[Vec<u8>],
    checks: &mut Checks,
) -> Result<inproc::Recall, String> {
    for (req, body) in probes.iter().zip(bodies) {
        let want = inproc::answer(app, req)?;
        checks.ensure(want.as_bytes() == body.as_slice(), || {
            format!("probe {} differs from the in-process answer", req.body())
        });
    }
    let recall = inproc::recall(world, &inproc::probe_users(app.n_users()));
    checks.ensure(recall.recall_at_20 >= 0.99, || {
        format!(
            "pruned neighbour recall@20 {:.4} below 0.99",
            recall.recall_at_20
        )
    });
    Ok(recall)
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let base = scratch().join(format!("{}-{}-{}", w.name, args.seed, std::process::id()));
    std::fs::create_dir_all(&base).map_err(|e| format!("create {}: {e}", base.display()))?;
    let result = run_in(args, &base);
    let _ = std::fs::remove_dir_all(base.join("wal"));
    result
}

fn run_in(args: &Args, base: &Path) -> Result<bool, String> {
    let w = args.workload;
    let serve_bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("serve");
    let mut checks = Checks::default();
    let world = inproc::generate_world(&w.world);
    let stream = Stream {
        workload: w,
        seed: args.seed,
        explainable: inproc::explainable_pairs(&world, &w.world, args.seed),
    };

    // Set-up: fresh edge lives; the last one serves the run.
    let reps = if args.trace { 1 } else { w.setup_reps };
    let mut setups = Vec::new();
    let mut edge = None;
    for rep in 0..reps {
        let dir = match w.wal {
            true => Some(edge::fresh_dir(&base.join("wal"), &format!("life{rep}"))?),
            false => None,
        };
        let (e, took) = Edge::start(&serve_bin, &w, dir.as_deref())?;
        setups.push(took);
        edge = Some(e);
    }
    let edge = edge.expect("at least one set-up");
    let mut conns = (0..client_connections())
        .map(|_| Conn::open(edge.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let startup = edge::debug(&mut conns[0], "/debug/world")?;

    // Probes, before any write; answers are compared in-process later.
    let probes = inproc::probe_set(&w.world);
    let mut probe_bodies = Vec::new();
    for req in &probes {
        let (status, body) = conns[0]
            .round_trip(&req.wire(&edge.addr.to_string()))
            .map_err(|e| format!("probe: {e}"))?;
        checks.ensure(status == 200, || {
            format!("probe {} got status {status}", req.body())
        });
        probe_bodies.push(body);
    }

    let world_before = edge::debug(&mut conns[0], "/debug/world")?;
    let ingest_before = if w.wal {
        Some(edge::debug(&mut conns[0], "/debug/ingest")?)
    } else {
        None
    };
    let open_secs = args.seconds * OPEN_SHARE;
    let n_open = (w.open_rps * open_secs).round() as usize;
    let open = load::open_loop(&mut conns, &stream, 0, n_open, w.open_rps);
    let (closed, closed_secs) = load::closed_loop(
        &mut conns,
        &stream,
        n_open,
        Duration::from_secs_f64(args.seconds - open_secs),
    );
    let conns_used = conns.len();
    let world_after = edge::debug(&mut conns[0], "/debug/world")?;
    let ingest_after = if w.wal {
        Some(edge::debug(&mut conns[0], "/debug/ingest")?)
    } else {
        None
    };
    let peak_rss_mb = edge.peak_rss_mb().ok_or("cannot read the edge's VmHWM")?;
    drop(conns);
    drop(edge);

    // Every answer, both phases.
    let scale = (1.0, 5.0);
    let all: Vec<&Sample> = open.iter().chain(&closed).collect();
    let tally = check::samples(&all, scale, &mut checks);
    if let (Some(before), Some(after)) = (&ingest_before, &ingest_after) {
        let delta = counter(after, "/applied") - counter(before, "/applied");
        checks.ensure(delta == tally.applied, || {
            format!(
                "acknowledged writes applied {} ratings; /debug/ingest moved by {delta}",
                tally.applied
            )
        });
    }
    // Scan counters against traffic: a recommend scans once per user,
    // an explain twice (prediction + evidence), a write never. An
    // explained recommend scans once, then once per explanation tried:
    // at least one per item it returned, at most 2n.
    let served_scans = edge_scans(&world_after) - edge_scans(&world_before);
    let (mut lo, mut hi) = (0u64, 0u64);
    for s in all.iter().filter(|s| s.ok()) {
        let (a, b) = match &s.req {
            Req::Recommend {
                explain: true, n, ..
            } => {
                let listed = check::parse::<RecommendResponse>(&s.body).map_or(0, |r| {
                    r.results.iter().map(|u| u.items.len()).sum::<usize>()
                });
                (1 + listed as u64, 1 + 2 * *n as u64)
            }
            Req::Recommend { users, .. } => (users.len() as u64, users.len() as u64),
            Req::Explain { .. } => (2, 2),
            _ => (0, 0),
        };
        lo += a;
        hi += b;
    }
    checks.ensure((lo..=hi).contains(&served_scans), || {
        format!("edge ran {served_scans} scans for traffic that needs {lo}..={hi}")
    });

    let main = latencies(&open, w.main);
    // The p95 goes to the run record; it moves with every stall of a
    // shared machine, so the gated tail is the p75.
    let main_p95 = stats::tail_percentile(&main, 0.95);
    checks.ensure(main_p95.is_some(), || {
        format!(
            "only {} open-loop {} samples: too few for a p95",
            main.len(),
            w.main.name()
        )
    });
    let late: Vec<f64> = {
        let mut v: Vec<f64> = open.iter().map(Sample::late_ms).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let ok_closed = closed.iter().filter(|s| s.ok()).count();
    let mut e2e: BTreeMap<String, f64> = BTreeMap::new();
    e2e.insert("setup_s".into(), stats::median(&setups).unwrap_or(0.0));
    e2e.insert(
        "main_p50_ms".into(),
        stats::percentile(&main, 0.5).unwrap_or(0.0),
    );
    e2e.insert(
        "main_p75_ms".into(),
        stats::percentile(&main, 0.75).unwrap_or(0.0),
    );
    e2e.insert("peak_rps".into(), load::window_rate(&closed, RATE_WINDOWS));
    e2e.insert("peak_rss_mb".into(), peak_rss_mb);

    let mut routes = Vec::new();
    let mut route_p50 = BTreeMap::new();
    for route in Route::ALL {
        let lat = latencies(&open, route);
        if lat.is_empty() {
            continue;
        }
        let p50 = stats::percentile(&lat, 0.5).unwrap_or(0.0);
        route_p50.insert(route, p50);
        routes.push((
            route.name().to_owned(),
            obj! {"samples" => lat.len(), "p50_ms" => p50, "p95_ms" => stats::tail_percentile(&lat, 0.95)},
        ));
    }

    // In-process: the same app answers the probes, and pruned recall.
    let mut rec = Recorder::default();
    let mut per_layer = BTreeMap::new();
    let recall = if args.trace {
        let wal = match w.wal {
            true => Some(edge::fresh_dir(&base.join("wal"), "inproc")?.join("serve.wal")),
            false => None,
        };
        let built = traced::setup(&w, wal, &mut rec)?;
        let recall = check_inproc(
            &built.app,
            &built.world,
            &probes,
            &probe_bodies,
            &mut checks,
        )?;
        drop(world);
        let outcome = traced::run(&stream, built, &mut rec, &route_p50)?;
        for f in outcome.failures {
            checks.fail(f);
        }
        per_layer = outcome.metrics;
        per_layer.insert("algo.recall_at_20".into(), recall.recall_at_20);
        per_layer.insert("algo.topn_agreement".into(), recall.topn_agreement);
        per_layer.insert(
            "gen.late_p95_ms".into(),
            stats::percentile(&late, 0.95).unwrap_or(0.0),
        );
        let trace_path = base.join("spans.json");
        let spans = serde_json::to_string(&rec.spans).map_err(|e| e.to_string())?;
        std::fs::write(&trace_path, spans)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        eprintln!(
            "[perfbench] {} spans written to {}",
            rec.spans.len(),
            trace_path.display()
        );
        recall
    } else {
        let app = inproc::new_app(&w.world, None)?;
        check_inproc(&app, &world, &probes, &probe_bodies, &mut checks)?
    };

    for (name, v) in &routes {
        eprintln!(
            "[perfbench]   route {name}: {}",
            serde_json::to_string(v).unwrap_or_default()
        );
    }
    let record = obj! {
        "workload" => w.name,
        "seed" => args.seed,
        "git_rev" => git_rev(),
        "world" => w.world.label(),
        "wal" => w.wal,
        "workers" => edge::WORKERS,
        "client_connections" => conns_used,
        "open_loop" => obj! {
            "rate_rps" => w.open_rps,
            "seconds" => open_secs,
            "requests" => open.len(),
            "late_p50_ms" => stats::percentile(&late, 0.5),
            "late_p95_ms" => stats::percentile(&late, 0.95),
            "late_max_ms" => late.last().copied(),
        },
        "closed_loop" => obj! {"seconds" => closed_secs, "requests" => closed.len(), "ok" => ok_closed},
        "setup_s" => setups,
        "routes" => serde_json::Value::Obj(routes),
        "startup_scans" => edge_scans(&startup),
        "served_scans" => served_scans,
        "recall_at_20" => recall.recall_at_20,
        "topn_agreement" => recall.topn_agreement,
        "end_to_end" => e2e,
        "per_layer" => per_layer,
        "checks_failed" => checks.count,
        "check_failures" => checks.failures,
    };
    let record_path = base.join("record.json");
    std::fs::write(
        &record_path,
        serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("write {}: {e}", record_path.display()))?;
    eprintln!("[perfbench] run record: {}", record_path.display());
    eprintln!(
        "[perfbench] {} seed {} on {}: open loop {} requests at {} rps (late p95 {:.3} ms), closed loop {} requests",
        w.name,
        args.seed,
        w.world.label(),
        open.len(),
        w.open_rps,
        stats::percentile(&late, 0.95).unwrap_or(0.0),
        closed.len()
    );
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        traced::metric_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = per_layer.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_owned(), e2e[name], unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        eprintln!("[perfbench] {name} = {value} {unit}");
    }
    let metrics = serde_json::Value::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| (name, obj! {"value" => value, "unit" => unit}))
            .collect(),
    );
    let correct = checks.passed();
    let result = obj! {
        "correct" => correct,
        "attempted" => tally.attempted,
        "failed" => tally.failed,
        "metrics" => metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// harness emits, with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let field = |m: &serde_json::Value, k: &str| {
                m.get(k)
                    .and_then(serde_json::Value::as_str)
                    .unwrap_or("")
                    .to_owned()
            };
            spec.get(key)
                .and_then(serde_json::Value::as_array)
                .expect(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_owned())
            .collect();
        assert_eq!(workloads, ours);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = traced::metric_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }
}
