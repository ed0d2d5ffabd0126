//! Integration tests for the explanation-quality surface: measured
//! aim-fit interface selection over HTTP (`?aim=` / body `aim`), the
//! gated `GET /debug/quality` endpoint, `quality.*` metric families in
//! the Prometheus exposition, quality standing in `/healthz`, sampled
//! quality scores riding along in flight records, and the online
//! estimator agreeing with the offline fidelity measurement on the
//! same world.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use exrec_obs::Telemetry;
use exrec_serve::app::{AppConfig, Deadline, ExplainApp};
use exrec_serve::proto::{
    DebugQualityBody, DebugRequestsBody, ExplainRequest, ExplainResponse, HealthResponse,
};
use exrec_serve::server::{self, ServerConfig, ServerHandle};

/// A parsed client-side response.
struct ClientResponse {
    status: u16,
    body: String,
}

/// A keep-alive test client over one connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, method: &str, path: &str, extra_headers: &str, body: Option<&str>) {
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nhost: test\r\n{extra_headers}content-length: {}\r\n\r\n{body}",
            body.len(),
        );
        self.writer.write_all(request.as_bytes()).expect("send");
    }

    fn read_response(&mut self) -> Option<ClientResponse> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line).ok()? == 0 {
            return None;
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).ok()?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').expect("header");
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content-length");
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).ok()?;
        Some(ClientResponse {
            status,
            body: String::from_utf8(body).expect("utf-8 body"),
        })
    }

    fn roundtrip(&mut self, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
        self.send(method, path, "", body);
        self.read_response().expect("response")
    }
}

/// Starts a server over a small world with the given edge tuning.
fn start_server(configure: impl FnOnce(&mut ServerConfig, &mut AppConfig)) -> ServerHandle {
    let mut server_config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_bound: 16,
        default_deadline_ms: 10_000,
        max_deadline_ms: 30_000,
        ..ServerConfig::default()
    };
    let mut app_config = AppConfig {
        n_users: 60,
        n_items: 40,
        density: 0.3,
        ..AppConfig::default()
    };
    configure(&mut server_config, &mut app_config);
    let telemetry = Telemetry::default();
    let app = ExplainApp::new(app_config, telemetry.clone());
    server::start(app, server_config, telemetry).expect("start server")
}

#[test]
fn debug_quality_is_gated_like_the_other_debug_endpoints() {
    let handle = start_server(|_, _| {}); // debug_endpoints defaults to off
    let mut client = Client::connect(handle.addr());
    let response = client.roundtrip("GET", "/debug/quality", None);
    assert_eq!(response.status, 403);
    assert!(
        response.body.contains("debug_disabled"),
        "{}",
        response.body
    );
    // The route exists even when gated: wrong method is 405, not 404.
    assert_eq!(
        client
            .roundtrip("POST", "/debug/quality", Some("{}"))
            .status,
        405
    );
    handle.shutdown();
}

#[test]
fn aim_fit_selection_beats_the_static_default_over_http() {
    let handle = start_server(|server, _| server.debug_endpoints = true);
    let mut client = Client::connect(handle.addr());

    let response = client.roundtrip("GET", "/debug/quality", None);
    assert_eq!(response.status, 200);
    let body: DebugQualityBody = serde_json::from_str(&response.body).unwrap();
    assert!(
        !body.offline.is_empty(),
        "startup scoring pass seeded the book"
    );
    assert!(
        body.offline.iter().any(|q| q.samples > 0),
        "at least one interface measurable on the served world"
    );
    assert_eq!(body.selection.len(), 7, "one selection row per aim");

    // At least one aim must select a different, strictly
    // higher-scoring interface than the static default (the first
    // catalog interface declaring the aim).
    let improved = body
        .selection
        .iter()
        .find(|row| {
            row.static_default.as_deref() != Some(row.selected.as_str())
                && row.score > row.static_score
        })
        .expect("measured selection beats the static default for some aim");

    // Asking for that aim (body field) returns the measured winner,
    // not the static default.
    let request = format!(r#"{{"user": 0, "item": 1, "aim": "{}"}}"#, improved.aim);
    let response = client.roundtrip("POST", "/v1/explain", Some(&request));
    assert_eq!(response.status, 200, "{}", response.body);
    let explained: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(explained.explanation.interface, improved.selected);
    assert_eq!(explained.aim.as_deref(), Some(improved.aim.as_str()));

    // `?aim=` on the URL is an equivalent spelling.
    let path = format!("/v1/explain?aim={}", improved.aim);
    let response = client.roundtrip("POST", &path, Some(r#"{"user": 0, "item": 1}"#));
    assert_eq!(response.status, 200, "{}", response.body);
    let explained: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(explained.explanation.interface, improved.selected);
    assert_eq!(explained.aim.as_deref(), Some(improved.aim.as_str()));

    // An explicit interface always wins over the aim's selection.
    let request = format!(
        r#"{{"user": 0, "item": 1, "aim": "{}", "interface": "item_average"}}"#,
        improved.aim
    );
    let response = client.roundtrip("POST", "/v1/explain", Some(&request));
    assert_eq!(response.status, 200, "{}", response.body);
    let explained: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(explained.explanation.interface, "item_average");

    // Unknown aims are a client error, with the offending name echoed.
    let response = client.roundtrip(
        "POST",
        "/v1/explain",
        Some(r#"{"user": 0, "item": 1, "aim": "speed"}"#),
    );
    assert_eq!(response.status, 400);
    assert!(response.body.contains("speed"), "{}", response.body);
    handle.shutdown();
}

#[test]
fn sampled_quality_flows_to_metrics_healthz_and_flight_records() {
    let handle = start_server(|server, app| {
        server.debug_endpoints = true;
        app.quality_sample_every = 1; // sample every explain request
    });
    let mut client = Client::connect(handle.addr());

    let mut served = 0usize;
    for user in 0..10u32 {
        for item in 0..4u32 {
            let request = format!(r#"{{"user": {user}, "item": {item}}}"#);
            let response = client.roundtrip("POST", "/v1/explain", Some(&request));
            // Cold pairs are a legitimate 422; everything else is a bug.
            assert!(
                response.status == 200 || response.status == 422,
                "{}: {}",
                response.status,
                response.body
            );
            if response.status == 200 {
                served += 1;
            }
        }
    }
    assert!(served >= 5, "enough explainable pairs: {served}");

    // quality.* families render through the Prometheus exposition
    // (dots become underscores).
    let mut prom = Client::connect(handle.addr());
    prom.send("GET", "/metrics", "accept: text/plain\r\n", None);
    let response = prom.read_response().expect("metrics response");
    assert_eq!(response.status, 200);
    for family in ["quality_samples", "quality_score", "quality_fidelity"] {
        assert!(
            response.body.contains(family),
            "{family} family in exposition"
        );
    }

    // /healthz carries the quality standing (not debug-gated).
    let response = client.roundtrip("GET", "/healthz", None);
    assert_eq!(response.status, 200);
    let health: HealthResponse = serde_json::from_str(&response.body).unwrap();
    let quality = health.quality.expect("quality standing in healthz");
    assert_eq!(quality.sample_every, 1);
    assert!(quality.samples >= served as u64);
    assert!((0.0..=1.0).contains(&quality.mean_score));

    // Sampled requests carry their quality score into the flight ring.
    let response = client.roundtrip("GET", "/debug/requests", None);
    assert_eq!(response.status, 200);
    let body: DebugRequestsBody = serde_json::from_str(&response.body).unwrap();
    let scored: Vec<_> = body
        .requests
        .iter()
        .filter(|r| r.route == "explain" && r.status == 200)
        .collect();
    assert!(!scored.is_empty());
    assert!(
        scored.iter().all(|r| r.quality.is_some()),
        "every sampled 200 explain carries its quality score"
    );
    assert!(scored
        .iter()
        .all(|r| (0.0..=1.0).contains(&r.quality.unwrap())));

    // The live estimator agrees with the debug surface.
    let response = client.roundtrip("GET", "/debug/quality", None);
    let debug: DebugQualityBody = serde_json::from_str(&response.body).unwrap();
    assert!(debug.online.samples >= served as u64);
    handle.shutdown();
}

#[test]
fn online_estimator_agrees_with_offline_fidelity_on_the_same_world() {
    // App-level (no sockets): sample every request, pin the interface,
    // and compare the online rolling fidelity against the offline
    // startup measurement of the same interface on the same world.
    let app = ExplainApp::new(
        AppConfig {
            n_users: 60,
            n_items: 40,
            density: 0.3,
            quality_sample_every: 1,
            quality_pairs: 40,
            ..AppConfig::default()
        },
        Telemetry::default(),
    );
    let interface = "clustered_histogram";
    let offline = app
        .quality_book()
        .measured(interface)
        .expect("measured at startup");
    assert!(offline.samples > 0, "interface measurable offline");

    let mut served = 0usize;
    for user in 0..30u32 {
        for item in 0..6u32 {
            let req = ExplainRequest {
                user,
                item,
                interface: Some(interface.to_owned()),
                aim: None,
                deadline_ms: None,
                inject_panic: None,
                inject_delay_ms: None,
            };
            if app.explain(&req, Deadline::after_ms(60_000)).is_ok() {
                served += 1;
            }
        }
    }
    assert!(served >= 20, "enough sampled explanations: {served}");

    let snapshot = app.quality_monitor().snapshot();
    let online = snapshot
        .interfaces
        .iter()
        .find(|s| s.name == interface)
        .expect("online stats for the pinned interface");
    assert!(online.samples >= served as u64);

    // Stated tolerance: the two estimators sample different pair sets
    // of the same (world, model, interface) population, so their mean
    // ablation fidelities must land within 0.2 of each other.
    let gap = (online.fidelity - offline.fidelity).abs();
    assert!(
        gap <= 0.2,
        "online fidelity {:.3} vs offline {:.3} (gap {gap:.3})",
        online.fidelity,
        offline.fidelity
    );
}

#[test]
fn an_aim_alone_never_selects_an_interface_the_model_cannot_feed() {
    // The serving defaults' world: there the book's measured winner for
    // `effectiveness` needs item-kNN anchors, which user-kNN never has.
    let handle = start_server(|server, app| {
        server.debug_endpoints = true;
        let defaults = AppConfig::default();
        app.n_users = defaults.n_users;
        app.n_items = defaults.n_items;
        app.density = defaults.density;
    });
    let mut client = Client::connect(handle.addr());
    let response = client.roundtrip(
        "POST",
        "/v1/explain",
        Some(r#"{"user":5,"item":10,"aim":"effectiveness"}"#),
    );
    assert_eq!(response.status, 200, "{}", response.body);
    let explained: ExplainResponse = serde_json::from_str(&response.body).unwrap();
    assert_eq!(explained.aim.as_deref(), Some("effectiveness"));
    assert_eq!(
        explained.explanation.interface,
        AppConfig::default().default_interface.key()
    );

    // `/debug/quality` reports the interface the request was served with.
    let response = client.roundtrip("GET", "/debug/quality", None);
    let body: DebugQualityBody = serde_json::from_str(&response.body).unwrap();
    let row = body
        .selection
        .iter()
        .find(|row| row.aim == "effectiveness")
        .expect("one row per aim");
    assert_eq!(row.selected, explained.explanation.interface);
    handle.shutdown();
}
