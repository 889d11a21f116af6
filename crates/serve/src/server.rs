//! The campaign server: a TCP accept loop, a tiny router, and the
//! long-lived NDJSON stream handler.
//!
//! | endpoint                              | behaviour                                    |
//! |---------------------------------------|----------------------------------------------|
//! | `POST /campaigns`                     | submit a spec, spawn a sharded run           |
//! | `GET /campaigns`                      | list known campaigns                         |
//! | `GET /campaigns/{id}`                 | status + current merged histogram/CIs        |
//! | `GET /campaigns/{id}/stream`          | NDJSON partial histograms until completion   |
//! | `GET /campaigns/{id}/runs/{s}/trace`  | per-seed Chrome-trace artifact, on demand    |
//! | `GET /catalog`                        | workloads / schemes / gpus / schedulers      |
//! | `GET /metrics`                        | Prometheus-style server counters             |
//!
//! Connections are thread-per-request (`Connection: close`); the
//! accept loop polls non-blockingly so a SIGTERM-set shutdown flag is
//! honoured within ~50 ms without a waker connection.

use crate::http::{read_request, respond, respond_error, ChunkedWriter, Request};
use crate::registry::{CampaignState, Registry};
use crate::spec::parse_campaign_request;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How the handlers poll journals / shutdown while streaming.
const STREAM_POLL: Duration = Duration::from_millis(50);

/// Runs the server until the shutdown flag fires: spawns
/// `runner_threads` campaign runners, rediscovers persisted campaigns,
/// then accepts connections. Returns once the accept loop has stopped
/// and every runner thread has drained (in-flight campaigns release
/// their leases via the same flag).
///
/// # Errors
///
/// Propagates listener configuration errors.
pub fn serve(
    listener: TcpListener,
    registry: Arc<Registry>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
    runner_threads: usize,
) -> std::io::Result<()> {
    let (found, resumed) = registry.rediscover();
    if found > 0 {
        eprintln!("serve: rediscovered {found} campaigns ({resumed} resumed)");
    }
    listener.set_nonblocking(true)?;
    thread::scope(|s| {
        for _ in 0..runner_threads.max(1) {
            let registry = registry.clone();
            s.spawn(move || registry.run_worker_loop());
        }
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let registry = registry.clone();
                    let shutdown = shutdown.clone();
                    s.spawn(move || handle_connection(stream, &registry, &shutdown));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(STREAM_POLL),
                Err(_) => thread::sleep(STREAM_POLL),
            }
        }
    });
    Ok(())
}

fn handle_connection(
    mut stream: TcpStream,
    registry: &Arc<Registry>,
    shutdown: &Arc<std::sync::atomic::AtomicBool>,
) {
    // Streaming handlers manage their own pacing; the read side of the
    // socket is done after the request.
    let _ = stream.set_nodelay(true);
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            respond_error(&mut stream, 400, &e);
            return;
        }
    };
    registry
        .metrics
        .http_requests
        .fetch_add(1, Ordering::Relaxed);
    route(&mut stream, &req, registry, shutdown);
}

fn route(
    stream: &mut TcpStream,
    req: &Request,
    registry: &Arc<Registry>,
    shutdown: &Arc<std::sync::atomic::AtomicBool>,
) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => respond(stream, 200, "application/json", "{\"ok\":true}\n"),
        ("GET", ["catalog"]) => {
            let mut body = crate::catalog::catalog_json();
            body.push('\n');
            respond(stream, 200, "application/json", &body);
        }
        ("GET", ["metrics"]) => {
            respond(
                stream,
                200,
                "text/plain; version=0.0.4",
                &registry.metrics.render(),
            );
        }
        ("POST", ["campaigns"]) => post_campaign(stream, &req.body, registry),
        ("GET", ["campaigns"]) => {
            let rows: Vec<String> = registry
                .list()
                .iter()
                .map(|e| {
                    format!(
                        "{{\"id\":\"{}\",\"workload\":{},\"state\":\"{}\"}}",
                        e.id,
                        flame_trace::json::json_escape(e.request.workload.abbr),
                        e.state().name()
                    )
                })
                .collect();
            let body = format!("{{\"campaigns\":[{}]}}\n", rows.join(","));
            respond(stream, 200, "application/json", &body);
        }
        ("GET", ["campaigns", id]) => match registry.get(id) {
            Some(entry) => {
                let mut body = entry.status_json();
                body.push('\n');
                respond(stream, 200, "application/json", &body);
            }
            None => respond_error(stream, 404, &format!("unknown campaign {id:?}")),
        },
        ("GET", ["campaigns", id, "stream"]) => match registry.get(id) {
            Some(entry) => stream_campaign(stream, &entry, shutdown),
            None => respond_error(stream, 404, &format!("unknown campaign {id:?}")),
        },
        ("GET", ["campaigns", id, "runs", seed, "trace"]) => {
            let Some(entry) = registry.get(id) else {
                respond_error(stream, 404, &format!("unknown campaign {id:?}"));
                return;
            };
            let Ok(seed) = seed.parse::<u64>() else {
                respond_error(stream, 400, "seed must be an integer");
                return;
            };
            trace_run(stream, &entry, seed);
        }
        ("GET" | "POST", _) => respond_error(stream, 404, &format!("no route for {}", req.path)),
        _ => respond_error(stream, 405, &format!("method {} not allowed", req.method)),
    }
}

fn post_campaign(stream: &mut TcpStream, body: &str, registry: &Arc<Registry>) {
    let request = match parse_campaign_request(body) {
        Ok(r) => r,
        Err(e) => {
            respond_error(stream, 400, &e);
            return;
        }
    };
    match registry.submit(request) {
        Ok((entry, created)) => {
            let body = format!(
                "{{\"id\":\"{}\",\"state\":\"{}\",\"created\":{},\"total\":{},\
                 \"links\":{{\"status\":\"/campaigns/{}\",\"stream\":\"/campaigns/{}/stream\"}}}}\n",
                entry.id,
                entry.state().name(),
                created,
                entry.request.spec.runs,
                entry.id,
                entry.id
            );
            respond(
                stream,
                if created { 201 } else { 200 },
                "application/json",
                &body,
            );
        }
        Err(e) => respond_error(stream, 409, &e),
    }
}

/// Streams NDJSON snapshots until the campaign reaches a final state
/// (or the server shuts down / the client hangs up). Every line
/// carries `state`, `done`, `total`; the last line of a completed
/// campaign carries `"complete":true` and the authoritative final
/// summary — byte-identical to the one `GET /campaigns/{id}` serves
/// and to a serial run of the same spec.
fn stream_campaign(
    stream: &mut TcpStream,
    entry: &Arc<crate::registry::CampaignEntry>,
    shutdown: &Arc<std::sync::atomic::AtomicBool>,
) {
    let Ok(mut out) = ChunkedWriter::begin(stream, "application/x-ndjson") else {
        return;
    };
    let mut tailer = entry.tailer();
    loop {
        let state = entry.state();
        if state.is_final() {
            let line = match &state {
                CampaignState::Complete => match entry.final_summary_json() {
                    Ok(summary) => format!(
                        "{{\"complete\":true,\"state\":\"complete\",\"done\":{},\"total\":{},\"summary\":{}}}",
                        entry.request.spec.runs, entry.request.spec.runs, summary
                    ),
                    Err(e) => final_error_line("failed", &e),
                },
                CampaignState::Failed(e) => final_error_line("failed", e),
                CampaignState::Interrupted => final_error_line("interrupted", "server shutting down"),
                _ => unreachable!("is_final covers these"),
            };
            let _ = out.send_line(&line);
            let _ = out.finish();
            return;
        }
        if shutdown.load(Ordering::SeqCst) {
            let _ = out.send_line(&final_error_line("interrupted", "server shutting down"));
            let _ = out.finish();
            return;
        }
        match tailer.poll(0) {
            Ok(Some(snap)) => {
                let line = format!(
                    "{{\"complete\":false,\"state\":\"{}\",\"done\":{},\"total\":{},\"summary\":{}}}",
                    state.name(),
                    snap.done,
                    snap.total,
                    snap.summary.to_json()
                );
                if out.send_line(&line).is_err() {
                    return; // client hung up
                }
            }
            Ok(None) => {}
            Err(e) => {
                let _ = out.send_line(&final_error_line("failed", &e.to_string()));
                let _ = out.finish();
                return;
            }
        }
        thread::sleep(STREAM_POLL);
    }
}

fn final_error_line(state: &str, msg: &str) -> String {
    format!(
        "{{\"complete\":true,\"state\":\"{state}\",\"error\":{}}}",
        flame_trace::json::json_escape(msg)
    )
}

/// Renders the per-seed Chrome-trace artifact on demand: re-simulates
/// the seed (deterministically — the journals prove what it will do)
/// with tracing enabled and returns `chrome_trace_json`.
fn trace_run(stream: &mut TcpStream, entry: &Arc<crate::registry::CampaignEntry>, seed: u64) {
    let spec = &entry.request.spec;
    let lo = spec.base_seed;
    let hi = spec.base_seed + spec.runs as u64;
    if !(lo..hi).contains(&seed) {
        respond_error(
            stream,
            404,
            &format!("seed {seed} outside campaign range [{lo}, {hi})"),
        );
        return;
    }
    match flame_core::trace_one_seed(
        &entry.request.workload,
        spec,
        seed,
        flame_trace::DEFAULT_CAPACITY,
    ) {
        Ok(r) => {
            let trace = r.trace.expect("tracing was enabled");
            let body = flame_trace::chrome_trace_json(&trace);
            respond(stream, 200, "application/json", &body);
        }
        Err(e) => respond_error(stream, 500, &format!("trace failed: {e}")),
    }
}
