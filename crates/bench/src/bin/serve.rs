//! The campaign server binary, plus the end-to-end service-identity
//! smoke gate `scripts/verify.sh` runs.
//!
//! Run mode (the actual server):
//!
//! ```text
//! serve run [--addr 127.0.0.1:0] [--data-dir DIR] [--runner-threads N]
//! ```
//!
//! prints `listening on <addr>` once bound and serves until
//! SIGTERM/SIGINT, which drains gracefully: shard workers release
//! their leases between seeds, journals are already fsynced per
//! record, and interrupted campaigns resume on the next start.
//!
//! Smoke mode (`serve smoke`) drives a child server end to end:
//!
//! 1. serial reference campaign in-process, summary JSON pinned;
//! 2. child server: `POST /campaigns`, stream NDJSON to completion,
//!    final histogram must equal the serial bytes exactly;
//! 3. idempotent re-POST, catalog identity, per-seed trace artifact;
//! 4. SIGKILL the server mid-campaign (a second, longer campaign),
//!    restart on the same data dir, stream the *resumed* campaign to
//!    completion — byte-identical again;
//! 5. SIGTERM the restarted server and require a prompt, clean exit.
//!
//! On failure the divergent artifacts are left in `target/serve-smoke`
//! for CI to upload.

use flame_bench::BenchEnv;
use flame_core::runner::run_campaign_runner_with_jobs;
use flame_core::SummaryJson;
use flame_serve::registry::{Registry, RunSettings};
use flame_serve::JsonValue;
use flame_serve::{client, shutdown, Metrics};
use std::io::BufRead;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the smoke drill stages its data dir and divergence artifacts;
/// CI uploads it when the gate fails.
const SMOKE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/serve-smoke");

/// Lease TTL for the drill's servers: short enough that the restarted
/// server reclaims a SIGKILLed predecessor's leases in ~2 s instead of
/// the 30 s production default.
const SMOKE_TTL_MS: &str = "2000";

fn fail(msg: &str) -> ! {
    eprintln!("SERVE SMOKE FAILED: {msg}");
    eprintln!("artifacts (if any) kept in {SMOKE_DIR}");
    std::process::exit(1);
}

fn run_server(env: &BenchEnv, addr: &str, data_dir: &Path, runner_threads: usize) {
    let flag = shutdown::install();
    let listener =
        TcpListener::bind(addr).unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    let local = listener
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("local_addr: {e}")));
    let metrics = Arc::new(Metrics::new());
    let settings = RunSettings {
        lease_ttl: env.lease_ttl,
        watchdog: env.watchdog,
    };
    let registry = Arc::new(
        Registry::new(data_dir.to_path_buf(), metrics, flag.clone(), settings)
            .unwrap_or_else(|e| fail(&format!("cannot open data dir: {e}"))),
    );
    // The parent (or an operator's script) scrapes this exact line for
    // the ephemeral port.
    println!("listening on {local}");
    println!("data dir {}", data_dir.display());
    flame_serve::serve(listener, registry, flag, runner_threads)
        .unwrap_or_else(|e| fail(&format!("serve: {e}")));
    println!("serve: drained after shutdown signal");
}

// ---------------------------------------------------------------------
// smoke drill
// ---------------------------------------------------------------------

struct ChildServer {
    child: Child,
    addr: String,
}

/// Spawns a child server on an ephemeral port and scrapes its address.
fn spawn_server(data_dir: &Path) -> ChildServer {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .args([
            "run",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().expect("utf-8 data dir"),
            "--runner-threads",
            "2",
        ])
        .env("FLAME_LEASE_TTL_MS", SMOKE_TTL_MS)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot spawn server: {e}")));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .unwrap_or_else(|e| fail(&format!("server produced no address line: {e}")));
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| fail(&format!("unexpected server banner {line:?}")))
        .to_string();
    // Keep draining the child's stdout so it never blocks on a full
    // pipe; the drill reads nothing further from it.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });
    ChildServer { child, addr }
}

fn wait_exit(child: &mut Child, within: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + within;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => return Some(status),
            None if Instant::now() >= deadline => return None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The serial reference for a request body: parse it through the very
/// same `parse_campaign_request` the server uses, run it with the
/// serial journaling runner, and serialize through the very same
/// `SummaryJson::to_json`. Any byte of divergence after that is a real
/// behaviour difference, not a formatting one.
fn serial_reference(env: &BenchEnv, body: &str) -> (flame_serve::CampaignRequest, String) {
    let mut req = flame_serve::parse_campaign_request(body)
        .unwrap_or_else(|e| fail(&format!("reference body rejected: {e}")));
    // The child servers inherit this environment and apply the same
    // watchdog override to what they are sent.
    req.spec = env.apply(req.spec);
    let summary = run_campaign_runner_with_jobs(&req.workload, &req.spec, None, env.jobs)
        .unwrap_or_else(|e| fail(&format!("serial reference failed: {e}")));
    let json = SummaryJson::from_summary(&summary).to_json();
    (req, json)
}

fn dump_artifact(name: &str, content: &str) {
    let _ = std::fs::create_dir_all(SMOKE_DIR);
    let _ = std::fs::write(Path::new(SMOKE_DIR).join(name), content);
}

/// Extracts `"summary":{...}` from a final stream/status line without
/// re-serializing (byte comparisons must see the server's own bytes).
fn summary_bytes(line: &str) -> &str {
    let key = "\"summary\":";
    let at = line
        .find(key)
        .unwrap_or_else(|| fail(&format!("line has no summary: {line}")));
    let s = &line[at + key.len()..];
    s.strip_suffix('}')
        .unwrap_or_else(|| fail(&format!("malformed summary line: {line}")))
}

fn assert_summary_identical(label: &str, line: &str, reference: &str) {
    let got = summary_bytes(line);
    if got != reference {
        dump_artifact(&format!("{label}_expected.json"), reference);
        dump_artifact(&format!("{label}_actual.json"), got);
        fail(&format!(
            "{label}: server summary diverged from serial reference \
             (artifacts in {SMOKE_DIR})"
        ));
    }
}

fn get_field(body: &str, field: &str) -> Option<u64> {
    JsonValue::parse(body).ok()?.get(field)?.as_u64()
}

fn smoke(env: &BenchEnv) {
    let dir = Path::new(SMOKE_DIR);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {SMOKE_DIR}: {e}")));
    let data_dir = dir.join("data");

    // Campaign A: small and fast — the byte-identity workhorse.
    let body_a = r#"{"workload":"Triad","scheme":"flame","runs":10,"horizon":4000,
                    "max_cycles":20000000,"coverage":0.625,"shards":3,"workers":2}"#;
    // Campaign B: long enough (BP is the longest catalog workload, one
    // worker thread) that SIGKILLing the server mid-campaign is easy.
    let body_b = r#"{"workload":"BP","scheme":"flame","runs":16,"horizon":60000,
                    "max_cycles":20000000,"coverage":0.625,"base_seed":777,
                    "shards":4,"workers":1}"#;

    println!("serve-smoke: computing serial references (A: Triad, B: BP)");
    let (req_a, ref_a) = serial_reference(env, body_a);
    let (req_b, ref_b) = serial_reference(env, body_b);
    let (id_a, id_b) = (req_a.id(), req_b.id());
    if id_a == id_b {
        fail("campaign ids collided");
    }

    // ---- phase 1: submit, stream, verify byte identity ----
    let mut server = spawn_server(&data_dir);
    let addr = server.addr.clone();
    println!("serve-smoke: server 1 on {addr}");

    let catalog =
        client::get(&addr, "/catalog").unwrap_or_else(|e| fail(&format!("GET /catalog: {e}")));
    if catalog.status != 200 || catalog.body.trim() != flame_serve::catalog_json() {
        fail("GET /catalog diverged from flame_serve::catalog_json()");
    }

    let post =
        client::post(&addr, "/campaigns", body_a).unwrap_or_else(|e| fail(&format!("POST A: {e}")));
    if post.status != 201 || !post.body.contains(&id_a) {
        fail(&format!(
            "POST A: expected 201 with id {id_a}, got {} {}",
            post.status, post.body
        ));
    }
    let again = client::post(&addr, "/campaigns", body_a)
        .unwrap_or_else(|e| fail(&format!("re-POST A: {e}")));
    if again.status != 200 || !again.body.contains("\"created\":false") {
        fail("re-POST of an identical spec must be idempotent (200, created:false)");
    }

    let lines = client::stream_ndjson(&addr, &format!("/campaigns/{id_a}/stream"), |_| {})
        .unwrap_or_else(|e| fail(&format!("stream A: {e}")));
    let last = lines.last().unwrap_or_else(|| fail("stream A was empty"));
    if !last.contains("\"complete\":true") || !last.contains("\"state\":\"complete\"") {
        dump_artifact("stream_a.ndjson", &lines.join("\n"));
        fail(&format!("stream A did not complete: {last}"));
    }
    assert_summary_identical("campaign_a", last, &ref_a);
    let status = client::get(&addr, &format!("/campaigns/{id_a}"))
        .unwrap_or_else(|e| fail(&format!("GET A: {e}")));
    assert_summary_identical("campaign_a_status", status.body.trim(), &ref_a);
    println!(
        "serve-smoke: campaign A streamed {} snapshots, final histogram bit-identical to serial",
        lines.len()
    );

    // Trace artifact for an interesting seed (SDC/DUE if the histogram
    // has one, any seed otherwise).
    let seed = req_a.spec.base_seed;
    let trace = client::get(&addr, &format!("/campaigns/{id_a}/runs/{seed}/trace"))
        .unwrap_or_else(|e| fail(&format!("GET trace: {e}")));
    if trace.status != 200 {
        fail(&format!("trace endpoint returned {}", trace.status));
    }
    JsonValue::parse(&trace.body)
        .unwrap_or_else(|e| fail(&format!("trace artifact is not valid JSON: {e}")));
    if !trace.body.contains("traceEvents") {
        fail("trace artifact lacks traceEvents");
    }

    let metrics =
        client::get(&addr, "/metrics").unwrap_or_else(|e| fail(&format!("GET /metrics: {e}")));
    if !metrics.body.contains("flame_seeds_run_total") {
        fail("metrics page lacks flame_seeds_run_total");
    }

    // ---- phase 2: SIGKILL mid-campaign, restart, resume ----
    let post_b =
        client::post(&addr, "/campaigns", body_b).unwrap_or_else(|e| fail(&format!("POST B: {e}")));
    if post_b.status != 201 {
        fail(&format!("POST B: {} {}", post_b.status, post_b.body));
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if Instant::now() >= deadline {
            fail("campaign B never reached a mid-flight state to kill");
        }
        let st = client::get(&addr, &format!("/campaigns/{id_b}"))
            .unwrap_or_else(|e| fail(&format!("poll B: {e}")));
        let done = get_field(&st.body, "done").unwrap_or(0);
        let total = get_field(&st.body, "total").unwrap_or(0);
        if done >= 1 && done < total {
            println!("serve-smoke: SIGKILLing server 1 at {done}/{total} seeds of campaign B");
            break;
        }
        if total > 0 && done == total {
            fail("campaign B completed before it could be killed mid-flight; grow its runs");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    server.child.kill().expect("SIGKILL server 1");
    let _ = server.child.wait();

    let mut server2 = spawn_server(&data_dir);
    let addr2 = server2.addr.clone();
    println!("serve-smoke: server 2 on {addr2} (same data dir, rediscovering)");

    // The restarted server must already know both campaigns.
    let list = client::get(&addr2, "/campaigns")
        .unwrap_or_else(|e| fail(&format!("GET /campaigns after restart: {e}")));
    if !list.body.contains(&id_a) || !list.body.contains(&id_b) {
        fail(&format!(
            "restarted server lost campaigns (want {id_a} and {id_b}): {}",
            list.body
        ));
    }

    let lines_b = client::stream_ndjson(&addr2, &format!("/campaigns/{id_b}/stream"), |_| {})
        .unwrap_or_else(|e| fail(&format!("stream B after restart: {e}")));
    let last_b = lines_b.last().unwrap_or_else(|| fail("stream B was empty"));
    if !last_b.contains("\"state\":\"complete\"") {
        dump_artifact("stream_b.ndjson", &lines_b.join("\n"));
        fail(&format!("resumed campaign B did not complete: {last_b}"));
    }
    assert_summary_identical("campaign_b_resumed", last_b, &ref_b);
    // Campaign A survived the SIGKILL too: recomputed from its
    // journals, still byte-identical.
    let status_a = client::get(&addr2, &format!("/campaigns/{id_a}"))
        .unwrap_or_else(|e| fail(&format!("GET A after restart: {e}")));
    assert_summary_identical("campaign_a_after_restart", status_a.body.trim(), &ref_a);
    println!("serve-smoke: campaign B resumed across SIGKILL, bit-identical to serial");

    // ---- phase 3: graceful shutdown ----
    if !shutdown::send_signal(server2.child.id(), shutdown::SIGTERM) {
        fail("cannot SIGTERM server 2");
    }
    match wait_exit(&mut server2.child, Duration::from_secs(30)) {
        Some(status) if status.success() => {}
        Some(status) => fail(&format!(
            "server 2 exited uncleanly after SIGTERM: {status}"
        )),
        None => {
            let _ = server2.child.kill();
            fail("server 2 ignored SIGTERM for 30 s");
        }
    }
    println!("serve-smoke: SIGTERM drained server 2 cleanly");

    let _ = std::fs::remove_dir_all(dir);
    println!(
        "serve-smoke ok: POST/stream/status summaries bit-identical to serial runs, \
         identity held across SIGKILL + restart, SIGTERM drains gracefully"
    );
}

fn main() {
    let env = BenchEnv::from_process();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("smoke") => smoke(&env),
        Some("run") | None => {
            let mut addr = "127.0.0.1:7341".to_string();
            let mut data_dir = PathBuf::from("flame-campaigns");
            let mut runner_threads = 2usize;
            let mut it = args.iter().skip(usize::from(!args.is_empty()));
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => {
                        addr = it
                            .next()
                            .cloned()
                            .unwrap_or_else(|| fail("--addr needs host:port"));
                    }
                    "--data-dir" => {
                        data_dir = it
                            .next()
                            .map(PathBuf::from)
                            .unwrap_or_else(|| fail("--data-dir needs a path"));
                    }
                    "--runner-threads" => {
                        runner_threads = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| fail("--runner-threads needs a positive integer"));
                    }
                    other => fail(&format!(
                        "unknown argument {other:?} (try `run` or `smoke`)"
                    )),
                }
            }
            run_server(&env, &addr, &data_dir, runner_threads);
        }
        Some(other) => fail(&format!("unknown mode {other:?} (try `run` or `smoke`)")),
    }
}
