//! The campaign server as a real process, driving the `serve` binary:
//! a server `SIGKILL`ed in the middle of a campaign and restarted on the
//! same data directory resumes every campaign to a summary byte-identical
//! to the serial runner's, and `SIGTERM` drains it to a clean exit.
//! `tests/serve_http.rs` covers the HTTP surface with an in-process
//! server; only the signals need a process of their own.

use flame_bench::BenchEnv;
use flame_core::runner::run_campaign_runner_with_jobs;
use flame_core::SummaryJson;
use flame_serve::{client, shutdown, JsonValue};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Campaign A: small and fast.
const BODY_A: &str = r#"{"workload":"Triad","scheme":"flame","runs":10,"horizon":4000,
                        "max_cycles":20000000,"coverage":0.625,"shards":3,"workers":2}"#;

/// Campaign B: long enough (BP is the longest catalog workload, one
/// worker thread) that the server is easy to kill in the middle of it.
const BODY_B: &str = r#"{"workload":"BP","scheme":"flame","runs":16,"horizon":60000,
                        "max_cycles":20000000,"coverage":0.625,"base_seed":777,
                        "shards":4,"workers":1}"#;

/// A `serve run` child on an ephemeral port. Dropping it kills and reaps
/// the process, so a failing test leaves no server running.
struct Server {
    child: Child,
    addr: String,
    /// Held open for the child's life: its few later lines fit in the
    /// pipe buffer, and a closed pipe would fail its prints.
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn start(data_dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([
                "run",
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
                data_dir.to_str().expect("UTF-8 data dir"),
                "--runner-threads",
                "2",
            ])
            // Short enough that a restarted server reclaims its killed
            // predecessor's leases in about 2 s, not the 30 s default.
            .env("FLAME_LEASE_TTL_MS", "2000")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            addr: String::new(),
            stdout,
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .expect("server address line");
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected server banner {line:?}"))
            .to_string();
        server
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn wait_exit(child: &mut Child, within: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + within;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => return Some(status),
            None if Instant::now() >= deadline => return None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The campaign id and serial reference summary for a request body,
/// parsed and serialized by the same functions the server uses.
fn serial_reference(env: &BenchEnv, body: &str) -> (String, String) {
    let mut req = flame_serve::parse_campaign_request(body).expect("reference body parses");
    // The servers inherit this environment and apply the same watchdog
    // override to what they are sent.
    req.spec = env.apply(req.spec);
    let summary =
        run_campaign_runner_with_jobs(&req.workload, &req.spec, None, 2).expect("serial reference");
    (req.id(), SummaryJson::from_summary(&summary).to_json())
}

/// Extracts the `"summary":{...}` payload from a status/stream line
/// without re-serializing, so comparisons see the server's own bytes.
fn summary_bytes(line: &str) -> &str {
    let key = "\"summary\":";
    let at = line.find(key).expect("line carries a summary");
    line[at + key.len()..]
        .strip_suffix('}')
        .expect("well-formed wrapper object")
}

#[test]
fn killed_server_resumes_identically_and_sigterm_drains_it() {
    let env = BenchEnv::from_process();
    let (id_a, ref_a) = serial_reference(&env, BODY_A);
    let (id_b, ref_b) = serial_reference(&env, BODY_B);
    assert_ne!(id_a, id_b, "campaign ids collided");
    let dir = std::env::temp_dir().join(format!("flame_serve_process_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Server 1 completes A, then is SIGKILLed in the middle of B.
    let mut server = Server::start(&dir);
    let post = client::post(&server.addr, "/campaigns", BODY_A).expect("POST A");
    assert_eq!(post.status, 201, "POST A: {}", post.body);
    let lines = client::stream_ndjson(&server.addr, &format!("/campaigns/{id_a}/stream"), |_| {})
        .expect("stream A");
    assert!(
        lines
            .last()
            .is_some_and(|l| l.contains("\"state\":\"complete\"")),
        "campaign A did not complete: {lines:?}"
    );
    let post = client::post(&server.addr, "/campaigns", BODY_B).expect("POST B");
    assert_eq!(post.status, 201, "POST B: {}", post.body);
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        assert!(
            Instant::now() < deadline,
            "campaign B never reached a mid-flight state to kill"
        );
        let st = client::get(&server.addr, &format!("/campaigns/{id_b}")).expect("poll B");
        let field = |k: &str| {
            JsonValue::parse(&st.body)
                .ok()
                .and_then(|v| v.get(k)?.as_u64())
                .unwrap_or(0)
        };
        let (done, total) = (field("done"), field("total"));
        if done >= 1 && done < total {
            break;
        }
        assert!(
            total == 0 || done < total,
            "campaign B completed before it could be killed; grow its runs"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.child.kill().expect("SIGKILL server 1");
    server.child.wait().expect("reap server 1");
    drop(server);

    // Server 2, on the same data dir, knows both campaigns, resumes B,
    // and serves A from its journals.
    let mut server = Server::start(&dir);
    let list = client::get(&server.addr, "/campaigns").expect("GET /campaigns");
    assert!(
        list.body.contains(&id_a) && list.body.contains(&id_b),
        "the restarted server lost a campaign (want {id_a} and {id_b}): {}",
        list.body
    );
    let lines = client::stream_ndjson(&server.addr, &format!("/campaigns/{id_b}/stream"), |_| {})
        .expect("stream B after the restart");
    let last = lines.last().expect("stream B produced lines");
    assert!(
        last.contains("\"state\":\"complete\""),
        "resumed campaign B did not complete: {last}"
    );
    assert_eq!(
        summary_bytes(last),
        ref_b,
        "resumed campaign B diverged from the serial runner"
    );
    let status = client::get(&server.addr, &format!("/campaigns/{id_a}")).expect("GET A");
    assert_eq!(
        summary_bytes(status.body.trim()),
        ref_a,
        "campaign A diverged from the serial runner after the restart"
    );

    // SIGTERM drains server 2 to a clean exit.
    assert!(
        shutdown::send_signal(server.child.id(), shutdown::SIGTERM),
        "cannot SIGTERM server 2"
    );
    let exit = wait_exit(&mut server.child, Duration::from_secs(30));
    assert!(
        exit.is_some_and(|s| s.success()),
        "server 2 after SIGTERM: {exit:?} (None: still running after 30 s)"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
