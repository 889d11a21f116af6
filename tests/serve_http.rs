//! Integration tests for the campaign-as-a-service backend: an
//! in-process `flame::serve` server must hand out histograms
//! **byte-identical** to the serial runner (`run_campaign_runner_with_jobs`)
//! on the same spec — through `POST`/stream/status, through journal
//! rediscovery after the process hosting the campaign goes away, and
//! through a shard worker stopped gracefully mid-campaign. The journal
//! tailer behind the stream endpoint must ignore torn final lines and
//! converge to the exact merged result, and a hostile request body must
//! not take the server down.

use flame::core::experiment::{ExperimentConfig, ProtocolConfig};
use flame::core::runner::{
    run_campaign_runner_with_jobs, CampaignSpec, RetryPolicy, RunRecord, SelfFault,
};
use flame::core::scheme::Scheme;
use flame::core::shard::{journal_path, run_shard_worker, ShardOptions};
use flame::core::{merge_shards, Outcome, SummaryJson};
use flame::serve::{client, JournalTailer, Metrics, Registry, RunSettings};
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Journal appends fsync every record; prefer a tmpfs when mounted.
fn fast_tmp() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = fast_tmp().join(format!("flame_serve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

struct TestServer {
    addr: String,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    /// Binds an ephemeral port and serves `data_dir` on a thread; the
    /// constructor path is exactly the `serve run` binary's.
    fn start(data_dir: PathBuf) -> TestServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local_addr").to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(
            Registry::new(
                data_dir,
                Arc::new(Metrics::new()),
                shutdown.clone(),
                RunSettings::default(),
            )
            .expect("open data dir"),
        );
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || flame::serve::serve(listener, registry, flag, 2));
        TestServer {
            addr,
            shutdown,
            handle,
        }
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("server thread panicked")
            .expect("server returned an error");
    }
}

/// The serial reference summary for an HTTP request body, serialized
/// through the same `SummaryJson::to_json` the server uses.
fn serial_reference(body: &str) -> (flame::serve::CampaignRequest, String) {
    let req = flame::serve::parse_campaign_request(body).expect("reference body parses");
    let summary =
        run_campaign_runner_with_jobs(&req.workload, &req.spec, None, 2).expect("serial reference");
    let json = SummaryJson::from_summary(&summary).to_json();
    (req, json)
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

/// Tentpole acceptance: an HTTP-submitted campaign streams to a final
/// histogram byte-identical to the serial runner, resubmission is
/// idempotent, and status, per-seed trace, metrics, catalog and 404
/// behave.
#[test]
fn http_campaign_is_bit_identical_to_serial() {
    let body = r#"{"workload":"Triad","scheme":"flame","runs":6,"horizon":4000,
                  "max_cycles":20000000,"coverage":0.625,"base_seed":24150,
                  "shards":2,"workers":2}"#;
    let (req, reference) = serial_reference(body);
    let id = req.id();

    let data_dir = tmp_dir("identity");
    let server = TestServer::start(data_dir.clone());
    let addr = &server.addr;

    let post = client::post(addr, "/campaigns", body).expect("POST /campaigns");
    assert_eq!(post.status, 201, "fresh submission: {}", post.body);
    assert!(post.body.contains(&id), "response must echo the id");
    let again = client::post(addr, "/campaigns", body).expect("re-POST");
    assert_eq!(again.status, 200, "identical respec must be idempotent");
    assert!(again.body.contains("\"created\":false"));

    let lines =
        client::stream_ndjson(addr, &format!("/campaigns/{id}/stream"), |_| {}).expect("stream");
    let last = lines.last().expect("stream produced lines");
    assert!(
        last.contains("\"complete\":true") && last.contains("\"state\":\"complete\""),
        "stream must end on the completed campaign: {last}"
    );
    assert_eq!(
        summary_bytes(last),
        reference,
        "streamed final histogram diverged from the serial runner"
    );

    // Every partial must be a prefix of the campaign: done monotonically
    // nondecreasing, never exceeding the total.
    let mut prev = 0;
    for line in &lines {
        let v = flame::serve::JsonValue::parse(line).expect("stream line parses");
        let done = v.get("done").and_then(|d| d.as_u64()).expect("done field");
        let total = v.get("total").and_then(|t| t.as_u64()).expect("total");
        assert_eq!(total, 6);
        assert!(done >= prev && done <= total, "done regressed: {line}");
        prev = done;
    }

    let status = client::get(addr, &format!("/campaigns/{id}")).expect("GET status");
    assert_eq!(status.status, 200);
    assert_eq!(
        summary_bytes(status.body.trim()),
        reference,
        "status-endpoint histogram diverged from the serial runner"
    );

    // A seed's Chrome trace and the Prometheus page.
    let seed = req.spec.base_seed;
    let trace =
        client::get(addr, &format!("/campaigns/{id}/runs/{seed}/trace")).expect("GET trace");
    assert_eq!(trace.status, 200, "trace endpoint: {}", trace.body);
    flame::serve::JsonValue::parse(&trace.body).expect("trace artifact is valid JSON");
    assert!(
        trace.body.contains("traceEvents"),
        "trace artifact lacks traceEvents"
    );
    let metrics = client::get(addr, "/metrics").expect("GET /metrics");
    assert!(
        metrics.body.contains("flame_seeds_run_total"),
        "metrics page lacks flame_seeds_run_total:\n{}",
        metrics.body
    );

    let catalog = client::get(addr, "/catalog").expect("GET /catalog");
    assert_eq!(catalog.body.trim(), flame::serve::catalog_json());
    let missing = client::get(addr, "/campaigns/ffffffffffffffff").expect("GET unknown");
    assert_eq!(missing.status, 404);

    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A request body nested 10 000 levels deep (20 KB, far under the body
/// cap) is a 400, not a stack overflow that aborts the server with every
/// campaign in flight: the next request is served.
#[test]
fn deeply_nested_body_is_rejected_and_server_survives() {
    let data_dir = tmp_dir("nesting");
    let server = TestServer::start(data_dir.clone());
    let addr = &server.addr;

    let body = "[".repeat(10_000) + &"]".repeat(10_000);
    let post = client::post(addr, "/campaigns", &body).expect("POST /campaigns");
    assert_eq!(
        post.status, 400,
        "deep nesting must be refused: {}",
        post.body
    );
    let catalog = client::get(addr, "/catalog").expect("GET /catalog after the deep body");
    assert_eq!(catalog.status, 200);
    assert_eq!(catalog.body.trim(), flame::serve::catalog_json());

    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Crash-tolerance acceptance, in-process: a shard worker stopped
/// gracefully mid-campaign (the SIGTERM path) leaves journals a freshly
/// constructed server rediscovers, resumes, and completes — final
/// histogram still byte-identical to serial.
#[test]
fn restarted_server_rediscovers_and_resumes_to_identical_result() {
    let body = r#"{"workload":"Triad","scheme":"flame","runs":8,"horizon":4000,
                  "max_cycles":20000000,"coverage":0.625,"base_seed":777,
                  "shards":2,"workers":1}"#;
    let (req, reference) = serial_reference(body);
    let id = req.id();

    // Run part of the campaign the way a soon-to-be-SIGTERMed server
    // would: persist the spec, then a shard worker that honours a
    // shutdown flag raised after two seeds — it journals the seed in
    // flight, releases its lease, and reports `stopped`.
    let data_dir = tmp_dir("resume");
    let camp_dir = data_dir.join(format!("camp-{id}"));
    req.persist(&camp_dir).expect("persist spec");
    let flag = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let opts = ShardOptions {
        worker_id: "it-sigterm".to_string(),
        shutdown: Some(flag.clone()),
        progress: Some(progress.clone()),
        ..ShardOptions::new(2)
    };
    let report = std::thread::scope(|scope| {
        let worker = scope.spawn(|| run_shard_worker(&req.workload, &req.spec, &camp_dir, &opts));
        while progress.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        flag.store(true, Ordering::SeqCst);
        worker.join().expect("worker thread")
    })
    .expect("interrupted worker");
    assert!(report.stopped, "worker must report the graceful stop");
    assert!(
        report.seeds_run < 8,
        "worker finished before it could be stopped; grow the campaign"
    );

    // A brand-new server over the same data dir — the restart. It must
    // already know the campaign and finish it without re-running the
    // journaled seeds.
    let server = TestServer::start(data_dir.clone());
    let lines = client::stream_ndjson(&server.addr, &format!("/campaigns/{id}/stream"), |_| {})
        .expect("stream resumed campaign");
    let last = lines.last().expect("stream produced lines");
    assert!(
        last.contains("\"state\":\"complete\""),
        "resumed campaign did not complete: {last}"
    );
    assert_eq!(
        summary_bytes(last),
        reference,
        "resumed campaign diverged from the serial runner"
    );

    let list = client::get(&server.addr, "/campaigns").expect("GET /campaigns");
    assert!(list.body.contains(&id), "rediscovery lost the campaign");
    server.stop();
    let _ = std::fs::remove_dir_all(&data_dir);
}

// ---------------------------------------------------------------------
// journal tailer: torn lines and convergence (no simulation involved)
// ---------------------------------------------------------------------

fn fake_spec(runs: usize) -> CampaignSpec {
    CampaignSpec {
        base_seed: 0xBEE5,
        runs,
        strikes_per_run: 3,
        horizon: 700,
        strike_window: (0.0, 1.0),
        fork_points: 8,
        coverage: 0.6,
        control_fraction: 0.2,
        recovery_fraction: 0.1,
        scheme: Scheme::SensorRenaming,
        cfg: ExperimentConfig::default(),
        proto: ProtocolConfig::default(),
        watchdog: 0,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    }
}

fn fake_record(seed: u64, outcome: Outcome) -> RunRecord {
    RunRecord {
        seed,
        outcome,
        injected: 3,
        undetected: u64::from(outcome == Outcome::Sdc),
        recoveries: 1,
        nested: 0,
        cta_relaunches: 0,
        kernel_relaunches: 0,
        cycles: 700 + seed % 97,
        crashed: false,
        fork_cycle: 0,
        sim_cycles: 650,
        fork_hit: false,
        attempts: 1,
        quarantined: false,
    }
}

fn append(path: &Path, text: &str) {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open journal for append");
    f.write_all(text.as_bytes()).expect("append journal");
}

/// Satellite acceptance: the tailer sees fabricated journal appends —
/// including a torn final line from a worker killed mid-write — counts
/// only complete records, reports changes exactly once, and converges
/// to the same records and summary `merge_shards` produces.
#[test]
fn tailer_ignores_torn_lines_and_converges_to_the_merge() {
    let spec = fake_spec(6);
    let b = spec.base_seed;
    let header = spec.fingerprint("fakew");
    let dir = tmp_dir("tailer");
    std::fs::create_dir_all(&dir).expect("create journal dir");
    // Shard 0 owns seeds b..b+3, shard 1 owns b+3..b+6.
    let j0 = journal_path(&dir, 0);
    let j1 = journal_path(&dir, 1);

    let recs = [
        fake_record(b, Outcome::Masked),
        fake_record(b + 1, Outcome::DetectedRecovered),
        fake_record(b + 2, Outcome::Masked),
        fake_record(b + 3, Outcome::Sdc),
        fake_record(b + 4, Outcome::Due),
        fake_record(b + 5, Outcome::Hang),
    ];

    let mut tailer = JournalTailer::new("fakew", &spec, dir.clone(), 2);

    // First record lands on shard 0.
    append(&j0, &format!("{header}\n{}\n", recs[0].to_line()));
    let snap = tailer.poll(0).expect("poll").expect("first poll reports");
    assert_eq!((snap.done, snap.total), (1, 6));
    assert_eq!(snap.summary, SummaryJson::from_records(&recs[..1], 0));

    // Nothing changed — the tailer must stay quiet (no duplicate
    // NDJSON lines for idle polls).
    assert_eq!(tailer.poll(0).expect("poll"), None);

    // Shard 1 appears with one complete record and a torn final line —
    // a worker SIGKILLed mid-append. The torn seed must not count.
    append(&j0, &format!("{}\n", recs[1].to_line()));
    let torn = recs[4].to_line();
    append(
        &j1,
        &format!(
            "{header}\n{}\n{}",
            recs[3].to_line(),
            &torn[..torn.len() / 2]
        ),
    );
    let snap = tailer.poll(0).expect("poll").expect("append reports");
    assert_eq!((snap.done, snap.total), (3, 6), "torn line was counted");
    let partial = [recs[0], recs[1], recs[3]];
    assert_eq!(snap.summary, SummaryJson::from_records(&partial, 0));

    // Recovery: the torn line is newline-terminated (dead but harmless,
    // exactly how the journal repair leaves it) and the remaining seeds
    // land. The tailer must converge to the merge's exact records.
    append(&j0, &format!("{}\n", recs[2].to_line()));
    append(
        &j1,
        &format!("\n{}\n{}\n", recs[4].to_line(), recs[5].to_line()),
    );
    let snap = tailer.poll(77).expect("poll").expect("final poll reports");
    assert_eq!((snap.done, snap.total), (6, 6));
    let (merged, missing) = merge_shards("fakew", &spec, &dir, 2, 0).expect("merge journals");
    let (records, counts) = (merged.records, merged.counts);
    assert!(missing.is_empty(), "merge still missing {missing:?}");
    assert_eq!(records, recs.to_vec(), "merge records drifted");
    assert_eq!(counts, [2, 1, 1, 1, 1], "outcome histogram drifted");
    assert_eq!(
        snap.summary,
        SummaryJson::from_records(&records, 77),
        "tailer summary diverged from the merged records"
    );
    // And the rendered/streamed forms agree byte-for-byte.
    assert_eq!(
        snap.summary.to_json(),
        SummaryJson::from_records(&records, 77).to_json()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
