//! The campaign server binary:
//!
//! ```text
//! serve run [--addr 127.0.0.1:0] [--data-dir DIR] [--runner-threads N]
//! ```
//!
//! prints `listening on <addr>` once bound and serves until
//! SIGTERM/SIGINT, which drains gracefully: shard workers release
//! their leases between seeds, journals are already fsynced per
//! record, and interrupted campaigns resume on the next start.

use flame_bench::BenchEnv;
use flame_serve::registry::{Registry, RunSettings};
use flame_serve::{shutdown, Metrics};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fail(msg: &str) -> ! {
    eprintln!("serve: {msg}");
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
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!("serve: drained after shutdown signal");
}

fn main() {
    let env = BenchEnv::from_process();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
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
                    other => fail(&format!("unknown argument {other:?}")),
                }
            }
            run_server(&env, &addr, &data_dir, runner_threads);
        }
        Some(other) => fail(&format!("unknown mode {other:?} (try `run`)")),
    }
}
