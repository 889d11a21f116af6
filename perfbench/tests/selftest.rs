//! Quick self-test of the benchmark: every workload at reduced size, in
//! both modes. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use flame_serve::JsonValue;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::SystemTime;

const WORKLOADS: [&str; 2] = ["fig4-matrix", "late-sweep"];

/// The traced run's root spans may leave at most this share of their
/// wall time unattributed to child spans.
const MAX_UNATTRIBUTED: f64 = 0.05;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package inside the repository")
        .to_path_buf()
}

/// Runs the benchmark with every `FLAME_*` variable removed, plus `env`.
fn bench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("FLAME_") {
            cmd.env_remove(k);
        }
    }
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run the benchmark")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let v = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    v.get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Length and modification time of every file of the checkout outside
/// build and benchmark-output directories.
fn tree(dir: &Path, out: &mut BTreeMap<PathBuf, (u64, SystemTime)>) {
    for e in std::fs::read_dir(dir).expect("list directory").flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if matches!(name.as_ref(), "target" | ".git" | ".bench_build" | "out") {
            continue;
        }
        let meta = e.metadata().expect("file metadata");
        if meta.is_dir() {
            tree(&p, out);
        } else {
            out.insert(p, (meta.len(), meta.modified().expect("mtime")));
        }
    }
}

#[test]
fn every_workload_reports_every_metric_and_writes_no_tracked_file() {
    let mut before = BTreeMap::new();
    tree(&repo(), &mut before);
    for traced in ["0", "1"] {
        let want = declared(if traced == "0" {
            "end_to_end"
        } else {
            "per_layer"
        });
        for w in WORKLOADS {
            let args = [
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                traced,
            ];
            let o = bench(&[&args[..], &["--size", "small"]].concat(), &[]);
            let stdout = String::from_utf8_lossy(&o.stdout);
            assert!(
                o.status.success(),
                "{w} trace {traced} failed: {}\n{stdout}",
                String::from_utf8_lossy(&o.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let result = JsonValue::parse(lines[lines.len() - 1]).expect("result line is JSON");
            let JsonValue::Obj(top) = &result else {
                panic!("result line is not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{w}");
            assert!(
                matches!(result.get("correct"), Some(JsonValue::Bool(true))),
                "{w}"
            );
            assert!(
                result.get("attempted").and_then(JsonValue::as_u64) >= Some(1),
                "{w}"
            );
            let Some(JsonValue::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: no metrics object")
            };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, v)| {
                    let unit = v.get("unit").and_then(JsonValue::as_str).expect("unit");
                    assert!(
                        v.get("value").and_then(JsonValue::as_f64).is_some(),
                        "{w} {k}"
                    );
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                got, want,
                "{w} trace {traced}: metrics differ from BENCHMARK.json"
            );

            let info = JsonValue::parse(lines[lines.len() - 2]).expect("report line is JSON");
            let Some(JsonValue::Obj(report)) = info.get("report") else {
                panic!("{w}: no report")
            };
            for (name, m) in report {
                assert!(
                    m.get("unit").is_some() && m.get("n").is_some(),
                    "{w} {name}"
                );
            }
            assert!(info.get("host").and_then(|h| h.get("nproc")).is_some());

            if traced == "1" {
                let share = metrics["bench.unattributed_share"]
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .expect("share");
                assert!(
                    share <= MAX_UNATTRIBUTED,
                    "{w}: {:.1}% of the root spans' time is unattributed",
                    share * 100.0
                );
            }
        }
    }
    let mut after = BTreeMap::new();
    tree(&repo(), &mut after);
    let changed: Vec<_> = after
        .iter()
        .filter(|(p, m)| before.get(*p) != Some(m))
        .map(|(p, _)| p.display().to_string())
        .chain(
            before
                .keys()
                .filter(|p| !after.contains_key(*p))
                .map(|p| p.display().to_string()),
        )
        .collect();
    assert!(
        changed.is_empty(),
        "the benchmark wrote files of the checkout: {changed:?}"
    );
}

#[test]
fn flame_environment_is_refused() {
    let o = bench(
        &[
            "--workload",
            "fig4-matrix",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[("FLAME_JOBS", "1")],
    );
    assert_eq!(o.status.code(), Some(2));
    assert!(o.stdout.is_empty());
}
