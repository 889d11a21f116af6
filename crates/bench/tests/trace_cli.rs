//! The `trace` binary end to end on its default cell (GUPS × Flame on the
//! GTX 480 with GTO scheduling, WCDL 1000) with four strikes: the run
//! recovers the correct output, and each of the three exports it writes
//! parses. A zero exit also means the binary's own cross-check held: the
//! trace's stall attribution equals the run's `SimStats`.

use flame_trace::JsonValue;
use std::process::Command;

#[test]
fn fault_capture_recovers_and_writes_parseable_exports() {
    let dir = std::env::temp_dir().join(format!("flame_trace_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args([
            "--faults",
            "4",
            "--out",
            dir.to_str().expect("UTF-8 temp dir"),
        ])
        .output()
        .expect("spawn trace");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "trace failed\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("output_ok=true"), "{stdout}");
    let written: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("wrote "))
        .collect();
    assert_eq!(written.len(), 3, "{stdout}");
    let read = |suffix: &str| {
        let path = written
            .iter()
            .find(|p| p.ends_with(suffix))
            .unwrap_or_else(|| panic!("no {suffix} export:\n{stdout}"));
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };

    let json = read(".trace.json");
    let chrome = JsonValue::parse(&json).unwrap_or_else(|e| panic!("trace.json: {e}"));
    assert!(
        chrome.get("traceEvents").is_some(),
        "trace.json lacks traceEvents"
    );

    // One header and a row per region, every row as wide as the header,
    // its numeric columns numbers (close and latency are empty for a
    // region still open) and its last a boolean.
    let csv = read(".regions.csv");
    let mut rows = csv.lines();
    let header: Vec<&str> = rows.next().expect("CSV header").split(',').collect();
    assert_eq!(
        header,
        ["sm", "slot", "pc", "enter", "close", "latency", "committed"]
    );
    let mut regions = 0;
    for row in rows {
        let f: Vec<&str> = row.split(',').collect();
        assert_eq!(f.len(), header.len(), "regions.csv row {row:?}");
        for (i, v) in f[..6].iter().enumerate() {
            assert!(
                v.parse::<u64>().is_ok() || (i >= 4 && v.is_empty()),
                "regions.csv row {row:?}: column {} is {v:?}",
                header[i]
            );
        }
        assert!(f[6].parse::<bool>().is_ok(), "regions.csv row {row:?}");
        regions += 1;
    }
    assert!(regions > 0, "regions.csv has no region");

    // The stall table's `ALL` row: one count per cause column of the
    // header, then their total.
    let stalls = read(".stalls.txt");
    let columns = stalls
        .lines()
        .nth(1)
        .expect("stall table header")
        .split_whitespace()
        .count();
    let all: Vec<&str> = stalls
        .lines()
        .find(|l| l.trim_start().starts_with("ALL"))
        .expect("stall table ALL row")
        .split_whitespace()
        .collect();
    assert_eq!(all.len(), columns, "ALL row {all:?}");
    let counts: Vec<u64> = all[2..]
        .iter()
        .map(|v| v.parse().unwrap_or_else(|_| panic!("ALL row {all:?}")))
        .collect();
    let (total, causes) = counts.split_last().expect("ALL row has counts");
    assert_eq!(causes.iter().sum::<u64>(), *total, "ALL row {all:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
