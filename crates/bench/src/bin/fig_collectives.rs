//! Per-algorithm collective microbench: the O(log K) scale-out record.
//!
//! For every rank count K and both algorithm families this executes the
//! workflow's collective suite (control broadcast, gather/allgather,
//! small control allreduce, gradient-bucket ring allreduce) on fresh
//! record-only netsim worlds (Frontier model, `time_scale = 0`) and
//! records what the backend's own telemetry measured: wire bytes,
//! point-to-point messages, and modelled fabric seconds (the critical
//! path over ranks, priced by walking the executed `as_cluster::algos`
//! schedule).
//!
//! The artefact is `BENCH_collectives.json`. The headline it records:
//! the latency-bound collectives grow O(log K) under the log-depth
//! schedules and O(K) under the linear baselines — at 64 ranks roughly
//! an order of magnitude of fabric time.
//!
//! Pass `--smoke` for the CI-sized run (16 ranks only), `--ranks
//! 16,32,64` to pick the sweep, `--out` to redirect the JSON.

#![forbid(unsafe_code)]

use as_bench::{collective_microbench, CollectiveBenchRow};
use as_cluster::algos::CollectiveAlgo;
use as_cluster::machine::FRONTIER;

struct Args {
    ranks: Vec<usize>,
    out: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        ranks: vec![4, 8, 16, 32, 64],
        out: "BENCH_collectives.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--ranks" => {
                a.ranks = val()
                    .split(',')
                    .map(|s| s.parse().expect("--ranks"))
                    .collect()
            }
            "--out" => a.out = val(),
            "--smoke" => a.ranks = vec![16],
            other => panic!("unknown flag {other}"),
        }
    }
    a
}

fn main() {
    let a = parse_args();
    println!("=== collective microbench: linear vs log-depth schedules (Frontier model) ===");
    println!(
        "{:>6} {:>8} {:>18} {:>12} {:>10} {:>14}",
        "ranks", "algo", "op", "payload [B]", "messages", "fabric [µs]"
    );

    let mut rows: Vec<CollectiveBenchRow> = Vec::new();
    for &ranks in &a.ranks {
        for algo in [CollectiveAlgo::Linear, CollectiveAlgo::Log] {
            for row in collective_microbench(&FRONTIER, algo, ranks) {
                println!(
                    "{:>6} {:>8} {:>18} {:>12} {:>10} {:>14.2}",
                    row.ranks,
                    row.algo,
                    row.op,
                    row.payload_bytes,
                    row.messages,
                    row.modelled_seconds * 1e6
                );
                rows.push(row);
            }
        }
    }

    // The headline ratio at the largest swept size.
    if let Some(&p) = a.ranks.iter().max() {
        let t = |algo: &str, op: &str| {
            rows.iter()
                .find(|r| r.ranks == p && r.algo == algo && r.op == op)
                .map(|r| r.modelled_seconds)
                .unwrap_or(0.0)
        };
        let lin = t("linear", "broadcast_1KiB");
        let log = t("log", "broadcast_1KiB");
        if log > 0.0 {
            println!();
            println!(
                "  broadcast at {p} ranks: linear {:.2} µs vs log {:.2} µs ({:.1}× — \
                 O(K) vs O(log K) serialized root sends)",
                lin * 1e6,
                log * 1e6,
                lin / log
            );
        }
    }

    let mut json = String::from(
        "{\n  \"bench\": \"collectives\",\n  \"machine\": \"frontier\",\n  \"rows\": [\n",
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"algo\": \"{}\", \"ranks\": {}, \"payload_bytes\": {}, \"wire_bytes\": {}, \"messages\": {}, \"modelled_seconds\": {:.9}}}{}\n",
            r.op,
            r.algo,
            r.ranks,
            r.payload_bytes,
            r.wire_bytes,
            r.messages,
            r.modelled_seconds,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&a.out, &json).expect("write BENCH_collectives.json");
    println!();
    println!("wrote {}", a.out);
}
