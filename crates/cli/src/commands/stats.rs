//! `usim stats` — graph-file statistics, or a live view of a running server.
//!
//! ```text
//! usim stats GRAPH
//! usim stats --server HOST:PORT [--watch SECS] [--iterations N]
//! ```
//!
//! The file mode reports topology and probability statistics of a graph
//! file.  The server mode connects to a running `usim serve` instance,
//! drives one `stats` + `slow_queries` frame round-trip over the wire
//! protocol, and renders the counters as text: serving totals, latency
//! quantiles, cache counters, per-stage trace histograms and the
//! slow-query log (the latter two populated when the server runs with
//! `--trace-sample-rate`).  `--watch SECS` repeats the round-trip every
//! SECS seconds — forever, or `--iterations N` times.

use crate::args::{ArgSpec, Arguments};
use crate::graphio::load_graph;
use crate::table::TextTable;
use crate::CliError;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use ugraph::stats::uncertain_graph_stats;

const SPEC: ArgSpec<'_> = ArgSpec {
    options: &["server", "watch", "iterations"],
    switches: &[],
};

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &SPEC)?;
    if let Some(addr) = args.option("server") {
        if args.positional(0).is_some() {
            return Err(CliError::new(
                "give either a graph file or --server, not both",
            ));
        }
        let watch_secs: u64 = args.parse_option("watch", 0u64)?;
        let iterations: u64 = args.parse_option("iterations", 1u64)?;
        return run_server_view(addr, watch_secs, iterations);
    }
    if args.option("watch").is_some() || args.option("iterations").is_some() {
        return Err(CliError::new("--watch/--iterations require --server"));
    }
    let path = args.require_positional(0, "the graph file (or --server)")?;
    let loaded = load_graph(path)?;
    let stats = uncertain_graph_stats(&loaded.graph);

    let mut table = TextTable::new(&["statistic", "value"]);
    let mut push = |name: &str, value: String| {
        table.row(vec![name.to_string(), value]);
    };
    push("vertices", stats.topology.num_vertices.to_string());
    push("arcs", stats.topology.num_arcs.to_string());
    push(
        "average out-degree",
        format!("{:.3}", stats.topology.average_out_degree),
    );
    push("max out-degree", stats.topology.max_out_degree.to_string());
    push("max in-degree", stats.topology.max_in_degree.to_string());
    push(
        "sink vertices (no out-arcs)",
        stats.topology.num_sinks.to_string(),
    );
    push(
        "source vertices (no in-arcs)",
        stats.topology.num_sources.to_string(),
    );
    push(
        "mean arc probability",
        format!("{:.4}", stats.mean_probability),
    );
    push(
        "min arc probability",
        format!("{:.4}", stats.min_probability),
    );
    push(
        "max arc probability",
        format!("{:.4}", stats.max_probability),
    );
    push(
        "expected arcs Σ P(e)",
        format!("{:.1}", stats.expected_num_arcs),
    );

    let mut output = format!("{path}\n\n");
    output.push_str(&table.render());
    output.push_str("\narc probability histogram (10 equal-width buckets over (0, 1]):\n");
    let max_count = stats
        .probability_histogram
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    for (bucket, &count) in stats.probability_histogram.iter().enumerate() {
        let low = bucket as f64 / 10.0;
        let high = low + 0.1;
        let bar_width = if max_count == 0 {
            0
        } else {
            (count * 40).div_ceil(max_count)
        };
        output.push_str(&format!(
            "  ({low:.1}, {high:.1}]  {count:>8}  {}\n",
            "#".repeat(bar_width)
        ));
    }
    Ok(output)
}

/// One `stats` + `slow_queries` round-trip per iteration, rendered as text.
///
/// `iterations == 0` (only reachable with `--watch`) repeats forever; the
/// intermediate views are printed (and flushed) directly, and the final
/// view is returned as the command output like any other subcommand.
fn run_server_view(addr: &str, watch_secs: u64, iterations: u64) -> Result<String, CliError> {
    if iterations == 0 && watch_secs == 0 {
        return Err(CliError::new("--iterations 0 (forever) requires --watch"));
    }
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError::new(format!("cannot connect to {addr}: {e}")))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| CliError::new(format!("{addr}: {e}")))?,
    );
    let mut writer = stream;
    let mut ask = |frame: &str| -> Result<Value, CliError> {
        writeln!(writer, "{frame}").map_err(|e| CliError::new(format!("{addr}: {e}")))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| CliError::new(format!("{addr}: {e}")))?;
        serde_json::from_str(&line)
            .map_err(|e| CliError::new(format!("{addr}: malformed response: {e}")))
    };

    let mut round = 0u64;
    loop {
        let stats = ask(r#"{"type":"stats"}"#)?;
        let slow = ask(r#"{"type":"slow_queries"}"#)?;
        let view = render_server_view(addr, &stats, &slow);
        round += 1;
        if iterations != 0 && round >= iterations {
            return Ok(view);
        }
        println!("{view}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs(watch_secs));
    }
}

/// Walks a `Value::Map` tree by key path.
fn lookup<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    let mut current = value;
    for key in path {
        current = current
            .as_map()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))?;
    }
    Some(current)
}

/// The integer at `path`, or 0 (absent fields render as zeroed counters).
fn uint_at(value: &Value, path: &[&str]) -> u64 {
    match lookup(value, path) {
        Some(Value::Uint(n)) => *n,
        Some(Value::Int(n)) => u64::try_from(*n).unwrap_or(0),
        _ => 0,
    }
}

fn bool_at(value: &Value, path: &[&str]) -> bool {
    matches!(lookup(value, path), Some(Value::Bool(true)))
}

fn str_at<'a>(value: &'a Value, path: &[&str]) -> &'a str {
    lookup(value, path).and_then(Value::as_str).unwrap_or("?")
}

fn render_server_view(addr: &str, stats: &Value, slow: &Value) -> String {
    let mut out = format!(
        "{addr}: epoch {}, {} vertices, {} arcs, sampler {}\n",
        uint_at(stats, &["epoch"]),
        uint_at(stats, &["vertices"]),
        uint_at(stats, &["arcs"]),
        str_at(stats, &["sampler"]),
    );

    out.push_str(&format!(
        "\nlatency: {} requests, p50 <= {}us, p90 <= {}us, p99 <= {}us\n",
        uint_at(stats, &["latency", "count"]),
        uint_at(stats, &["latency", "p50_us"]),
        uint_at(stats, &["latency", "p90_us"]),
        uint_at(stats, &["latency", "p99_us"]),
    ));
    if let Some(requests) = lookup(stats, &["latency", "requests"]).and_then(Value::as_map) {
        let counts: Vec<String> = requests
            .iter()
            .filter(|(_, v)| !matches!(v, Value::Uint(0)))
            .map(|(kind, count)| format!("{kind} {}", uint_at(count, &[])))
            .collect();
        if !counts.is_empty() {
            out.push_str(&format!("requests: {}\n", counts.join(", ")));
        }
    }

    if bool_at(stats, &["cache", "enabled"]) {
        out.push_str(&format!(
            "cache: {} entries (capacity {}), {} hits, {} misses, {} stale, {} evictions\n",
            uint_at(stats, &["cache", "entries"]),
            uint_at(stats, &["cache", "capacity"]),
            uint_at(stats, &["cache", "hits"]),
            uint_at(stats, &["cache", "misses"]),
            uint_at(stats, &["cache", "stale"]),
            uint_at(stats, &["cache", "evictions"]),
        ));
    }

    if bool_at(stats, &["walks", "enabled"]) {
        out.push_str(&format!(
            "walks: {} walks, {} steps ({} alias), {} deaths, {} meetings, \
             {} patched / {} base row reads\n",
            uint_at(stats, &["walks", "walks"]),
            uint_at(stats, &["walks", "steps_legacy"]) + uint_at(stats, &["walks", "steps_alias"]),
            uint_at(stats, &["walks", "steps_alias"]),
            uint_at(stats, &["walks", "deaths"]),
            uint_at(stats, &["walks", "meetings"]),
            uint_at(stats, &["walks", "rows_patched"]),
            uint_at(stats, &["walks", "rows_base"]),
        ));
    }

    if bool_at(stats, &["tracing", "enabled"]) {
        out.push_str(&format!(
            "\ntracing: every {}th request, {} traced\n",
            uint_at(stats, &["tracing", "sample_every"]),
            uint_at(stats, &["tracing", "traced"]),
        ));
        if let Some(stages) = lookup(stats, &["tracing", "stages"]).and_then(Value::as_seq) {
            let mut table = TextTable::new(&["stage", "count", "p50 (us)", "p99 (us)"]);
            for stage in stages {
                if uint_at(stage, &["count"]) == 0 {
                    continue;
                }
                table.row(vec![
                    str_at(stage, &["stage"]).to_string(),
                    uint_at(stage, &["count"]).to_string(),
                    uint_at(stage, &["p50_us"]).to_string(),
                    uint_at(stage, &["p99_us"]).to_string(),
                ]);
            }
            out.push_str(&table.render());
        }
        if let Some(entries) = lookup(slow, &["entries"]).and_then(Value::as_seq) {
            if !entries.is_empty() {
                out.push_str("\nslowest traced requests:\n");
                let mut table = TextTable::new(&["trace", "kind", "total (us)", "stages (us)"]);
                for entry in entries {
                    let stages = lookup(entry, &["stages_us"])
                        .and_then(Value::as_map)
                        .map(|stages| {
                            stages
                                .iter()
                                .filter(|(_, v)| !matches!(v, Value::Uint(0)))
                                .map(|(stage, us)| format!("{stage}={}", uint_at(us, &[])))
                                .collect::<Vec<_>>()
                                .join(" ")
                        })
                        .unwrap_or_default();
                    table.row(vec![
                        uint_at(entry, &["trace_id"]).to_string(),
                        str_at(entry, &["kind"]).to_string(),
                        uint_at(entry, &["total_us"]).to_string(),
                        stages,
                    ]);
                }
                out.push_str(&table.render());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("usim_cli_stats_{}_{name}", std::process::id()))
    }

    #[test]
    fn reports_counts_and_histogram() {
        let path = temp_file("g.tsv");
        std::fs::write(&path, "0 1 0.25\n1 2 0.75\n2 0 1.0\n2 1 0.95\n").unwrap();
        let output = run(&[path.to_str().unwrap().to_string()]).unwrap();
        assert!(output.contains("vertices"));
        assert!(output.contains('3'));
        assert!(output.contains("histogram"));
        assert!(output.contains('#'));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_rejects_a_corrupted_snapshot_with_a_clean_error() {
        let graph_path = temp_file("c.tsv");
        std::fs::write(&graph_path, "0 1 0.5\n1 2 0.9\n").unwrap();
        let snap_path = temp_file("c.usim");
        let snap = snap_path.to_str().unwrap();
        crate::commands::convert::run(&[graph_path.to_str().unwrap().to_string(), snap.into()])
            .unwrap();
        assert!(run(&[snap.to_string()]).is_ok());
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap_path, &bytes).unwrap();
        let err = run(&[snap.to_string()]).unwrap_err();
        assert!(err.to_string().contains(snap), "{err}");
        std::fs::remove_file(&graph_path).unwrap();
        std::fs::remove_file(&snap_path).unwrap();
    }

    #[test]
    fn missing_file_argument_is_an_error() {
        let err = run(&[]).unwrap_err();
        assert!(err.to_string().contains("graph file"));
    }
}
