//! Library backing the `usim` command-line tool.
//!
//! The binary in `src/main.rs` forwards its arguments to [`run`]; every
//! subcommand returns its output as a `String`, so the whole CLI is testable
//! without spawning processes.
//!
//! ```text
//! usim datasets                                list the Table II dataset registry
//! usim generate  --dataset Net --out net.tsv   generate a synthetic dataset
//! usim stats     GRAPH                         topology / probability statistics
//! usim simrank   GRAPH --source U --target V   single-pair SimRank query
//! usim topk      GRAPH --source U --k 10       most similar vertices to a source
//! usim topk-pairs GRAPH --k 10                 most similar vertex pairs
//! usim matrices  GRAPH --steps 3               k-step transition probability matrices
//! usim update    GRAPH --updates F --out OUT   apply arc updates to a graph
//! usim serve     GRAPH --addr HOST:PORT        serve queries/updates over TCP (JSON lines)
//! usim convert   IN OUT                        rewrite a graph as text or a snapshot
//! usim er        --records 300                 entity-resolution case study
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
#[cfg(test)]
mod binfmt;
pub mod commands;
pub mod estimators;
pub mod exec;
pub mod graphio;
pub mod table;
pub mod updates;

use std::fmt;

/// Error type shared by every subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    message: String,
}

impl CliError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ugraph::GraphError> for CliError {
    fn from(e: ugraph::GraphError) -> Self {
        CliError::new(e.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::new(e.to_string())
    }
}

impl From<rwalk::transpr::TransPrError> for CliError {
    fn from(e: rwalk::transpr::TransPrError) -> Self {
        CliError::new(e.to_string())
    }
}

/// Dispatches a full command line (without the program name) to the matching
/// subcommand and returns its textual output.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(usage());
    };
    let rest = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(usage()),
        "version" | "--version" | "-V" => Ok(format!("usim {}\n", env!("CARGO_PKG_VERSION"))),
        "datasets" => commands::datasets::run(rest),
        "generate" => commands::generate::run(rest),
        "stats" => commands::stats::run(rest),
        "simrank" => commands::simrank::run(rest),
        "topk" => commands::topk::run(rest),
        "topk-pairs" => commands::pairs::run(rest),
        "matrices" => commands::matrices::run(rest),
        "update" => commands::update::run(rest),
        "serve" => commands::serve::run(rest),
        "convert" => commands::convert::run(rest),
        "er" => commands::er::run(rest),
        other => Err(CliError::new(format!(
            "unknown command {other:?}; run `usim help` for the list of commands"
        ))),
    }
}

/// The top-level usage text.
pub fn usage() -> String {
    concat!(
        "usim — SimRank on uncertain graphs (reproduction of Zhu, Zou & Li, ICDE 2016)\n",
        "\n",
        "USAGE:\n",
        "    usim <COMMAND> [ARGS]\n",
        "\n",
        "COMMANDS:\n",
        "    datasets     List the synthetic dataset registry (Table II stand-ins)\n",
        "    generate     Generate a synthetic uncertain graph and write it to a file\n",
        "    stats        Print statistics of a graph file, or (--server) a live\n",
        "                 counter view of a running `usim serve` instance\n",
        "    simrank      SimRank similarity of one vertex pair (all estimators available)\n",
        "    topk         The k vertices most similar to a source vertex\n",
        "    topk-pairs   The k most similar vertex pairs of a graph\n",
        "    matrices     k-step transition probability matrices W(1)..W(K)\n",
        "    update       Apply an arc-update file to a graph and write the result\n",
        "                 (`+ u v p` insert, `- u v` delete, `= u v p` set probability;\n",
        "                 a line holding only `---` separates update rounds, each round\n",
        "                 applied as one atomic batch)\n",
        "    serve        Serve queries and live updates over TCP: line-delimited JSON\n",
        "                 frames (similarity/profile/top_k/batch/update/stats), answers\n",
        "                 bit-identical to the batch-engine commands; see docs/PROTOCOL.md\n",
        "    convert      Rewrite a graph file as text, or as a snapshot when OUT ends\n",
        "                 in .usim or .bin (labels kept either way; `serve` boots a\n",
        "                 snapshot without re-parsing or re-validating edges)\n",
        "    er           Entity-resolution case study on a synthetic record graph\n",
        "    help         Show this message\n",
        "    version      Show the version\n",
        "\n",
        "GRAPH FILES:\n",
        "    Text edge lists have one `source target probability` triple per line\n",
        "    (probability optional, defaults to 1.0; `#` starts a comment).  The one\n",
        "    binary format is the checksummed CSR snapshot: every command reads a\n",
        "    file starting with its magic as a snapshot, labels included, every arc\n",
        "    re-validated (`stats OUT.usim` checks one before a deploy), and any\n",
        "    other file as text.  Commands that write a graph (generate, update\n",
        "    --out, convert) write a snapshot when the path ends in .usim or .bin\n",
        "    and text otherwise, always in the original labels.\n",
        "\n",
        "SIMRANK OPTIONS (shared by simrank, topk, topk-pairs, er, serve):\n",
        "    --decay C          decay factor c in (0,1)        [default 0.6]\n",
        "    --horizon N        walk horizon n                  [default 5]\n",
        "    --samples N        sampled walks per query vertex  [default 100]\n",
        "    --phase-switch L   exact steps of SR-TS / SR-SP    [default 1]\n",
        "                       (single-pair simrank, topk-pairs and er only, with\n",
        "                       --algorithm two-phase or speedup or --compare: the\n",
        "                       batch engine always takes m(1) and m(2) exactly)\n",
        "    --seed S           RNG seed                        [default fixed]\n",
        "    --direction in|out walk direction                  [default in]\n",
        "    --sampler legacy|alias\n",
        "                       per-step walk backend of the batch engine\n",
        "                       (simrank --batch, topk --engine batch and serve\n",
        "                       only): legacy draws each arc lazily; alias draws\n",
        "                       each step from the vertex's Walker alias row,\n",
        "                       built on first use (O(1) per step) [default legacy]\n",
        "    A command or mode given an option it does not read fails with an error.\n",
        "\n",
        "BATCH / DYNAMIC-UPDATE OPTIONS:\n",
        "    --batch FILE       answer a pairs file (`source target` per line) with\n",
        "                       the CSR batch engine (simrank)\n",
        "    --threads N        batch worker threads; 0 (the default) means \"use the\n",
        "                       rayon default pool\" instead of a pinned pool\n",
        "    --updates FILE     arc updates: `+ u v p` insert, `- u v` delete,\n",
        "                       `= u v p` set probability; a `---` line separates\n",
        "                       rounds, each applied as one atomic batch.\n",
        "                       With `simrank --batch` the pair batch is re-answered\n",
        "                       after every round (churn mode); `update` applies the\n",
        "                       rounds and writes the mutated graph via --out\n",
        "\n",
        "SERVER OPTIONS (serve):\n",
        "    --addr HOST:PORT   listen address (port 0 picks a free port) [127.0.0.1:7878]\n",
        "    --workers N        connections served at once, one thread each [default 4]\n",
        "    --max-batch N      per-request pairs/candidates/updates cap   [default 65536]\n",
        "    --max-connections N  stop after N connections; 0 = run forever [default 0]\n",
        "    --port-file PATH   write the bound address to PATH after binding\n",
        "                       (removed again on clean shutdown)\n",
        "    --cache-capacity N result-cache entries, and also the bound on the\n",
        "                       walk-set memo: N per-vertex sets and N x 4 KiB of\n",
        "                       two-hop rows; 0 = off                     [default 0]\n",
        "    --snapshot PATH    the graph to serve, in place of the positional path;\n",
        "                       a snapshot boots with no parsing and no per-edge work\n",
        "    --update-log PATH  durable update log: replay logged rounds at boot, then\n",
        "                       append (and sync) every accepted update batch\n",
        "    --trace-sample-rate R  trace every ~1/R-th request: per-stage timings,\n",
        "                       stage histograms in `stats`, slow-query log\n",
        "                       (answers stay byte-identical); 0 = off     [default 0]\n",
        "    --slow-log N       keep the N slowest traced requests for the\n",
        "                       `slow_queries` frame                       [default 32]\n",
        "    --metrics-port P   serve the Prometheus text exposition over plain\n",
        "                       HTTP on port P (0 picks a free port)\n",
        "    --metrics-port-file PATH  write the exporter's bound address to PATH\n",
        "\n",
        "SERVER STATS VIEW (stats --server):\n",
        "    --server HOST:PORT render a running server's counters (latency,\n",
        "                       cache, stage traces, slow queries)\n",
        "    --watch SECS       repeat every SECS seconds\n",
        "    --iterations N     stop after N views; 0 = forever with --watch [default 1]\n",
        "\n",
        "Run `usim <COMMAND> --help` semantics are not supported; see README.md for\n",
        "per-command examples.\n",
    )
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_arguments_prints_usage() {
        let output = run(&[]).unwrap();
        assert!(output.contains("USAGE"));
        assert!(output.contains("topk-pairs"));
    }

    #[test]
    fn help_and_version() {
        assert!(run(&tokens(&["help"])).unwrap().contains("COMMANDS"));
        assert!(run(&tokens(&["--help"])).unwrap().contains("COMMANDS"));
        let version = run(&tokens(&["version"])).unwrap();
        assert!(version.starts_with("usim "));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&tokens(&["frobnicate"])).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn error_conversions_preserve_messages() {
        let graph_error = ugraph::GraphError::Io("disk on fire".into());
        let cli: CliError = graph_error.into();
        assert!(cli.to_string().contains("disk on fire"));
        let io_error = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let cli: CliError = io_error.into();
        assert!(cli.to_string().contains("nope"));
    }
}
