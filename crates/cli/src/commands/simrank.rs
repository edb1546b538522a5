//! `usim simrank` — SimRank similarity of one vertex pair, or of a whole
//! batch of pairs.
//!
//! By default the two-phase (SR-TS) estimator answers the query; `--algorithm`
//! selects another family, and `--compare` runs every family (including the
//! uncertainty-blind SimRank-II and Du et al.'s SimRank-III baselines) and
//! prints a comparison table with per-algorithm timings.
//!
//! `--batch FILE` switches to the CSR batch engine
//! ([`usim_core::QueryEngine`]): the file lists one `source target` pair per
//! line (original file labels; blank lines and `#` comments are skipped),
//! all pairs are answered in one thread-sharded pass, and `--threads N` pins
//! the worker count (`--threads 0`, the default, uses the rayon default
//! pool).  Batch output is bit-identical at any thread count.
//!
//! `--batch FILE --updates UPDATES` is the interleaved *churn mode* for
//! dynamic graphs: the update file (format in [`crate::updates`]) is split
//! into rounds at `---` separators, and the whole pair batch is answered
//! before any update and again after each round — one engine, mutated in
//! place through [`usim_core::QueryEngine::apply_updates`], never rebuilt.

use crate::args::{ArgSpec, Arguments};
use crate::estimators::{
    config_from_args, reject_unread_options, AlgorithmKind, OptionReader, CONFIG_OPTIONS,
};
use crate::graphio::{load_graph, LoadedGraph};
use crate::table::{fmt_millis, fmt_score, TextTable};
use crate::updates::read_update_rounds;
use crate::CliError;
use std::time::Instant;
use ugraph::VertexId;
use usim_core::QueryEngine;

const BASE_OPTIONS: &[&str] = &[
    "source",
    "target",
    "algorithm",
    "batch",
    "threads",
    "updates",
];

fn spec() -> ArgSpec<'static> {
    // The full option list is the union of the command's own options and the
    // shared SimRank configuration options.
    static ALL: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
    let options = ALL.get_or_init(|| {
        let mut all = BASE_OPTIONS.to_vec();
        all.extend_from_slice(CONFIG_OPTIONS);
        all
    });
    ArgSpec {
        options,
        switches: &["compare"],
    }
}

/// Runs the command.
pub fn run(tokens: &[String]) -> Result<String, CliError> {
    let args = Arguments::parse(tokens, &spec())?;
    let path = args.require_positional(0, "the graph file")?;
    let config = config_from_args(&args)?;

    if let Some(batch_path) = args.option("batch") {
        if let Some(algorithm) = args.option("algorithm") {
            return Err(CliError::new(format!(
                "--batch always uses the CSR batch engine (SR-TS with all-pairs \
                 walk meetings); --algorithm {algorithm:?} cannot be combined with it"
            )));
        }
        reject_unread_options(&args, OptionReader::Engine)?;
        let loaded = load_graph(path)?;
        return run_batch(&args, path, batch_path, &loaded, config);
    }
    if args.option("updates").is_some() {
        return Err(CliError::new(
            "--updates requires --batch (churn mode interleaves update rounds \
             with batch queries); use `usim update` to mutate a graph file",
        ));
    }

    // `--compare` runs every family; otherwise `--algorithm` picks one.
    let kind = if args.switch("compare") {
        if let Some(algorithm) = args.option("algorithm") {
            return Err(CliError::new(format!(
                "--compare runs every estimator family; --algorithm {algorithm:?} \
                 cannot be combined with it"
            )));
        }
        None
    } else {
        Some(AlgorithmKind::parse(
            args.option("algorithm").unwrap_or("two-phase"),
        )?)
    };
    reject_unread_options(
        &args,
        kind.map_or(OptionReader::PairEstimators, OptionReader::Estimator),
    )?;
    let source_label: u64 = args.require_option("source")?;
    let target_label: u64 = args.require_option("target")?;
    let loaded = load_graph(path)?;
    let u = loaded.vertex_for_label(source_label)?;
    let v = loaded.vertex_for_label(target_label)?;

    let Some(kind) = kind else {
        let mut table = TextTable::new(&["algorithm", "s(u, v)", "time (ms)"]);
        for kind in AlgorithmKind::all() {
            let start = Instant::now();
            let mut estimator = kind.build(&loaded.graph, config);
            let score = estimator.similarity(u, v);
            table.row(vec![
                kind.display_name().to_string(),
                fmt_score(score),
                fmt_millis(start.elapsed()),
            ]);
        }
        let mut output = format!(
            "s({source_label}, {target_label}) on {path} (c = {}, n = {}, N = {})\n\n",
            config.decay, config.horizon, config.num_samples
        );
        output.push_str(&table.render());
        return Ok(output);
    };
    let start = Instant::now();
    let mut estimator = kind.build(&loaded.graph, config);
    let score = estimator.similarity(u, v);
    Ok(format!(
        "s({source_label}, {target_label}) = {} [{}; {} ms]\n",
        fmt_score(score),
        kind.display_name(),
        fmt_millis(start.elapsed()),
    ))
}

/// A parsed pairs file: the original file labels of every pair, and the
/// corresponding compacted vertex ids.
type ParsedPairs = (Vec<(u64, u64)>, Vec<(VertexId, VertexId)>);

/// Reads a pairs file: one `source target` pair of file labels per line;
/// blank lines and lines starting with `#` are skipped.  Every malformed
/// line — missing or extra fields, unparsable labels, labels that do not
/// appear in the graph — is a parse error carrying its 1-based line number.
fn read_pairs_file(batch_path: &str, loaded: &LoadedGraph) -> Result<ParsedPairs, CliError> {
    let text = std::fs::read_to_string(batch_path)
        .map_err(|e| CliError::new(format!("cannot read pairs file {batch_path}: {e}")))?;
    let mut labels = Vec::new();
    let mut pairs = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fail =
            |message: String| CliError::new(format!("{batch_path}:{}: {message}", number + 1));
        let fields: Vec<&str> = line.split_whitespace().collect();
        let &[a, b] = fields.as_slice() else {
            return Err(fail(format!(
                "expected \"source target\", got {} fields in {line:?}",
                fields.len()
            )));
        };
        let parse = |s: &str| -> Result<u64, CliError> {
            s.parse().map_err(|_| fail(format!("bad label {s:?}")))
        };
        let resolve = |label: u64| -> Result<VertexId, CliError> {
            loaded
                .vertex_for_label(label)
                .map_err(|_| fail(format!("vertex {label} does not appear in the graph")))
        };
        let (a, b) = (parse(a)?, parse(b)?);
        pairs.push((resolve(a)?, resolve(b)?));
        labels.push((a, b));
    }
    if pairs.is_empty() {
        return Err(CliError::new(format!(
            "pairs file {batch_path} contains no pairs"
        )));
    }
    Ok((labels, pairs))
}

/// Answers a whole pairs file with the CSR batch engine; with `--updates`
/// the batch is re-answered after every update round (churn mode).
fn run_batch(
    args: &Arguments,
    path: &str,
    batch_path: &str,
    loaded: &LoadedGraph,
    config: usim_core::SimRankConfig,
) -> Result<String, CliError> {
    let (labels, pairs) = read_pairs_file(batch_path, loaded)?;
    let threads: usize = args.parse_option("threads", 0usize)?;
    let rounds = match args.option("updates") {
        Some(updates_path) => read_update_rounds(updates_path, loaded)?,
        None => Vec::new(),
    };
    // One pool for the whole run; rounds must not re-spawn worker threads.
    let pool = crate::exec::build_thread_pool(threads)?;

    let start = Instant::now();
    let mut engine = QueryEngine::new(&loaded.graph, config);
    let build_time = start.elapsed();

    // Round 0 answers the pristine graph; each update round appends one
    // more score column (same engine, mutated in place).  Query time is
    // accumulated around the batch calls only, so the reported ms/pair is
    // pure query latency even when rounds trigger compactions.
    let mut query_time = std::time::Duration::ZERO;
    let mut score_columns: Vec<Vec<f64>> = Vec::with_capacity(rounds.len() + 1);
    let mut round_notes: Vec<String> = Vec::new();
    let answer_batch = |engine: &QueryEngine,
                        query_time: &mut std::time::Duration|
     -> Result<Vec<f64>, CliError> {
        let start = Instant::now();
        let scores = crate::exec::install_in(pool.as_ref(), || engine.batch_similarities(&pairs))
            .map_err(|e| CliError::new(format!("{batch_path}: {e}")))?;
        *query_time += start.elapsed();
        Ok(scores)
    };
    score_columns.push(answer_batch(&engine, &mut query_time)?);
    for (index, round) in rounds.iter().enumerate() {
        let summary = engine.apply_updates(round).map_err(|e| {
            CliError::new(format!(
                "update round {}: {}",
                index + 1,
                crate::updates::describe_update_error(&e, loaded)
            ))
        })?;
        round_notes.push(crate::updates::format_round_summary(index + 1, &summary));
        score_columns.push(answer_batch(&engine, &mut query_time)?);
    }

    let mut header: Vec<String> = vec!["source".into(), "target".into()];
    if rounds.is_empty() {
        header.push("s(u, v)".into());
    } else {
        header.extend((0..score_columns.len()).map(|r| format!("s@r{r}")));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    for (row, &(a, b)) in labels.iter().enumerate() {
        let mut cells = vec![a.to_string(), b.to_string()];
        cells.extend(score_columns.iter().map(|column| fmt_score(column[row])));
        table.row(cells);
    }
    let total_queries = pairs.len() * score_columns.len();
    let per_pair = query_time.as_secs_f64() * 1000.0 / total_queries as f64;
    let mut output = format!(
        "{} pairs from {batch_path} on {path} \
         (N = {}, n = {}, threads = {}, CSR build {} ms, queries {} ms, {per_pair:.3} ms/pair{})\n",
        pairs.len(),
        config.num_samples,
        config.horizon,
        crate::exec::describe_threads(threads),
        fmt_millis(build_time),
        fmt_millis(query_time),
        if rounds.is_empty() {
            String::new()
        } else {
            format!(
                ", {} update rounds, final epoch {}",
                rounds.len(),
                engine.update_epoch()
            )
        },
    );
    for note in &round_notes {
        output.push_str(note);
        output.push('\n');
    }
    output.push('\n');
    output.push_str(&table.render());
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_file(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("usim_cli_simrank_{}_{name}", std::process::id()));
        std::fs::write(
            &path,
            "0 2 0.8\n0 3 0.5\n1 0 0.8\n1 2 0.9\n2 0 0.7\n2 3 0.6\n3 4 0.6\n3 1 0.8\n",
        )
        .unwrap();
        path
    }

    fn tokens(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn single_algorithm_query_prints_a_score() {
        let path = fig1_file("single.tsv");
        let output = run(&tokens(&[
            path.to_str().unwrap(),
            "--source",
            "0",
            "--target",
            "1",
            "--algorithm",
            "baseline",
        ]))
        .unwrap();
        assert!(output.starts_with("s(0, 1) = 0."));
        assert!(output.contains("Baseline"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn comparison_table_lists_every_algorithm() {
        let path = fig1_file("compare.tsv");
        let output = run(&tokens(&[
            path.to_str().unwrap(),
            "--source",
            "1",
            "--target",
            "2",
            "--samples",
            "100",
            "--compare",
        ]))
        .unwrap();
        for name in [
            "Baseline",
            "Sampling",
            "SR-TS",
            "SR-SP",
            "SimRank-III",
            "SimRank-II",
        ] {
            assert!(output.contains(name), "missing {name} in:\n{output}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_vertex_label_is_a_clean_error() {
        let path = fig1_file("badvertex.tsv");
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--source",
            "0",
            "--target",
            "999",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("999"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batch_mode_answers_every_pair_and_is_thread_invariant() {
        let path = fig1_file("batch.tsv");
        let pairs_path =
            std::env::temp_dir().join(format!("usim_cli_simrank_pairs_{}", std::process::id()));
        std::fs::write(&pairs_path, "# pairs\n0 1\n1 2\n\n2 3\n").unwrap();
        let base = vec![
            path.to_str().unwrap().to_string(),
            "--batch".to_string(),
            pairs_path.to_str().unwrap().to_string(),
            "--samples".to_string(),
            "200".to_string(),
            "--seed".to_string(),
            "9".to_string(),
        ];
        let mut one_thread = base.clone();
        one_thread.extend(["--threads".to_string(), "1".to_string()]);
        let mut four_threads = base.clone();
        four_threads.extend(["--threads".to_string(), "4".to_string()]);
        let out_1 = run(&one_thread).unwrap();
        let out_4 = run(&four_threads).unwrap();
        assert!(out_1.contains("3 pairs"), "{out_1}");
        // The score table must be identical at any thread count.
        let table = |s: &str| s.lines().skip(1).map(String::from).collect::<Vec<_>>();
        assert_eq!(table(&out_1), table(&out_4));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&pairs_path).unwrap();
    }

    #[test]
    fn churn_mode_reanswers_the_batch_after_every_round() {
        let path = fig1_file("churn.tsv");
        let pairs_path = std::env::temp_dir().join(format!(
            "usim_cli_simrank_churnpairs_{}",
            std::process::id()
        ));
        // A repeated pair on purpose: the engine deduplicates it, and both
        // rows must carry the same scores.
        std::fs::write(&pairs_path, "0 1\n2 3\n0 1\n").unwrap();
        let updates_path =
            std::env::temp_dir().join(format!("usim_cli_simrank_churnupd_{}", std::process::id()));
        std::fs::write(&updates_path, "= 0 2 0.05\n- 0 3\n---\n+ 4 0 0.9\n").unwrap();
        let output = run(&tokens(&[
            path.to_str().unwrap(),
            "--batch",
            pairs_path.to_str().unwrap(),
            "--updates",
            updates_path.to_str().unwrap(),
            "--samples",
            "150",
            "--seed",
            "4",
        ]))
        .unwrap();
        // One score column per round (pristine + 2 update rounds).
        assert!(output.contains("s@r0"), "{output}");
        assert!(output.contains("s@r2"), "{output}");
        assert!(output.contains("2 update rounds"), "{output}");
        assert!(
            output.contains("round 1: +0 -1 =1 arcs -> 7 live"),
            "{output}"
        );
        assert!(
            output.contains("round 2: +1 -0 =0 arcs -> 8 live"),
            "{output}"
        );
        let rows: Vec<&str> = output
            .lines()
            .filter(|l| l.trim_start().starts_with("0 "))
            .collect();
        assert_eq!(rows.len(), 2, "{output}");
        assert_eq!(rows[0], rows[1], "{output}");

        // A round referencing a missing arc is a clean, located error.
        std::fs::write(&updates_path, "- 0 4\n").unwrap();
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--batch",
            pairs_path.to_str().unwrap(),
            "--updates",
            updates_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            err.to_string().contains("round 1") && err.to_string().contains("does not exist"),
            "{err}"
        );

        // --updates without --batch is rejected with a pointer to `update`.
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--source",
            "0",
            "--target",
            "1",
            "--updates",
            updates_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("requires --batch"), "{err}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&pairs_path).unwrap();
        std::fs::remove_file(&updates_path).unwrap();
    }

    #[test]
    fn pair_file_errors_carry_line_numbers() {
        let path = fig1_file("linenos.tsv");
        let pairs_path =
            std::env::temp_dir().join(format!("usim_cli_simrank_linenos_{}", std::process::id()));
        let cases = [
            ("0 1\n0 1 2\n", "expected \"source target\", got 3 fields"),
            ("0 1\n0 x\n", "bad label \"x\""),
            ("0 1\n0 777\n", "vertex 777 does not appear"),
        ];
        for (content, expected) in cases {
            std::fs::write(&pairs_path, content).unwrap();
            let err = run(&tokens(&[
                path.to_str().unwrap(),
                "--batch",
                pairs_path.to_str().unwrap(),
            ]))
            .unwrap_err();
            let message = err.to_string();
            assert!(
                message.contains(":2:") && message.contains(expected),
                "{content:?}: {message}"
            );
        }
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&pairs_path).unwrap();
    }

    #[test]
    fn batch_mode_rejects_bad_pair_files() {
        let path = fig1_file("badbatch.tsv");
        let pairs_path =
            std::env::temp_dir().join(format!("usim_cli_simrank_badpairs_{}", std::process::id()));
        std::fs::write(&pairs_path, "0\n").unwrap();
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--batch",
            pairs_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("source target"), "{err}");
        std::fs::write(&pairs_path, "# only comments\n").unwrap();
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--batch",
            pairs_path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no pairs"), "{err}");
        // --algorithm conflicts with --batch (the engine has one estimator).
        let err = run(&tokens(&[
            path.to_str().unwrap(),
            "--batch",
            pairs_path.to_str().unwrap(),
            "--algorithm",
            "sr-ts",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--algorithm"), "{err}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&pairs_path).unwrap();
    }

    #[test]
    fn missing_required_options_are_errors() {
        let path = fig1_file("missing.tsv");
        assert!(run(&tokens(&[path.to_str().unwrap()])).is_err());
        assert!(run(&tokens(&[path.to_str().unwrap(), "--source", "0"])).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn each_mode_rejects_the_options_it_does_not_read() {
        let path = fig1_file("unread.tsv");
        let pairs_path =
            std::env::temp_dir().join(format!("usim_cli_simrank_unread_{}", std::process::id()));
        std::fs::write(&pairs_path, "0 1\n").unwrap();
        let (graph, pairs) = (path.to_str().unwrap(), pairs_path.to_str().unwrap());
        let single = [graph, "--source", "0", "--target", "1", "--samples", "50"];
        let batch = [graph, "--batch", pairs, "--samples", "50"];
        let with = |base: &[&str], extra: &[&str]| {
            run(&tokens(&[base, extra].concat())).map_err(|e| e.to_string())
        };
        // The batch engine reads --sampler but always takes l = 2.
        assert!(with(&batch, &["--sampler", "alias"]).is_ok());
        let err = with(&batch, &["--phase-switch", "2"]).unwrap_err();
        assert!(
            err.contains("--phase-switch") && err.contains("l = 2"),
            "{err}"
        );
        // The paper's estimators read --phase-switch, and no --sampler.
        assert!(with(&single, &["--phase-switch", "2"]).is_ok());
        for extra in [
            &["--sampler", "alias"][..],
            &["--sampler", "legacy", "--compare"],
        ] {
            let err = with(&single, extra).unwrap_err();
            assert!(
                err.contains("--sampler") && err.contains("batch engine"),
                "{err}"
            );
        }
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&pairs_path).unwrap();
    }
}
