//! End-to-end tests of the `usim` binary: spawn the compiled executable and
//! check its output and exit codes, covering the full
//! generate → inspect → query → convert workflow a user would run.

use std::path::PathBuf;
use std::process::{Command, Output};

fn usim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_usim"))
        .args(args)
        .output()
        .expect("failed to spawn the usim binary")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("usim_cli_e2e_{}_{name}", std::process::id()))
}

fn write_fig1(path: &PathBuf) {
    std::fs::write(
        path,
        "0 2 0.8\n0 3 0.5\n1 0 0.8\n1 2 0.9\n2 0 0.7\n2 3 0.6\n3 4 0.6\n3 1 0.8\n",
    )
    .unwrap();
}

#[test]
fn help_is_printed_without_arguments_and_on_request() {
    let bare = usim(&[]);
    assert!(bare.status.success());
    assert!(stdout(&bare).contains("USAGE"));

    let help = usim(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("COMMANDS"));
}

#[test]
fn unknown_commands_fail_with_a_helpful_message_and_nonzero_exit() {
    let output = usim(&["frobnicate"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("frobnicate"));
    assert!(stderr(&output).contains("usim help"));
}

#[test]
fn datasets_lists_the_registry() {
    let output = usim(&["datasets"]);
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(text.contains("PPI1"));
    assert!(text.contains("DBLP"));
}

#[test]
fn simrank_and_topk_queries_work_on_a_text_graph() {
    let graph = temp("fig1.tsv");
    write_fig1(&graph);
    let graph_path = graph.to_str().unwrap();

    let single = usim(&[
        "simrank",
        graph_path,
        "--source",
        "0",
        "--target",
        "1",
        "--algorithm",
        "baseline",
    ]);
    assert!(single.status.success(), "stderr: {}", stderr(&single));
    assert!(stdout(&single).contains("s(0, 1) = 0."));

    let compare = usim(&[
        "simrank",
        graph_path,
        "--source",
        "1",
        "--target",
        "2",
        "--samples",
        "100",
        "--compare",
    ]);
    assert!(compare.status.success());
    assert!(stdout(&compare).contains("SR-SP"));

    let topk = usim(&[
        "topk",
        graph_path,
        "--source",
        "0",
        "--k",
        "3",
        "--samples",
        "300",
    ]);
    assert!(topk.status.success(), "stderr: {}", stderr(&topk));
    assert!(stdout(&topk).contains("top-3"));

    let pairs = usim(&[
        "topk-pairs",
        graph_path,
        "--k",
        "2",
        "--algorithm",
        "baseline",
    ]);
    assert!(pairs.status.success());
    assert!(stdout(&pairs).contains("most similar pairs"));

    std::fs::remove_file(&graph).unwrap();
}

#[test]
fn generate_stats_convert_pipeline() {
    let text = temp("generated.tsv");
    let binary = temp("generated.bin");

    let generate = usim(&[
        "generate",
        "--rmat-scale",
        "7",
        "--edges",
        "600",
        "--seed",
        "5",
        "--out",
        text.to_str().unwrap(),
    ]);
    assert!(generate.status.success(), "stderr: {}", stderr(&generate));
    assert!(stdout(&generate).contains("R-MAT"));

    let stats = usim(&["stats", text.to_str().unwrap()]);
    assert!(stats.status.success());
    assert!(stdout(&stats).contains("mean arc probability"));

    let convert = usim(&["convert", text.to_str().unwrap(), binary.to_str().unwrap()]);
    assert!(convert.status.success());
    assert!(stdout(&convert).contains("(snapshot,"));

    let stats_binary = usim(&["stats", binary.to_str().unwrap()]);
    assert!(stats_binary.status.success());
    // The snapshot describes the same graph, so the arc count lines match.
    let arcs_line = |s: &str| {
        s.lines()
            .find(|l| l.trim_start().starts_with("arcs"))
            .unwrap()
            .to_string()
    };
    assert_eq!(
        arcs_line(&stdout(&stats)),
        arcs_line(&stdout(&stats_binary))
    );

    std::fs::remove_file(&text).unwrap();
    std::fs::remove_file(&binary).unwrap();
}

/// The score part of a `simrank` line, without its wall-clock suffix.
fn score_of(output: &Output) -> String {
    let text = stdout(output);
    text.split(" [").next().unwrap().to_string()
}

#[test]
fn snapshots_written_by_convert_and_update_keep_the_file_labels() {
    let text = temp("lab.tsv");
    let converted = temp("lab.bin");
    let updates = temp("lab_updates.txt");
    let updated_text = temp("lab_out.tsv");
    let updated_snapshot = temp("lab_out.usim");
    std::fs::write(&text, "5 1 0.5\n1 7 0.9\n5 7 0.8\n").unwrap();
    std::fs::write(&updates, "= 5 1 0.3\n+ 7 5 0.6\n").unwrap();
    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    let simrank = |graph: &str, u: &str, v: &str| {
        let output = usim(&["simrank", graph, "--source", u, "--target", v]);
        assert!(output.status.success(), "stderr: {}", stderr(&output));
        score_of(&output)
    };

    let convert = usim(&["convert", &path(&text), &path(&converted)]);
    assert!(convert.status.success(), "stderr: {}", stderr(&convert));
    let on_text = simrank(&path(&text), "1", "7");
    assert!(on_text.starts_with("s(1, 7) = "), "{on_text}");
    assert_eq!(simrank(&path(&converted), "1", "7"), on_text);

    for out in [&updated_text, &updated_snapshot] {
        let update = usim(&[
            "update",
            &path(&text),
            "--updates",
            &path(&updates),
            "--out",
            &path(out),
        ]);
        assert!(update.status.success(), "stderr: {}", stderr(&update));
    }
    for (u, v) in [("5", "1"), ("1", "7"), ("7", "5")] {
        assert_eq!(
            simrank(&path(&updated_snapshot), u, v),
            simrank(&path(&updated_text), u, v),
            "pair ({u}, {v})"
        );
    }
    let stats = usim(&["stats", &path(&updated_snapshot)]);
    assert!(stats.status.success(), "stderr: {}", stderr(&stats));
    let stored = ugraph::snapshot::read_snapshot_file(&updated_snapshot).unwrap();
    let mut labels = stored.labels.clone();
    labels.sort_unstable();
    assert_eq!(labels, [1, 5, 7], "the snapshot stores the file's labels");

    for p in [
        &text,
        &converted,
        &updates,
        &updated_text,
        &updated_snapshot,
    ] {
        std::fs::remove_file(p).unwrap();
    }
}

#[test]
fn generated_snapshots_keep_isolated_vertices() {
    let graph = temp("rmat10.usim");
    let generate = usim(&[
        "generate",
        "--rmat-scale",
        "10",
        "--out",
        graph.to_str().unwrap(),
    ]);
    assert!(generate.status.success(), "stderr: {}", stderr(&generate));
    assert!(
        stdout(&generate).contains(": 1024 vertices"),
        "{}",
        stdout(&generate)
    );
    let stats = usim(&["stats", graph.to_str().unwrap()]);
    assert!(stats.status.success(), "stderr: {}", stderr(&stats));
    let vertices = stdout(&stats)
        .lines()
        .find(|l| l.trim_start().starts_with("vertices"))
        .map(|l| l.split_whitespace().last().unwrap().to_string());
    assert_eq!(vertices.as_deref(), Some("1024"), "{}", stdout(&stats));
    std::fs::remove_file(&graph).unwrap();
}

#[test]
fn the_format_option_is_gone() {
    let graph = temp("no_format.tsv");
    write_fig1(&graph);
    let output = usim(&["stats", graph.to_str().unwrap(), "--format", "text"]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("--format"), "{}", stderr(&output));
    std::fs::remove_file(&graph).unwrap();
}

#[test]
fn the_snapshot_command_is_gone() {
    let graph = temp("no_snapshot.tsv");
    let out = temp("no_snapshot.usim");
    write_fig1(&graph);
    let output = usim(&[
        "snapshot",
        "write",
        graph.to_str().unwrap(),
        out.to_str().unwrap(),
    ]);
    assert!(!output.status.success());
    assert!(
        stderr(&output).contains("unknown command \"snapshot\""),
        "{}",
        stderr(&output)
    );
    assert!(!out.exists());
    std::fs::remove_file(&graph).unwrap();
}

#[test]
fn matrices_command_reports_transition_structure() {
    let graph = temp("matrices.tsv");
    write_fig1(&graph);
    let output = usim(&["matrices", graph.to_str().unwrap(), "--steps", "3"]);
    assert!(output.status.success(), "stderr: {}", stderr(&output));
    assert!(stdout(&output).contains("W(1)..W(3)"));
    std::fs::remove_file(&graph).unwrap();
}

#[test]
fn query_against_a_missing_file_fails_cleanly() {
    let output = usim(&[
        "simrank",
        "/nonexistent/usim/graph.tsv",
        "--source",
        "0",
        "--target",
        "1",
    ]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("error:"));
}
