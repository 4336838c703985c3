//! CLI error-path contract for the farm binaries, matching the workspace
//! convention pinned in `crates/bench/tests/cli_errors.rs`: usage mistakes
//! exit 2 with a named one-line `error:` on stderr followed by the usage
//! text, and never a panic backtrace.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

fn assert_cli_error(bin: &str, args: &[&str], names: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: must exit via the usage path (code 2), not a panic \
         (101)\nstderr: {stderr}"
    );
    let first = stderr.lines().next().unwrap_or("");
    assert!(
        first.starts_with("error: ") && first.contains(names),
        "{bin} {args:?}: first stderr line must be a named error mentioning \
         '{names}', got: {first}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: stderr must include the usage line\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked at"),
        "{bin} {args:?}: raw panic leaked to the user\nstderr: {stderr}"
    );
}

#[test]
fn server_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_ldsim-server");
    // Unknown flags must not be silently accepted.
    assert_cli_error(bin, &["--prot", "8080"], "--prot");
    // Flags missing their value at the end of argv.
    assert_cli_error(bin, &["--port"], "--port");
    assert_cli_error(bin, &["--cache"], "--cache");
    // Non-numeric / out-of-range values.
    assert_cli_error(bin, &["--port", "banana"], "--port");
    assert_cli_error(bin, &["--port", "99999"], "--port");
    assert_cli_error(bin, &["--shards", "0"], "--shards");
    assert_cli_error(bin, &["--shards", "8193"], "--shards");
    assert_cli_error(bin, &["--jobs", "0"], "--jobs");
    assert_cli_error(bin, &["--threads", "fast"], "--threads");
    assert_cli_error(bin, &["--max-inflight", "-3"], "--max-inflight");
    assert_cli_error(bin, &["--queue", "many"], "--queue");
}

#[test]
fn client_rejects_bad_arguments_with_named_errors() {
    let bin = env!("CARGO_BIN_EXE_ldsim-client");
    // Subcommand grammar.
    assert_cli_error(bin, &[], "subcommand");
    assert_cli_error(bin, &["pong"], "pong");
    assert_cli_error(bin, &["status"], "--job");
    assert_cli_error(bin, &["stream"], "--job");
    assert_cli_error(bin, &["status", "--job", "soon"], "--job");
    // Flag values.
    assert_cli_error(bin, &["ping", "--port"], "--port");
    assert_cli_error(bin, &["ping", "--port", "banana"], "--port");
    assert_cli_error(bin, &["ping", "--port", "0"], "--port");
    assert_cli_error(bin, &["submit", "--scale", "smol"], "--scale");
    assert_cli_error(bin, &["submit", "--seed", "eleven"], "--seed");
    assert_cli_error(bin, &["run", "--timeout", "later"], "--timeout");
    assert_cli_error(bin, &["compact", "--shards", "0"], "--shards");
    assert_cli_error(bin, &["compact", "--shards", "8193"], "--shards");
    // Unknown flags.
    assert_cli_error(bin, &["ping", "--hots", "box"], "--hots");
}

/// Runtime failures (as opposed to usage mistakes) exit 1 with a named
/// `error:` line and no usage dump — a dead server is not the caller
/// holding the tool wrong.
#[test]
fn client_runtime_failures_exit_one_without_usage() {
    let bin = env!("CARGO_BIN_EXE_ldsim-client");
    // The cell store is a shard directory: a `--cache` path that is a
    // file is refused by name.
    let file = std::env::temp_dir().join(format!("ldsim-cli-cache-{}.jsonl", std::process::id()));
    std::fs::write(&file, "").unwrap();
    let file_arg = file.to_str().unwrap();
    for (args, names) in [
        // Port 1 on loopback: connection refused, immediately.
        (&["ping", "--port", "1"][..], "error: "),
        (&["compact", "--cache", file_arg][..], "--cache"),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(names), "{args:?}: stderr: {stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}: stderr: {stderr}");
        assert!(
            !stderr.contains("panicked at"),
            "{args:?}: stderr: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&file);
}
