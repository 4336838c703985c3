//! Scripting client for `ldsim-server`: submit sweep jobs, poll them,
//! stream rendered figure rows into local files, and run compaction —
//! everything the CI `service-e2e` job does, as one small binary.
//!
//! Usage errors (bad flags, missing values) exit 2 with a named `error:`
//! line plus usage, like every other binary in the workspace; *runtime*
//! failures (server unreachable, HTTP error reply, truncated stream) exit
//! 1 with a named `error:` line only.

use ldsim_bench::{cli_fail, cli_parse, cli_pos, cli_value};
use ldsim_server::wire;
use ldsim_system::shard::ShardMap;
use ldsim_system::ENGINE_SALT_HISTORY;
use std::io::{BufRead, Write as _};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str = "ldsim-client <ping|submit|status|stream|run|compact> [--host H] [--port N] \
     [--scale tiny|small|full] [--seed N] [--figures a,b|all] [--client NAME] [--job N] \
     [--out DIR] [--cache PATH] [--shards N] [--timeout SECS]";

struct Opts {
    host: String,
    port: u16,
    scale: String,
    seed: u64,
    figures: String,
    client: String,
    job: Option<u64>,
    out: PathBuf,
    cache: Option<PathBuf>,
    shards: usize,
    timeout: Duration,
}

fn runtime_fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        cli_fail(USAGE, "a subcommand is required");
    };
    if !matches!(
        cmd,
        "ping" | "submit" | "status" | "stream" | "run" | "compact"
    ) {
        cli_fail(USAGE, &format!("unknown subcommand '{cmd}'"));
    }
    let mut o = Opts {
        host: "127.0.0.1".into(),
        port: 7717,
        scale: "tiny".into(),
        seed: 1,
        figures: "all".into(),
        client: "cli".into(),
        job: None,
        out: PathBuf::from("results"),
        cache: None,
        shards: ldsim_system::DEFAULT_SHARDS,
        timeout: Duration::from_secs(600),
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--host" => {
                o.host = cli_value(&args, i, "--host", USAGE).to_string();
                i += 1;
            }
            "--port" => {
                let v = cli_value(&args, i, "--port", USAGE);
                o.port = cli_parse(v, "--port", "a port number (1-65535)", USAGE);
                if o.port == 0 {
                    cli_fail(USAGE, "--port needs a nonzero port number, got '0'");
                }
                i += 1;
            }
            "--scale" => {
                let v = cli_value(&args, i, "--scale", USAGE);
                if ldsim_server::parse_scale(v).is_none() {
                    cli_fail(
                        USAGE,
                        &format!("--scale needs tiny, small, or full, got '{v}'"),
                    );
                }
                o.scale = v.to_string();
                i += 1;
            }
            "--seed" => {
                let v = cli_value(&args, i, "--seed", USAGE);
                o.seed = cli_parse(v, "--seed", "a number", USAGE);
                i += 1;
            }
            "--figures" => {
                o.figures = cli_value(&args, i, "--figures", USAGE).to_string();
                i += 1;
            }
            "--client" => {
                o.client = cli_value(&args, i, "--client", USAGE).to_string();
                i += 1;
            }
            "--job" => {
                let v = cli_value(&args, i, "--job", USAGE);
                o.job = Some(cli_parse(v, "--job", "a job id", USAGE));
                i += 1;
            }
            "--out" => {
                o.out = PathBuf::from(cli_value(&args, i, "--out", USAGE));
                i += 1;
            }
            "--cache" => {
                o.cache = Some(PathBuf::from(cli_value(&args, i, "--cache", USAGE)));
                i += 1;
            }
            "--shards" => {
                let v = cli_value(&args, i, "--shards", USAGE);
                o.shards = cli_pos(v, "--shards", USAGE);
                if o.shards > ldsim_system::shard::MAX_SHARDS {
                    cli_fail(
                        USAGE,
                        &format!(
                            "--shards must be at most {}, got '{v}'",
                            ldsim_system::shard::MAX_SHARDS
                        ),
                    );
                }
                i += 1;
            }
            "--timeout" => {
                let v = cli_value(&args, i, "--timeout", USAGE);
                o.timeout = Duration::from_secs(cli_parse(v, "--timeout", "seconds", USAGE));
                i += 1;
            }
            other => cli_fail(USAGE, &format!("unknown argument '{other}'")),
        }
        i += 1;
    }

    match cmd {
        "ping" => {
            let (status, body) = get(&o, "/v1/health");
            expect_ok(status, &body);
            println!("{body}");
        }
        "submit" => {
            let (job, reply) = submit(&o);
            println!("job {job}");
            println!("{reply}");
        }
        "status" => {
            let job = require_job(&o);
            let (status, body) = get(&o, &format!("/v1/jobs/{job}"));
            expect_ok(status, &body);
            println!("{body}");
        }
        "stream" => {
            let job = require_job(&o);
            let (files, rows, _) = stream(&o, job);
            println!(
                "streamed {files} file(s), {rows} row(s) into {}",
                o.out.display()
            );
        }
        "run" => {
            // submit → stream (the stream blocks per figure as results
            // land, so first-row latency is the real farm turnaround) →
            // one status poll to confirm the job settled.
            let t0 = Instant::now();
            let (job, reply) = submit(&o);
            println!("job {job}");
            println!("{reply}");
            let (files, rows, first_row) = stream(&o, job);
            let total = t0.elapsed();
            let (status, body) = get(&o, &format!("/v1/jobs/{job}"));
            expect_ok(status, &body);
            if !body.contains("\"state\":\"done\"") {
                runtime_fail(&format!("job {job} did not settle: {body}"));
            }
            match first_row {
                Some(t) => println!(
                    "run: {files} file(s), {rows} row(s); submit-to-first-row {:.2}s, total {:.2}s",
                    t.duration_since(t0).as_secs_f64(),
                    total.as_secs_f64()
                ),
                None => println!(
                    "run: {files} file(s), {rows} row(s); total {:.2}s",
                    total.as_secs_f64()
                ),
            }
        }
        "compact" => match &o.cache {
            // Offline: compact a local store directly, no server needed.
            Some(path) => {
                if path.is_file() {
                    runtime_fail(&format!(
                        "--cache {} is a file; the cell store is a shard directory",
                        path.display()
                    ));
                }
                let stats = ShardMap::open(path, o.shards).compact(ENGINE_SALT_HISTORY);
                println!(
                    "compacted {}: kept {}, dropped {} (stale {}, torn {}, superseded {}, \
                     misplaced {}), {} -> {} bytes",
                    path.display(),
                    stats.rows_kept,
                    stats.rows_dropped(),
                    stats.rows_stale,
                    stats.rows_torn,
                    stats.rows_superseded,
                    stats.rows_misplaced,
                    stats.bytes_before,
                    stats.bytes_after
                );
            }
            None => {
                let (status, body) = post(&o, "/v1/compact", "");
                expect_ok(status, &body);
                println!("{body}");
            }
        },
        _ => unreachable!("subcommand validated above"),
    }
}

fn require_job(o: &Opts) -> u64 {
    match o.job {
        Some(j) => j,
        None => cli_fail(USAGE, "--job is required for this subcommand"),
    }
}

fn get(o: &Opts, path: &str) -> (u16, String) {
    wire::request(&o.host, o.port, "GET", path, "").unwrap_or_else(|e| runtime_fail(&e))
}

fn post(o: &Opts, path: &str, body: &str) -> (u16, String) {
    wire::request(&o.host, o.port, "POST", path, body).unwrap_or_else(|e| runtime_fail(&e))
}

fn expect_ok(status: u16, body: &str) {
    if status != 200 {
        runtime_fail(&format!("server replied {status}: {body}"));
    }
}

fn submit(o: &Opts) -> (u64, String) {
    let body = ldsim_util::JsonObject::new()
        .str("client", &o.client)
        .str("scale", &o.scale)
        .u64("seed", o.seed)
        .str("figures", &o.figures)
        .build();
    let (status, reply) = post(o, "/v1/jobs", &body);
    expect_ok(status, &reply);
    let job = ldsim_util::parse_object(&reply)
        .ok()
        .and_then(|p| p.req_u64("job").ok())
        .unwrap_or_else(|| runtime_fail(&format!("malformed submit reply: {reply}")));
    (job, reply)
}

/// Demux one job stream into `<out>/<file>` per file record. Returns
/// (files, rows, instant the first row landed).
fn stream(o: &Opts, job: u64) -> (u64, u64, Option<Instant>) {
    let (status, mut reader) =
        wire::open_stream(&o.host, o.port, &format!("/v1/jobs/{job}/stream"))
            .unwrap_or_else(|e| runtime_fail(&e));
    if status != 200 {
        let mut body = String::new();
        let _ = std::io::Read::read_to_string(&mut reader, &mut body);
        runtime_fail(&format!("server replied {status}: {body}"));
    }
    // A stream blocks per figure while its cells simulate; --timeout bounds
    // how long any single read may sit on a stuck farm.
    reader
        .get_ref()
        .set_read_timeout(Some(o.timeout))
        .unwrap_or_else(|e| runtime_fail(&format!("cannot arm --timeout: {e}")));
    std::fs::create_dir_all(&o.out)
        .unwrap_or_else(|e| runtime_fail(&format!("cannot create {}: {e}", o.out.display())));
    let mut line = String::new();
    let read_line = |reader: &mut dyn BufRead, line: &mut String| -> bool {
        line.clear();
        match reader.read_line(line) {
            Ok(0) => false,
            Ok(_) => true,
            Err(e) => runtime_fail(&format!("stream read failed: {e}")),
        }
    };
    if !read_line(&mut reader, &mut line) {
        runtime_fail("stream truncated: no header record");
    }
    let (mut files, mut rows) = (0u64, 0u64);
    let mut first_row: Option<Instant> = None;
    loop {
        if !read_line(&mut reader, &mut line) {
            runtime_fail("stream truncated: connection closed before the done trailer");
        }
        let Ok(rec) = ldsim_util::parse_object(line.trim_end()) else {
            runtime_fail(&format!("malformed stream record: {}", line.trim_end()));
        };
        if let Ok(err) = rec.req_str("error") {
            let detail = rec.req_str("detail").unwrap_or("");
            runtime_fail(&format!("{err}: {detail}"));
        }
        if rec.req_bool("done").ok() == Some(true) {
            let (f, r) = (
                rec.req_u64("files").unwrap_or(0),
                rec.req_u64("rows").unwrap_or(0),
            );
            if (f, r) != (files, rows) {
                runtime_fail(&format!(
                    "stream accounting mismatch: trailer says {f} file(s)/{r} row(s), \
                     received {files}/{rows}"
                ));
            }
            return (files, rows, first_row);
        }
        let Ok(file) = rec.req_str("file") else {
            continue; // per-figure note (no-file figures) — nothing to write
        };
        if file.contains('/') || file.contains("..") {
            runtime_fail(&format!("refusing suspicious stream filename: {file:?}"));
        }
        let n = rec
            .req_u64("rows")
            .unwrap_or_else(|_| runtime_fail(&format!("file record without rows: {line}")));
        let path = o.out.join(file);
        let mut f = std::fs::File::create(&path)
            .unwrap_or_else(|e| runtime_fail(&format!("cannot create {}: {e}", path.display())));
        for _ in 0..n {
            if !read_line(&mut reader, &mut line) {
                runtime_fail(&format!("stream truncated inside {}", path.display()));
            }
            first_row.get_or_insert_with(Instant::now);
            f.write_all(line.as_bytes())
                .unwrap_or_else(|e| runtime_fail(&format!("cannot write {}: {e}", path.display())));
        }
        files += 1;
        rows += n;
    }
}
