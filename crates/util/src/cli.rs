//! The failure path of the workspace binaries' hand-rolled argument
//! parsers: a typo'd flag must produce a readable diagnostic, not a raw
//! `expect` backtrace.

/// A named `error:` line and the usage line to stderr, then exit 2.
pub fn cli_fail(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2)
}

/// The value following flag `args[i]`, or a named failure when the flag is
/// the last argument.
pub fn cli_value<'a>(args: &'a [String], i: usize, flag: &str, usage: &str) -> &'a str {
    match args.get(i + 1) {
        Some(v) => v.as_str(),
        None => cli_fail(usage, &format!("{flag} needs a value but none followed")),
    }
}

/// Parse a flag's value with [`FromStr`](std::str::FromStr), naming the
/// flag and the offending text on failure.
pub fn cli_parse<T: std::str::FromStr>(raw: &str, flag: &str, what: &str, usage: &str) -> T {
    raw.trim()
        .parse()
        .unwrap_or_else(|_| cli_fail(usage, &format!("{flag} needs {what}, got '{raw}'")))
}

/// Parse a flag's value as a positive integer (worker/thread counts).
pub fn cli_pos(raw: &str, flag: &str, usage: &str) -> usize {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => cli_fail(
            usage,
            &format!("{flag} needs a positive integer, got '{raw}'"),
        ),
    }
}
