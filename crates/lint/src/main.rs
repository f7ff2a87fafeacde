//! The `ucore-lint` command-line interface.
//!
//! ```text
//! cargo run -p ucore-lint             # human report, exit 1 on findings
//! cargo run -p ucore-lint -- --json   # machine-readable report
//! cargo run -p ucore-lint -- --sarif  # SARIF 2.1.0 (CI artifact format)
//! cargo run -p ucore-lint -- --rules float-eq,contract-drift
//! cargo run -p ucore-lint -- --list-rules
//! cargo run -p ucore-lint -- --root /path/to/workspace
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

#![forbid(unsafe_code)]
// Panic-freedom outside tests, as in every first-party crate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

use std::path::PathBuf;
use std::process::ExitCode;

use ucore_lint::rules::{self, Rule, WorkspaceRule};
use ucore_lint::{diag, sarif, walk};

struct Options {
    json: bool,
    sarif: bool,
    root: Option<PathBuf>,
    rules: Option<Vec<String>>,
    list_rules: bool,
}

const USAGE: &str =
    "usage: ucore-lint [--json | --sarif] [--root DIR] [--rules NAME[,NAME…]] [--list-rules]";

/// Parses the command line.
///
/// # Errors
///
/// The message to print with the usage line; empty for `--help`.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts =
        Options { json: false, sarif: false, root: None, rules: None, list_rules: false };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--list-rules" => opts.list_rules = true,
            "--root" => {
                let v = it.next().ok_or("--root requires a directory argument")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--rules" => {
                let v = it.next().ok_or("--rules requires a comma-separated list")?;
                opts.rules =
                    Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.json && opts.sarif {
        return Err("--json and --sarif are mutually exclusive".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("ucore-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let file_all = rules::all();
    let ws_all = rules::workspace_all();
    if opts.list_rules {
        for rule in &file_all {
            println!("{:<20} {}", rule.name(), rule.description());
        }
        for rule in &ws_all {
            println!("{:<20} {}", rule.name(), rule.description());
        }
        return ExitCode::SUCCESS;
    }

    type RuleSets = (Vec<Box<dyn Rule>>, Vec<Box<dyn WorkspaceRule>>);
    let (file_rules, ws_rules): RuleSets =
        match &opts.rules {
            None => (file_all, ws_all),
            Some(names) => {
                let known = rules::known_names();
                if let Some(bad) = names.iter().find(|n| !known.contains(&n.as_str())) {
                    eprintln!(
                        "ucore-lint: unknown rule `{bad}` (known: {})",
                        known.join(", ")
                    );
                    return ExitCode::from(2);
                }
                (
                    file_all
                        .into_iter()
                        .filter(|r| names.iter().any(|n| n == r.name()))
                        .collect(),
                    ws_all
                        .into_iter()
                        .filter(|r| names.iter().any(|n| n == r.name()))
                        .collect(),
                )
            }
        };
    // Only a full-rule run can tell a stale allow from a disabled rule.
    let check_unused = opts.rules.is_none();

    let root = match opts.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| walk::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "ucore-lint: could not locate the workspace root; pass --root DIR"
            );
            return ExitCode::from(2);
        }
    };

    let findings =
        match ucore_lint::lint_workspace(&root, &file_rules, &ws_rules, check_unused) {
            Ok(f) => f,
            Err(e) => {
                eprintln!(
                    "ucore-lint: failed to read workspace under {}: {e}",
                    root.display()
                );
                return ExitCode::from(2);
            }
        };

    if opts.sarif {
        print!("{}", sarif::render_sarif(&findings, &rules::all_rule_metadata()));
    } else if opts.json {
        print!("{}", diag::render_json(&findings));
    } else {
        print!("{}", diag::render_human(&findings));
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
