//! `polarlint` CLI.
//!
//! Usage: `polarlint [--workspace] [--root <dir>] [--format text|json]
//!         [--report <path>] [--json-report <path>] [--census <path>]`
//!
//! Exits 1 when the workspace has unjustified findings or lock-order
//! cycles; the report in the selected `--format` goes to stdout. With
//! `--report` the text report is also written to a file, and with
//! `--json-report` the machine-readable report (stable versioned
//! schema, see `LintReport::render_json`) is written alongside it, and
//! with `--census` the reachability census (one JSON line per `pub` item
//! of the product crates) — CI archives all three as artifacts.

use polardbx_lint::{lint_workspace, LintConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut json_report_path: Option<PathBuf> = None;
    let mut census_path: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // --workspace is the (only) mode; accepted for readability.
            "--workspace" => {}
            "--root" => root = args.next().map(PathBuf::from),
            "--report" => report_path = args.next().map(PathBuf::from),
            "--json-report" => json_report_path = args.next().map(PathBuf::from),
            "--census" => census_path = args.next().map(PathBuf::from),
            "--format" => {
                format = args.next().unwrap_or_default();
                if format != "text" && format != "json" {
                    eprintln!("polarlint: --format must be 'text' or 'json'");
                    return ExitCode::from(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "polarlint [--workspace] [--root <dir>] [--format text|json] \
                     [--report <path>] [--json-report <path>] [--census <path>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("polarlint: unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);
    let cfg = LintConfig::default();
    let report = match lint_workspace(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("polarlint: failed to read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if format == "json" {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if let Some(p) = report_path {
        if let Err(e) = std::fs::write(&p, report.render()) {
            eprintln!("polarlint: failed to write report {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if let Some(p) = json_report_path {
        if let Err(e) = std::fs::write(&p, report.render_json()) {
            eprintln!("polarlint: failed to write json report {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if let Some(p) = census_path {
        if let Err(e) = std::fs::write(&p, report.render_census()) {
            eprintln!("polarlint: failed to write census {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walk up from CWD until a directory containing `Cargo.toml` with a
/// `[workspace]` table is found; fall back to CWD.
fn find_workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(s) = std::fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return cwd;
        }
    }
}
