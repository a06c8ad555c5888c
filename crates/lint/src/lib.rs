//! polarlint — workspace invariant linter for the PolarDB-X repro.
//!
//! Dependency-free static analysis over every workspace `.rs` file:
//! a hand-rolled tokenizer feeds per-file rule passes ([`analysis`])
//! that also extract per-function symbols and facts; a workspace
//! interprocedural pass ([`symbols`] + [`callgraph`] + [`summary`])
//! propagates them across direct calls for the fence/release/atomic
//! rules, and all lock-order edges — intra- and interprocedural — are
//! stitched into a cross-crate acquisition graph checked for cycles
//! ([`graph`]). See DESIGN.md "Correctness tooling" for the rule
//! catalogue and escape hatch.

pub mod analysis;
pub mod callgraph;
pub mod census;
pub mod graph;
pub mod summary;
pub mod symbols;
pub mod tokenizer;

use analysis::{analyze_source, workspace_pass, Config, Finding, LockEdge};
use graph::{find_cycles, Cycle};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Full workspace lint result.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Per-line findings (allowed and not).
    pub findings: Vec<Finding>,
    /// All lock-order edges observed (for the report appendix).
    pub edges: Vec<LockEdge>,
    /// Acquisition-graph cycles (always unjustified by construction).
    pub cycles: Vec<Cycle>,
    /// Number of files analyzed.
    pub files: usize,
    /// The reachability census (filled by [`lint_workspace`] only).
    pub census: Vec<census::CensusItem>,
}

impl LintReport {
    /// Findings not covered by a well-formed `lint:allow`.
    pub fn unjustified(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.allowed.is_none()).collect()
    }

    /// True when the workspace passes: no unjustified findings, no cycles.
    pub fn clean(&self) -> bool {
        self.unjustified().is_empty() && self.cycles.is_empty()
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let unjust = self.unjustified();
        let _ = writeln!(
            s,
            "polarlint: {} files, {} findings ({} unjustified), {} lock-order edges, {} cycles",
            self.files,
            self.findings.len(),
            unjust.len(),
            self.edges.len(),
            self.cycles.len()
        );
        if !unjust.is_empty() {
            let _ = writeln!(s, "\n== unjustified findings ==");
            for f in &unjust {
                let _ = writeln!(s, "  [{}] {}:{} {}", f.rule.name(), f.file, f.line, f.message);
            }
        }
        if !self.cycles.is_empty() {
            let _ = writeln!(s, "\n== lock-order cycles (potential ABBA deadlocks) ==");
            for c in &self.cycles {
                let _ = writeln!(s, "  cycle: {}", c.nodes.join(" -> "));
                for e in &c.edges {
                    let _ = writeln!(
                        s,
                        "    {} -> {} at {}:{}",
                        e.from, e.to, e.file, e.line
                    );
                }
            }
        }
        let justified: Vec<&Finding> =
            self.findings.iter().filter(|f| f.allowed.is_some()).collect();
        if !justified.is_empty() {
            let _ = writeln!(s, "\n== justified exceptions ==");
            for f in &justified {
                let _ = writeln!(
                    s,
                    "  [{}] {}:{} — {}",
                    f.rule.name(),
                    f.file,
                    f.line,
                    f.allowed.as_deref().unwrap_or("")
                );
            }
        }
        if !self.edges.is_empty() {
            let _ = writeln!(s, "\n== acquisition order (held -> acquired) ==");
            let mut shown: Vec<String> = self
                .edges
                .iter()
                .map(|e| {
                    format!(
                        "  {} -> {}{}{}",
                        e.from,
                        e.to,
                        e.via.as_deref().map(|v| format!("  (via {v})")).unwrap_or_default(),
                        if e.allowed.is_some() { "  (allowed)" } else { "" }
                    )
                })
                .collect();
            shown.sort();
            shown.dedup();
            for line in shown {
                let _ = writeln!(s, "{line}");
            }
        }
        s
    }

    /// Render the census: one JSON object per `pub` item, one per line.
    pub fn render_census(&self) -> String {
        let line = |c: &census::CensusItem| {
            let from: Vec<String> = c.reached_from().iter().map(|r| json_str(r)).collect();
            format!(
                "{{\"item\": {}, \"kind\": {}, \"file\": {}, \"line\": {}, \"reached_from\": [{}], \"allowed\": {}}}\n",
                json_str(&c.item),
                json_str(&c.kind),
                json_str(&c.file),
                c.line,
                from.join(", "),
                c.allowed.as_deref().map_or("null".into(), json_str),
            )
        };
        self.census.iter().map(line).collect()
    }

    /// Render the machine-readable report. The schema is stable and
    /// versioned: bump `version` on any breaking change so downstream
    /// tooling (CI artifact consumers) can branch on it.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": 1,");
        let _ = writeln!(
            s,
            "  \"rules\": [{}],",
            analysis::Rule::all_names()
                .iter()
                .map(|n| json_str(n))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(s, "  \"files\": {},", self.files);
        let _ = writeln!(s, "  \"clean\": {},", self.clean());
        let _ = writeln!(
            s,
            "  \"summary\": {{\"findings\": {}, \"unjustified\": {}, \"edges\": {}, \"cycles\": {}}},",
            self.findings.len(),
            self.unjustified().len(),
            self.edges.len(),
            self.cycles.len()
        );
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"symbol\": {}, \
                 \"message\": {}, \"justification\": {}}}",
                json_str(f.rule.name()),
                json_str(&f.file),
                f.line,
                f.symbol.as_deref().map(json_str).unwrap_or_else(|| "null".into()),
                json_str(&f.message),
                f.allowed.as_deref().map(json_str).unwrap_or_else(|| "null".into()),
            );
            s.push_str(if i + 1 < self.findings.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        s.push_str("  \"cycles\": [\n");
        for (i, c) in self.cycles.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"nodes\": [{}], \"edges\": [{}]}}",
                c.nodes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
                c.edges
                    .iter()
                    .map(|e| {
                        format!(
                            "{{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}, \"via\": {}}}",
                            json_str(&e.from),
                            json_str(&e.to),
                            json_str(&e.file),
                            e.line,
                            e.via.as_deref().map(json_str).unwrap_or_else(|| "null".into()),
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            s.push_str(if i + 1 < self.cycles.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Minimal JSON string encoder (no serde — zero-dep philosophy).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lint a set of `(path, source)` pairs. Paths are repo-relative.
pub fn lint_sources<'a, I>(sources: I, cfg: &Config) -> LintReport
where
    I: IntoIterator<Item = (&'a str, &'a str)>,
{
    let mut report = LintReport::default();
    let mut fns = Vec::new();
    let mut atomics = Vec::new();
    let mut allow_maps = HashMap::new();
    for (path, src) in sources {
        let fa = analyze_source(path, src, cfg);
        report.findings.extend(fa.findings);
        report.edges.extend(fa.edges);
        fns.extend(fa.fns);
        atomics.extend(fa.atomics);
        if !fa.allow_map.is_empty() {
            allow_maps.insert(path.to_string(), fa.allow_map);
        }
        report.files += 1;
    }
    // Workspace interprocedural pass: fence/release/atomic findings plus
    // held-lock edges flowing across resolved calls.
    let (ip_findings, ip_edges) = workspace_pass(cfg, fns, &atomics, &allow_maps);
    report.findings.extend(ip_findings);
    report.edges.extend(ip_edges);
    // Rule findings for every self-edge already exist; cycles come from
    // the cross-file graph (intra- and interprocedural edges together).
    report.cycles = find_cycles(&report.edges);
    report
        .findings
        .sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    report
}

/// Recursively collect workspace `.rs` files under `root`, skipping
/// `target/`, hidden dirs, and the lint fixtures (they are deliberately
/// bad).
pub fn workspace_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else { continue };
        for entry in rd.flatten() {
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if name == "target" || name.starts_with('.') || name == "fixtures" {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Lint every `.rs` file under the workspace root, census included.
pub fn lint_workspace(root: &Path, cfg: &Config) -> std::io::Result<LintReport> {
    let files = workspace_rs_files(root);
    let mut owned: Vec<(String, String)> = Vec::with_capacity(files.len());
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&f)?;
        owned.push((rel, src));
    }
    let mut report = lint_sources(owned.iter().map(|(p, s)| (p.as_str(), s.as_str())), cfg);
    let (items, findings) = census::census(&owned);
    report.census = items;
    report.findings.extend(findings);
    Ok(report)
}

pub use analysis::{Config as LintConfig, Rule as LintRule};
