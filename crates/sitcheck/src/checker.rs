//! Adya-style anomaly detection over recorded histories.
//!
//! The checker consumes the totally-ordered event log produced by
//! [`polardbx_common::HistoryRecorder`] and rebuilds, per key, the version
//! order of committed writes, then the direct serialization graph (DSG)
//! with ww (version succession), wr (read-from) and rw (anti-dependency)
//! edges. Against those it tests:
//!
//! * **G0** — a cycle of ww edges (contradictory version orders; also fired
//!   when a key's intent-installation order disagrees with its commit
//!   timestamp order).
//! * **G1a** — a read observed a version whose writer aborted.
//! * **G1b** — a read observed an *undecided* version of another
//!   transaction that later committed (an intermediate state).
//! * **G1c** — a cycle of ww ∪ wr edges.
//! * **G-SIa** — a fractured read: a transaction saw writer `W` on one key
//!   but a pre-`W` version on another key `W` also wrote.
//! * **G-SIb** — missed effects: a committed version below the reader's
//!   snapshot was skipped, a session began below a commit it causally
//!   follows, or an rw edge closes a ww∪wr path into a single-rw cycle.
//! * **LostUpdate** — two committed writers of a key both read the same
//!   predecessor version (first-committer-wins must have stopped one).
//! * **LostWrite** — a transaction globally committed yet a participant
//!   aborted it (its writes there are gone).
//! * **CommitTsMismatch** — two nodes stamped different commit timestamps
//!   for the same transaction.
//!
//! Write skew (a cycle with two or more rw edges) is *legal* under SI and
//! reported separately as an informational candidate list.
//!
//! # Soundness notes
//!
//! The below-snapshot ("missed effects") test is applied only to reads
//! served by primary DNs: HLC-SI's `ClockUpdate` on statement arrival
//! guarantees any later commit on that DN outruns the snapshot, and
//! PREPARED versions are waited out, so a committed version under the
//! snapshot that the read skipped is a genuine violation. RO-replica reads
//! ([`polardbx_common::TxnEvent::Read`]'s `replica` flag) apply log order,
//! not timestamp order, so for them only read-atomicity (G-SIa) and
//! aborted/intermediate-read rules are checked.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use polardbx_common::{Key, NodeId, TableId, TrxId, TxnEvent, VersionRef};

/// Cap on anomalies collected per class: a badly broken history (mutation
/// runs) would otherwise flood the report with thousands of witnesses of
/// the same defect.
const MAX_PER_KIND: usize = 32;

/// Anomaly classes, after Adya (G0/G1) and the SI-specific phenomena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// Write cycle: contradictory ww version orders.
    G0,
    /// Aborted read.
    G1a,
    /// Intermediate (undecided) read of a later-committed transaction.
    G1b,
    /// Cyclic information flow (ww ∪ wr cycle).
    G1c,
    /// Fractured read (interference): saw part of a committed transaction.
    GSIa,
    /// Missed effects: skipped a committed version below the snapshot,
    /// session-order inversion, or a single-rw DSG cycle.
    GSIb,
    /// Two committed writers both read the same predecessor of a key.
    LostUpdate,
    /// Globally committed but aborted on a participant.
    LostWrite,
    /// Participants stamped different commit timestamps.
    CommitTsMismatch,
}

impl AnomalyKind {
    /// Stable name used in reports and CI greps.
    pub fn name(&self) -> &'static str {
        match self {
            AnomalyKind::G0 => "G0",
            AnomalyKind::G1a => "G1a",
            AnomalyKind::G1b => "G1b",
            AnomalyKind::G1c => "G1c",
            AnomalyKind::GSIa => "G-SIa",
            AnomalyKind::GSIb => "G-SIb",
            AnomalyKind::LostUpdate => "LostUpdate",
            AnomalyKind::LostWrite => "LostWrite",
            AnomalyKind::CommitTsMismatch => "CommitTsMismatch",
        }
    }
}

/// DSG edge kinds (plus the session-order edge used in witnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Version succession on a key.
    Ww,
    /// Read-from.
    Wr,
    /// Anti-dependency (read a version someone later overwrote).
    Rw,
    /// Same-CN session order (commit observed before the next begin).
    Session,
}

impl EdgeKind {
    fn label(&self) -> &'static str {
        match self {
            EdgeKind::Ww => "ww",
            EdgeKind::Wr => "wr",
            EdgeKind::Rw => "rw",
            EdgeKind::Session => "session",
        }
    }
}

/// One edge of a witness cycle.
#[derive(Debug, Clone)]
pub struct WitnessEdge {
    /// Source transaction.
    pub from: TrxId,
    /// Target transaction.
    pub to: TrxId,
    /// Dependency kind.
    pub kind: EdgeKind,
    /// Key the dependency runs through (None for session edges).
    pub key: Option<(TableId, Key)>,
}

impl WitnessEdge {
    /// Render as `T3 --ww[k]--> T5`.
    pub fn render(&self) -> String {
        match &self.key {
            Some((table, key)) => format!(
                "{} --{}[{:?}/{}]--> {}",
                self.from,
                self.kind.label(),
                table,
                key,
                self.to
            ),
            None => format!("{} --{}--> {}", self.from, self.kind.label(), self.to),
        }
    }
}

/// One detected anomaly with its minimal witness.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// The class.
    pub kind: AnomalyKind,
    /// Human-readable account of what was observed.
    pub description: String,
    /// Transactions involved (cycle order when `cycle` is non-empty).
    pub txns: Vec<TrxId>,
    /// Witness cycle, when the anomaly is graph-shaped.
    pub cycle: Vec<WitnessEdge>,
}

/// Informational: a pair of committed transactions joined by rw edges in
/// both directions with no ww/wr shortcut — classic write skew, which SI
/// permits.
#[derive(Debug, Clone)]
pub struct WriteSkewCandidate {
    /// One transaction of the pair.
    pub a: TrxId,
    /// The other.
    pub b: TrxId,
    /// The keys the two rw edges run through.
    pub keys: Vec<(TableId, Key)>,
}

/// Aggregate counts for the report header.
#[derive(Debug, Clone, Default)]
pub struct HistoryStats {
    /// Total events consumed.
    pub events: usize,
    /// Distinct transactions seen.
    pub txns: usize,
    /// Transactions with a commit stamp anywhere.
    pub committed: usize,
    /// Transactions that only ever aborted.
    pub aborted: usize,
    /// Read events.
    pub reads: usize,
    /// Of which served by RO replicas.
    pub replica_reads: usize,
    /// Write events.
    pub writes: usize,
    /// Free-form notes (fault injections, elections) found in the history.
    pub notes: Vec<String>,
}

/// The checker's verdict on one history.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Detected violations, capped per class.
    pub anomalies: Vec<Anomaly>,
    /// SI-legal write-skew pairs (informational).
    pub write_skew_candidates: Vec<WriteSkewCandidate>,
    /// History shape.
    pub stats: HistoryStats,
}

impl CheckReport {
    /// True when no violation was detected (write skew does not count).
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Anomalies of one class.
    pub fn of_kind(&self, kind: AnomalyKind) -> Vec<&Anomaly> {
        self.anomalies.iter().filter(|a| a.kind == kind).collect()
    }

    /// True when at least one anomaly of `kind` was found.
    pub fn has(&self, kind: AnomalyKind) -> bool {
        self.anomalies.iter().any(|a| a.kind == kind)
    }
}

#[derive(Debug, Clone)]
struct ReadRec {
    table: TableId,
    key: Key,
    snapshot_ts: u64,
    observed: Option<VersionRef>,
    replica: bool,
}

#[derive(Debug, Clone)]
struct WriteRec {
    seq: usize,
    table: TableId,
    key: Key,
}

#[derive(Debug, Default)]
struct TxnInfo {
    session: Option<NodeId>,
    begin_seq: Option<usize>,
    snapshot_ts: Option<u64>,
    commit_ts: Option<u64>,
    commit_nodes: Vec<(NodeId, u64)>,
    /// Sequence of the commit event on the coordinating session node.
    session_commit_seq: Option<usize>,
    abort_nodes: Vec<NodeId>,
    reads: Vec<ReadRec>,
    writes: Vec<WriteRec>,
}

impl TxnInfo {
    fn committed(&self) -> bool {
        self.commit_ts.is_some()
    }
}

/// Per-key committed version order: `(commit_ts, writer)` ascending, plus
/// the install order (first intent per writer, by event sequence).
#[derive(Debug, Default)]
struct KeyVersions {
    by_ts: Vec<(u64, TrxId)>,
    by_install: Vec<TrxId>,
    pos: HashMap<TrxId, usize>,
}

type Graph = HashMap<TrxId, Vec<WitnessEdge>>;

fn add_edge(g: &mut Graph, e: WitnessEdge) {
    let out = g.entry(e.from).or_default();
    // Keep one edge per (from, to, kind): parallel duplicates only bloat
    // BFS without changing reachability.
    if !out.iter().any(|x| x.to == e.to && x.kind == e.kind) {
        out.push(e);
    }
}

/// Shortest path `from → … → to` by BFS over `g`, as the edge list.
fn shortest_path(g: &Graph, from: TrxId, to: TrxId) -> Option<Vec<WitnessEdge>> {
    let mut prev: HashMap<TrxId, WitnessEdge> = HashMap::new();
    let mut q = VecDeque::new();
    q.push_back(from);
    let mut seen = HashSet::new();
    seen.insert(from);
    while let Some(n) = q.pop_front() {
        if n == to {
            // Reconstruct backwards through `prev`.
            let mut path = Vec::new();
            let mut cur = to;
            while cur != from || path.is_empty() {
                let e = prev.get(&cur)?.clone();
                cur = e.from;
                path.push(e);
                if path.len() > g.len() + 1 {
                    return None; // defensive: malformed prev chain
                }
            }
            path.reverse();
            return Some(path);
        }
        for e in g.get(&n).into_iter().flatten() {
            if seen.insert(e.to) {
                prev.insert(e.to, e.clone());
                q.push_back(e.to);
            }
        }
    }
    // `from == to` with no self-loop handled here: BFS above returns an
    // empty path immediately, so look for a real cycle through successors.
    None
}

/// Shortest cycle through any node of `g` (for G0/G1c witnesses).
fn shortest_cycle(g: &Graph) -> Option<Vec<WitnessEdge>> {
    let mut best: Option<Vec<WitnessEdge>> = None;
    for (&start, edges) in g.iter() {
        for e in edges {
            // A cycle through `start` = edge start→x plus path x→start.
            let candidate = if e.to == start {
                Some(vec![e.clone()])
            } else {
                shortest_path(g, e.to, start).map(|mut p| {
                    p.insert(0, e.clone());
                    p
                })
            };
            if let Some(c) = candidate {
                if best.as_ref().map(|b| c.len() < b.len()).unwrap_or(true) {
                    best = Some(c);
                }
            }
        }
    }
    best
}

fn cycle_txns(cycle: &[WitnessEdge]) -> Vec<TrxId> {
    cycle.iter().map(|e| e.from).collect()
}

struct Collector {
    anomalies: Vec<Anomaly>,
    counts: HashMap<AnomalyKind, usize>,
}

impl Collector {
    fn new() -> Collector {
        Collector { anomalies: Vec::new(), counts: HashMap::new() }
    }

    fn push(&mut self, a: Anomaly) {
        let n = self.counts.entry(a.kind).or_insert(0);
        if *n < MAX_PER_KIND {
            *n += 1;
            self.anomalies.push(a);
        }
    }
}

/// Run every check against one recorded history.
pub fn check(events: &[TxnEvent]) -> CheckReport {
    let mut txns: BTreeMap<TrxId, TxnInfo> = BTreeMap::new();
    let mut stats = HistoryStats { events: events.len(), ..Default::default() };
    let mut out = Collector::new();

    // ---- pass 1: fold events into per-transaction facts -----------------
    for (seq, ev) in events.iter().enumerate() {
        match ev {
            TxnEvent::Begin { trx, session, snapshot_ts } => {
                let t = txns.entry(*trx).or_default();
                t.session = Some(*session);
                t.begin_seq = Some(seq);
                t.snapshot_ts = Some(*snapshot_ts);
            }
            TxnEvent::Read { trx, table, key, snapshot_ts, observed, replica, .. } => {
                stats.reads += 1;
                if *replica {
                    stats.replica_reads += 1;
                }
                let t = txns.entry(*trx).or_default();
                t.snapshot_ts.get_or_insert(*snapshot_ts);
                t.reads.push(ReadRec {
                    table: *table,
                    key: key.clone(),
                    snapshot_ts: *snapshot_ts,
                    observed: observed.clone(),
                    replica: *replica,
                });
            }
            TxnEvent::Write { trx, table, key, .. } => {
                stats.writes += 1;
                let t = txns.entry(*trx).or_default();
                t.writes.push(WriteRec { seq, table: *table, key: key.clone() });
            }
            TxnEvent::Commit { trx, node, commit_ts } => {
                let t = txns.entry(*trx).or_default();
                t.commit_nodes.push((*node, *commit_ts));
                t.commit_ts.get_or_insert(*commit_ts);
                if t.session == Some(*node) && t.session_commit_seq.is_none() {
                    t.session_commit_seq = Some(seq);
                }
            }
            TxnEvent::Abort { trx, node } => {
                txns.entry(*trx).or_default().abort_nodes.push(*node);
            }
            TxnEvent::Note { label, .. } => stats.notes.push(label.clone()),
        }
    }
    stats.txns = txns.len();
    stats.committed = txns.values().filter(|t| t.committed()).count();
    stats.aborted =
        txns.values().filter(|t| !t.committed() && !t.abort_nodes.is_empty()).count();

    // ---- per-transaction integrity: LostWrite, CommitTsMismatch ---------
    for (trx, t) in &txns {
        if t.committed() && !t.abort_nodes.is_empty() {
            out.push(Anomaly {
                kind: AnomalyKind::LostWrite,
                description: format!(
                    "{trx} committed (ts {}) but aborted on {:?}: its writes there are lost",
                    t.commit_ts.unwrap_or(0),
                    t.abort_nodes,
                ),
                txns: vec![*trx],
                cycle: Vec::new(),
            });
        }
        let mut distinct: Vec<u64> = t.commit_nodes.iter().map(|(_, ts)| *ts).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() > 1 {
            out.push(Anomaly {
                kind: AnomalyKind::CommitTsMismatch,
                description: format!(
                    "{trx} stamped with different commit timestamps: {:?}",
                    t.commit_nodes,
                ),
                txns: vec![*trx],
                cycle: Vec::new(),
            });
        }
    }

    // ---- per-key committed version orders -------------------------------
    let mut keys: BTreeMap<(TableId, Key), KeyVersions> = BTreeMap::new();
    let mut installs: BTreeMap<(TableId, Key), Vec<(usize, TrxId)>> = BTreeMap::new();
    for (trx, t) in &txns {
        if !t.committed() {
            continue;
        }
        let ts = t.commit_ts.unwrap_or(0);
        let mut seen_keys: HashSet<(TableId, Key)> = HashSet::new();
        for w in &t.writes {
            if seen_keys.insert((w.table, w.key.clone())) {
                let kv = keys.entry((w.table, w.key.clone())).or_default();
                kv.by_ts.push((ts, *trx));
                // First intent installation per (key, txn), by event order.
                installs.entry((w.table, w.key.clone())).or_default().push((w.seq, *trx));
            }
        }
    }
    for (k, mut ins) in installs {
        ins.sort_unstable_by_key(|(seq, _)| *seq);
        if let Some(kv) = keys.get_mut(&k) {
            kv.by_install = ins.into_iter().map(|(_, trx)| trx).collect();
        }
    }
    for kv in keys.values_mut() {
        kv.by_ts.sort_unstable_by_key(|(ts, trx)| (*ts, trx.raw()));
        kv.pos = kv.by_ts.iter().enumerate().map(|(i, (_, trx))| (*trx, i)).collect();
    }
    // Readers may observe versions whose writer never produced a recorded
    // Write event (partial recording). Fold those in from the reads so
    // positions still resolve.
    for t in txns.values() {
        for r in &t.reads {
            if let Some(vr) = &r.observed {
                if let Some(ts) = vr.commit_ts {
                    let kv = keys.entry((r.table, r.key.clone())).or_default();
                    if !kv.pos.contains_key(&vr.writer) {
                        kv.by_ts.push((ts, vr.writer));
                        kv.by_ts.sort_unstable_by_key(|(ts, trx)| (*ts, trx.raw()));
                        kv.pos = kv
                            .by_ts
                            .iter()
                            .enumerate()
                            .map(|(i, (_, trx))| (*trx, i))
                            .collect();
                    }
                }
            }
        }
    }

    // ---- DSG edges ------------------------------------------------------
    let committed: HashSet<TrxId> =
        txns.iter().filter(|(_, t)| t.committed()).map(|(trx, _)| *trx).collect();
    let mut ww: Graph = HashMap::new();
    let mut wwr: Graph = HashMap::new(); // ww ∪ wr
    let mut rw_edges: Vec<WitnessEdge> = Vec::new();

    for ((table, key), kv) in &keys {
        // ww succession in commit-ts order.
        for pair in kv.by_ts.windows(2) {
            let e = WitnessEdge {
                from: pair[0].1,
                to: pair[1].1,
                kind: EdgeKind::Ww,
                key: Some((*table, key.clone())),
            };
            add_edge(&mut ww, e.clone());
            add_edge(&mut wwr, e);
        }
        // ww succession in install order: agrees with ts order in a correct
        // history (first-committer-wins forces the second intent after the
        // first commit); a disagreement creates opposing edges — a G0 cycle.
        for pair in kv.by_install.windows(2) {
            if pair[0] == pair[1] {
                continue;
            }
            let e = WitnessEdge {
                from: pair[0],
                to: pair[1],
                kind: EdgeKind::Ww,
                key: Some((*table, key.clone())),
            };
            add_edge(&mut ww, e.clone());
            add_edge(&mut wwr, e);
        }
    }

    // Read-derived edges and read-local checks.
    for (reader, t) in &txns {
        for r in &t.reads {
            let kv = match keys.get(&(r.table, r.key.clone())) {
                Some(kv) => kv,
                None if r.observed.is_none() => continue, // ⊥ read of a never-written key
                None => KeyVersions::default_ref(),
            };
            match &r.observed {
                None => {
                    // ⊥ observed. rw edge to the key's first committed writer.
                    if let Some((_, first)) = kv.by_ts.first() {
                        if committed.contains(reader) && *first != *reader {
                            rw_edges.push(WitnessEdge {
                                from: *reader,
                                to: *first,
                                kind: EdgeKind::Rw,
                                key: Some((r.table, r.key.clone())),
                            });
                        }
                    }
                    // Missed effects: a committed version at or below the
                    // snapshot existed, yet the read saw nothing. Primary
                    // reads only (see module docs).
                    if !r.replica {
                        if let Some((ts, w)) =
                            kv.by_ts.iter().find(|(ts, w)| *ts <= r.snapshot_ts && w != reader)
                        {
                            out.push(Anomaly {
                                kind: AnomalyKind::GSIb,
                                description: format!(
                                    "{reader} read {:?}/{} at snapshot {} and saw nothing, \
                                     missing {w}'s committed version (ts {ts})",
                                    r.table, r.key, r.snapshot_ts,
                                ),
                                txns: vec![*reader, *w],
                                cycle: vec![WitnessEdge {
                                    from: *reader,
                                    to: *w,
                                    kind: EdgeKind::Rw,
                                    key: Some((r.table, r.key.clone())),
                                }],
                            });
                        }
                    }
                }
                Some(vr) if vr.writer == *reader => {} // own write
                Some(vr) => {
                    let winfo = txns.get(&vr.writer);
                    let writer_committed = winfo.map(|w| w.committed()).unwrap_or(false)
                        || vr.commit_ts.is_some();
                    let writer_aborted = !writer_committed
                        && winfo.map(|w| !w.abort_nodes.is_empty()).unwrap_or(false);
                    if vr.commit_ts.is_none() {
                        // Undecided at observation time — a dirty read.
                        if writer_aborted {
                            out.push(Anomaly {
                                kind: AnomalyKind::G1a,
                                description: format!(
                                    "{reader} observed {}'s undecided version of {:?}/{} and \
                                     {} later aborted (aborted read)",
                                    vr.writer, r.table, r.key, vr.writer,
                                ),
                                txns: vec![*reader, vr.writer],
                                cycle: Vec::new(),
                            });
                        } else if writer_committed {
                            out.push(Anomaly {
                                kind: AnomalyKind::G1b,
                                description: format!(
                                    "{reader} observed {}'s undecided (intermediate) version \
                                     of {:?}/{} before it committed",
                                    vr.writer, r.table, r.key,
                                ),
                                txns: vec![*reader, vr.writer],
                                cycle: Vec::new(),
                            });
                        }
                        continue;
                    }
                    if writer_aborted {
                        out.push(Anomaly {
                            kind: AnomalyKind::G1a,
                            description: format!(
                                "{reader} observed a version of {:?}/{} written by {}, which \
                                 aborted",
                                r.table, r.key, vr.writer,
                            ),
                            txns: vec![*reader, vr.writer],
                            cycle: Vec::new(),
                        });
                        continue;
                    }
                    // wr edge (writer → reader) and rw edge (reader →
                    // successor writer), committed readers only.
                    let pos = kv.pos.get(&vr.writer).copied();
                    if committed.contains(reader) {
                        add_edge(
                            &mut wwr,
                            WitnessEdge {
                                from: vr.writer,
                                to: *reader,
                                kind: EdgeKind::Wr,
                                key: Some((r.table, r.key.clone())),
                            },
                        );
                        if let Some(p) = pos {
                            if let Some((_, succ)) = kv.by_ts.get(p + 1) {
                                if succ != reader {
                                    rw_edges.push(WitnessEdge {
                                        from: *reader,
                                        to: *succ,
                                        kind: EdgeKind::Rw,
                                        key: Some((r.table, r.key.clone())),
                                    });
                                }
                            }
                        }
                    }
                    // Missed effects below the snapshot (primary reads).
                    if !r.replica {
                        let obs_ts = vr.commit_ts.unwrap_or(0);
                        if let Some((ts, w)) = kv
                            .by_ts
                            .iter()
                            .find(|(ts, w)| *ts > obs_ts && *ts <= r.snapshot_ts && w != reader)
                        {
                            out.push(Anomaly {
                                kind: AnomalyKind::GSIb,
                                description: format!(
                                    "{reader} read {:?}/{} at snapshot {} and observed {}'s \
                                     version (ts {obs_ts}), missing {w}'s later committed \
                                     version (ts {ts})",
                                    r.table, r.key, r.snapshot_ts, vr.writer,
                                ),
                                txns: vec![*reader, *w],
                                cycle: vec![WitnessEdge {
                                    from: *reader,
                                    to: *w,
                                    kind: EdgeKind::Rw,
                                    key: Some((r.table, r.key.clone())),
                                }],
                            });
                        }
                    }
                }
            }
        }
    }

    // ---- G-SIa: fractured reads ----------------------------------------
    for (reader, t) in &txns {
        for r1 in &t.reads {
            let Some(vr) = &r1.observed else { continue };
            if vr.writer == *reader || vr.commit_ts.is_none() {
                continue;
            }
            let w = vr.writer;
            let Some(winfo) = txns.get(&w) else { continue };
            if !winfo.committed() {
                continue;
            }
            // Every other key the observed writer committed to…
            for wk in &winfo.writes {
                if wk.table == r1.table && wk.key == r1.key {
                    continue;
                }
                let Some(kv) = keys.get(&(wk.table, wk.key.clone())) else { continue };
                let Some(&wpos) = kv.pos.get(&w) else { continue };
                // …must be visible to this reader at w's version or later.
                for r2 in &t.reads {
                    if r2.table != wk.table || r2.key != wk.key {
                        continue;
                    }
                    let fractured = match &r2.observed {
                        None => true, // saw nothing where w committed a version
                        Some(vr2) => {
                            vr2.writer != *reader
                                && vr2.commit_ts.is_some()
                                && kv.pos.get(&vr2.writer).map(|p| *p < wpos).unwrap_or(false)
                        }
                    };
                    if fractured {
                        out.push(Anomaly {
                            kind: AnomalyKind::GSIa,
                            description: format!(
                                "fractured read: {reader} observed {w} on {:?}/{} but a \
                                 pre-{w} state of {:?}/{} (which {w} also wrote){}",
                                r1.table,
                                r1.key,
                                wk.table,
                                wk.key,
                                if r1.replica || r2.replica { " [replica read]" } else { "" },
                            ),
                            txns: vec![*reader, w],
                            cycle: vec![
                                WitnessEdge {
                                    from: w,
                                    to: *reader,
                                    kind: EdgeKind::Wr,
                                    key: Some((r1.table, r1.key.clone())),
                                },
                                WitnessEdge {
                                    from: *reader,
                                    to: w,
                                    kind: EdgeKind::Rw,
                                    key: Some((wk.table, wk.key.clone())),
                                },
                            ],
                        });
                    }
                }
            }
        }
    }

    // ---- G-SIb: session-order violations -------------------------------
    let mut by_session: HashMap<NodeId, Vec<TrxId>> = HashMap::new();
    for (trx, t) in &txns {
        if let Some(s) = t.session {
            by_session.entry(s).or_default().push(*trx);
        }
    }
    for (session, members) in &by_session {
        for &ti in members {
            let Some(ci) = txns[&ti].commit_ts else { continue };
            let Some(qi) = txns[&ti].session_commit_seq else { continue };
            for &tj in members {
                if ti == tj {
                    continue;
                }
                let (Some(bj), Some(sj)) = (txns[&tj].begin_seq, txns[&tj].snapshot_ts)
                else {
                    continue;
                };
                if bj > qi && sj < ci {
                    out.push(Anomaly {
                        kind: AnomalyKind::GSIb,
                        description: format!(
                            "session-order violation on {session:?}: {tj} began (snapshot \
                             {sj}) after {ti} committed at ts {ci} on the same session — \
                             the commit-time ClockUpdate was lost",
                        ),
                        txns: vec![ti, tj],
                        cycle: vec![WitnessEdge {
                            from: ti,
                            to: tj,
                            kind: EdgeKind::Session,
                            key: None,
                        }],
                    });
                }
            }
        }
    }

    // ---- Lost update ----------------------------------------------------
    for ((table, key), kv) in &keys {
        // committed writers of this key that also (non-self) read it, by
        // the position they observed.
        let mut by_observed: HashMap<Option<usize>, Vec<TrxId>> = HashMap::new();
        for (_, writer) in &kv.by_ts {
            let Some(t) = txns.get(writer) else { continue };
            for r in &t.reads {
                if r.table != *table || r.key != *key {
                    continue;
                }
                let pos = match &r.observed {
                    None => None,
                    Some(vr) if vr.writer == *writer => continue, // own write
                    Some(vr) => match kv.pos.get(&vr.writer) {
                        Some(p) => Some(*p),
                        None => continue,
                    },
                };
                let bucket = by_observed.entry(pos).or_default();
                if !bucket.contains(writer) {
                    bucket.push(*writer);
                }
                break;
            }
        }
        for (pos, writers) in by_observed {
            if writers.len() >= 2 {
                out.push(Anomaly {
                    kind: AnomalyKind::LostUpdate,
                    description: format!(
                        "lost update on {table:?}/{key}: {writers:?} all read version \
                         #{} and all committed writes over it",
                        pos.map(|p| p.to_string()).unwrap_or_else(|| "⊥".into()),
                    ),
                    txns: writers,
                    cycle: Vec::new(),
                });
            }
        }
    }

    // ---- cycles: G0, G1c, single-rw G-SIb, write-skew candidates --------
    if let Some(cycle) = shortest_cycle(&ww) {
        out.push(Anomaly {
            kind: AnomalyKind::G0,
            description: format!("write cycle of length {}", cycle.len()),
            txns: cycle_txns(&cycle),
            cycle,
        });
    }
    // G1c: a ww∪wr cycle containing at least one wr edge. Search from each
    // wr edge so a coexisting ww-only (G0) cycle can't mask it.
    let mut best_g1c: Option<Vec<WitnessEdge>> = None;
    for edges in wwr.values() {
        for e in edges.iter().filter(|e| e.kind == EdgeKind::Wr) {
            let candidate = if e.to == e.from {
                Some(vec![e.clone()])
            } else {
                shortest_path(&wwr, e.to, e.from).map(|mut p| {
                    p.insert(0, e.clone());
                    p
                })
            };
            if let Some(c) = candidate {
                if best_g1c.as_ref().map(|b| c.len() < b.len()).unwrap_or(true) {
                    best_g1c = Some(c);
                }
            }
        }
    }
    if let Some(cycle) = best_g1c {
        out.push(Anomaly {
            kind: AnomalyKind::G1c,
            description: format!(
                "cyclic information flow (ww∪wr cycle of length {})",
                cycle.len()
            ),
            txns: cycle_txns(&cycle),
            cycle,
        });
    }
    let mut skew: Vec<WriteSkewCandidate> = Vec::new();
    let mut gsib_cycle_pairs: HashSet<(TrxId, TrxId)> = HashSet::new();
    for e in &rw_edges {
        // A ww∪wr path back from the rw target closes a cycle with exactly
        // one anti-dependency: illegal under SI.
        if let Some(mut path) = shortest_path(&wwr, e.to, e.from) {
            if gsib_cycle_pairs.insert((e.from, e.to)) {
                let mut cycle = vec![e.clone()];
                cycle.append(&mut path);
                out.push(Anomaly {
                    kind: AnomalyKind::GSIb,
                    description: format!(
                        "missed effects: cycle with exactly one anti-dependency \
                         (length {})",
                        cycle.len()
                    ),
                    txns: cycle_txns(&cycle),
                    cycle,
                });
            }
            continue;
        }
        // Otherwise look for the SI-legal shape: a second rw edge straight
        // back (write skew between concurrent transactions).
        for back in &rw_edges {
            if back.from == e.to && back.to == e.from && e.from.raw() < e.to.raw() {
                let keys: Vec<(TableId, Key)> = [e, back]
                    .iter()
                    .filter_map(|x| x.key.clone())
                    .collect();
                if !skew
                    .iter()
                    .any(|c| (c.a, c.b) == (e.from, e.to) || (c.b, c.a) == (e.from, e.to))
                {
                    skew.push(WriteSkewCandidate { a: e.from, b: e.to, keys });
                }
            }
        }
    }

    CheckReport { anomalies: out.anomalies, write_skew_candidates: skew, stats }
}

impl KeyVersions {
    /// Shared empty instance for reads of keys no committed writer touched.
    fn default_ref() -> &'static KeyVersions {
        use std::sync::OnceLock;
        static EMPTY: OnceLock<KeyVersions> = OnceLock::new();
        EMPTY.get_or_init(KeyVersions::default)
    }
}

/// Derived conserved-sum audit (the bank invariant, recomputed from the
/// history instead of a side channel): for every transaction that read at
/// least `min_keys` distinct keys of `table` and wrote none of them, join
/// each observed version to its writer's recorded row and sum column
/// `balance_col`. Returns `(auditor, total)` pairs; every total must equal
/// the seeded sum under SI.
pub fn derived_audit_totals(
    events: &[TxnEvent],
    table: TableId,
    balance_col: usize,
    min_keys: usize,
) -> Vec<(TrxId, i64)> {
    // Final committed row per (writer, key).
    let mut rows: HashMap<(TrxId, Key), Option<i64>> = HashMap::new();
    for ev in events {
        if let TxnEvent::Write { trx, table: t, key, row, .. } = ev {
            if *t == table {
                let bal = row
                    .as_ref()
                    .and_then(|r| r.get(balance_col).ok())
                    .and_then(|v| v.as_int().ok());
                rows.insert((*trx, key.clone()), bal);
            }
        }
    }
    let mut totals = Vec::new();
    let mut per_txn: BTreeMap<TrxId, BTreeMap<Key, Option<i64>>> = BTreeMap::new();
    let mut writers: HashMap<TrxId, HashSet<Key>> = HashMap::new();
    for ev in events {
        match ev {
            TxnEvent::Write { trx, table: t, key, .. } if *t == table => {
                writers.entry(*trx).or_default().insert(key.clone());
            }
            TxnEvent::Read { trx, table: t, key, observed, .. } if *t == table => {
                let val = observed
                    .as_ref()
                    .and_then(|vr| rows.get(&(vr.writer, key.clone())).copied().flatten());
                per_txn.entry(*trx).or_default().entry(key.clone()).or_insert(val);
            }
            _ => {}
        }
    }
    for (trx, reads) in per_txn {
        if reads.len() < min_keys || writers.contains_key(&trx) {
            continue;
        }
        if reads.values().all(|v| v.is_some()) {
            totals.push((trx, reads.values().map(|v| v.unwrap_or(0)).sum()));
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{Row, Value};

    const T: TableId = TableId(1);
    const CN: NodeId = NodeId(9);
    const DN1: NodeId = NodeId(1);
    const DN2: NodeId = NodeId(2);

    fn k(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(v: i64) -> Row {
        Row::new(vec![Value::Int(0), Value::Int(v)])
    }

    fn begin(trx: u64, s: u64) -> TxnEvent {
        TxnEvent::Begin { trx: TrxId(trx), session: CN, snapshot_ts: s }
    }

    fn write(trx: u64, node: NodeId, key: Key, v: i64) -> TxnEvent {
        TxnEvent::Write { trx: TrxId(trx), node, table: T, key, row: Some(row(v)) }
    }

    fn read(trx: u64, node: NodeId, key: Key, s: u64, obs: Option<(u64, Option<u64>)>) -> TxnEvent {
        TxnEvent::Read {
            trx: TrxId(trx),
            node,
            table: T,
            key,
            snapshot_ts: s,
            observed: obs.map(|(w, ts)| VersionRef { writer: TrxId(w), commit_ts: ts }),
            replica: false,
        }
    }

    fn commit(trx: u64, node: NodeId, ts: u64) -> TxnEvent {
        TxnEvent::Commit { trx: TrxId(trx), node, commit_ts: ts }
    }

    fn abort(trx: u64, node: NodeId) -> TxnEvent {
        TxnEvent::Abort { trx: TrxId(trx), node }
    }

    #[test]
    fn clean_history_reports_clean() {
        let h = vec![
            begin(1, 5),
            write(1, DN1, k(1), 100),
            commit(1, DN1, 10),
            commit(1, CN, 10),
            begin(2, 15),
            read(2, DN1, k(1), 15, Some((1, Some(10)))),
            write(2, DN1, k(1), 90),
            commit(2, DN1, 20),
            commit(2, CN, 20),
        ];
        let r = check(&h);
        assert!(r.is_clean(), "expected clean, got {:?}", r.anomalies);
        assert_eq!(r.stats.txns, 2);
        assert_eq!(r.stats.committed, 2);
    }

    #[test]
    fn g1a_aborted_read_detected() {
        let h = vec![
            begin(1, 5),
            write(1, DN1, k(1), 7),
            begin(2, 6),
            read(2, DN1, k(1), 6, Some((1, None))), // undecided when observed
            abort(1, DN1),
            commit(2, CN, 9),
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::G1a), "{:?}", r.anomalies);
    }

    #[test]
    fn g1b_intermediate_read_detected() {
        let h = vec![
            begin(1, 5),
            write(1, DN1, k(1), 7),
            begin(2, 6),
            read(2, DN1, k(1), 6, Some((1, None))), // undecided when observed
            commit(1, DN1, 10),
            commit(1, CN, 10),
            commit(2, CN, 12),
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::G1b), "{:?}", r.anomalies);
    }

    #[test]
    fn g0_contradictory_install_order_detected() {
        // Install order on k1: T1 then T2; commit timestamps say T2 then
        // T1. The opposing ww edges form a two-cycle.
        let h = vec![
            begin(1, 1),
            begin(2, 2),
            write(1, DN1, k(1), 1),
            write(2, DN1, k(1), 2),
            commit(1, DN1, 20),
            commit(1, CN, 20),
            commit(2, DN1, 10),
            commit(2, CN, 10),
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::G0), "{:?}", r.anomalies);
        let g0 = &r.of_kind(AnomalyKind::G0)[0];
        assert!(!g0.cycle.is_empty(), "G0 must carry a witness cycle");
        assert!(g0.cycle.iter().all(|e| e.kind == EdgeKind::Ww));
    }

    #[test]
    fn g1c_wr_cycle_detected() {
        // T1 —wr→ T2 via k1 and T2 —wr→ T1 via k2: cyclic information flow.
        let h = vec![
            begin(1, 1),
            begin(2, 1),
            write(1, DN1, k(1), 1),
            write(2, DN2, k(2), 2),
            read(2, DN1, k(1), 30, Some((1, Some(10)))),
            read(1, DN2, k(2), 30, Some((2, Some(20)))),
            commit(1, DN1, 10),
            commit(1, CN, 10),
            commit(2, DN2, 20),
            commit(2, CN, 20),
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::G1c), "{:?}", r.anomalies);
        let c = &r.of_kind(AnomalyKind::G1c)[0];
        assert!(c.cycle.iter().any(|e| e.kind == EdgeKind::Wr));
    }

    #[test]
    fn gsia_fractured_read_detected() {
        // T1 writes k1 and k2 (one distributed txn). The auditor sees T1 on
        // k1 but the initial version on k2.
        let h = vec![
            begin(1, 1),
            write(1, DN1, k(1), 10),
            write(1, DN2, k(2), 20),
            commit(1, DN1, 10),
            commit(1, DN2, 10),
            commit(1, CN, 10),
            begin(2, 2),
            write(2, DN1, k(1), 11),
            write(2, DN2, k(2), 21),
            commit(2, DN1, 20),
            commit(2, DN2, 20),
            commit(2, CN, 20),
            begin(3, 25),
            read(3, DN1, k(1), 25, Some((2, Some(20)))),
            read(3, DN2, k(2), 25, Some((1, Some(10)))), // pre-T2!
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::GSIa), "{:?}", r.anomalies);
        let a = &r.of_kind(AnomalyKind::GSIa)[0];
        assert_eq!(a.cycle.len(), 2, "witness is the wr/rw two-cycle");
    }

    #[test]
    fn gsib_stale_read_detected() {
        // Snapshot 25 covers T2's commit at 20, yet the read returned T1's
        // version from ts 10.
        let h = vec![
            begin(1, 1),
            write(1, DN1, k(1), 1),
            commit(1, DN1, 10),
            commit(1, CN, 10),
            begin(2, 12),
            write(2, DN1, k(1), 2),
            commit(2, DN1, 20),
            commit(2, CN, 20),
            begin(3, 25),
            read(3, DN1, k(1), 25, Some((1, Some(10)))),
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::GSIb), "{:?}", r.anomalies);
    }

    #[test]
    fn gsib_session_violation_detected() {
        // T1 commits at ts 100 on session CN; T2 then begins on the same
        // session with snapshot 40 < 100.
        let h = vec![
            begin(1, 30),
            write(1, DN1, k(1), 1),
            commit(1, DN1, 100),
            commit(1, CN, 100),
            begin(2, 40),
            read(2, DN1, k(9), 40, None),
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::GSIb), "{:?}", r.anomalies);
        let a = r.of_kind(AnomalyKind::GSIb);
        assert!(
            a.iter().any(|x| x.cycle.iter().any(|e| e.kind == EdgeKind::Session)),
            "witness must carry the session edge: {a:?}"
        );
    }

    #[test]
    fn gsib_single_rw_cycle_detected() {
        // T1 read k1 as ⊥ (rw → T2), and T2 —ww→ T1 on k4: a cycle with
        // exactly one anti-dependency.
        let h = vec![
            begin(1, 1),
            begin(2, 1),
            read(1, DN1, k(1), 1, None),
            write(2, DN1, k(1), 1),
            write(2, DN2, k(4), 1),
            commit(2, DN1, 5),
            commit(2, CN, 5),
            write(1, DN2, k(4), 2),
            commit(1, DN2, 10),
            commit(1, CN, 10),
        ];
        let r = check(&h);
        let gsib = r.of_kind(AnomalyKind::GSIb);
        assert!(
            gsib.iter().any(|a| a.cycle.iter().any(|e| e.kind == EdgeKind::Rw)
                && a.cycle.iter().any(|e| e.kind != EdgeKind::Rw)),
            "expected a mixed single-rw cycle: {gsib:?}"
        );
    }

    #[test]
    fn lost_update_detected() {
        let h = vec![
            begin(1, 1),
            write(1, DN1, k(1), 100),
            commit(1, DN1, 10),
            commit(1, CN, 10),
            begin(2, 12),
            read(2, DN1, k(1), 12, Some((1, Some(10)))),
            write(2, DN1, k(1), 110),
            commit(2, DN1, 20),
            commit(2, CN, 20),
            begin(3, 13),
            read(3, DN1, k(1), 13, Some((1, Some(10)))), // same predecessor!
            write(3, DN1, k(1), 120),
            commit(3, DN1, 25),
            commit(3, CN, 25),
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::LostUpdate), "{:?}", r.anomalies);
    }

    #[test]
    fn lost_write_detected() {
        let h = vec![
            begin(1, 1),
            write(1, DN1, k(1), 1),
            write(1, DN2, k(2), 2),
            commit(1, DN1, 10),
            commit(1, CN, 10),
            abort(1, DN2), // participant dropped from the fan-out
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::LostWrite), "{:?}", r.anomalies);
        let a = &r.of_kind(AnomalyKind::LostWrite)[0];
        assert!(a.description.contains("NodeId(2)"), "{}", a.description);
    }

    #[test]
    fn commit_ts_mismatch_detected() {
        let h = vec![
            begin(1, 1),
            write(1, DN1, k(1), 1),
            write(1, DN2, k(2), 2),
            commit(1, DN1, 10),
            commit(1, DN2, 11), // disagreement
            commit(1, CN, 10),
        ];
        let r = check(&h);
        assert!(r.has(AnomalyKind::CommitTsMismatch), "{:?}", r.anomalies);
    }

    #[test]
    fn write_skew_is_candidate_not_anomaly() {
        let h = vec![
            begin(1, 1),
            write(1, DN1, k(1), 0),
            write(1, DN2, k(2), 0),
            commit(1, DN1, 5),
            commit(1, DN2, 5),
            commit(1, CN, 5),
            // T2 and T3 run concurrently, each reads both keys at T1's
            // versions, then they write disjoint keys: the classic
            // doctors-on-call shape.
            begin(2, 15),
            begin(3, 15),
            read(2, DN1, k(1), 15, Some((1, Some(5)))),
            read(2, DN2, k(2), 15, Some((1, Some(5)))),
            read(3, DN1, k(1), 15, Some((1, Some(5)))),
            read(3, DN2, k(2), 15, Some((1, Some(5)))),
            write(2, DN1, k(1), 1),
            write(3, DN2, k(2), 1),
            commit(2, DN1, 20),
            commit(2, CN, 20),
            commit(3, DN2, 21),
            commit(3, CN, 21),
        ];
        let r = check(&h);
        assert!(r.is_clean(), "write skew is SI-legal: {:?}", r.anomalies);
        assert!(!r.write_skew_candidates.is_empty(), "but must be reported as a candidate");
    }

    #[test]
    fn replica_reads_skip_timestamp_staleness() {
        // A lagging replica serves an old-but-atomic state: legal.
        let mut h = vec![
            begin(1, 1),
            write(1, DN1, k(1), 1),
            commit(1, DN1, 10),
            commit(1, CN, 10),
            begin(2, 12),
            write(2, DN1, k(1), 2),
            commit(2, DN1, 20),
            commit(2, CN, 20),
        ];
        h.push(TxnEvent::Read {
            trx: TrxId(3),
            node: NodeId(101),
            table: T,
            key: k(1),
            snapshot_ts: 25,
            observed: Some(VersionRef { writer: TrxId(1), commit_ts: Some(10) }),
            replica: true,
        });
        let r = check(&h);
        assert!(r.is_clean(), "lagging replica read must not be flagged: {:?}", r.anomalies);
    }

    #[test]
    fn derived_audit_totals_join_reads_to_writes() {
        let h = vec![
            begin(1, 1),
            write(1, DN1, k(1), 60),
            write(1, DN2, k(2), 40),
            commit(1, DN1, 10),
            commit(1, CN, 10),
            begin(2, 15),
            read(2, DN1, k(1), 15, Some((1, Some(10)))),
            read(2, DN2, k(2), 15, Some((1, Some(10)))),
        ];
        let totals = derived_audit_totals(&h, T, 1, 2);
        assert_eq!(totals, vec![(TrxId(2), 100)]);
    }
}
