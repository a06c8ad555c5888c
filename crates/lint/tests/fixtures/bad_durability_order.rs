// Fixture: the early-release gate. `commit_wrong` publishes both stamps
// before the unstable flag and `commit_unflagged` submits a tracked
// transaction without ever flagging it: both must fire `durability_order`.
// `commit_right`, `replay_only` and `log_only` must stay clean.

pub fn commit_wrong(e: &Engine, trx: TrxId, commit_ts: u64) -> Result<EpochTicket> {
    e.txns.commit(trx, commit_ts)?;
    e.store.commit(trx, commit_ts, &[]);
    e.txns.mark_unstable(trx);
    e.pipe.submit(Some(trx), |buf| encode(buf))
}

pub fn commit_unflagged(e: &Engine, trx: TrxId) -> Result<EpochTicket> {
    e.pipe.submit(Some(trx), |buf| encode(buf))
}

pub fn commit_right(e: &Engine, trx: TrxId, commit_ts: u64) -> Result<EpochTicket> {
    e.txns.mark_unstable(trx);
    e.txns.commit(trx, commit_ts)?;
    e.store.commit(trx, commit_ts, &[]);
    e.pipe.submit(Some(trx), |buf| encode(buf))
}

// Replay stamps visibility for records that are durable by definition —
// no `mark_unstable` and no submission in the body, so the rule stays quiet.
pub fn replay_only(e: &Engine, trx: TrxId, commit_ts: u64) {
    e.txns.commit(trx, commit_ts).ok();
}

// A prepare / abort / marker record releases nothing early.
pub fn log_only(e: &Engine, timeout: Duration) -> Result<Lsn> {
    e.pipe.submit_sync(None, timeout, |buf| encode(buf))
}
