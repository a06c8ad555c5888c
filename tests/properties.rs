//! Randomized property tests over the core data structures and invariants:
//! order-preserving key encoding, LIKE matching, MVCC visibility against an
//! oracle, columnar-vs-row equivalence, aggregate partial-merge
//! associativity, partition-routing determinism, and a plan cache that
//! answers like no cache.
//!
//! Inputs are drawn from a seeded `StdRng`, so every run exercises the same
//! cases — failures reproduce deterministically (proptest is unavailable in
//! the offline build environment).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use polardbx_common::{Key, Row, TrxId, Value};

const CASES: usize = 200;

fn rng_for(test: &str) -> StdRng {
    // Stable per-test seed so tests stay independent of execution order.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h)
}

fn rand_string(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> String {
    let n = rng.gen_range(0..=max_len);
    (0..n)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

/// Key encoding preserves order for same-typed tuples: byte-wise comparison
/// of encodings equals SQL comparison of the value tuples.
#[test]
fn key_encoding_is_order_preserving() {
    let mut rng = rng_for("key_encoding_is_order_preserving");
    for _ in 0..CASES {
        let kinds: Vec<u8> = (0..rng.gen_range(1..4)).map(|_| rng.gen_range(0..4)).collect();
        let gen_tuple = |rng: &mut StdRng| -> Vec<Value> {
            kinds
                .iter()
                .map(|&k| match k {
                    0 => Value::Int(rng.gen_range(-1000..1000)),
                    1 => Value::Double(rng.gen_range(-100.0..100.0)),
                    2 => {
                        let n = rng.gen_range(0..6);
                        Value::Str(
                            (0..n).map(|_| rng.gen_range(b'a'..=b'e') as char).collect(),
                        )
                    }
                    _ => Value::Date(rng.gen_range(-500..500)),
                })
                .collect()
        };
        let a = gen_tuple(&mut rng);
        let b = gen_tuple(&mut rng);
        let ka = Key::encode(&a);
        let kb = Key::encode(&b);
        let tuple_ord = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.cmp(y))
            .find(|o| *o != std::cmp::Ordering::Equal)
            .unwrap_or(std::cmp::Ordering::Equal);
        assert_eq!(ka.cmp(&kb), tuple_ord, "a={a:?} b={b:?}");
    }
}

/// Encoding round-trips every value.
#[test]
fn key_encoding_roundtrips() {
    let mut rng = rng_for("key_encoding_roundtrips");
    for _ in 0..CASES {
        let v = match rng.gen_range(0u8..4) {
            0 => Value::Int(rng.gen()),
            1 => Value::Double(rng.gen_range(-1e15..1e15)),
            2 => Value::Bytes((0..rng.gen_range(0..20)).map(|_| rng.gen()).collect()),
            _ => Value::Date(rng.gen()),
        };
        let vals = vec![v.clone(), Value::Null, v];
        assert_eq!(Key::encode(&vals).decode(), vals);
    }
}

/// LIKE with only `%`/`_` wildcards agrees with a reference matcher.
#[test]
fn like_agrees_with_reference() {
    fn reference(s: &str, p: &str) -> bool {
        // Classic DP.
        let (s, p): (Vec<char>, Vec<char>) = (s.chars().collect(), p.chars().collect());
        let mut dp = vec![vec![false; p.len() + 1]; s.len() + 1];
        dp[0][0] = true;
        for j in 1..=p.len() {
            dp[0][j] = p[j - 1] == '%' && dp[0][j - 1];
        }
        for i in 1..=s.len() {
            for j in 1..=p.len() {
                dp[i][j] = match p[j - 1] {
                    '%' => dp[i - 1][j] || dp[i][j - 1],
                    '_' => dp[i - 1][j - 1],
                    c => c == s[i - 1] && dp[i - 1][j - 1],
                };
            }
        }
        dp[s.len()][p.len()]
    }
    let mut rng = rng_for("like_agrees_with_reference");
    for _ in 0..CASES * 5 {
        let s = rand_string(&mut rng, b"ab", 8);
        let p = rand_string(&mut rng, b"ab%_", 6);
        assert_eq!(
            polardbx_sql::expr::like_match(&s, &p),
            reference(&s, &p),
            "s={s:?} p={p:?}"
        );
    }
}

/// MVCC visibility matches a timestamp oracle: after a sequence of committed
/// writes at increasing timestamps, a read at any snapshot sees exactly the
/// newest version at or before it.
#[test]
fn mvcc_visibility_matches_oracle() {
    use polardbx_common::{TableId, TenantId};
    use polardbx_storage::{StorageEngine, WriteOp};
    use std::collections::HashMap;

    let mut rng = rng_for("mvcc_visibility_matches_oracle");
    for _ in 0..CASES / 4 {
        let ops: Vec<(i64, u8)> = (0..rng.gen_range(1..40))
            .map(|_| (rng.gen_range(0i64..6), rng.gen_range(0u8..3)))
            .collect();
        let probe_key = rng.gen_range(0i64..6);
        let probe_ts_idx = rng.gen_range(0usize..40);

        let engine = StorageEngine::in_memory();
        engine.create_table(TableId(1), TenantId(1));
        // Oracle: key -> Vec<(commit_ts, Option<row>)>
        let mut oracle: HashMap<i64, Vec<(u64, Option<Row>)>> = HashMap::new();
        let mut ts = 0u64;
        for (i, (k, op)) in ops.iter().enumerate() {
            ts += 10;
            let trx = TrxId(1000 + i as u64);
            let key = Key::encode(&[Value::Int(*k)]);
            let exists = oracle
                .get(k)
                .and_then(|v| v.last())
                .map(|(_, r)| r.is_some())
                .unwrap_or(false);
            let row = Row::new(vec![Value::Int(*k), Value::Int(ts as i64)]);
            engine.begin(trx, ts - 1);
            let action: Option<Option<Row>> = match op {
                0 if !exists => {
                    engine
                        .write(trx, TableId(1), key, WriteOp::Insert(row.clone()))
                        .unwrap();
                    Some(Some(row))
                }
                1 if exists => {
                    engine
                        .write(trx, TableId(1), key, WriteOp::Update(row.clone()))
                        .unwrap();
                    Some(Some(row))
                }
                2 if exists => {
                    engine.write(trx, TableId(1), key, WriteOp::Delete).unwrap();
                    Some(None)
                }
                _ => {
                    engine.abort(trx);
                    None
                }
            };
            if let Some(new_state) = action {
                engine.commit(trx, ts).unwrap();
                oracle.entry(*k).or_default().push((ts, new_state));
            }
        }
        // Probe at an arbitrary snapshot.
        let probe_ts = (probe_ts_idx as u64 + 1) * 5;
        let got = engine
            .read(TableId(1), &Key::encode(&[Value::Int(probe_key)]), probe_ts, None)
            .unwrap();
        let expect = oracle
            .get(&probe_key)
            .and_then(|versions| {
                versions
                    .iter()
                    .rev()
                    .find(|(cts, _)| *cts <= probe_ts)
                    .map(|(_, r)| r.clone())
            })
            .flatten();
        assert_eq!(got, expect);
    }
}

/// Column-index snapshots agree with a row-store oracle across a random op
/// sequence at every commit timestamp.
#[test]
fn columnar_matches_row_oracle() {
    use polardbx_columnar::ColumnIndex;
    use polardbx_common::DataType;
    use std::collections::BTreeMap;

    let mut rng = rng_for("columnar_matches_row_oracle");
    for _ in 0..CASES / 4 {
        let ops: Vec<(i64, bool)> = (0..rng.gen_range(1..30))
            .map(|_| (rng.gen_range(0i64..5), rng.gen_bool(0.5)))
            .collect();
        let index = ColumnIndex::new(vec![DataType::Int, DataType::Int]);
        let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
        let mut ts = 0u64;
        let mut checkpoints: Vec<(u64, BTreeMap<i64, i64>)> = Vec::new();
        for (i, (k, is_put)) in ops.iter().enumerate() {
            ts += 1;
            let key = Key::encode(&[Value::Int(*k)]);
            if *is_put {
                let row = Row::new(vec![Value::Int(*k), Value::Int(i as i64)]);
                index.apply_put(TrxId(i as u64), ts, key, &row).unwrap();
                oracle.insert(*k, i as i64);
            } else {
                index.writer().delete(ts, &key);
                oracle.remove(k);
            }
            checkpoints.push((ts, oracle.clone()));
        }
        for (ts, expected) in checkpoints {
            let snap = index.snapshot(ts);
            let mut got: BTreeMap<i64, i64> = BTreeMap::new();
            for pos in 0..snap.len() {
                let row = snap.row(pos);
                got.insert(
                    row.get(0).unwrap().as_int().unwrap(),
                    row.get(1).unwrap().as_int().unwrap(),
                );
            }
            assert_eq!(got, expected, "at snapshot {ts}");
        }
    }
}

/// Aggregate partial/merge evaluation is equivalent to single-pass
/// evaluation regardless of how the input is split (the MPP two-phase
/// aggregate correctness property).
#[test]
fn agg_merge_is_split_invariant() {
    use polardbx_executor::operators::AggState;
    use polardbx_sql::expr::AggFunc;
    use polardbx_sql::plan::AggSpec;

    let mut rng = rng_for("agg_merge_is_split_invariant");
    for _ in 0..CASES {
        let values: Vec<i64> = (0..rng.gen_range(1..50))
            .map(|_| rng.gen_range(-1000i64..1000))
            .collect();
        let split = rng.gen_range(0usize..50) % values.len();
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let spec = AggSpec { func, arg: None, distinct: false };
            let mut single = AggState::new(&spec);
            for v in &values {
                single.update(Some(&Value::Int(*v)));
            }
            let (a, b) = values.split_at(split);
            let mut pa = AggState::new(&spec);
            for v in a {
                pa.update(Some(&Value::Int(*v)));
            }
            let mut pb = AggState::new(&spec);
            for v in b {
                pb.update(Some(&Value::Int(*v)));
            }
            pa.merge(&pb);
            assert_eq!(single.finish(), pa.finish(), "func {func:?}");
        }
    }
}

/// Hash partitioning is deterministic, in-bounds and spread.
#[test]
fn partition_routing_sound() {
    use polardbx_common::{ColumnDef, DataType, TableId, TableSchema};
    let mut rng = rng_for("partition_routing_sound");
    for _ in 0..CASES / 4 {
        let ids: Vec<i64> = (0..rng.gen_range(1..200)).map(|_| rng.gen()).collect();
        let shards = rng.gen_range(1u32..64);
        let schema = TableSchema::hash_on_pk(
            TableId(1),
            "t",
            vec![ColumnDef::new("id", DataType::Int).not_null()],
            vec!["id".into()],
            shards,
        )
        .unwrap();
        for id in &ids {
            let s1 = schema.shard_of_key(&[Value::Int(*id)]);
            let s2 = schema.shard_of_key(&[Value::Int(*id)]);
            assert_eq!(s1, s2);
            assert!(s1 < shards);
        }
    }
}

/// The SQL lexer+parser never panic on arbitrary input — they return
/// structured errors.
#[test]
fn parser_never_panics() {
    let mut rng = rng_for("parser_never_panics");
    for _ in 0..CASES * 5 {
        let n = rng.gen_range(0..80);
        let input: String = (0..n)
            .map(|_| {
                // Mostly printable ASCII, occasionally arbitrary unicode.
                if rng.gen_bool(0.9) {
                    rng.gen_range(0x20u8..0x7F) as char
                } else {
                    char::from_u32(rng.gen_range(0u32..0xD7FF)).unwrap_or('?')
                }
            })
            .collect();
        let _ = polardbx_sql::parse(&input);
    }
}

/// Parsed expressions evaluate consistently with operator precedence:
/// `a + b * c` equals `a + (b * c)` computed manually.
#[test]
fn expression_precedence_semantics() {
    use polardbx_sql::{parse, Statement};
    let mut rng = rng_for("expression_precedence_semantics");
    for _ in 0..CASES {
        let (a, b, c) = (
            rng.gen_range(-100i64..100),
            rng.gen_range(-100i64..100),
            rng.gen_range(-100i64..100),
        );
        let sql = format!("SELECT {a} + {b} * {c} FROM t");
        let Statement::Select(sel) = parse(&sql).unwrap() else { unreachable!() };
        let polardbx_sql::ast::SelectItem::Expr { expr, .. } = &sel.items[0] else {
            unreachable!()
        };
        let got = expr.eval(&Row::empty()).unwrap();
        assert_eq!(got, Value::Int(a + b * c));
    }
}

/// BETWEEN is equivalent to the conjunction of its bounds.
#[test]
fn between_equals_conjunction() {
    use polardbx_sql::expr::{BinOp, Expr};
    let mut rng = rng_for("between_equals_conjunction");
    for _ in 0..CASES * 2 {
        let (v, lo, hi) = (
            rng.gen_range(-50i64..50),
            rng.gen_range(-50i64..50),
            rng.gen_range(-50i64..50),
        );
        let row = Row::new(vec![Value::Int(v)]);
        let between = Expr::Between {
            expr: Box::new(Expr::ColumnIdx(0)),
            low: Box::new(Expr::int(lo)),
            high: Box::new(Expr::int(hi)),
        };
        let conj = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Ge, Expr::ColumnIdx(0), Expr::int(lo)),
            Expr::binary(BinOp::Le, Expr::ColumnIdx(0), Expr::int(hi)),
        );
        assert_eq!(between.eval_bool(&row).unwrap(), conj.eval_bool(&row).unwrap());
    }
}

/// The vectorized columnar filter kernels agree with row-at-a-time predicate
/// evaluation for every comparison operator.
#[test]
fn columnar_filters_match_row_filters() {
    use polardbx_columnar::kernels::{filter_cmp, CmpOp};
    use polardbx_columnar::ColumnData;
    use polardbx_common::DataType;

    let mut rng = rng_for("columnar_filters_match_row_filters");
    let ops = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    for _ in 0..CASES {
        let data: Vec<Option<i64>> = (0..rng.gen_range(1..60))
            .map(|_| if rng.gen_bool(0.2) { None } else { Some(rng.gen_range(-50i64..50)) })
            .collect();
        let constant = rng.gen_range(-50i64..50);
        let op = ops[rng.gen_range(0..ops.len())];
        let mut col = ColumnData::new(DataType::Int);
        for v in &data {
            col.push(&v.map(Value::Int).unwrap_or(Value::Null)).unwrap();
        }
        let sel: Vec<u32> = (0..data.len() as u32).collect();
        let fast = filter_cmp(&col, &sel, op, &Value::Int(constant)).unwrap();
        let slow: Vec<u32> = data
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                v.is_some_and(|x| match op {
                    CmpOp::Eq => x == constant,
                    CmpOp::Neq => x != constant,
                    CmpOp::Lt => x < constant,
                    CmpOp::Le => x <= constant,
                    CmpOp::Gt => x > constant,
                    CmpOp::Ge => x >= constant,
                })
            })
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(fast, slow);
    }
}

/// A statement's shape, the plan cache's key, is literal-insensitive.
#[test]
fn fingerprint_literal_insensitive() {
    let shape = |sql: &str| polardbx_sql::lex(sql).unwrap().shape().to_owned();
    let mut rng = rng_for("fingerprint_literal_insensitive");
    for _ in 0..CASES {
        let (a, b) = (rng.gen_range(0i64..100000), rng.gen_range(0i64..100000));
        let s1 = rand_string(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 8);
        let s2 = rand_string(&mut rng, b"abcdefghijklmnopqrstuvwxyz", 8);
        assert_eq!(
            shape(&format!("SELECT * FROM t WHERE id = {a} AND name = '{s1}'")),
            shape(&format!("SELECT * FROM t WHERE id = {b} AND name = '{s2}'"))
        );
    }
}

/// `PaxosFrame::decode` never panics on arbitrary bytes — corrupt or
/// truncated network input becomes a structured error.
#[test]
fn frame_decode_never_panics() {
    let mut rng = rng_for("frame_decode_never_panics");
    for _ in 0..CASES * 5 {
        let n = rng.gen_range(0..256);
        let data: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
        let mut bytes = bytes::Bytes::from(data);
        let _ = polardbx_wal::PaxosFrame::decode(&mut bytes);
    }
}

/// Redo-record decoding never panics on arbitrary bytes either.
#[test]
fn redo_decode_never_panics() {
    let mut rng = rng_for("redo_decode_never_panics");
    for _ in 0..CASES * 5 {
        let n = rng.gen_range(0..128);
        let data: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
        let _ = polardbx_wal::RedoPayload::decode_all(bytes::Bytes::from(data));
    }
}

/// Frames round-trip through encode/decode for arbitrary payload sizes up to
/// the 16 KB cap, and corruption of any single byte is detected.
#[test]
fn frame_roundtrip_and_corruption_detection() {
    use polardbx_wal::{Mtr, PaxosFrame, RedoPayload};
    let mut rng = rng_for("frame_roundtrip_and_corruption_detection");
    for _ in 0..CASES / 2 {
        let payload_len = rng.gen_range(1usize..2048);
        let epoch: u64 = rng.gen();
        let corrupt_at: usize = rng.gen();
        let mtr = Mtr::single(RedoPayload::Insert {
            trx: TrxId(1),
            table: polardbx_common::TableId(1),
            key: Key::encode(&[Value::Int(1)]),
            row: bytes::Bytes::from(vec![0xAB; payload_len]),
        });
        let frame = PaxosFrame::from_mtrs(epoch, 0, polardbx_common::Lsn(0), &[mtr]);
        let wire = frame.encode();
        let mut ok = wire.clone();
        assert_eq!(PaxosFrame::decode(&mut ok).unwrap(), frame);
        // Flip one payload byte: checksum must catch it.
        let mut corrupted = wire.to_vec();
        let idx = polardbx_wal::FRAME_HEADER_LEN + corrupt_at % payload_len.max(1);
        if idx < corrupted.len() {
            corrupted[idx] ^= 0x01;
            let mut b = bytes::Bytes::from(corrupted);
            assert!(PaxosFrame::decode(&mut b).is_err());
        }
    }
}

// ------------------------------------------------------------------------
// Engine differential tests: the AP engine (`MppExecutor`, morsel-driven
// batches) must be row-for-row equivalent to the row engine
// (`execute_plan`) on randomized tables and plans — including NULL group/join keys, mixed
// types, empty and heavily skewed partitions, and error cases.

fn diff_rand_pred(rng: &mut StdRng, width: usize, str_col: usize) -> polardbx_sql::expr::Expr {
    use polardbx_sql::expr::{BinOp, Expr};
    let cmp_ops = [BinOp::Eq, BinOp::Neq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
    match rng.gen_range(0..8) {
        0 => {
            // Column ⊗ literal, sometimes flipped, sometimes type-mismatched
            // (both engines must agree on "cannot compare" errors too).
            let col = Expr::ColumnIdx(rng.gen_range(0..width));
            let lit = match rng.gen_range(0..5) {
                0 => Expr::Literal(Value::Double(rng.gen_range(-30.0..30.0))),
                1 => Expr::Literal(Value::Str(rand_string(rng, b"abc", 2))),
                2 => Expr::Literal(Value::Null),
                _ => Expr::int(rng.gen_range(-40..40)),
            };
            let op = cmp_ops[rng.gen_range(0..cmp_ops.len())];
            if rng.gen_bool(0.3) {
                Expr::binary(op, lit, col)
            } else {
                Expr::binary(op, col, lit)
            }
        }
        1 => {
            let lo = rng.gen_range(-40..20);
            Expr::Between {
                expr: Box::new(Expr::ColumnIdx(rng.gen_range(0..width))),
                low: Box::new(Expr::int(lo)),
                high: Box::new(Expr::int(lo + rng.gen_range(0..40))),
            }
        }
        2 => Expr::IsNull {
            expr: Box::new(Expr::ColumnIdx(rng.gen_range(0..width))),
            negated: rng.gen_bool(0.5),
        },
        3 => {
            // LIKE over the string column (NULL operands are an error in
            // both engines); occasionally over a non-string column.
            let c = if rng.gen_bool(0.8) { str_col } else { rng.gen_range(0..width) };
            let pat = match rng.gen_range(0..3) {
                0 => format!("{}%", rand_string(rng, b"abc", 1)),
                1 => format!("%{}", rand_string(rng, b"abc", 1)),
                _ => format!("%{}%", rand_string(rng, b"abc", 1)),
            };
            Expr::Like { expr: Box::new(Expr::ColumnIdx(c)), pattern: pat }
        }
        4 => {
            // [NOT] IN over any column: Str, Int and Double members, NULL,
            // and members of another type than the column's (never equal,
            // never an error).
            let list = (0..rng.gen_range(1..5))
                .map(|_| match rng.gen_range(0..5) {
                    0 => Expr::Literal(Value::Str(rand_string(rng, b"abc", 2))),
                    1 => Expr::Literal(Value::Double(rng.gen_range(-6..6) as f64 * 0.5)),
                    2 => Expr::Literal(Value::Null),
                    _ => Expr::int(rng.gen_range(-3..40)),
                })
                .collect();
            Expr::InList {
                expr: Box::new(Expr::ColumnIdx(rng.gen_range(0..width))),
                list,
                negated: rng.gen_bool(0.3),
            }
        }
        5 => {
            // Column ⊗ column: same type, Int against Double, Str against
            // a number (an error in both engines), NULL operands.
            let op = cmp_ops[rng.gen_range(0..cmp_ops.len())];
            Expr::binary(
                op,
                Expr::ColumnIdx(rng.gen_range(0..width)),
                Expr::ColumnIdx(rng.gen_range(0..width)),
            )
        }
        _ => {
            // Conjunction (exercises in-order short-circuit semantics).
            let a = diff_rand_pred(rng, width, str_col);
            let b = diff_rand_pred(rng, width, str_col);
            Expr::binary(BinOp::And, a, b)
        }
    }
}

fn diff_rand_aggregate(
    rng: &mut StdRng,
    input: polardbx_sql::plan::LogicalPlan,
    width: usize,
) -> polardbx_sql::plan::LogicalPlan {
    use polardbx_sql::expr::{BinOp, Expr};
    // Group keys: empty (global), the NULL-laden column, or a composite.
    let group_by: Vec<Expr> = match rng.gen_range(0..4) {
        0 => vec![],
        1 => vec![Expr::ColumnIdx(1)],
        2 => vec![Expr::ColumnIdx(1), Expr::ColumnIdx(rng.gen_range(0..width))],
        _ => vec![Expr::binary(
            BinOp::Mul,
            Expr::ColumnIdx(rng.gen_range(0..2)),
            Expr::int(rng.gen_range(1..4)),
        )],
    };
    diff_rand_aggs(rng, input, group_by, width)
}

/// An aggregate over `input` grouped by `group_by`, with one to three
/// random aggregates.
fn diff_rand_aggs(
    rng: &mut StdRng,
    input: polardbx_sql::plan::LogicalPlan,
    group_by: Vec<polardbx_sql::expr::Expr>,
    width: usize,
) -> polardbx_sql::plan::LogicalPlan {
    use polardbx_sql::expr::{AggFunc, BinOp, Expr};
    use polardbx_sql::plan::{AggSpec, LogicalPlan};
    let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
    let naggs = rng.gen_range(1..4);
    let aggs: Vec<AggSpec> = (0..naggs)
        .map(|_| {
            let func = funcs[rng.gen_range(0..funcs.len())];
            let arg = match rng.gen_range(0..4) {
                0 => None,
                1 => Some(Expr::binary(
                    BinOp::Mul,
                    Expr::ColumnIdx(rng.gen_range(0..width)),
                    Expr::ColumnIdx(rng.gen_range(0..width)),
                )),
                _ => Some(Expr::ColumnIdx(rng.gen_range(0..width))),
            };
            let distinct = arg.is_some() && rng.gen_bool(0.2);
            AggSpec { func, arg, distinct }
        })
        .collect();
    let names = (0..group_by.len() + aggs.len()).map(|i| format!("c{i}")).collect();
    LogicalPlan::Aggregate { input: Box::new(input), group_by, aggs, names }
}

fn diff_rand_plan(rng: &mut StdRng, width: usize) -> polardbx_sql::plan::LogicalPlan {
    use polardbx_sql::expr::{BinOp, Expr};
    use polardbx_sql::plan::LogicalPlan;
    let scan = || LogicalPlan::Scan {
        table: "t".into(),
        schema: (0..width).map(|i| format!("t.c{i}")).collect(),
    };
    let filtered = |rng: &mut StdRng| LogicalPlan::Filter {
        input: Box::new(scan()),
        predicate: diff_rand_pred(rng, width, 3),
    };
    let base = match rng.gen_range(0..5) {
        0 => filtered(rng),
        1 => {
            // Projection mixing pass-through columns and arithmetic.
            let exprs: Vec<Expr> = (0..rng.gen_range(1..4))
                .map(|_| match rng.gen_range(0..3) {
                    0 => Expr::ColumnIdx(rng.gen_range(0..width)),
                    1 => Expr::binary(
                        BinOp::Add,
                        Expr::ColumnIdx(rng.gen_range(0..width)),
                        Expr::int(rng.gen_range(-5..5)),
                    ),
                    _ => Expr::binary(
                        BinOp::Mul,
                        Expr::ColumnIdx(rng.gen_range(0..2)),
                        Expr::ColumnIdx(rng.gen_range(0..2)),
                    ),
                })
                .collect();
            let names = (0..exprs.len()).map(|i| format!("p{i}")).collect();
            LogicalPlan::Project { input: Box::new(filtered(rng)), exprs, names }
        }
        2 => {
            let input = filtered(rng);
            diff_rand_aggregate(rng, input, width)
        }
        3 => {
            // Self-join on the NULL-laden column (NULL keys must match like
            // the row engine's encoded keys), optional residual filter.
            let filter = rng.gen_bool(0.4).then(|| {
                Expr::binary(
                    BinOp::Lt,
                    Expr::ColumnIdx(0),
                    Expr::ColumnIdx(width), // left id < right id
                )
            });
            LogicalPlan::Join {
                left: Box::new(filtered(rng)),
                right: Box::new(scan()),
                on: vec![(1, 1)],
                filter,
            }
        }
        _ => diff_rand_aggregate(rng, scan(), width),
    };
    if rng.gen_bool(0.3) {
        // Sort by every output column: group-emission order is unspecified,
        // so a limit cutting inside a tie range would be nondeterministic
        // unless equal-sorting rows are identical.
        let key_width = base.schema().len();
        let sorted = LogicalPlan::Sort {
            input: Box::new(base),
            keys: (0..key_width)
                .map(|k| (Expr::ColumnIdx(k), rng.gen_bool(0.5)))
                .collect(),
        };
        LogicalPlan::Limit { input: Box::new(sorted), n: rng.gen_range(0..30) }
    } else {
        base
    }
}

fn diff_canon(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// The same rows behind a column index: `columnar()` serves a snapshot in
/// which decoy rows and overwritten images are tombstoned, and the row
/// partitions refuse to be read — whoever gets an answer from this provider
/// got it from the index.
struct IndexedOnly {
    index: std::sync::Arc<polardbx_columnar::ColumnIndex>,
    ts: u64,
}

impl IndexedOnly {
    /// Index `rows`, then insert and delete again `padding` rows of
    /// strings no other row holds: dictionary entries no snapshot row uses.
    fn build(rng: &mut StdRng, rows: &[Row], padding: usize) -> IndexedOnly {
        use polardbx_common::DataType;
        let types = vec![DataType::Int, DataType::Int, DataType::Double, DataType::Str];
        let index = polardbx_columnar::ColumnIndex::new(types);
        let decoy =
            Row::new(vec![Value::Int(-1), Value::Int(0), Value::Double(0.25), Value::str("zz")]);
        let mut ts = 0u64;
        for (i, row) in rows.iter().enumerate() {
            let key = Key::encode(&[row.get(0).unwrap().clone()]);
            if rng.gen_bool(0.3) {
                // An older image of the same key: tombstoned by the put below.
                ts += 1;
                index.apply_put(TrxId(ts), ts, key.clone(), &decoy).unwrap();
            }
            ts += 1;
            index.apply_put(TrxId(ts), ts, key, row).unwrap();
            if rng.gen_bool(0.2) {
                // A row that is inserted and deleted again.
                let gone = Key::encode(&[Value::Int(-(i as i64) - 1)]);
                ts += 1;
                index.apply_put(TrxId(ts), ts, gone.clone(), &decoy).unwrap();
                ts += 1;
                index.writer().delete(ts, &gone);
            }
        }
        for p in 0..padding {
            let gone = Key::encode(&[Value::Int(i64::MIN + p as i64)]);
            let row = Row::new(vec![
                Value::Int(0),
                Value::Int(0),
                Value::Double(0.0),
                Value::str(format!("pad{p}")),
            ]);
            index.apply_put(TrxId(ts + 1), ts + 1, gone.clone(), &row).unwrap();
            index.writer().delete(ts + 2, &gone);
            ts += 2;
        }
        IndexedOnly { index, ts }
    }
}

impl polardbx_executor::TableProvider for IndexedOnly {
    fn scan_partition(&self, table: &str, _partition: usize) -> polardbx_common::Result<Vec<Row>> {
        Err(polardbx_common::Error::execution(format!("{table}: only the index is attached")))
    }

    fn columnar(&self, _table: &str) -> Option<polardbx_columnar::ColumnSnapshot> {
        Some(self.index.snapshot(self.ts))
    }
}

/// A string-led plan for the dictionary-coded paths: a GROUP BY on the
/// string column alone, a composite key with the string column first (TPC-H
/// Q1's shape), or a join on it, over scans filtered by string predicates.
fn diff_coded_plan(rng: &mut StdRng, width: usize) -> polardbx_sql::plan::LogicalPlan {
    use polardbx_sql::expr::{BinOp, Expr};
    use polardbx_sql::plan::LogicalPlan;
    const S: usize = 3;
    let scan = || LogicalPlan::Scan {
        table: "t".into(),
        schema: (0..width).map(|i| format!("t.c{i}")).collect(),
    };
    let lit = |rng: &mut StdRng| match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::Int(rng.gen_range(-3..3)),
        _ => Value::Str(rand_string(rng, b"abc", 3)),
    };
    let filtered = |rng: &mut StdRng| {
        let predicate = match rng.gen_range(0..5) {
            0 => {
                let ops = [BinOp::Eq, BinOp::Neq, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
                Expr::binary(ops[rng.gen_range(0..ops.len())], Expr::ColumnIdx(S), Expr::Literal(lit(rng)))
            }
            1 => Expr::Between {
                expr: Box::new(Expr::ColumnIdx(S)),
                low: Box::new(Expr::Literal(lit(rng))),
                high: Box::new(Expr::Literal(lit(rng))),
            },
            2 => Expr::InList {
                expr: Box::new(Expr::ColumnIdx(S)),
                list: (0..rng.gen_range(1..4)).map(|_| Expr::Literal(lit(rng))).collect(),
                negated: rng.gen_bool(0.3),
            },
            3 => Expr::Like {
                expr: Box::new(Expr::ColumnIdx(S)),
                pattern: format!("{}%", rand_string(rng, b"abc", 1)),
            },
            _ => Expr::IsNull { expr: Box::new(Expr::ColumnIdx(S)), negated: true },
        };
        LogicalPlan::Filter { input: Box::new(scan()), predicate }
    };
    let input = if rng.gen_bool(0.5) { filtered(rng) } else { scan() };
    match rng.gen_range(0..3) {
        0 => diff_rand_aggs(rng, input, vec![Expr::ColumnIdx(S)], width),
        1 => {
            let second = Expr::ColumnIdx(rng.gen_range(0..width));
            diff_rand_aggs(rng, input, vec![Expr::ColumnIdx(S), second], width)
        }
        _ => LogicalPlan::Join {
            left: Box::new(input),
            right: Box::new(if rng.gen_bool(0.5) { filtered(rng) } else { scan() }),
            on: vec![(S, S)],
            filter: rng
                .gen_bool(0.4)
                .then(|| Expr::binary(BinOp::Lt, Expr::ColumnIdx(0), Expr::ColumnIdx(width))),
        },
    }
}

/// Join shapes for the lane join: an aggregate grouping on both sides of
/// a join (with a CASE argument over both sides), a join whose build side
/// is a join (TPC-H Q3's), two-column keys, keys of NULLs and of Int
/// against Double (SQL-equal values that are never the same key), and
/// residual filters that read both sides.
fn diff_join_plan(rng: &mut StdRng, width: usize) -> polardbx_sql::plan::LogicalPlan {
    use polardbx_sql::expr::{AggFunc, BinOp, Expr};
    use polardbx_sql::plan::{AggSpec, LogicalPlan};
    let scan = || LogicalPlan::Scan {
        table: "t".into(),
        schema: (0..width).map(|i| format!("t.c{i}")).collect(),
    };
    let side = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            LogicalPlan::Filter { input: Box::new(scan()), predicate: diff_rand_pred(rng, width, 3) }
        } else {
            scan()
        }
    };
    let c = Expr::ColumnIdx;
    // A residual over `left` columns of one side and `width` of the other.
    let residual = |rng: &mut StdRng, left: usize| match rng.gen_range(0..5) {
        0 => None,
        1 => Some(Expr::binary(BinOp::Lt, c(0), c(left))),
        // Double against Double, or against the other side's Int.
        2 => Some(Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Lt, c(2), c(left + rng.gen_range(1..3))),
            Expr::IsNull { expr: Box::new(c(left + 3)), negated: false },
        )),
        3 => Some(Expr::binary(BinOp::Neq, c(3), c(left + 3))),
        _ => Some(Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Add, c(1), c(left + 1)),
            Expr::int(rng.gen_range(-2..2)),
        )),
    };
    let on = match rng.gen_range(0..4) {
        0 => vec![(1, 1)],
        1 => vec![(1, 2)],
        2 => vec![(1, 1), (3, 3)],
        _ => vec![(2, 2), (1, 1)],
    };
    let join = LogicalPlan::Join {
        left: Box::new(side(rng)),
        right: Box::new(side(rng)),
        on,
        filter: residual(rng, width),
    };
    let plan = match rng.gen_range(0..3) {
        0 => join,
        1 => {
            // The build side is the join; the outer key is an id of either
            // of its sides.
            let key = if rng.gen_bool(0.5) { 0 } else { width };
            LogicalPlan::Join {
                left: Box::new(join),
                right: Box::new(side(rng)),
                on: vec![(key, 0)],
                filter: residual(rng, 2 * width),
            }
        }
        _ => {
            let group_by = vec![c(rng.gen_range(0..width)), c(width + rng.gen_range(0..width))];
            let mut plan = diff_rand_aggs(rng, join, group_by, 2 * width);
            if let LogicalPlan::Aggregate { aggs, names, .. } = &mut plan {
                // TPC-H Q8 / Q12 / Q14's argument: a CASE over both sides
                // whose arms may differ in type (Double, Int, NULL).
                let arm = |rng: &mut StdRng| match rng.gen_range(0..4) {
                    0 => Expr::Literal(Value::Null),
                    1 => Expr::int(rng.gen_range(0..3)),
                    2 => Expr::binary(BinOp::Mul, c(2), Expr::binary(BinOp::Sub, Expr::int(1), c(width + 2))),
                    _ => Expr::binary(BinOp::Add, c(1), c(width)),
                };
                let when = (0..rng.gen_range(1..3))
                    .map(|_| (diff_rand_pred(rng, 2 * width, 3), arm(rng)))
                    .collect();
                let otherwise = rng.gen_bool(0.7).then(|| Box::new(arm(rng)));
                let funcs = [AggFunc::Sum, AggFunc::Count, AggFunc::Avg, AggFunc::Max];
                let func = funcs[rng.gen_range(0..funcs.len())];
                aggs.push(AggSpec { func, arg: Some(Expr::Case { when, otherwise }), distinct: false });
                names.push(format!("c{}", names.len()));
            }
            plan
        }
    };
    if rng.gen_bool(0.3) {
        // Sort by every output column, so a limit inside a tie range cuts
        // identical rows.
        let key_width = plan.schema().len();
        let sorted = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: (0..key_width).map(|k| (c(k), rng.gen_bool(0.5))).collect(),
        };
        LogicalPlan::Limit { input: Box::new(sorted), n: rng.gen_range(0..30) }
    } else {
        plan
    }
}

/// Rows of the differential's shape `(id, g, d, s)` for the loops that
/// only large or skewed inputs reach: `n` rows — past one morsel when
/// `n > MORSEL_ROWS` — whose last `run` rows repeat one group key and one
/// string, as appended rows do, ids whose Int sums come near 2^53 (exact
/// in any order), and an all-NULL `d` when `null_args`.
fn diff_shape_rows(rng: &mut StdRng, n: usize, run: usize, null_args: bool) -> Vec<Row> {
    const NEAR: i64 = 700_000_000_000;
    (0..n)
        .map(|i| {
            let appended = i >= n - run;
            Row::new(vec![
                Value::Int(NEAR + i as i64),
                match (appended, rng.gen_bool(0.1)) {
                    (true, _) => Value::Int(2),
                    (false, true) => Value::Null,
                    (false, false) => Value::Int(rng.gen_range(-3..3)),
                },
                match null_args {
                    true => Value::Null,
                    false => Value::Double(rng.gen_range(-40..40) as f64 * 0.5),
                },
                match appended {
                    true => Value::str("no"),
                    false => Value::Str(rand_string(rng, b"abc", 2)),
                },
            ])
        })
        .collect()
}

/// Serves table `t` from a column index and table `u` from row partitions:
/// a join of the two compares strings of different dictionaries.
struct IndexAndRows {
    t: IndexedOnly,
    u: polardbx_executor::operators::MemTables,
}

impl polardbx_executor::TableProvider for IndexAndRows {
    fn partitions(&self, table: &str) -> usize {
        self.u.partitions(table)
    }

    fn scan_partition(&self, table: &str, partition: usize) -> polardbx_common::Result<Vec<Row>> {
        self.u.scan_partition(table, partition)
    }

    fn columnar(&self, table: &str) -> Option<polardbx_columnar::ColumnSnapshot> {
        (table == "t").then(|| self.t.index.snapshot(self.t.ts))
    }
}

/// The AP engine is equivalent to the row engine on randomized plans over
/// mixed-type data with NULLs — identical result multisets when both
/// succeed, and agreement on failure — serial and fanned out, over the row
/// partitions and over the same rows served by a column index (typed
/// `Lane::from_column` lanes, tombstoned ids behind the selection). Each
/// case also runs a string-led plan ([`diff_coded_plan`]) and a join plan
/// ([`diff_join_plan`]), and the index's dictionary is padded with unused
/// entries in half the cases, so string kernels and group keys run both
/// once per entry and once per row.
#[test]
fn vectorized_engine_matches_row_engine() {
    use polardbx_executor::operators::MemTables;
    use polardbx_executor::{execute_plan, ExecCtx, MppExecutor, TableProvider};
    use std::sync::Arc;

    let width = 4;
    for seed in 0..3 {
        let mut rng = rng_for(&format!("vectorized_engine_matches_row_engine/{seed}"));
        // String-led plans, join plans and dictionary padding draw from
        // their own streams, so the cases the main stream draws stay as
        // they were.
        let mut coded = rng_for(&format!("vectorized_engine_matches_row_engine/coded/{seed}"));
        let mut joins = rng_for(&format!("vectorized_engine_matches_row_engine/joins/{seed}"));
        for case in 0..CASES {
            // Random partitioning: empty partitions and size skew included.
            let nparts = rng.gen_range(1..5);
            let mut id = 0i64;
            let parts: Vec<Vec<Row>> = (0..nparts)
                .map(|p| {
                    let n = if p == 0 { rng.gen_range(0..90) } else { rng.gen_range(0..30) };
                    (0..n)
                        .map(|_| {
                            id += 1;
                            Row::new(vec![
                                Value::Int(id),
                                if rng.gen_bool(0.2) {
                                    Value::Null
                                } else {
                                    Value::Int(rng.gen_range(-3..3))
                                },
                                if rng.gen_bool(0.15) {
                                    Value::Null
                                } else {
                                    Value::Double((rng.gen_range(-40..40) as f64) * 0.5)
                                },
                                if rng.gen_bool(0.15) {
                                    Value::Null
                                } else {
                                    Value::Str(rand_string(&mut rng, b"abc", 3))
                                },
                            ])
                        })
                        .collect()
                })
                .collect();
            let all_rows: Vec<Row> = parts.iter().flatten().cloned().collect();
            // No padding (at most 41 entries: at or under most scans.
            // rows), or more entries than any case has rows.
            let padding = if coded.gen_bool(0.5) { 0 } else { coded.gen_range(200..400) };
            let indexed: Arc<dyn TableProvider> =
                Arc::new(IndexedOnly::build(&mut rng, &all_rows, padding));
            let mut mem = MemTables::new();
            mem.add("t", parts);
            let mem: Arc<dyn TableProvider> = Arc::new(mem);
            let plan = diff_rand_plan(&mut rng, width);
            let ctx = ExecCtx::unrestricted();
            let shapes = [plan, diff_coded_plan(&mut coded, width), diff_join_plan(&mut joins, width)];
            for plan in shapes {
                let slow = execute_plan(&plan, mem.as_ref(), &ctx);
                for (source, provider) in [("partitions", &mem), ("index", &indexed)] {
                    for workers in [1, 4] {
                        let fast = MppExecutor::new(workers).execute(&plan, provider, &ctx);
                        match (&slow, fast) {
                            (Ok(s), Ok(f)) => assert_eq!(
                                diff_canon(s),
                                diff_canon(&f),
                                "seed {seed} case {case}, {source}, {workers} workers, \
                                 padding {padding}: {plan:?}"
                            ),
                            (Err(_), Err(_)) => {}
                            (s, f) => panic!(
                                "seed {seed} case {case}, {source}, {workers} workers, \
                                 padding {padding}: engines disagree: {s:?} vs {f:?}\nplan: {plan:?}"
                            ),
                        }
                    }
                }
            }
        }
    }
    vectorized_engine_matches_row_engine_on_shapes();
}

/// The shapes [`vectorized_engine_matches_row_engine`] adds to its random
/// cases: aggregates over more rows than one morsel holds, over long runs
/// of one group key, over all-NULL arguments and over Int sums near 2^53;
/// row scans of many tiny partitions packed into one task and of a
/// partition past a morsel split off its task; joins on duplicate and NULL
/// keys, on two columns, and on strings whose two sides are coded by
/// different dictionaries.
fn vectorized_engine_matches_row_engine_on_shapes() {
    use polardbx_executor::operators::MemTables;
    use polardbx_executor::{execute_plan, ExecCtx, MppExecutor, TableProvider};
    use polardbx_sql::expr::{AggFunc, Expr};
    use polardbx_sql::plan::{AggSpec, LogicalPlan};
    use std::sync::Arc;

    let width = 4;
    let c = Expr::ColumnIdx;
    let scan = |table: &str| LogicalPlan::Scan {
        table: table.into(),
        schema: (0..width).map(|i| format!("{table}.c{i}")).collect(),
    };
    let numeric = |arg: usize| {
        [AggFunc::Sum, AggFunc::Avg, AggFunc::Count, AggFunc::Min, AggFunc::Max]
            .into_iter()
            .map(move |func| AggSpec { func, arg: Some(Expr::ColumnIdx(arg)), distinct: false })
    };
    let aggregate = |input: LogicalPlan, group_by: Vec<Expr>| {
        let aggs: Vec<AggSpec> = numeric(0)
            .chain(numeric(2))
            .chain([AggSpec { func: AggFunc::Count, arg: None, distinct: false }])
            .collect();
        let names = (0..group_by.len() + aggs.len()).map(|i| format!("c{i}")).collect();
        LogicalPlan::Aggregate { input: Box::new(input), group_by, aggs, names }
    };
    let join = |left: &str, right: &str, on: Vec<(usize, usize)>| LogicalPlan::Join {
        left: Box::new(scan(left)),
        right: Box::new(scan(right)),
        on,
        filter: None,
    };
    let ctx = ExecCtx::unrestricted();
    for seed in 0..2 {
        let mut rng = rng_for(&format!("vectorized_engine_matches_row_engine/shapes/{seed}"));
        // Aggregates: past a morsel, in runs, over NULL arguments.
        let big = polardbx_executor::morsel::MORSEL_ROWS + rng.gen_range(100..4000);
        for (n, run, null_args) in [(big, big / 2, false), (big, 300, true), (400, 390, false)] {
            let rows = diff_shape_rows(&mut rng, n, run, null_args);
            let indexed: Arc<dyn TableProvider> = Arc::new(IndexedOnly::build(&mut rng, &rows, 0));
            let mut mem = MemTables::new();
            let cut = rng.gen_range(0..n);
            mem.add("t", vec![rows[..cut].to_vec(), rows[cut..].to_vec()]);
            let mem: Arc<dyn TableProvider> = Arc::new(mem);
            let plans = [
                aggregate(scan("t"), vec![c(1)]),
                aggregate(scan("t"), vec![c(3)]),
                aggregate(scan("t"), vec![c(3), c(1)]),
                aggregate(scan("t"), vec![]),
            ];
            for plan in &plans {
                let slow = execute_plan(plan, mem.as_ref(), &ctx).unwrap();
                for (source, provider) in [("partitions", &mem), ("index", &indexed)] {
                    for workers in [1, 4] {
                        let fast = MppExecutor::new(workers).execute(plan, provider, &ctx).unwrap();
                        assert_eq!(
                            diff_canon(&slow),
                            diff_canon(&fast),
                            "shapes seed {seed}, {n} rows, run {run}, {source}, {workers} workers: {plan:?}"
                        );
                    }
                }
            }
        }
        // Row scans packed and split: many tiny partitions, a fourth of
        // them empty, that pack into one morsel task; and one partition
        // past a morsel among small ones, whose task splits its surplus.
        let morsel = polardbx_executor::morsel::MORSEL_ROWS;
        let tiny = diff_shape_rows(&mut rng, 120, 7, false);
        let mut rest = &tiny[..];
        let mut tiny_parts: Vec<Vec<Row>> = (0..40)
            .map(|p| {
                let n = if p % 4 == 3 { 0 } else { rng.gen_range(0..=6).min(rest.len()) };
                let (part, more) = rest.split_at(n);
                rest = more;
                part.to_vec()
            })
            .collect();
        tiny_parts.push(rest.to_vec());
        let big = diff_shape_rows(&mut rng, morsel + 500, 200, false);
        let (head, tail) = (&big[..50], &big[morsel + 300..]);
        let skewed_parts = vec![head.to_vec(), big[50..morsel + 300].to_vec(), tail.to_vec(), vec![]];
        for parts in [tiny_parts, skewed_parts] {
            let nparts = parts.len();
            let mut mem = MemTables::new();
            mem.add("t", parts);
            let mem: Arc<dyn TableProvider> = Arc::new(mem);
            let plans = [
                scan("t"),
                aggregate(scan("t"), vec![c(1)]),
                aggregate(scan("t"), vec![c(3), c(1)]),
                aggregate(scan("t"), vec![]),
            ];
            for plan in &plans {
                let slow = execute_plan(plan, mem.as_ref(), &ctx).unwrap();
                for workers in [1, 4] {
                    let fast = MppExecutor::new(workers).execute(plan, &mem, &ctx).unwrap();
                    assert_eq!(
                        diff_canon(&slow),
                        diff_canon(&fast),
                        "shapes seed {seed}, {nparts} partitions, {workers} workers: {plan:?}"
                    );
                }
            }
        }
        // Joins: duplicate and NULL keys (g), two columns, and strings of
        // two dictionaries (`t` from the index, `u` from rows).
        let t_rows = diff_shape_rows(&mut rng, 300, 40, false);
        let u_rows = diff_shape_rows(&mut rng, 200, 30, false);
        let mut mem = MemTables::new();
        mem.add("t", vec![t_rows.clone()]);
        mem.add("u", vec![u_rows[..100].to_vec(), u_rows[100..].to_vec()]);
        let mem: Arc<dyn TableProvider> = Arc::new(mem);
        let mut u = MemTables::new();
        u.add("u", vec![u_rows[..100].to_vec(), u_rows[100..].to_vec()]);
        let both: Arc<dyn TableProvider> =
            Arc::new(IndexAndRows { t: IndexedOnly::build(&mut rng, &t_rows, 50), u });
        let plans = [
            join("t", "u", vec![(1, 1)]),
            join("u", "t", vec![(1, 1), (3, 3)]),
            join("t", "u", vec![(3, 3)]),
            join("u", "t", vec![(3, 3)]),
            join("u", "u", vec![(3, 3), (1, 1)]),
        ];
        for plan in &plans {
            let slow = execute_plan(plan, mem.as_ref(), &ctx).unwrap();
            for (source, provider) in [("partitions", &mem), ("index and rows", &both)] {
                for workers in [1, 4] {
                    let fast = MppExecutor::new(workers).execute(plan, provider, &ctx).unwrap();
                    assert_eq!(
                        diff_canon(&slow),
                        diff_canon(&fast),
                        "shapes seed {seed}, {source}, {workers} workers: {plan:?}"
                    );
                }
            }
        }
    }
}

// ------------------------------------------------------------------------
/// Morsel-driven MPP execution on the persistent pool matches serial
/// execution on integer-only data (exact in any merge order), including
/// NULL group/join keys, skewed and empty partitions.
#[test]
fn mpp_vectorized_matches_serial_on_skewed_partitions() {
    use polardbx_executor::operators::MemTables;
    use polardbx_executor::{execute_plan, ExecCtx, MppExecutor, WorkloadManager};
    use std::sync::Arc;

    let mut rng = rng_for("mpp_vectorized_matches_serial_on_skewed_partitions");
    let width = 3;
    let pool = WorkloadManager::new(4, 1.0, 1.0);
    let mpp = MppExecutor::with_pool(4, pool);
    for case in 0..CASES / 4 {
        // Heavy skew: partition 0 carries most rows; some partitions empty.
        let nparts = rng.gen_range(2..6);
        let mut id = 0i64;
        let parts: Vec<Vec<Row>> = (0..nparts)
            .map(|p| {
                let n = if p == 0 { rng.gen_range(200..600) } else { rng.gen_range(0..60) };
                (0..n)
                    .map(|_| {
                        id += 1;
                        Row::new(vec![
                            Value::Int(id),
                            if rng.gen_bool(0.2) {
                                Value::Null
                            } else {
                                Value::Int(rng.gen_range(-4..4))
                            },
                            Value::Int(rng.gen_range(-100..100)),
                        ])
                    })
                    .collect()
            })
            .collect();
        let mut mem = MemTables::new();
        mem.add("t", parts);
        let provider: Arc<dyn polardbx_executor::TableProvider> = Arc::new(mem);
        let plan = diff_rand_plan(&mut rng, width);
        let ctx = ExecCtx::unrestricted();
        let slow = execute_plan(&plan, provider.as_ref(), &ctx);
        let fast = mpp.execute(&plan, &provider, &ctx);
        match (slow, fast) {
            (Ok(s), Ok(f)) => {
                assert_eq!(diff_canon(&s), diff_canon(&f), "case {case}: {plan:?}")
            }
            (Err(_), Err(_)) => {}
            (s, f) => panic!("case {case}: engines disagree on success: {s:?} vs {f:?}\nplan: {plan:?}"),
        }
    }
}

// ------------------------------------------------------------------------
/// One hole of a seeded statement shape: what kind of literal goes there.
#[derive(Clone, Copy)]
enum Hole {
    Int,
    Double,
    Str,
}

impl Hole {
    fn draw(self, rng: &mut StdRng) -> String {
        match self {
            Hole::Int => rng.gen_range(-6i64..66).to_string(),
            Hole::Double => format!("{:.1}", rng.gen_range(-12i64..12) as f64 * 0.5),
            Hole::Str => format!("'{}'", rand_string(rng, b"abc", 3)),
        }
    }
}

/// A seeded SELECT shape over `t(id, a, b, c)`: its text with `{}` holes,
/// and the kind of each hole. A `LIKE` pattern or a `LIMIT` is drawn once
/// per shape, as part of its text: they are structural, so every binding
/// of the shape after the first is a plan-cache hit.
fn rand_shape(rng: &mut StdRng) -> (String, Vec<Hole>) {
    let ops = ["=", "!=", "<", "<=", ">", ">="];
    let mut holes = Vec::new();
    let atom = |rng: &mut StdRng, holes: &mut Vec<Hole>| -> String {
        let op = ops[rng.gen_range(0..ops.len())];
        match rng.gen_range(0..10) {
            0 => {
                holes.push(Hole::Int);
                "id = {}".to_string()
            }
            1 => {
                holes.extend([Hole::Int, Hole::Int]);
                "id IN ({}, {})".to_string()
            }
            2 => {
                holes.extend([Hole::Int, Hole::Int]);
                "id >= {} AND id < {}".to_string()
            }
            3 => {
                holes.push(Hole::Int);
                format!("a {op} {{}}")
            }
            4 => {
                holes.push(Hole::Double);
                format!("b {op} {{}}")
            }
            5 => {
                holes.push(Hole::Str);
                format!("c {op} {{}}")
            }
            6 => {
                holes.extend([Hole::Int, Hole::Int]);
                "a BETWEEN {} AND {}".to_string()
            }
            7 => {
                holes.extend([Hole::Int, Hole::Double]);
                format!("NOT (a + {{}} {op} b - {{}})")
            }
            // LIKE errs on NULL; AND evaluates left to right.
            8 => format!("(c IS NOT NULL AND c LIKE '{}%')", rand_string(rng, b"abc", 2)),
            _ => {
                holes.extend([Hole::Int, Hole::Str]);
                "a IN ({}, 3) OR c IS NULL AND c != {}".to_string()
            }
        }
    };
    let mut predicate = atom(rng, &mut holes);
    for _ in 0..rng.gen_range(0..3) {
        let join = if rng.gen_bool(0.7) { "AND" } else { "OR" };
        predicate = format!("({predicate}) {join} {}", atom(rng, &mut holes));
    }
    let text = match rng.gen_range(0..3) {
        0 => format!("SELECT id, a, b, c FROM t WHERE {predicate}"),
        1 => format!(
            "SELECT id, c FROM t WHERE {predicate} ORDER BY id LIMIT {}",
            rng.gen_range(1..8)
        ),
        _ => format!("SELECT COUNT(*), SUM(a), MAX(c) FROM t WHERE {predicate}"),
    };
    (text, holes)
}

/// The plan cache is transparent. Seeded WHERE shapes, each with several
/// bindings, run interleaved on one cluster, so every binding after the
/// first of its shape binds into a cached template; each answer must equal
/// the uncached reference, `execute_plan(build_plan(parse(sql)))` over
/// `MemTables` holding the same rows.
#[test]
fn cached_plans_answer_like_the_uncached_reference() {
    use polardbx::{ClusterConfig, PolarDbx};
    use polardbx_common::DcId;
    use polardbx_executor::operators::MemTables;
    use polardbx_executor::{execute_plan, ExecCtx};
    use polardbx_sql::Statement;

    const SHAPES: usize = 40;
    const BINDINGS: usize = 4;
    let mut rng = rng_for("cached_plans_answer_like_the_uncached_reference");
    let db = PolarDbx::build(ClusterConfig { default_shards: 4, ..Default::default() }).unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE t (id BIGINT NOT NULL, a BIGINT, b DOUBLE, c VARCHAR, PRIMARY KEY (id))")
        .unwrap();
    let rows: Vec<Row> = (0..60)
        .map(|id| {
            let null = |rng: &mut StdRng| rng.gen_bool(0.15);
            Row::new(vec![
                Value::Int(id),
                if null(&mut rng) { Value::Null } else { Value::Int(rng.gen_range(-5..6)) },
                if null(&mut rng) {
                    Value::Null
                } else {
                    Value::Double(rng.gen_range(-10i64..10) as f64 * 0.5)
                },
                if null(&mut rng) {
                    Value::Null
                } else {
                    Value::Str(rand_string(&mut rng, b"abc", 3))
                },
            ])
        })
        .collect();
    let sql_value = |v: &Value| match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Double(d) => format!("{d:.1}"),
        Value::Str(s) => format!("'{s}'"),
        other => unreachable!("{other:?}"),
    };
    let values: Vec<String> = rows
        .iter()
        .map(|r| format!("({})", r.values().iter().map(sql_value).collect::<Vec<_>>().join(", ")))
        .collect();
    s.execute(&format!("INSERT INTO t (id, a, b, c) VALUES {}", values.join(", "))).unwrap();
    let mut mem = MemTables::new();
    mem.add("t", vec![rows]);

    let shapes: Vec<(String, Vec<Hole>)> = (0..SHAPES).map(|_| rand_shape(&mut rng)).collect();
    let ctx = ExecCtx::unrestricted();
    let mut answered = 0;
    for binding in 0..BINDINGS {
        for (shape, holes) in &shapes {
            let mut sql = shape.clone();
            for hole in holes {
                sql = sql.replacen("{}", &hole.draw(&mut rng), 1);
            }
            let Statement::Select(sel) = polardbx_sql::parse(&sql).unwrap() else {
                unreachable!()
            };
            let reference = polardbx_sql::build_plan(&sel, db.gms().as_ref())
                .and_then(|plan| execute_plan(&plan, &mem, &ctx));
            match (s.query(&sql), reference) {
                (Ok(cached), Ok(reference)) => {
                    answered += !cached.is_empty() as usize;
                    assert_eq!(
                        diff_canon(&cached),
                        diff_canon(&reference),
                        "binding {binding}: {sql}"
                    )
                }
                (Err(_), Err(_)) => {}
                (cached, reference) => {
                    panic!("binding {binding}: {sql}: {cached:?} vs {reference:?}")
                }
            }
        }
    }
    // Most statements find rows: the comparison is not of empty answers.
    assert!(answered >= SHAPES * BINDINGS / 2, "only {answered} non-empty answers");
    db.shutdown();
}
