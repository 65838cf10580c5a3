//! Digest-keyed result caching on top of [`lightwsp_store`].
//!
//! Every stored value implements the store's field-list [`Codec`]; the
//! record shapes below are declared with [`record_codec!`].
//! [`memo_record`] is the discipline every cached computation follows:
//! errors are never cached; a record that fails to decode is a miss
//! and is overwritten, never trusted; and wall-clocks are part of the
//! record (`f64` as bit patterns), so a warm run replays the cold
//! run's timings and `BENCH_*.json` stays byte-identical.
//!
//! Record families (the `kind` of [`StoreKey`]): `"run"`
//! ([`Campaign`](crate::Campaign)), `"crashcell"` ([`CrashCellRecord`]),
//! `"dscell"` ([`DsCellRecord`]), `"case"` ([`CaseOutcome`]),
//! `"sweeprep"` ([`SweepRecord`]), `"killmatrix"` ([`MutantKillRecord`]
//! lists), `"section"` / `"metawall"` (the bins' timing sections and
//! wall-clocks).

use crate::dsaudit::DsAuditReport;
use crate::oracle::SweepReport;
use lightwsp_model::harness::CaseOutcome;
use lightwsp_sim::CrashAuditReport;
use lightwsp_store::{record_codec, Codec, ResultStore, StoreKey};

pub use lightwsp_store::{code_digest, code_digest_from_env, digest_debug, digest_str};

/// The caching discipline: serve `key` from `store` when present and
/// decodable, otherwise compute, record on success, and return. The
/// boolean is `true` when the result came from the store. With no
/// store, always computes.
///
/// # Errors
///
/// Propagates `compute`'s error (errors are never cached).
pub fn memo_record<T: Codec, E>(
    store: Option<&ResultStore>,
    key: &StoreKey,
    compute: impl FnOnce() -> Result<T, E>,
) -> Result<(T, bool), E> {
    let Some(store) = store else {
        return compute().map(|v| (v, false));
    };
    if let Some(v) = store.get(key).and_then(|raw| T::decode(&raw).ok()) {
        return Ok((v, true));
    }
    let v = compute()?;
    store.put(key.clone(), v.encode());
    Ok((v, false))
}

/// [`memo_record`] for infallible computations.
pub fn memo_value<T: Codec>(
    store: Option<&ResultStore>,
    key: &StoreKey,
    compute: impl FnOnce() -> T,
) -> (T, bool) {
    let Ok(v) = memo_record(store, key, || Ok::<T, std::convert::Infallible>(compute()));
    v
}

record_codec! {
    /// The stored shape of one crash-audit cell: everything
    /// `crash_audit`'s report/JSON emission reads from a
    /// [`CrashAuditReport`], with violations flattened to display strings.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CrashCellRecord {
        /// Points requested.
        pub points: usize,
        /// Points that actually interrupted the run.
        pub audited: usize,
        /// Points past the end of the run.
        pub beyond_end: usize,
        /// Audited points per crash-point kind.
        pub audited_by_kind: Vec<usize>,
        /// Rendered invariant violations (empty = contract held).
        pub violations: Vec<String>,
        /// WPQ entries battery-flushed across audited failures.
        pub entries_flushed: u64,
        /// WPQ entries discarded across audited failures.
        pub entries_discarded: u64,
        /// Undo-log rollbacks applied across audited failures.
        pub undo_rolled_back: u64,
        /// Cycles of the failure-free golden run.
        pub golden_cycles: u64,
    }
}

impl From<&CrashAuditReport> for CrashCellRecord {
    fn from(r: &CrashAuditReport) -> CrashCellRecord {
        CrashCellRecord {
            points: r.points,
            audited: r.audited,
            beyond_end: r.beyond_end,
            audited_by_kind: r.audited_by_kind.to_vec(),
            violations: r.violations.iter().map(|v| v.to_string()).collect(),
            entries_flushed: r.entries_flushed,
            entries_discarded: r.entries_discarded,
            undo_rolled_back: r.undo_rolled_back,
            golden_cycles: r.golden_cycles,
        }
    }
}

record_codec! {
    /// The stored shape of one recoverable-DS audit cell (see
    /// [`DsAuditReport`]).
    #[derive(Clone, Debug, PartialEq)]
    pub struct DsCellRecord {
        /// Structure name.
        pub name: String,
        /// Points prepared.
        pub points: usize,
        /// Points audited.
        pub audited: usize,
        /// Points past the end of the run.
        pub beyond_end: usize,
        /// Audited points resumed to completion.
        pub resumed: usize,
        /// Cycles of the failure-free run.
        pub golden_cycles: u64,
        /// Generic recovery-contract violations, rendered.
        pub gate_violations: Vec<String>,
        /// Structure-invariant violations.
        pub ds_violations: Vec<String>,
    }
}

impl From<&DsAuditReport> for DsCellRecord {
    fn from(r: &DsAuditReport) -> DsCellRecord {
        DsCellRecord {
            name: r.name.clone(),
            points: r.points,
            audited: r.audited,
            beyond_end: r.beyond_end,
            resumed: r.resumed,
            golden_cycles: r.golden_cycles,
            gate_violations: r.gate_violations.iter().map(|v| v.to_string()).collect(),
            ds_violations: r.ds_violations.clone(),
        }
    }
}

impl DsCellRecord {
    /// Total violation count (gate + structure).
    pub fn violations(&self) -> usize {
        self.gate_violations.len() + self.ds_violations.len()
    }
}

record_codec! {
    /// The stored shape of a sweep: its aggregate report plus the
    /// per-case outcomes (litmus sweeps; empty for fuzz).
    #[derive(Clone, Debug, PartialEq)]
    pub struct SweepRecord {
        /// The aggregate.
        pub report: SweepReport,
        /// Per-case outcomes, in suite order.
        pub outcomes: Vec<CaseOutcome>,
    }
}

record_codec! {
    /// One row of the stored mutant kill matrix.
    #[derive(Clone, Debug, PartialEq)]
    pub struct MutantKillRecord {
        /// Mutant name (see [`crate::oracle::mutant_name`]).
        pub mutant: String,
        /// `litmus/detector` strings that flagged it.
        pub killed_by: Vec<String>,
    }
}

impl From<&crate::oracle::MutantKill> for MutantKillRecord {
    fn from(m: &crate::oracle::MutantKill) -> MutantKillRecord {
        MutantKillRecord {
            mutant: crate::oracle::mutant_name(m.mutant).to_string(),
            killed_by: m
                .killed_by
                .iter()
                .map(|(litmus, detector)| format!("{litmus}/{detector}"))
                .collect(),
        }
    }
}

impl MutantKillRecord {
    /// True if at least one litmus killed the mutant.
    pub fn killed(&self) -> bool {
        !self.killed_by.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightwsp_model::harness::MutantModelRow;

    /// Asserts `v` survives an encode/decode round trip.
    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: &T) -> T {
        let d = T::decode(&v.encode()).unwrap();
        assert_eq!(&d, v);
        d
    }

    #[test]
    fn crash_cell_roundtrip() {
        let r = CrashCellRecord {
            points: 10,
            audited: 8,
            beyond_end: 2,
            audited_by_kind: vec![1, 2, 3, 0, 1, 1],
            violations: vec!["bad\nnews".into(), "worse\ttabs".into()],
            entries_flushed: 100,
            entries_discarded: 7,
            undo_rolled_back: 3,
            golden_cycles: 123_456,
        };
        roundtrip(&r);
        assert!(CrashCellRecord::decode("points=1").is_err());
    }

    #[test]
    fn ds_cell_roundtrip() {
        let r = DsCellRecord {
            name: "kv service".into(),
            points: 500,
            audited: 480,
            beyond_end: 20,
            resumed: 24,
            golden_cycles: 9_999_999,
            gate_violations: vec![],
            ds_violations: vec!["stack-lost-op @cycle 42".into()],
        };
        assert_eq!(roundtrip(&r).violations(), 1);
    }

    #[test]
    fn sweep_record_roundtrip_with_outcomes() {
        let case = CaseOutcome {
            name: "mp+boundary".into(),
            points: 100,
            audited: 90,
            admitted: u128::from(u64::MAX) * 3,
            exact_admitted: Some(41),
            witnessed: 40,
            witnessed_cross_thread: 5,
            witnessed_buckets: vec![1, 30, 9],
            exact_buckets: Some(vec![1, 31, 9]),
            model_mutants: vec![
                MutantModelRow {
                    name: "drop_ack_order".into(),
                    count: Some(u128::from(u64::MAX) * 3),
                    killed: false,
                },
                MutantModelRow {
                    name: "unordered_prefixes".into(),
                    count: None,
                    killed: false,
                },
            ],
            model_violations: vec![],
            structural_violations: vec!["gate flushed early".into()],
        };
        assert_eq!(case.exact_delta(), u128::from(u64::MAX) * 3 - 41);
        assert!(!case.exact_fully_witnessed(), "41 exact vs 40 witnessed");
        let report = SweepReport {
            cases: 1,
            points: 100,
            audited: 90,
            admitted: case.admitted,
            exact_admitted: 41,
            witnessed: 40,
            witnessed_cross_thread: 5,
            model_violations: vec!["img outside set".into()],
            ..SweepReport::default()
        };
        let d = roundtrip(&SweepRecord {
            report,
            outcomes: vec![case],
        });
        assert_eq!(d.report.violations(), 1);
        assert!(d.report.overapprox() > 0);
    }

    #[test]
    fn case_record_roundtrip_without_exact_fields() {
        // Over-approximate sweeps carry no exact fields; the record
        // must encode and decode without them.
        let case = CaseOutcome {
            name: "plain".into(),
            points: 10,
            audited: 10,
            admitted: 7,
            exact_admitted: None,
            witnessed: 6,
            witnessed_cross_thread: 0,
            witnessed_buckets: vec![1, 5],
            exact_buckets: None,
            model_mutants: vec![],
            model_violations: vec![],
            structural_violations: vec![],
        };
        let d = roundtrip(&case);
        assert_eq!(d.exact_delta(), 0);
        assert_eq!(d.overapprox(), 1);
    }

    #[test]
    fn kill_matrix_roundtrip() {
        let rows = vec![
            MutantKillRecord {
                mutant: "FlushUnacked".into(),
                killed_by: vec!["mp/model".into(), "sb/structural".into()],
            },
            MutantKillRecord {
                mutant: "DropAck".into(),
                killed_by: vec![],
            },
        ];
        let d = roundtrip(&rows);
        assert!(d[0].killed() && !d[1].killed());
    }

    #[test]
    fn memo_value_serves_and_falls_back_on_corrupt() {
        let store = ResultStore::in_memory_with(1);
        let key = StoreKey::new("metawall", "x", "wall", 0, 0, 1);
        let (v, hit) = memo_value(Some(&store), &key, || 1.25f64);
        assert_eq!((v, hit), (1.25, false));
        assert_eq!(store.get(&key).as_deref(), Some("3ff4000000000000"));
        let (v, hit) = memo_value(Some(&store), &key, || -> f64 { unreachable!("served") });
        assert_eq!((v, hit), (1.25, true));
        // A record that fails decoding is recomputed and overwritten.
        store.put(key.clone(), "garbage".into());
        let (v, hit) = memo_value(Some(&store), &key, || 2.5f64);
        assert_eq!((v, hit), (2.5, false));
        assert_eq!(store.get(&key).as_deref(), Some("4004000000000000"));
        // Errors are never cached.
        let other = StoreKey::new("metawall", "y", "wall", 0, 0, 1);
        assert!(memo_record(Some(&store), &other, || Err::<u64, _>("failed")).is_err());
        assert_eq!(store.get(&other), None);
    }
}
