//! Message size accounting for the two communication modes of §IV-C.
//!
//! Because the exchange order per device pair is memoized at partition time
//! (the alignment of [`dirgl_partition::PairLink`]), messages never carry
//! global vertex ids:
//!
//! * **AS** (all shared, Lux's mode and D-IrGL Var1/Var2): the values of
//!   *every* participating proxy, positionally — `entries × val_bytes`.
//! * **UO** (updated only, D-IrGL Var3+): a presence bitset over the
//!   memoized order plus the extracted values —
//!   `ceil(entries / 64) × 8 + updated × val_bytes`.
//!
//! The paper's observation that UO shrank uk07 sssp messages from ~2 MB to
//! ~0.2 MB while still paying a prefix-scan extraction falls straight out
//! of these formulas plus [`dirgl_gpusim::KernelModel::scan_time`].

/// Bytes per synchronized label value. All five benchmarks synchronize one
/// 32-bit field (level, distance, component, degree delta, residual).
pub const VAL_BYTES: u64 = 4;

/// Communication mode (§IV-C "AS vs UO").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommMode {
    /// Synchronize all shared proxies every round.
    AllShared,
    /// Track updates, synchronize only updated values.
    UpdatedOnly,
}

impl CommMode {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            CommMode::AllShared => "AS",
            CommMode::UpdatedOnly => "UO",
        }
    }
}

impl std::fmt::Display for CommMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wire size of an AS message carrying `entries` positional values.
pub fn as_message_bytes(entries: u64, val_bytes: u64) -> u64 {
    entries * val_bytes
}

/// Wire size of a UO message: presence bitset over the memoized order plus
/// the `updated` extracted values.
pub fn uo_message_bytes(entries: u64, updated: u64, val_bytes: u64) -> u64 {
    debug_assert!(updated <= entries);
    entries.div_ceil(64) * 8 + updated * val_bytes
}

/// Wire size under `mode`.
pub fn message_bytes(mode: CommMode, entries: u64, updated: u64, val_bytes: u64) -> u64 {
    match mode {
        CommMode::AllShared => as_message_bytes(entries, val_bytes),
        CommMode::UpdatedOnly => uo_message_bytes(entries, updated, val_bytes),
    }
}

/// Wire size under `mode` for programs whose per-entry wire payload is not
/// a fixed [`VAL_BYTES`] — the K-lane batched path, where an AS entry
/// always carries every live lane but a UO entry carries only its active
/// lanes (`uo_payload_bytes` is the caller-summed per-entry total).
///
/// * AS: `as_payload_bytes` — the positional full-width payload.
/// * UO: the presence bitset over the memoized order plus
///   `uo_payload_bytes` of extracted values.
///
/// With both payload arguments derived from a fixed `val_bytes`, this is
/// exactly [`message_bytes`] (pinned by tests): the scalar path's
/// accounting is the `val_bytes = VAL_BYTES` special case.
pub fn message_bytes_sized(
    mode: CommMode,
    entries: u64,
    as_payload_bytes: u64,
    uo_payload_bytes: u64,
) -> u64 {
    match mode {
        CommMode::AllShared => as_payload_bytes,
        CommMode::UpdatedOnly => entries.div_ceil(64) * 8 + uo_payload_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_size_is_positional() {
        assert_eq!(as_message_bytes(1000, 4), 4000);
        assert_eq!(as_message_bytes(0, 4), 0);
    }

    #[test]
    fn uo_beats_as_when_sparse() {
        let entries = 100_000;
        let a = as_message_bytes(entries, VAL_BYTES);
        let u = uo_message_bytes(entries, 1_000, VAL_BYTES);
        assert!(u < a / 10, "uo={u} as={a}");
    }

    #[test]
    fn uo_loses_when_dense() {
        // Everything updated: UO pays the bitset on top of the values.
        let entries = 100_000;
        let a = as_message_bytes(entries, VAL_BYTES);
        let u = uo_message_bytes(entries, entries, VAL_BYTES);
        assert!(u > a);
    }

    #[test]
    fn paper_magnitudes_uk07_sssp() {
        // uk07 on 64 GPUs: ~2 MB AS messages became ~0.2 MB with UO.
        // With ~500k shared entries/pair and ~3% updated per round the
        // formulas land in that regime.
        let entries = 500_000;
        let a = as_message_bytes(entries, VAL_BYTES);
        let u = uo_message_bytes(entries, entries * 3 / 100, VAL_BYTES);
        assert!((1.5e6..3e6).contains(&(a as f64)), "as={a}");
        assert!((0.8e5..3e5).contains(&(u as f64)), "uo={u}");
    }

    #[test]
    fn sized_accounting_reduces_to_fixed_width() {
        // Scalar special case: payloads derived from VAL_BYTES reproduce
        // message_bytes exactly.
        for (entries, updated) in [(64u64, 3u64), (1000, 0), (1, 1), (130, 129)] {
            assert_eq!(
                message_bytes_sized(
                    CommMode::AllShared,
                    entries,
                    entries * VAL_BYTES,
                    updated * VAL_BYTES
                ),
                message_bytes(CommMode::AllShared, entries, updated, VAL_BYTES)
            );
            assert_eq!(
                message_bytes_sized(
                    CommMode::UpdatedOnly,
                    entries,
                    entries * VAL_BYTES,
                    updated * VAL_BYTES
                ),
                message_bytes(CommMode::UpdatedOnly, entries, updated, VAL_BYTES)
            );
        }
    }

    #[test]
    fn sized_uo_scales_with_active_lanes() {
        // A K-lane entry carries its mask word plus one value per active
        // lane: a 3-active-lane entry costs less than a 64-lane one.
        let per_entry = |active: u64| 8 + active * VAL_BYTES;
        let sparse = message_bytes_sized(CommMode::UpdatedOnly, 100, 0, 10 * per_entry(3));
        let dense = message_bytes_sized(CommMode::UpdatedOnly, 100, 0, 10 * per_entry(64));
        assert!(sparse < dense);
        assert_eq!(dense - sparse, 10 * 61 * VAL_BYTES);
    }

    #[test]
    fn mode_dispatch() {
        assert_eq!(
            message_bytes(CommMode::AllShared, 64, 3, 4),
            as_message_bytes(64, 4)
        );
        assert_eq!(
            message_bytes(CommMode::UpdatedOnly, 64, 3, 4),
            uo_message_bytes(64, 3, 4)
        );
    }
}
