//! Committed reference digests. A digest folds every trial's simulated
//! results (event counts included), so any behaviour change in the
//! simulated stack moves it; re-bless by copying the `digest` line a run
//! prints.

/// The pinned default workload seed.
pub const DEFAULT_SEED: u64 = 2003;
/// The held-out seed: later claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 7741;

/// Digests of the seed-independent leading trials of each workload
/// (`standing_space` has none: its model checks every reply instead).
const PINNED: [(&str, u64); 3] = [
    ("paper_sweep", 0x37d8_545b_d57a_3c28),
    ("chaos_storm", 0x24f7_393c_a370_d274),
    ("shard_tier", 0x0bf5_3c28_b220_a5b9),
];

/// Digests of a whole full-size pass, for the default and held-out seeds.
const SEEDED: [(&str, u64, u64); 8] = [
    ("paper_sweep", DEFAULT_SEED, 0x54a1_b4b3_f3b9_bc85),
    ("paper_sweep", HELD_OUT_SEED, 0xb1cd_7c0c_46b7_79c9),
    ("chaos_storm", DEFAULT_SEED, 0x23ec_3fb8_4a44_b105),
    ("chaos_storm", HELD_OUT_SEED, 0x9661_3734_88ca_9086),
    ("shard_tier", DEFAULT_SEED, 0x100f_0d08_506a_5813),
    ("shard_tier", HELD_OUT_SEED, 0xaf6c_b5eb_2eec_3bd7),
    ("standing_space", DEFAULT_SEED, 0x88c7_37a8_4029_4989),
    ("standing_space", HELD_OUT_SEED, 0x62cc_90fc_018c_ddfe),
];

/// The committed digest of `workload`'s pinned trials.
pub fn pinned(workload: &str) -> Option<u64> {
    PINNED.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d)
}

/// The committed digest of a full pass of `workload` at `seed`.
pub fn seeded(workload: &str, seed: u64) -> Option<u64> {
    SEEDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}
