//! Pins the per-epoch pattern-set digests of a seeded multi-batch library
//! run. The run includes Major batches whose multi-scan swap replaces
//! patterns, so any change to candidate generation or swap scoring that
//! alters a published pattern set fails here.

use midas_core::{Midas, MidasConfig, ModificationKind, PatternSnapshot};
use midas_datagen::updates::{deletion_batch, growth_batch, novel_family_batch};
use midas_datagen::{DatasetKind, DatasetSpec, MotifKind};
use midas_graph::{io, BatchUpdate};

/// FNV-1a over epoch, database size and the serialized pattern set.
fn digest(s: &PatternSnapshot) -> u64 {
    let json = io::patterns_to_json(&s.patterns).expect("patterns serialize");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in format!("{}|{}|{json}", s.epoch, s.db_len).as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Growth, a boronic-ester wave, a deletion and a phosphate wave.
fn batches(seed: u64) -> Vec<BatchUpdate> {
    let params = DatasetKind::PubchemLike.params();
    let db = DatasetSpec::new(DatasetKind::PubchemLike, SIZE, seed)
        .generate()
        .db;
    vec![
        growth_batch(&params, 10, seed ^ 1),
        novel_family_batch(MotifKind::BoronicEster, 30, seed ^ 2),
        deletion_batch(&db, 20, seed ^ 3),
        novel_family_batch(MotifKind::Phosphate, 30, seed ^ 4),
    ]
}

const SIZE: usize = 120;

/// One seeded run: bootstrap on `SIZE` PubChem-like graphs under
/// `MidasConfig::small_defaults`, then [`batches`]. Returns the digest of
/// every published epoch and `(major, candidates, swaps)` per batch.
fn run(seed: u64) -> (Vec<u64>, Vec<(bool, usize, usize)>) {
    let db = DatasetSpec::new(DatasetKind::PubchemLike, SIZE, seed)
        .generate()
        .db;
    let config = MidasConfig {
        seed,
        epsilon: 0.01,
        ..MidasConfig::small_defaults()
    };
    let mut midas = Midas::bootstrap(db, config).expect("non-empty db");
    let mut digests = vec![digest(&midas.pattern_snapshot())];
    let mut reports = Vec::new();
    for batch in batches(seed) {
        let r = midas.apply_batch(batch);
        assert!(r.error.is_none(), "batch failed: {:?}", r.error);
        reports.push((
            r.kind == ModificationKind::Major,
            r.candidates_generated,
            r.swaps,
        ));
        digests.push(digest(&midas.pattern_snapshot()));
    }
    (digests, reports)
}

#[test]
fn seed_4_epoch_digests_are_pinned() {
    let (digests, reports) = run(4);
    assert_eq!(
        reports,
        [(false, 0, 0), (true, 35, 2), (false, 0, 0), (true, 29, 0)]
    );
    assert_eq!(
        digests,
        [
            0xe18bbb5e6d5eaf18,
            0xa7897f56fe4c4736,
            0x60baf9953d51ec45,
            0xe044127c09eb5e18,
            0x68f4119a2cd73c52,
        ]
    );
}

#[test]
fn seed_5_epoch_digests_are_pinned() {
    let (digests, reports) = run(5);
    assert_eq!(
        reports,
        [(false, 0, 0), (true, 32, 2), (false, 0, 0), (true, 16, 0)]
    );
    assert_eq!(
        digests,
        [
            0x8885faf8df4943bc,
            0x2d6cfe9a60733286,
            0xc4015864225afe4a,
            0x8031e28cd49136ef,
            0x93b9af0062c798f5,
        ]
    );
}
