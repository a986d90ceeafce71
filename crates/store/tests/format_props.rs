//! Property tests for the `pa-store/csr/v2` format: serialize → (mmap)
//! → deserialize is the identity on arbitrary blocks, and damaged files —
//! truncation anywhere, a flipped payload bit — surface as *named* errors,
//! never as UB or silently zeroed rows.

use proptest::prelude::*;

use pa_mdp::{Choice, CsrSource};
use pa_store::{StoreError, StoreWriter, StoredCsr};

/// An arbitrary small model as nested rows: per state, a list of choices,
/// each a cost in {0,1} and a normalized support over the state ids.
fn arb_rows(max_states: usize) -> impl Strategy<Value = Vec<Vec<Choice>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                0u32..=1,
                prop::collection::vec((0usize..max_states, 1u32..=8), 1..4),
            ),
            0..4,
        ),
        1..max_states + 1,
    )
    .prop_map(|rows| {
        let n = rows.len();
        rows.into_iter()
            .map(|choices| {
                choices
                    .into_iter()
                    .map(|(cost, support)| {
                        let total: u32 = support.iter().map(|&(_, w)| w).sum();
                        let transitions = support
                            .into_iter()
                            .map(|(t, w)| (t % n, f64::from(w) / f64::from(total)))
                            .collect();
                        Choice { cost, transitions }
                    })
                    .collect()
            })
            .collect()
    })
}

fn write_store(
    dir: &std::path::Path,
    rows: &[Vec<Choice>],
    block_bytes: usize,
) -> pa_store::StoreFile {
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("model.pacsr");
    let mut w = StoreWriter::create(&path, 0, block_bytes).unwrap();
    let mut choices = 0u64;
    let mut trans = 0u64;
    for (id, cs) in rows.iter().enumerate() {
        choices += cs.len() as u64;
        trans += cs.iter().map(|c| c.transitions.len() as u64).sum::<u64>();
        w.push_row(id, cs).unwrap();
    }
    w.finish(&[0], choices, trans).unwrap()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pa-store-props-{}-{tag}", std::process::id()))
}

proptest! {
    /// Round trip: every row read back from disk equals what was written,
    /// for a block size small enough to split most cases multi-block.
    #[test]
    fn round_trip_is_identity(rows in arb_rows(24)) {
        let dir = tmpdir("roundtrip");
        let file = write_store(&dir, &rows, 256);
        let stored = StoredCsr::new(file, u64::MAX);
        prop_assert_eq!(CsrSource::num_states(&stored), rows.len());
        let mut seen = vec![false; rows.len()];
        for b in 0..stored.num_blocks() {
            stored.with_rows(b, &mut |r| {
                for s in r.states() {
                    seen[s] = true;
                    let want = &rows[s];
                    let cr = r.choice_range(s);
                    assert_eq!(cr.len(), want.len(), "state {s} choice count");
                    for (c, choice) in cr.zip(want) {
                        assert_eq!(r.costs[c], choice.cost);
                        let tr = r.trans_range(c);
                        assert_eq!(tr.len(), choice.transitions.len());
                        for (i, &(t, p)) in tr.zip(&choice.transitions) {
                            assert_eq!(r.targets[i] as usize, t);
                            assert_eq!(r.probs[i].to_bits(), p.to_bits());
                        }
                    }
                }
            }).unwrap();
        }
        prop_assert!(seen.iter().all(|&s| s));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating the file anywhere strictly inside it yields a named
    /// StoreError from open (or, for cuts inside a late block whose footer
    /// is gone too, still from open — the footer is always behind the cut).
    #[test]
    fn truncation_is_a_named_error(rows in arb_rows(12), frac in 0.0f64..1.0) {
        let dir = tmpdir("truncate");
        let file = write_store(&dir, &rows, 256);
        let path = file.path().to_path_buf();
        drop(file);
        let full = std::fs::read(&path).unwrap();
        let cut = ((full.len() as f64 * frac) as usize).min(full.len() - 1);
        std::fs::write(&path, &full[..cut]).unwrap();
        match pa_store::StoreFile::open(&path) {
            Err(
                StoreError::Truncated { .. }
                | StoreError::BadMagic
                | StoreError::Unsupported { .. }
                | StoreError::BadBlock { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
            Ok(_) => prop_assert!(false, "opened a truncated file"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping one bit of one block's payload is caught by the digest on
    /// page-in — a named DigestMismatch naming the block.
    #[test]
    fn corrupted_payload_is_a_digest_mismatch(rows in arb_rows(12), seed in 0usize..4096) {
        let dir = tmpdir("corrupt");
        let file = write_store(&dir, &rows, 256);
        let path = file.path().to_path_buf();
        let metas: Vec<_> = file.blocks().to_vec();
        drop(file);
        let meta = metas[seed % metas.len()];
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = meta.offset as usize + seed % meta.payload_len as usize;
        bytes[victim] ^= 1 << (seed % 8);
        std::fs::write(&path, &bytes).unwrap();
        let stored = StoredCsr::open(&path, u64::MAX).unwrap();
        let mut hit_bad_block = false;
        for b in 0..stored.num_blocks() {
            if let Err(e) = stored.with_rows(b, &mut |_| {}) {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains("digest mismatch") || msg.contains("inconsistent"),
                    "unexpected error: {msg}"
                );
                hit_bad_block = true;
            }
        }
        // The flipped bit sat in *some* block; if it was a keys block (none
        // here: key_words = 0) or exactly cancelled nothing — every block is
        // CSR, so one with_rows must have failed.
        prop_assert!(hit_bad_block, "bit flip in block payload went unnoticed");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let dir = tmpdir("magic");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.pacsr");
    std::fs::write(&path, vec![0u8; 8192]).unwrap();
    assert!(matches!(
        pa_store::StoreFile::open(&path),
        Err(StoreError::BadMagic)
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_file_is_truncated_not_a_panic() {
    let dir = tmpdir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.pacsr");
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        pa_store::StoreFile::open(&path),
        Err(StoreError::Truncated { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
