//! Cost of paging one stored block in: `StoreFile::load_block` on an
//! 8 MiB CSR block (map plus payload checksum), reported in bytes per
//! second so a change to the block format shows its verification cost
//! directly. The file is written once and stays in the page cache, as it
//! does between the sweeps of a stored query.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pa_mdp::Choice;
use pa_store::{StoreWriter, DEFAULT_BLOCK_BYTES};
use std::hint::black_box;

/// Payload bytes of one state row below: two transitions (8 + 4 bytes
/// each), one choice (cost and trans offset, 4 bytes each), one choice
/// offset.
const ROW_BYTES: usize = 2 * 12 + 2 * 4 + 4;

fn bench_page_in(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("pa-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let states = DEFAULT_BLOCK_BYTES / ROW_BYTES + 1;
    let mut w = StoreWriter::create(dir.join("page_in.pacsr"), 0, DEFAULT_BLOCK_BYTES)
        .expect("create store");
    for s in 0..states {
        let row = Choice {
            cost: 1,
            transitions: vec![((s + 1) % states, 0.5), ((s + 7) % states, 0.5)],
        };
        w.push_row(s, std::slice::from_ref(&row)).expect("push row");
    }
    let file = w
        .finish(&[0], states as u64, 2 * states as u64)
        .expect("finish store");
    assert_eq!(file.blocks().len(), 1, "one block");
    let bytes = file.blocks()[0].payload_len;
    assert!(bytes >= DEFAULT_BLOCK_BYTES as u64);

    let mut group = c.benchmark_group("store_page_in");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("load_block_8mib", |b| {
        b.iter(|| file.load_block(black_box(0)).expect("verified block"))
    });
    group.finish();
    drop(file);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

criterion_group!(benches, bench_page_in);
criterion_main!(benches);
