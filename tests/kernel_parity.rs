//! One kernel family, one set of bits: every analysis over a model spilled
//! to `pa-store` in several blocks — each large enough to be chunked
//! across worker threads — must equal the same analysis over the one-block
//! in-core model, bit for bit, at every worker count. A block damaged on
//! disk must surface as a named digest error, never as values.

use timebounds::core::{Automaton, Step};
use timebounds::mdp::{CsrMdp, CsrSource, Explore, Query, QueryObjective};
use timebounds::prob::FiniteDist;
use timebounds::store::SpillTo;

/// Non-target, non-trap states of the synthetic model.
const M: u64 = 14_400;
/// The single target state.
const GOAL: u64 = M;
/// An absorbing non-target state: reaching it keeps a state's minimal
/// reachability below 1 and its worst-case expected cost infinite.
const TRAP: u64 = M + 1;
/// Blocks at least this large are chunked across workers (the engines'
/// `PAR_MIN_STATES`).
const PAR_MIN_STATES: usize = 4096;

/// A forward chain, so exploration numbers states in chain order and the
/// last block holds the chain's tail. Four kinds of choices: a unit-cost
/// step that may stall in place, a zero-cost forward hop (acyclic, so the
/// best-case expectation exists), a unit-cost double step, and a
/// unit-cost gamble that may fall into the trap. The tail stalls rarely
/// and converges in fewer sweeps than the head, so a sweep that let one
/// block's residual stand for all of them would stop too early.
struct Chain;

impl Automaton for Chain {
    type State = u64;
    type Action = u8;

    fn start_states(&self) -> Vec<u64> {
        vec![0]
    }

    fn steps(&self, &s: &u64) -> Vec<Step<u64, u8>> {
        if s >= M {
            return Vec::new();
        }
        let next = |s: u64| if s + 1 < M { s + 1 } else { GOAL };
        let dist = |pairs: &[(u64, f64)]| FiniteDist::new(pairs.iter().copied()).unwrap();
        let stall = if s >= 2 * M / 3 { 0.125 } else { 0.625 };
        let mut steps = vec![Step {
            action: 0,
            target: dist(&[(GOAL, 0.125), (s, stall), (next(s), 0.875 - stall)]),
        }];
        if s % 3 == 0 && s + 2 < M {
            steps.push(Step {
                action: 1,
                target: dist(&[(s + 1, 0.5), (s + 2, 0.5)]),
            });
        }
        if s % 5 == 0 {
            steps.push(Step {
                action: 2,
                target: dist(&[(next(next(s)), 0.875), (GOAL, 0.125)]),
            });
        }
        if s % 11 == 0 {
            steps.push(Step {
                action: 3,
                target: dist(&[(TRAP, 0.5), (GOAL, 0.5)]),
            });
        }
        steps
    }
}

/// Zero-cost forward hops, unit cost otherwise.
fn cost(_: &u64, action: &u8) -> u32 {
    u32::from(*action != 1)
}

fn assert_bitwise(what: &str, expected: &[f64], got: &[f64]) {
    assert_eq!(expected.len(), got.len(), "{what}: length");
    for (s, (a, b)) in expected.iter().zip(got).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: state {s}: {a} vs {b}");
    }
}

/// Every query the kernels answer, run against `src` at `workers`.
fn answers(src: &dyn CsrSource, target: &[bool], workers: usize) -> Vec<(String, Vec<f64>)> {
    let mut out = Vec::new();
    for objective in [QueryObjective::MinProb, QueryObjective::MaxProb] {
        let bounded = Query::source(src)
            .objective(objective)
            .target(target)
            .horizon(6)
            .with_policy()
            .workers(workers)
            .run()
            .unwrap();
        let policy = bounded.policy.expect("policy requested");
        let decisions: Vec<f64> = policy
            .decision
            .iter()
            .flatten()
            .map(|d| d.map_or(-1.0, f64::from))
            .collect();
        out.push((format!("{objective:?} bounded"), bounded.values));
        out.push((format!("{objective:?} bounded policy"), decisions));
        let unbounded = Query::source(src)
            .objective(objective)
            .target(target)
            .workers(workers)
            .run()
            .unwrap();
        out.push((format!("{objective:?} unbounded"), unbounded.values));
    }
    for objective in [QueryObjective::MaxCost, QueryObjective::MinCost] {
        let cost = Query::source(src)
            .objective(objective)
            .target(target)
            .workers(workers)
            .run()
            .unwrap();
        out.push((format!("{objective:?}"), cost.values));
    }
    out
}

#[test]
fn multi_block_chunked_kernels_match_the_one_block_run_bitwise() {
    let explored = Explore::new(&Chain)
        .cost(cost)
        .limit(1_000_000)
        .run()
        .unwrap();
    let target = explored.target_where(|&s| s == GOAL);
    let in_core = CsrMdp::from_explicit(&explored.mdp);
    let expected = answers(&in_core, &target, 1);

    let dir = std::env::temp_dir().join(format!("timebounds-kernel-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = Explore::new(&Chain)
        .cost(cost)
        .limit(1_000_000)
        .spill_to(&dir, u64::MAX)
        .block_bytes(320 << 10)
        .run()
        .unwrap();
    let src = stored.store();
    assert_eq!(src.num_states(), in_core.num_states());
    assert!(src.num_blocks() >= 3, "{} blocks", src.num_blocks());
    for b in 0..src.num_blocks() {
        let states = src.block_states(b).len();
        assert!(states >= PAR_MIN_STATES, "block {b} has {states} states");
    }
    assert_eq!(stored.target_where(|&s| s == GOAL), target);

    for workers in [1, 2, 3] {
        for ((what, want), (_, got)) in expected.iter().zip(answers(src, &target, workers)) {
            assert_bitwise(&format!("{what}, workers {workers}"), want, &got);
        }
    }
    // The values must be worth comparing: neither all 0 nor all 1.
    let start = in_core.initial_states()[0];
    let min_unbounded = &expected[2].1;
    assert!(min_unbounded[start] > 0.0 && min_unbounded[start] < 1.0);
    drop(stored);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_stored_block_is_a_named_error_never_values() {
    use timebounds::store::BlockKind;

    let dir = std::env::temp_dir().join(format!("timebounds-corrupt-block-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = Explore::new(&Chain)
        .cost(cost)
        .limit(1_000_000)
        .spill_to(&dir, u64::MAX)
        .block_bytes(320 << 10)
        .run()
        .unwrap();
    let file = stored.store().file();
    let csr: Vec<_> = file
        .blocks()
        .iter()
        .filter(|b| b.kind == BlockKind::Csr)
        .collect();
    assert!(csr.len() >= 3, "{} CSR blocks", csr.len());
    // One byte in the middle of the middle block's payload; nothing has
    // been paged in yet, so the query must read the damaged bytes.
    let victim = csr[csr.len() / 2];
    let mut bytes = std::fs::read(file.path()).unwrap();
    bytes[(victim.offset + victim.payload_len / 2) as usize] ^= 0x10;
    std::fs::write(file.path(), &bytes).unwrap();

    let target = stored.target_where(|&s| s == GOAL);
    match Query::source(stored.store())
        .objective(QueryObjective::MinProb)
        .target(&target)
        .run()
    {
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("digest mismatch"), "unexpected error: {msg}");
        }
        Ok(a) => panic!("a corrupt block produced {} values", a.values.len()),
    }
    drop(stored);
    std::fs::remove_dir_all(&dir).unwrap();
}
