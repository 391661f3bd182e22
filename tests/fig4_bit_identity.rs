//! Figure 4 through its real entry point is a pure function of
//! `(instructions, seed)`, whatever the per-thread Zipf memo holds when
//! it starts: empty (a fresh thread), the last program's table (a rerun
//! in the same thread), or a full-size table no Table 1 program uses.
//! It is also independent of the AES engine: forcing the scalar reference
//! cipher process-wide yields the same bits as the default wide path.

use obfusmem::crypto::aes::set_force_scalar;
use obfusmem::sim::rng::Zipf;
use obfusmem_bench::experiments::{fig4, Fig4Row};

const INSTRUCTIONS: u64 = 20_000;
const SEED: u64 = 0xF164;

fn bits(rows: &[Fig4Row]) -> Vec<(&'static str, u64, u64, u64)> {
    rows.iter()
        .map(|r| {
            (
                r.name,
                r.encrypt_only.to_bits(),
                r.obfusmem.to_bits(),
                r.obfusmem_auth.to_bits(),
            )
        })
        .collect()
}

fn on_fresh_thread(prefill: Option<(usize, f64)>) -> Vec<(&'static str, u64, u64, u64)> {
    std::thread::spawn(move || {
        let _held = prefill.map(|(n, s)| Zipf::new(n, s));
        bits(&fig4(INSTRUCTIONS, SEED))
    })
    .join()
    .unwrap()
}

#[test]
fn fig4_rows_are_bit_identical_whatever_the_zipf_memo_holds() {
    let first = bits(&fig4(INSTRUCTIONS, SEED));
    assert_eq!(first.len(), 15, "one row per Table 1 program");
    assert_eq!(bits(&fig4(INSTRUCTIONS, SEED)), first, "same-thread rerun");
    assert_eq!(on_fresh_thread(None), first, "fresh thread, empty memo");
    assert_eq!(
        on_fresh_thread(Some((1 << 20, 0.0))),
        first,
        "memo holding a table no program uses"
    );
    // Process-wide switch, so it stays inside this one test function.
    set_force_scalar(true);
    let scalar = bits(&fig4(INSTRUCTIONS, SEED));
    set_force_scalar(false);
    assert_eq!(scalar, first, "scalar AES forced");
}
