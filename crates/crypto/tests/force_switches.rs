//! The process-wide force switches, each exercised in this separate test
//! binary: flipping one inside the library's unit-test binary would
//! re-route tests running concurrently on other threads.

use obfusmem_crypto::aes::{set_force_scalar, Aes128};
use obfusmem_crypto::bitslice::{active_tier, detect_best, set_force_tier, supported, Tier};

#[test]
fn force_scalar_pins_new_instances() {
    set_force_scalar(true);
    let pinned = Aes128::new(&[1; 16]);
    set_force_scalar(false);
    let fast = Aes128::new(&[1; 16]);
    assert!(pinned.is_scalar());
    // Both must agree bit for bit regardless of path.
    let pt = [0xA7; 16];
    assert_eq!(pinned.encrypt_block(&pt), fast.encrypt_block(&pt));
}

#[test]
fn force_tier_rejects_unsupported_and_round_trips() {
    for tier in [Tier::Sliced2, Tier::HwAes] {
        assert_eq!(set_force_tier(Some(tier)), supported(tier));
        if supported(tier) {
            assert_eq!(active_tier(), tier);
        }
    }
    assert!(set_force_tier(None));
    assert_eq!(active_tier(), detect_best());
}
