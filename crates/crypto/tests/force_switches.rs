//! The process-wide scalar force switch, exercised in this separate test
//! binary: flipping it inside the library's unit-test binary would
//! re-route tests running concurrently on other threads.

use obfusmem_crypto::aes::{set_force_scalar, Aes128};

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
