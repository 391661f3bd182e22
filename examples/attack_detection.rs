//! Active attacks against the memory bus, and their detection (§3.5).
//!
//! Mounts the paper's tampering scenarios — modify, drop, replay, inject,
//! reorder, plus data corruption — against a live ObfusMem channel under
//! both MAC schemes and prints the detection matrix, demonstrating
//! Observation 4's trade-off: encrypt-and-MAC overlaps with encryption
//! but leaves *data* tampering to the Merkle tree the paper assumes (not
//! modelled here); encrypt-then-MAC catches it immediately at higher
//! latency.
//!
//! ```text
//! cargo run --release --example attack_detection
//! ```

use obfusmem::core::config::{MacScheme, ObfusMemConfig};
use obfusmem::sec::tamper::{run_campaign, ALL_TAMPERS};

fn main() {
    let attempts = 40;
    println!("{attempts} attempts per attack, fresh session per attempt\n");
    println!(
        "{:<16} {:>18} {:>18}",
        "attack", "encrypt-and-MAC", "encrypt-then-MAC"
    );

    for kind in ALL_TAMPERS {
        let and_mac = run_campaign(ObfusMemConfig::paper_default(), kind, attempts);
        let then_mac = run_campaign(
            ObfusMemConfig {
                mac_scheme: MacScheme::EncryptThenMac,
                ..ObfusMemConfig::paper_default()
            },
            kind,
            attempts,
        );
        println!(
            "{:<16} {:>17.0}% {:>17.0}%",
            format!("{kind:?}"),
            and_mac.detection_rate() * 100.0,
            then_mac.detection_rate() * 100.0
        );
    }

    println!(
        "\nNote the asymmetry: encrypt-then-MAC tags the ciphertext itself, so it\n\
         catches payload corruption immediately — but a verbatim replay carries a\n\
         valid tag and passes (decryption with the advanced counter garbles it,\n\
         deferring detection). Encrypt-and-MAC binds the counter into the tag, so\n\
         drops, replays, and reorders fail verification instantly (§3.5).\n"
    );

    println!(
        "FlipDataBit under encrypt-and-MAC is deferred detection, not a miss:\n\
         the paper's assumed Merkle tree (not modelled here) would catch the\n\
         corrupted block when it is next read on chip."
    );
}
